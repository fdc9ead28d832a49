"""The benchmark's CLI output, pinned byte for byte.

Every op of the three workloads of ``bench/workloads.py`` at seed 1 runs
through ``finsection.cli.main`` in-process on its generated document, and
the sha256 of its (exit code, stdout, stderr) must equal the digest stored
in ``tests/fixtures/bench_digests.json``.  A change that alters any report
the benchmark reads fails here, and so does one whose bytes follow the
string hash seed, which orders every frozenset of atom names: the digests
are also taken in two child processes under fixed, different seeds.
Running this file as a script rewrites the digests from the current code;
do that only for a change meant to alter the output, and say so in its
description.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finsection.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

DIGESTS = ROOT / "tests" / "fixtures" / "bench_digests.json"
SEED = 1


def op_digests(name: str, doc_dir: Path) -> dict:
    """Op label -> sha256 of its (exit code, stdout, stderr), in op order."""
    workload = workloads.WORKLOADS[name](SEED)
    for doc_name, doc in workload.documents():
        (doc_dir / f"{doc_name}.json").write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    out = {}
    for op in workload.ops:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*op.argv, str(doc_dir / f"{op.doc}.json")])
            except SystemExit as exc:
                code = exc.code
        payload = json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode()
        out[f"{op.op_id} {op.doc} {' '.join(op.argv)}"] = hashlib.sha256(payload).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_ops_give_the_pinned_output(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    got = op_digests(name, tmp_path)
    changed = [label for label in expected if got.get(label) != expected[label]]
    assert not changed, f"{len(changed)} of {len(expected)} ops changed output, first: {changed[:3]}"
    assert list(got) == list(expected)


CHILD = """import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import test_bench_outputs as t
doc_dir = pathlib.Path(sys.argv[2])
print(json.dumps({name: t.op_digests(name, doc_dir) for name in sorted(t.workloads.WORKLOADS)}))
"""


def test_benchmark_ops_give_the_pinned_output_under_two_hash_seeds(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    children = {}
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-c", CHILD, str(ROOT / "tests"), str(tmp_path / seed)]
        children[seed] = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    outputs = {seed: (*child.communicate(timeout=300), child.returncode) for seed, child in children.items()}
    for seed, (out, err, code) in outputs.items():
        assert code == 0, err
        got = json.loads(out)
        for name, digests in expected.items():
            changed = [label for label in digests if got[name].get(label) != digests[label]]
            assert not changed, f"PYTHONHASHSEED={seed} {name}: {len(changed)} of {len(digests)} ops changed output, first: {changed[:3]}"
            assert list(got[name]) == list(digests)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: op_digests(name, Path(tmp)) for name in sorted(workloads.WORKLOADS)}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
