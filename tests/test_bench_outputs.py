"""The benchmark's CLI output, pinned byte for byte.

Every op of the three workloads of ``bench/workloads.py`` at seed 1 runs
through ``finsection.cli.main`` in-process on its generated document, and
the sha256 of its (exit code, stdout, stderr) must equal the digest stored
in ``tests/fixtures/bench_digests.json``.  A change that alters any report
the benchmark reads fails here.  Running this file as a script rewrites the
digests from the current code; do that only for a change meant to alter
the output, and say so in its description.
"""

import contextlib
import hashlib
import io
import json
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: op_digests(name, Path(tmp)) for name in sorted(workloads.WORKLOADS)}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
