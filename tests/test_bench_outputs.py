"""The benchmark's CLI output, pinned byte for byte.

Every op of the three workloads of ``bench/workloads.py`` at seed 1 runs
through ``finsection.cli.main`` in-process on its generated document, and
the sha256 of its (exit code, stdout, stderr) must equal the digest stored
in ``tests/fixtures/bench_digests.json``.  ``golden_replay.py`` holds the
replay, and runs it in child processes under two hash seeds, which order
every frozenset of atom names.
"""

import pytest

import golden_replay
from finsection.cli import main


@pytest.mark.parametrize("name", sorted(golden_replay.workloads.WORKLOADS))
def test_benchmark_ops_give_the_pinned_output(name, tmp_path):
    assert golden_replay.check_digests(main, name, tmp_path) == []


def test_benchmark_ops_give_the_pinned_output_under_two_hash_seeds():
    """The digests replayed by ``golden_replay.py`` as a script in child
    processes: under this interpreter with hash seeds 0 and 1, and once
    under each other supported interpreter on PATH that starts."""
    assert golden_replay.replay_across_processes("digests") == []
