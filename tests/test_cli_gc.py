"""``cli.main`` pauses the cyclic garbage collector for the length of a call
and leaves it as it found it, whatever way the call ends."""

import gc
import json
from pathlib import Path

import pytest

from finsection import cli
from finsection.cli import main

FIX_B = str(Path(__file__).parent / "fixtures" / "fix_b.json")


def write_document(tmp_path, change):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(change(json.loads(Path(FIX_B).read_text()))), encoding="utf-8")
    return str(path)


def bad_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{", encoding="utf-8")
    return str(path)


def unknown_atom_in_time(tmp_path):
    return write_document(tmp_path, lambda d: {**d, "times": {"tau": {**d["times"]["tau"], "w9": 1}}})


CALLS = [
    pytest.param(lambda tmp: ["section", "--kind", "predictable", "--set", "P", FIX_B], 0, id="exit-0"),
    pytest.param(lambda tmp: ["validate", bad_json(tmp)], 2, id="exit-2-bad-json"),
    pytest.param(lambda tmp: ["theta", "0", "1"], 2, id="exit-2-argparse"),
    pytest.param(lambda tmp: ["section", "--kind", "predictable", "--set", "P", unknown_atom_in_time(tmp)], 3, id="exit-3"),
    pytest.param(lambda tmp: ["section", "--kind", "predictable", "--set", "nope", FIX_B], 4, id="exit-4"),
]


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def restore_gc():
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", CALLS)
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, restore_gc, enabled, argv, code):
    (gc.enable if enabled else gc.disable)()
    assert exit_code(argv(tmp_path)) == code
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_main_restores_the_collector_when_a_call_raises(tmp_path, monkeypatch, restore_gc):
    def fail(raw):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "build_document", fail)
    gc.enable()
    with pytest.raises(RuntimeError, match="boom"):
        main(["validate", FIX_B])
    assert gc.isenabled()


@pytest.mark.parametrize(
    "argv", [["validate", FIX_B], ["souslin", "union", "--scheme", "A", "--scheme", "B", FIX_B]], ids=["validate", "union"]
)
def test_no_collection_runs_during_a_call(capsys, restore_gc, argv):
    # a threshold of 1 would collect at nearly every allocation of a container
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.set_threshold(1)
    gc.callbacks.append(record)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(record)
    assert code == 0
    assert starts == []
    capsys.readouterr()
