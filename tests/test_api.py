"""Guards on the public names: the package exports exactly its four layer
modules' ``__all__`` lists, the README's library overview names each of
them in its module's row and nothing else there, and the benchmark's span
tracer still finds every callable it wraps (it raises ValueError on a name
that is gone, which would break ``bench/run.py --trace 1``)."""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import run  # noqa: E402
import spans  # noqa: E402

import finsection  # noqa: E402
from finsection import cli, filtered, measure, section, souslin  # noqa: E402,F401  (cli loads every layer the tracer reads)

LAYERS = (souslin, measure, filtered, section)


def test_package_exports_exactly_the_layer_names():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert finsection.__all__ == names
    assert len(set(names)) == len(names)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(finsection, name) is getattr(layer, name), name


def test_readme_overview_row_names_every_layer_export():
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if match := re.match(r"\| `(finsection\.\w+)` \|", line):
            rows[match[1]] = line
    for layer in LAYERS:
        row = rows[layer.__name__]
        missing = [name for name in layer.__all__ if not re.search(rf"\b{name}\b", row)]
        assert not missing, f"{layer.__name__} row misses {missing}"
        # and the row names nothing else: each backticked name past the module's own
        extra = [name for name in re.findall(r"`(\w+)`", row.split("|")[2]) if name not in layer.__all__]
        assert not extra, f"{layer.__name__} row names {extra}, which it does not export"


def test_bench_tracer_finds_every_traced_callable():
    tracer = spans.Tracer(run.TRACED)
    assert set(tracer.names) >= run.TRACED
