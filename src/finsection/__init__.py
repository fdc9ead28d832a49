"""Souslin schemes, outer measures, stopping-time calculus, and section
solvers, all exact on finite filtered probability spaces.

The package exports exactly the public names of its four layer modules,
souslin's first, then measure's, filtered's and section's.  It binds them
on first use (PEP 562): the first public name asked for, ``__all__`` and
``from finsection import *`` among them, imports all four layers and binds
every export.  So ``import finsection.cli``, and a CLI call that reads no
scheme, never compile ``souslin.py``, a quarter of the package.  A name
that starts with ``_`` raises ``AttributeError`` at once, loading nothing.
"""

import sys


def _bind() -> None:
    """Import the four layers and bind their exports and ``__all__``."""
    exports = {}
    for layer in ("souslin", "measure", "filtered", "section"):
        __import__(f"{__name__}.{layer}")
        module = sys.modules[f"{__name__}.{layer}"]
        exports.update((name, getattr(module, name)) for name in module.__all__)
    globals().update(exports, __all__=list(exports))


def __getattr__(name: str):
    if name == "__all__" or not name.startswith("_"):
        _bind()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    _bind()
    return sorted(globals())
