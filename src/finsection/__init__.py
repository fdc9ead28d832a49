"""Souslin schemes, outer measures, stopping-time calculus, and section
solvers, all exact on finite filtered probability spaces.

The package exports exactly the public names of its four layer modules."""

from . import filtered, measure, section, souslin
from .filtered import *
from .measure import *
from .section import *
from .souslin import *

__all__ = souslin.__all__ + measure.__all__ + filtered.__all__ + section.__all__
