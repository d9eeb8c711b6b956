"""Minimum-cost mixed radix bases for multisets of positive integers, and
sorter-network compilation of Pseudo-Boolean constraints to CNF."""

from .cost import CostKind, comparator_count, cost_of
from .encoder import (CnfBuilder, PbConstraint, encode_constraint,
                      encode_instance, to_dimacs)
from .mixedradix import Multiset, digits_of, weights
from .opb import OpbParseError, load_instance
from .satcheck import Solver, SolverBudgetExceeded
from .search import SearchConfig, find_base

__version__ = "0.1.0"
