"""From-scratch ROBDD engine (JavaBDD substitute) and bit-vector helpers."""

from .atoms import (
    AtomBudgetExceeded,
    AtomRefinement,
    default_atom_budget,
    refine_partitions,
)
from .engine import AnalysisBudgetExceeded, Bdd, BddManager
from .sat import blocking_clause, complete_model, cube_count, extract_field_values
from .store import DictNodeStore, FlatNodeStore, resolve_store
from .vector import BitVector

__all__ = [
    "AnalysisBudgetExceeded",
    "AtomBudgetExceeded",
    "AtomRefinement",
    "Bdd",
    "BddManager",
    "BitVector",
    "DictNodeStore",
    "FlatNodeStore",
    "blocking_clause",
    "complete_model",
    "cube_count",
    "default_atom_budget",
    "extract_field_values",
    "refine_partitions",
    "resolve_store",
]
