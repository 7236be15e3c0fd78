"""erlab: exact machinery for the optimisation problem behind counting
clique-free edge colourings (constructions, searches, and certificates)."""

from .core import (
    ColourPattern,
    ColourSeq,
    FeasibleTriple,
    QBreakdown,
    clone_status,
    is_feasible,
    q_value,
    triple_from_json,
    triple_to_json,
    validate_sequence,
)
from .logform import LogLinear

__version__ = "0.1.0"

__all__ = [
    "ColourPattern",
    "ColourSeq",
    "FeasibleTriple",
    "LogLinear",
    "QBreakdown",
    "clone_status",
    "is_feasible",
    "q_value",
    "triple_from_json",
    "triple_to_json",
    "validate_sequence",
    "__version__",
]
