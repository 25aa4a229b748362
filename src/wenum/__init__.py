"""Weight enumerators of linear codes and their GL2(C) stabilizers."""

from .codes import (
    LinearCode,
    WeightEnumerator,
    decompose_case_c,
    direct_sum,
    dual,
    enumerate_weights,
    full_space_enumerator,
    pair_sum_enumerator,
    zero_code_enumerator,
)
from .fields import GF, FiniteField
from .reedmuller import projective_reed_muller, reed_muller

__all__ = [
    "GF",
    "FiniteField",
    "LinearCode",
    "WeightEnumerator",
    "decompose_case_c",
    "direct_sum",
    "dual",
    "enumerate_weights",
    "full_space_enumerator",
    "pair_sum_enumerator",
    "projective_reed_muller",
    "reed_muller",
    "zero_code_enumerator",
]
