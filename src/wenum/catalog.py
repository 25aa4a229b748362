"""Built-in fixtures: the five known generators of the binary
(x^2+1)^(n/2) semigroup, the degree-8 self-dual-doubly-even polynomial,
the Reed-Muller constructions used by the certification suite, and the
closed-form enumerator of the first-order binary Reed-Muller codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .codes import LinearCode, WeightEnumerator, pair_sum_enumerator
from .fields import GF
from .reedmuller import projective_reed_muller, reed_muller

X2_ROWS = [
    [1, 0, 0, 1, 1, 1],
    [0, 1, 0, 1, 1, 1],
    [0, 0, 1, 1, 1, 1],
]

X3_BLOCK = [
    [1, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 1, 1],
    [1, 0, 0, 1, 1, 1, 1],
    [1, 0, 0, 1, 1, 1, 1],
    [1, 0, 0, 0, 0, 0, 0],
]

X4_BLOCK = [
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 0, 1, 0],
    [1, 1, 1, 1, 0, 1, 0],
    [1, 1, 1, 1, 1, 1, 1],
]

X5_BLOCK = [
    [1, 0, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [1, 1, 1, 0, 1, 0, 1],
    [1, 1, 1, 0, 1, 0, 1],
    [1, 1, 1, 1, 1, 1, 1],
]


def rm2_closed_form(m: int) -> WeightEnumerator:
    """x^(2^m) + 2(2^m - 1) x^(2^(m-1)) y^(2^(m-1)) + y^(2^m), the weight
    enumerator of the evaluation code of affine-linear binary forms."""
    n = 2**m
    cs = [0] * (n + 1)
    cs[0] = 1
    cs[n] = 1
    cs[n // 2] = 2 * (2**m - 1)
    return WeightEnumerator(cs)


def _identity_block(block):
    block = np.array(block, dtype=np.uint8)
    return np.hstack([np.eye(block.shape[0], dtype=np.uint8), block])


@dataclass(frozen=True)
class CatalogEntry:
    """A named fixture: a code and/or a stated weight enumerator."""

    name: str
    description: str
    code: LinearCode | None = None
    expected: WeightEnumerator | None = None  # stated in the source material


def _entries():
    f2 = GF(2)
    out = [
        CatalogEntry(
            "X1",
            "[2,1] repetition pair, the minimal (x^2+1)^(n/2) generator",
            code=LinearCode(f2, [[1, 1]]),
            expected=pair_sum_enumerator(2, 2),
        ),
        CatalogEntry(
            "X2",
            "[6,3] formally self-dual (not self-dual) code",
            code=LinearCode(f2, X2_ROWS),
            expected=pair_sum_enumerator(6, 2),
        ),
    ]
    for name, block in (("X3", X3_BLOCK), ("X4", X4_BLOCK), ("X5", X5_BLOCK)):
        out.append(
            CatalogEntry(
                name,
                "[14,7] generator of the (x^2+1)^(n/2) semigroup",
                code=LinearCode(f2, _identity_block(block)),
                expected=pair_sum_enumerator(14, 2),
            )
        )
    out.append(
        CatalogEntry(
            "gleason",
            "x^8 + 14x^4y^4 + y^8, enumerator of the [8,4] self-dual code",
            expected=WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1)),
        )
    )
    out.append(
        CatalogEntry(
            "rm2_1_3",
            "first-order length-8 binary Reed-Muller code",
            code=reed_muller(2, 1, 3),
            expected=rm2_closed_form(3),
        )
    )
    out.append(
        CatalogEntry(
            "rm2_1_4",
            "first-order length-16 binary Reed-Muller code",
            code=reed_muller(2, 1, 4),
            expected=rm2_closed_form(4),
        )
    )
    for name, q, r, m in (
        ("rm4_2_2", 4, 2, 2),
        ("rm4_3_2", 4, 3, 2),
        ("rm5_2_2", 5, 2, 2),
    ):
        out.append(
            CatalogEntry(
                name,
                f"affine Reed-Muller code RM_{q}({r},{m}), trivial-stabilizer target",
                code=reed_muller(q, r, m),
            )
        )
    out.append(
        CatalogEntry(
            "prm5_3_2",
            "projective Reed-Muller code PRM_5(3,2), trivial-stabilizer target",
            code=projective_reed_muller(5, 3, 2),
        )
    )
    return out


@cache
def catalog():
    """All entries, fixed order, built once."""
    return tuple(_entries())


def get_entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError(name)
