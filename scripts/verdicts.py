"""Print the root solve and both verbs' reports for a set of enumerators.

    python3 scripts/verdicts.py --seed 1 --count 300 > verdicts.jsonl

The set is the enumerators of `--count` seeded random codes (q <= 5,
n = 5..14) and of their duals, then a fixed list of named codes, without
repeats.  Each (q, W) gets one JSON line: `roots_of`'s eps and sweeps at
ROOT_EPS, and the `compute_stabilizer` and `certify_trivial` reports,
with every float written by `float.hex` and every error as its type and
message.  The program is imported from the `src` beside this script, so
running the script of two checkouts on the same arguments and comparing
the outputs with `diff` shows every report that differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wenum import GF, LinearCode, enumerate_weights, reed_muller  # noqa: E402
from wenum.algebra import macwilliams  # noqa: E402
from wenum.catalog import rm2_closed_form  # noqa: E402
from wenum.codes import WeightEnumerator  # noqa: E402
from wenum.errors import DomainError, WenumError  # noqa: E402
from wenum.roots import roots_of  # noqa: E402
from wenum.stabilizer import ROOT_EPS, certify_trivial, compute_stabilizer  # noqa: E402


def plain(value):
    """value as JSON data: dataclasses and dicts as dicts, enums by value,
    floats (and the parts of complex numbers) as float.hex."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def random_enumerators(seed, count):
    """(q, W) of `count` random codes and of their MacWilliams duals."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < 2 * count:
        q, n = int(rng.integers(2, 6)), int(rng.integers(5, 15))
        k = int(rng.integers(1, n))
        gen = rng.integers(0, q, size=(k, n), dtype=np.uint8)
        try:
            w = enumerate_weights(LinearCode(GF(q), gen, n))
        except DomainError:  # not of full rank
            continue
        out += [(q, w), (q, macwilliams(w, q, q**k))]
    return out


def named_enumerators():
    """(q, W) of the first-order binary Reed-Muller codes with m = 3..6 and
    their duals, RM_2(2,6), RM_2(3,6), RM_4(1,3), RM_7(2,2), and the dual
    of a [8,6] GF(5) code whose Newton polygon has three collinear points."""
    out = []
    for m in range(3, 7):
        w = rm2_closed_form(m)
        out += [(2, w), (2, macwilliams(w, 2, 2 ** (m + 1)))]
    for q, r, m in ((2, 2, 6), (2, 3, 6), (4, 1, 3), (7, 2, 2)):
        out.append((q, enumerate_weights(reed_muller(q, r, m))))
    out.append((5, WeightEnumerator((0, 8, 8, 4, 4, 0, 0, 0, 1))))
    return out


def outcome(call, *args):
    try:
        return plain(call(*args))
    except WenumError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def solve(w):
    rs = roots_of(w, ROOT_EPS)
    return {"eps": rs.eps, "sweeps": rs.sweeps}


def record(q, w):
    return {
        "q": q,
        "w": list(w.coeffs),
        "roots_of": outcome(solve, w),
        "compute_stabilizer": outcome(compute_stabilizer, w, q),
        "certify_trivial": outcome(certify_trivial, w, q),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=300,
                        help="random codes; each adds its enumerator and its dual's")
    args = parser.parse_args(argv)
    seen = set()
    for q, w in random_enumerators(args.seed, args.count) + named_enumerators():
        if (q, w.coeffs) not in seen:
            seen.add((q, w.coeffs))
            print(json.dumps(record(q, w)), flush=True)


if __name__ == "__main__":
    main()
