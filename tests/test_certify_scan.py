"""The bucketed certificate scan against the all-pairs scan it replaces."""

from itertools import permutations

import numpy as np
import pytest

from conftest import random_code, seeded
from wenum.algebra import classify, macwilliams
from wenum.codes import LinearCode, WeightEnumerator, enumerate_weights
from wenum.reedmuller import reed_muller
from wenum.roots import roots_of
from wenum.stabilizer import (
    ROOT_EPS,
    _orbit_keys,
    _scan_for_certificate,
    _tuples,
    rm2_closed_form,
)

V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def reference_scan(rootset):
    """Certificate and offending pair by comparing every ordered 4-tuple
    with every other one: tuples from itertools, a dict index, one full
    numpy row per tuple scanned.  Shares no code with the scan it checks."""
    centers = rootset.centers()
    d = len(centers)
    threshold = 120 * rootset.N**3 * rootset.eps
    tuples = list(permutations(range(d), 4))
    where = {t: i for i, t in enumerate(tuples)}
    z = np.array(centers)
    idx = np.array(tuples)
    p = (z[idx[:, 0]] - z[idx[:, 2]]) * (z[idx[:, 1]] - z[idx[:, 3]])
    q = (z[idx[:, 0]] - z[idx[:, 3]]) * (z[idx[:, 1]] - z[idx[:, 2]])
    first = None
    for prefix in permutations(range(d), 3):
        certified = []
        for i4 in (i for i in range(d) if i not in prefix):
            t = prefix + (i4,)
            row = where[t]
            diffs = np.abs(p[row] * q - q[row] * p)
            diffs[[where[tuple(t[i] for i in sigma)] for sigma in V4]] = np.inf
            best = int(np.argmin(diffs))
            if diffs[best] > threshold:
                z1, z2, z3, z4 = (centers[i] for i in t)
                lam = ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))
                certified.append((t, lam, float(diffs[best])))
                if len(certified) == 2:
                    return tuple(certified), None
            elif first is None:
                first = (t, tuples[best])
    return None, first


def _enumerators():
    """(name, W, q): catalog enumerators, seeded random codes with at
    least five distinct roots, binary codes holding the all-ones word
    (palindromic W, so no certificate exists), and all their duals."""
    out = [
        ("gleason", WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1)), 2),
        ("rm2_1_3", rm2_closed_form(3), 2),
        ("rm4_2_2", enumerate_weights(reed_muller(4, 2, 2)), 4),
        ("rm4_3_2", enumerate_weights(reed_muller(4, 3, 2)), 4),
    ]
    shapes = [(2, 12, 5), (3, 11, 4), (4, 10, 4), (5, 12, 4)] * 5
    shapes += [(2, 10, 4, "ones")] * 3
    for slot, (q, n, k, *ones) in enumerate(shapes):
        rng = seeded(f"scan:{slot}")
        while True:
            code = random_code(rng, q, n, k)
            if ones:
                gen = np.vstack([code.generator, np.ones(n, np.uint8)])
                code = LinearCode(code.field, gen)
            w = enumerate_weights(code)
            cls = classify(w, q)
            if not cls.infinite_stabilizer and cls.distinct_roots >= 5:
                break
        size = q**code.k
        out.append((f"rand{slot}_q{q}_{n}_{code.k}", w, q))
        out.append((f"rand{slot}_q{q}_{n}_{code.k}_dual", macwilliams(w, q, size), q))
    return [pytest.param(w, q, id=name) for name, w, q in out]


@pytest.mark.parametrize("w, q", _enumerators())
def test_scan_matches_all_pairs(w, q):
    rootset = roots_of(w, ROOT_EPS)
    found, offending = _scan_for_certificate(rootset)
    if found is not None:
        found = tuple((c.indices, c.cross_ratio, c.gap) for c in found)
    assert (found, offending) == reference_scan(rootset)


def test_tuples_and_orbit_keys():
    for d in range(4, 8):
        tuples = _tuples(d)
        assert [tuple(r) for r in tuples.tolist()] == list(permutations(range(d), 4))
        keys = _orbit_keys(tuples, d)
        for t, key in zip(tuples.tolist(), keys.tolist()):
            orbit = {tuple(t[i] for i in sigma) for sigma in V4}
            same = {
                tuple(s) for s, k in zip(tuples.tolist(), keys.tolist()) if k == key
            }
            assert same == orbit
