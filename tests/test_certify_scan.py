"""The bucketed certificate scan against the all-pairs scans it replaces."""

import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from conftest import random_code, seeded
from wenum.algebra import classify, macwilliams
from wenum.catalog import get_entry, rm2_closed_form
from wenum.codes import LinearCode, WeightEnumerator, enumerate_weights
from wenum.reedmuller import reed_muller
from wenum.roots import roots_of
from wenum.stabilizer import ROOT_EPS, _orbit_rows, _reps, _scan_for_certificate

V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def v4_orbit(t):
    return {tuple(t[i] for i in sigma) for sigma in V4}


def reference_scan(rootset):
    """Certificate and offending pair by comparing every ordered 4-tuple
    with every V4 orbit outside its own, both measured at the orbit's
    member that starts with its smallest index: tuples from itertools, a
    dict index, one full numpy row per tuple scanned.  Shares no code with
    the scan it checks."""
    centers = rootset.centers()
    d = len(centers)
    threshold = 120 * rootset.N**3 * rootset.eps
    reps = [t for t in permutations(range(d), 4) if t[0] == min(t)]
    where = {t: i for i, t in enumerate(reps)}
    z = np.array(centers)
    idx = np.array(reps)
    p = (z[idx[:, 0]] - z[idx[:, 2]]) * (z[idx[:, 1]] - z[idx[:, 3]])
    q = (z[idx[:, 0]] - z[idx[:, 3]]) * (z[idx[:, 1]] - z[idx[:, 2]])
    first = None
    for prefix in permutations(range(d), 3):
        certified = []
        for i4 in (i for i in range(d) if i not in prefix):
            t = prefix + (i4,)
            row = where[min(v4_orbit(t))]
            diffs = np.abs(p[row] * q - q[row] * p)
            diffs[row] = np.inf
            best = int(np.argmin(diffs))
            if diffs[best] > threshold:
                z1, z2, z3, z4 = (centers[i] for i in t)
                lam = ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))
                certified.append((t, lam, float(diffs[best])))
                if len(certified) == 2:
                    return tuple(certified), None
            elif first is None:
                first = (t, reps[best])
    return None, first


def members_scan(rootset):
    """As reference_scan, but each tuple is measured at itself against
    every ordered 4-tuple outside its V4 orbit."""
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
    # measured at every member, the verdict and tuples are the same
    want, want_offending = members_scan(rootset)
    assert (found is None) == (want is None)
    if found is not None:
        for (t, lam, gap), (want_t, want_lam, want_gap) in zip(found, want):
            assert (t, lam) == (want_t, want_lam)
            assert gap == pytest.approx(want_gap, rel=1e-12)
    else:
        assert offending[0] == want_offending[0]
        assert offending[1] in v4_orbit(want_offending[1])


def test_tuples_and_orbit_keys():
    # _orbit_rows gives every ordered 4-tuple the row of its V4 orbit in
    # _reps, and every tuple with a repeated index -1
    for d in range(4, 9):
        reps = [tuple(r) for r in _reps(d).tolist()]
        tuples = list(product(range(d), repeat=4))
        rows = _orbit_rows(d, *np.array(tuples).T).tolist()
        for t, row in zip(tuples, rows):
            if len(set(t)) == 4:
                assert reps[row] in v4_orbit(t)
            else:
                assert row == -1


def test_reps_one_per_orbit():
    for d in range(4, 9):
        reps = [tuple(r) for r in _reps(d).tolist()]
        orbits = {frozenset(v4_orbit(t)) for t in permutations(range(d), 4)}
        assert {frozenset(v4_orbit(t)) for t in reps} == orbits
        assert len(reps) == len(orbits)
        assert all(t[0] == min(t) for t in reps)
        assert reps == sorted(reps)


def rep_of_table(d):
    """The d^4 table the closed-form rows replace: each representative's
    row scattered to the four members of its orbit, -1 elsewhere."""
    reps = _reps(d)
    rep_of = np.full((d,) * 4, -1, dtype=np.int32)
    for g in V4:
        rep_of[tuple(reps[:, g].T)] = np.arange(len(reps), dtype=np.int32)
    return rep_of


@pytest.mark.parametrize("d", [9, 31])
def test_orbit_rows_match_table(d):
    assert (_orbit_rows(d, *np.indices((d,) * 4)) == rep_of_table(d)).all()


def test_scan_no_certificate_d32():
    # rm2_1_5: a nontrivial group, so every tuple meets a competitor
    rootset = roots_of(rm2_closed_form(5), ROOT_EPS)
    assert len(rootset.roots) == 32
    found, (t, s) = _scan_for_certificate(rootset)
    assert found is None and (t, s) == ((0, 1, 2, 3), (28, 29, 30, 31))
    z = rootset.centers()
    p_t = (z[t[0]] - z[t[2]]) * (z[t[1]] - z[t[3]])
    q_t = (z[t[0]] - z[t[3]]) * (z[t[1]] - z[t[2]])
    p_s = (z[s[0]] - z[s[2]]) * (z[s[1]] - z[s[3]])
    q_s = (z[s[0]] - z[s[3]]) * (z[s[1]] - z[s[2]])
    assert abs(p_t * q_s - q_t * p_s) <= 120 * rootset.N**3 * rootset.eps


def test_scan_memory_prm5_3_2():
    # d = 31: one row per V4 orbit keeps the scan's arrays at 188,790 rows
    w = enumerate_weights(get_entry("prm5_3_2").code)
    rootset = roots_of(w, ROOT_EPS)
    assert len(rootset.roots) == 31
    tracemalloc.start()
    try:
        found, _ = _scan_for_certificate(rootset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak <= 40 * 2**20
