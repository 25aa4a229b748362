"""The bucketed certificate scan against the all-pairs scans it replaces."""

import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from conftest import random_code, seeded
from wenum.algebra import classify, macwilliams
from wenum.catalog import get_entry, rm2_closed_form
from wenum.codes import LinearCode, WeightEnumerator, enumerate_weights
from wenum.errors import DomainError, PrecisionFailureError
from wenum.reedmuller import reed_muller
from wenum.roots import Root, RootSet, roots_of
from wenum.stabilizer import (
    ROOT_EPS,
    Verdict,
    _cross_parts,
    _cross_table,
    _orbit_rows,
    _reps,
    _scan_for_certificate,
    _screen,
    _walk,
    certify_trivial,
    solve_moebius,
)

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
    assert peak <= 16 * 2**20


def hand_rootset(centers, eps=1e-13):
    """Disks of radius eps around the given centers, in the given order."""
    roots = tuple(Root(center=z, radius=eps, multiplicity=1) for z in centers)
    return RootSet(roots=roots, eps=eps, N=float(math.ceil(max(map(abs, centers)))))


def random_centers(rng, d):
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]


def _table_cases():
    cases = []
    for d in range(5, 13):
        z = random_centers(seeded(f"table:{d}"), d)
        cases.append(pytest.param(z, id=f"random{d}"))
    prm = enumerate_weights(get_entry("prm5_3_2").code)
    for name, w in (("prm5_3_2", prm), ("rm2_1_5", rm2_closed_form(5))):
        cases.append(pytest.param(roots_of(w, ROOT_EPS).centers(), id=name))
    return cases


@pytest.mark.parametrize("centers", _table_cases())
def test_cross_table_matches_gathers(centers):
    # the gather-free table holds the very same doubles as gathering the
    # representatives' entries
    z = np.array(centers)
    got = _cross_table(z)
    want = _cross_parts(z[:, None] - z, *_reps(len(z)).T.astype(np.intp))
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.float64), w.view(np.float64))


def test_scan_needs_five_roots():
    # four generic roots: every tuple is critical, but no prefix has two
    # fourth entries, so no certificate can exist
    z = [0j, 1 + 0j, 3 + 1j, -2 + 5j]
    rootset = hand_rootset(z)
    pq = [((z[a] - z[c]) * (z[b] - z[x]), (z[a] - z[x]) * (z[b] - z[c]))
          for a, b, c, x in permutations(range(4)) if a == 0]
    gaps = [abs(p * s - q * r) for i, (p, q) in enumerate(pq)
            for j, (r, s) in enumerate(pq) if i != j]
    assert min(gaps) > 120 * rootset.N**3 * rootset.eps
    with pytest.raises(DomainError):
        _scan_for_certificate(rootset)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("blocked", [3, 4])
def test_scan_past_opening_rows(seed, blocked):
    # z8 = M(z_blocked), with M the Moebius map sending (z0, z1, z2) to
    # (z5, z6, z7): the tuple (0, 1, 2, blocked) shares its cross ratio
    # with (5, 6, 7, 8), so the opening rows cannot certify and the walk
    # decides
    centers = random_centers(seeded(f"opening:{seed}"), 8)
    (a, b), (c, d) = solve_moebius(centers[:3], centers[5:8])
    z = centers[blocked]
    rootset = hand_rootset(centers + [(a * z + b) / (c * z + d)])
    found, offending = _scan_for_certificate(rootset)
    assert found is not None and offending is None
    assert found[0].indices[:3] == (0, 1, 2)
    assert blocked not in (found[0].indices[3], found[1].indices[3])
    found = tuple((t.indices, t.cross_ratio, t.gap) for t in found)
    assert (found, offending) == reference_scan(rootset)


def as_tuples(certificate):
    return tuple((t.indices, t.cross_ratio, t.gap) for t in certificate)


def test_certify_trivial_from_opening_rows(monkeypatch):
    # every certify target of the catalog is certified by (0, 1, 2, 3) and
    # (0, 1, 2, 4) alone: neither the screen nor the table is built
    def unused(*args):
        raise AssertionError("built before the opening rows decided")

    cases = []
    for name in ("rm4_2_2", "rm4_3_2", "rm5_2_2", "prm5_3_2"):
        code = get_entry(name).code
        w = enumerate_weights(code)
        cases.append((w, code.q, reference_scan(roots_of(w, ROOT_EPS))))
    monkeypatch.setattr("wenum.stabilizer._screen", unused)
    monkeypatch.setattr("wenum.stabilizer._cross_table", unused)
    for w, q, want in cases:
        rep = certify_trivial(w, q)
        assert rep.verdict is Verdict.TRIVIAL_CERTIFIED
        assert (as_tuples(rep.certificate), None) == want


def test_certify_trivial_memory_prm5_3_2():
    # the streamed opening rows keep one first index's P and Q at a time
    w = enumerate_weights(get_entry("prm5_3_2").code)
    tracemalloc.start()
    try:
        rep = certify_trivial(w, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("screen_fails", [False, True])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("blocked", [3, 4])
def test_certify_trivial_past_opening_rows(monkeypatch, seed, blocked, screen_fails):
    # test_scan_past_opening_rows' root sets through the verb: the opening
    # rows fail, the screen (run or failing) gives no witness, and the
    # walk returns the all-pairs certificate
    centers = random_centers(seeded(f"opening:{seed}"), 8)
    (a, b), (c, d) = solve_moebius(centers[:3], centers[5:8])
    z = centers[blocked]
    rootset = hand_rootset(centers + [(a * z + b) / (c * z + d)])
    screens, walks = [], []

    def counted_screen(rs):
        screens.append(rs)
        if screen_fails:
            raise PrecisionFailureError("screen cannot tell images apart")
        return _screen(rs)

    def counted_walk(rs):
        walks.append(rs)
        return _walk(rs)

    monkeypatch.setattr("wenum.stabilizer.roots_of", lambda w, eps: rootset)
    monkeypatch.setattr("wenum.stabilizer._screen", counted_screen)
    monkeypatch.setattr("wenum.stabilizer._walk", counted_walk)
    # any enumerator with at least five distinct roots passes classify; its
    # roots are replaced by the hand-built ones
    rep = certify_trivial(enumerate_weights(reed_muller(4, 2, 2)), 4)
    assert screens == [rootset] and walks == [rootset]
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.witness is None
    assert rep.certificate[0].indices[:3] == (0, 1, 2)
    assert (as_tuples(rep.certificate), None) == reference_scan(rootset)
