"""The opening-pair certificate and certify_trivial against all-pairs
scans that share no code with them."""

import functools
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from conftest import certify_enumerators, random_code, seeded
from wenum.algebra import macwilliams
from wenum.catalog import get_entry, rm2_closed_form
from wenum.codes import enumerate_weights
from wenum.errors import DomainError, PrecisionFailureError
from wenum.invariants import fixed_points
from wenum.reedmuller import reed_muller
from wenum.roots import Root, RootSet, roots_of
from wenum.stabilizer import (
    Verdict,
    _cross_parts,
    _first_block,
    _least_gaps,
    _opening_pair,
    _screen,
    _windows,
    certify_trivial,
    solve_moebius,
)

V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def v4_orbit(t):
    return {tuple(t[i] for i in sigma) for sigma in V4}


def oracle_reps(d):
    """Each V4 orbit's member that starts with its smallest index, for the
    4-tuples of distinct indices below d, in lexicographic order."""
    return [t for t in permutations(range(d), 4) if t[0] == min(t)]


def reference_scan(rootset):
    """The certificate, or None, by comparing every ordered 4-tuple
    with every V4 orbit outside its own, both measured at the orbit's
    member that starts with its smallest index: tuples from itertools, a
    dict index, one full numpy row per tuple scanned.  Shares no code with
    the scan it checks."""
    centers = rootset.centers()
    d = len(centers)
    threshold = 120 * rootset.N**3 * rootset.eps
    reps = oracle_reps(d)
    where = {t: i for i, t in enumerate(reps)}
    z = np.array(centers)
    idx = np.array(reps)
    p = (z[idx[:, 0]] - z[idx[:, 2]]) * (z[idx[:, 1]] - z[idx[:, 3]])
    q = (z[idx[:, 0]] - z[idx[:, 3]]) * (z[idx[:, 1]] - z[idx[:, 2]])
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
                    return tuple(certified)
    return None


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
                    return tuple(certified)
    return None


OPENING = ((0, 1, 2, 3), (0, 1, 2, 4))


@functools.cache
def scans(w):
    """W's roots and both all-pairs scans of them, computed once per W."""
    rootset = roots_of(w)
    return rootset, reference_scan(rootset), members_scan(rootset)


def as_tuples(certificate):
    return tuple((t.indices, t.cross_ratio, t.gap) for t in certificate)


@pytest.mark.parametrize("w, q", certify_enumerators())
def test_opening_pair_matches_all_pairs(w, q):
    # the opening pair is the all-pairs certificate exactly when that
    # certificate is (0, 1, 2, 3) and (0, 1, 2, 4), and None otherwise
    rootset, want, members = scans(w)
    found = _opening_pair(rootset)
    if want is not None and tuple(t for t, _, _ in want) == OPENING:
        assert as_tuples(found) == want
        # measured at every member, the tuples and gaps are the same
        for (t, lam, gap), (want_t, want_lam, want_gap) in zip(as_tuples(found), members):
            assert (t, lam) == (want_t, want_lam)
            assert gap == pytest.approx(want_gap, rel=1e-12)
    else:
        assert found is None


@pytest.mark.parametrize("w, q", certify_enumerators())
def test_scan_matches_all_pairs(w, q):
    # the verb loses no certificate that the all-pairs scan finds: it
    # reports the paper's certificate when that is the opening pair, and
    # three fixed points otherwise
    rootset, want, _ = scans(w)
    rep = certify_trivial(w, q)
    if want is not None:
        assert rep.verdict is Verdict.TRIVIAL_CERTIFIED
    if rep.certificate is not None:
        assert as_tuples(rep.certificate) == want
        assert rep.fixed_points is None
    elif rep.verdict is Verdict.TRIVIAL_CERTIFIED:
        assert rep.fixed_points == fixed_points(w.coeffs) is not None
    assert rep.eps == rootset.eps


def test_scan_no_certificate_d32():
    # rm2_1_5: a nontrivial group, so (0, 1, 2, 3) meets a competitor, the
    # opening rows refuse, and the verb gives a screen witness
    rootset = roots_of(rm2_closed_form(5))
    assert len(rootset.roots) == 32
    threshold = 120 * rootset.N**3 * rootset.eps
    z = rootset.centers()
    t, s = (0, 1, 2, 3), (28, 29, 30, 31)
    p_t = (z[t[0]] - z[t[2]]) * (z[t[1]] - z[t[3]])
    q_t = (z[t[0]] - z[t[3]]) * (z[t[1]] - z[t[2]])
    p_s = (z[s[0]] - z[s[2]]) * (z[s[1]] - z[s[3]])
    q_s = (z[s[0]] - z[s[3]]) * (z[s[1]] - z[s[2]])
    assert abs(p_t * q_s - q_t * p_s) <= threshold
    assert _least_gaps(np.array(z), (0,), threshold) is None
    assert _opening_pair(rootset) is None
    rep = certify_trivial(rm2_closed_form(5), 2)
    assert rep.verdict is Verdict.INCONCLUSIVE and rep.witness is not None
    assert rep.fixed_points is None and rep.certificate is None


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
        cases.append(pytest.param(roots_of(w).centers(), id=name))
    return cases


@pytest.mark.parametrize("centers", _table_cases())
def test_cross_table_matches_gathers(centers):
    # the gather-free first block holds the very same doubles as gathering
    # the entries of the representatives that start with 0
    z = np.array(centers)
    got = _first_block(z[:, None] - z)
    reps = [t for t in oracle_reps(len(z)) if t[0] == 0]
    want = _cross_parts(z[:, None] - z, *np.array(reps).T)
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
        _opening_pair(rootset)


def past_opening_rootset(seed, blocked):
    """Nine hand-built roots with z8 = M(z_blocked), M the Moebius map
    sending (z0, z1, z2) to (z5, z6, z7): the tuple (0, 1, 2, blocked)
    shares its cross ratio with (5, 6, 7, 8)."""
    centers = random_centers(seeded(f"opening:{seed}"), 8)
    (a, b), (c, d) = solve_moebius(centers[:3], centers[5:8])
    z = centers[blocked]
    return hand_rootset(centers + [(a * z + b) / (c * z + d)])


def oracle_row_minimum(centers, t, reps=None):
    """The smallest gap of the representative t against every other
    representative (of `reps`, when given), from gathered entries."""
    reps = reps or oracle_reps(len(centers))
    z, idx = np.array(centers), np.array(reps)
    p = (z[idx[:, 0]] - z[idx[:, 2]]) * (z[idx[:, 1]] - z[idx[:, 3]])
    q = (z[idx[:, 0]] - z[idx[:, 3]]) * (z[idx[:, 1]] - z[idx[:, 2]])
    row = reps.index(t)
    gaps = np.abs(p[row] * q - q[row] * p)
    gaps[row] = np.inf
    return float(gaps.min())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("blocked", [3, 4])
def test_scan_past_opening_rows(seed, blocked):
    # the blocked opening row meets (5, 6, 7, 8), so the opening rows
    # refuse; the other row gives the all-pairs gap; and the all-pairs
    # scan certifies past the opening rows
    rootset = past_opening_rootset(seed, blocked)
    centers = rootset.centers()
    threshold = 120 * rootset.N**3 * rootset.eps
    assert _opening_pair(rootset) is None
    z = np.array(centers)
    # (0, 1, 2, x) is row x - 3 of the representatives
    assert _least_gaps(z, (blocked - 3,), threshold) is None
    other = 7 - blocked
    want = oracle_row_minimum(centers, (0, 1, 2, other))
    assert want > threshold
    assert _least_gaps(z, (other - 3,), threshold) == [want]
    found = reference_scan(rootset)
    assert found[0][0][:3] == (0, 1, 2)
    assert blocked not in (found[0][0][3], found[1][0][3])


def streamed_row_minima(centers, rows, threshold):
    """The smallest |P_r Q_s - Q_r P_s| of the representatives r at `rows`
    (those that start with 0, in lexicographic order) over every other
    representative s, as a list; None as soon as a block's minimum is not
    above `threshold`.  Every representative is compared, one first index
    a at a time, each block one broadcast product over the triples
    (b, c, x) of indices above a; P_r and Q_r are elements of the first
    block's arrays.  The streamed scan, written out whole, sharing no code
    with the windowed pass it checks."""
    z = np.array(centers)
    d = len(z)
    diff = z[:, None] - z
    heads, found = None, [[] for _ in rows]
    for a in range(d - 3):
        ne = np.arange(d - 1 - a)[:, None] != np.arange(d - 1 - a)
        keep = (ne[:, :, None] & ne[:, None, :] & ne).reshape(-1)
        rest, head = diff[a + 1 :, a + 1 :], diff[a, a + 1 :]
        p = (head[None, :, None] * rest[:, None, :]).reshape(-1)[keep]
        q = (head[None, None, :] * rest[:, :, None]).reshape(-1)[keep]
        if heads is None:
            heads = [(p[r], q[r]) for r in rows]
        for (pr, qr), r, out in zip(heads, rows, found):
            gaps = np.abs(pr * q - qr * p)
            if a == 0:
                gaps[r] = np.inf  # the row's own cell
            out.append(gaps.min())
            if not out[-1] > threshold:
                return None
    return [float(min(out)) for out in found]


def first_block_minimum(centers, t):
    """oracle_row_minimum over the representatives that start with 0."""
    reps = [(0,) + s for s in permutations(range(1, len(centers)), 3)]
    return oracle_row_minimum(centers, t, reps)


def hexes(gaps):
    return None if gaps is None else [float.hex(g) for g in gaps]


def streamed_matches(rootset):
    """_opening_pair's gaps against the streamed scan's, bit for bit;
    returns the streamed gaps."""
    threshold = 120 * rootset.N**3 * rootset.eps
    want = streamed_row_minima(rootset.centers(), (0, 1), threshold)
    found = _opening_pair(rootset)
    assert hexes(found and [t.gap for t in found]) == hexes(want)
    return want


EPS = (1e-15, 1e-9, 1e-5)


def streamed_family(family):
    """Seeded root sets of one family, each with d >= 5 distinct roots."""
    if family == "codes":  # q <= 5, n = 8..15, and the duals
        for slot in range(40):
            rng = seeded(f"streamed:{slot}")
            q, n = rng.choice((2, 3, 4, 5)), rng.randint(8, 15)
            code = random_code(rng, q, n, rng.randint(2, n - 2))
            w = enumerate_weights(code)
            for v in (w, macwilliams(w, q, q**code.k)):
                try:
                    rootset = roots_of(v)
                except PrecisionFailureError:
                    continue
                if len(rootset.roots) >= 5:
                    yield rootset
                    yield from (hand_rootset(rootset.centers(), eps) for eps in EPS)
        return
    for seed in range(150):
        rng, d, eps = seeded(f"streamed-{family}:{seed}"), 5 + seed % 15, EPS[seed % 3]
        if family == "normal":
            z = random_centers(rng, d)
        elif family == "polygon":
            jitter = [complex(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3)) for _ in range(d)]
            z = [complex(np.exp(2j * np.pi * i / d)) + j for i, j in enumerate(jitter)]
        else:  # conjugate pairs, each tied in real part, and a real root at odd d
            upper = [complex(rng.gauss(0, 1), abs(rng.gauss(0, 1))) for _ in range(d // 2)]
            z = upper + [u.conjugate() for u in upper] + [complex(rng.gauss(0, 1))] * (d % 2)
            rng.shuffle(z)
        yield hand_rootset(z, eps)


@pytest.mark.parametrize("family", ["codes", "normal", "polygon", "conjugate"])
def test_opening_pair_matches_streamed_rows(family):
    # the windowed pass gives the streamed scan's gaps bit for bit, or
    # None with it; past the first block, some minima are set by a
    # representative with a >= 1
    outcomes = {"none": 0, "first": 0, "past": 0}
    for rootset in streamed_family(family):
        want = streamed_matches(rootset)
        if want is None:
            outcomes["none"] += 1
            continue
        first = first_block_minimum(rootset.centers(), (0, 1, 2, 3))
        outcomes["past" if want[0] < first else "first"] += 1
    assert sum(outcomes.values()) >= 125
    assert min(outcomes.values()) > 0, outcomes


def test_opening_pair_competitor_past_first_block_d5():
    # z4 puts [z1, z2, z3, z4] within 1e-6 of [z0, z1, z2, z3]: row 0's
    # nearest competitor is (1, 2, 3, 4), the only representative with
    # a = 1 besides its V4 images, so the first block alone misses it
    z0, z1, z2, z3 = 0.3 + 0.1j, 1.7 - 0.4j, -0.8 + 1.1j, 0.2 - 1.5j
    mu = ((z0 - z2) * (z1 - z3)) / ((z0 - z3) * (z1 - z2)) * (1 + 1e-6)
    z4 = (mu * z1 * (z2 - z3) - z2 * (z1 - z3)) / (mu * (z2 - z3) - (z1 - z3))
    rootset = hand_rootset([z0, z1, z2, z3, z4], eps=1e-15)
    centers = rootset.centers()
    want = streamed_matches(rootset)
    assert want is not None
    assert want[0] < first_block_minimum(centers, (0, 1, 2, 3))
    assert want[0] == oracle_row_minimum(centers, (0, 1, 2, 3))


def test_opening_pair_at_a_pole():
    # z -> w0 + c / (z - 4) sends roots 0, 1, 2 (at 0, 2, 3) to roots 4, 5,
    # 6 and root 3 to infinity: against (0, 1, 2, 3) the triple (4, 5, 6)
    # has beta = 0, so its window takes every root, and its gap is the
    # constant 3 c^2 / 4 for every fourth root x, the row's smallest; x = 0
    # gives the V4 image (0, 6, 5, 4) in the first block, with that gap
    w0, c = 10 + 10j, 1 / 64
    z = [0j, 2 + 0j, 3 + 0j, 4 + 0j, w0 - c / 4, w0 - c / 2, w0 - c, 5 + 1j, -3 + 2j]
    pr, qr = (z[0] - z[2]) * (z[1] - z[3]), (z[0] - z[3]) * (z[1] - z[2])
    assert qr * (z[4] - z[6]) - pr * (z[5] - z[6]) == 0
    ac, bc, za, zb = (np.array([v]) for v in (z[4] - z[6], z[5] - z[6], z[4], z[5]))
    assert _windows(pr, qr, 1.0, ac, bc, za, zb)[2].all()
    want = streamed_matches(hand_rootset(z, eps=1e-15))
    assert want is not None
    assert want[0] == oracle_row_minimum(z, (0, 1, 2, 3)) == pytest.approx(0.75 * c**2)


def test_opening_pair_memory_within_streamed():
    # the windowed pass frees the first block before its windows, so its
    # peak stays within the streamed scan's, whose peak is that block
    rootset = roots_of(enumerate_weights(get_entry("prm5_3_2").code))
    threshold = 120 * rootset.N**3 * rootset.eps

    def peak(call):
        tracemalloc.start()
        try:
            assert call() is not None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: streamed_row_minima(rootset.centers(), (0, 1), threshold))
    assert peak(lambda: _opening_pair(rootset)) <= streamed


def test_certify_trivial_from_opening_rows(monkeypatch):
    # every certify target of the catalog is certified by (0, 1, 2, 3) and
    # (0, 1, 2, 4) alone: neither the screen nor the fixed points run
    def unused(*args):
        raise AssertionError("ran before the opening rows decided")

    cases = []
    for name in ("rm4_2_2", "rm4_3_2", "rm5_2_2", "prm5_3_2"):
        code = get_entry(name).code
        w = enumerate_weights(code)
        cases.append((w, code.q, reference_scan(roots_of(w))))
    monkeypatch.setattr("wenum.stabilizer._screen", unused)
    monkeypatch.setattr("wenum.stabilizer.fixed_points", unused)
    for w, q, want in cases:
        rep = certify_trivial(w, q)
        assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.fixed_points is None
        assert as_tuples(rep.certificate) == want


def test_certify_trivial_memory_prm5_3_2():
    # the opening pass holds P and Q of one block, the representatives
    # that start with 0, and frees them before its windows
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
    # test_scan_past_opening_rows' root sets through the verb, on rm4_2_2's
    # W: the opening rows fail, the screen (run or failing) gives no
    # witness, and W's fixed points prove the group trivial
    rootset = past_opening_rootset(seed, blocked)
    w = enumerate_weights(reed_muller(4, 2, 2))
    screens, proofs = [], []

    def counted_screen(rs):
        screens.append(rs)
        if screen_fails:
            raise PrecisionFailureError("screen cannot tell images apart")
        return _screen(rs)

    def counted_fixed_points(coeffs):
        proofs.append(coeffs)
        return fixed_points(coeffs)

    monkeypatch.setattr("wenum.stabilizer.roots_of", lambda w: rootset)
    monkeypatch.setattr("wenum.stabilizer._screen", counted_screen)
    monkeypatch.setattr("wenum.stabilizer.fixed_points", counted_fixed_points)
    # W's roots are replaced by the hand-built ones
    rep = certify_trivial(w, 4)
    assert screens == [rootset] and proofs == [w.coeffs]
    assert rep.verdict is Verdict.TRIVIAL_CERTIFIED and rep.witness is None
    assert rep.certificate is None and rep.fixed_points == (2, 3, 5)
    assert rep.eps == rootset.eps and rep.size == w.n
