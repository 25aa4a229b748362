"""Seeded inputs for the three workloads.

Every random input comes from `numpy.random.default_rng((seed mod 2^64, slot))`,
so one seed always gives the same inputs.  Random codes have a fixed
shape (q, n, k) per slot: the work of a Gray walk depends only on q^k
and n, and that of the stabilizer and the certificate mainly on the
number of distinct roots, so fixing the shape (and asking for n
distinct roots) keeps the cost of a run independent of the seed.  Codes
are resampled only on input properties: full rank, and n distinct roots
where the stabilizer or the certificate consumes the enumerator.

A target is one verb on one input.  `call` is the timed part; it looks
the verb up on its module object at call time, so that the traced pass
runs through the timing wrappers.  `check(summary, firsts)` gets the
summary of one result, made outside the timed region, and the first
summary of every target of the pass; it returns None or the reason the
answer is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

# (q, n, k); slots 0 and 2 have k > n - k, slots 1 and 3 have k < n - k
ENUM_RANDOM = ((2, 28, 20), (3, 30, 13), (4, 17, 10), (5, 22, 9))
STAB_RANDOM = ((3, 12, 5), (4, 14, 5))
CERT_RANDOM = ((3, 11, 4), (5, 12, 4))
PAIR_SUM = (3, 28)  # (q, n) of the decompose_case_c target

# order of the full GL2 stabilizer of each catalog target
KNOWN_ORDER = {
    "gleason": 192,
    "rm2_1_4": 256,
    "rm4_2_2": 16,
    "rm5_2_2": 25,
    "prm5_3_2": 31,
    "rm2_1_5": 1024,
    "rm2_1_5_dual": 1024,
    "rm2_1_6_dual": 4096,
}
STABILIZER = ("gleason", "rm2_1_4", "rm4_2_2", "rm5_2_2", "prm5_3_2",
              "rm2_1_5", "rm2_1_5_dual")
# targets on which the program is known to give a wrong answer: kept out
# of the timed workloads (a run must have no failed op) and checked by
# `run.py --known-defects` instead
KNOWN_DEFECTS = ("rm2_1_6_dual",)  # compute_stabilizer: 2816 elements, 4096 due
CERTIFY_DUE = ("rm4_2_2", "rm4_3_2", "rm5_2_2", "prm5_3_2")
CERTIFY_NONTRIVIAL = ("gleason", "rm2_1_3", "rm2_1_4")
GLEASON = (1, 0, 0, 0, 14, 0, 0, 0, 1)  # x^8 + 14x^4y^4 + y^8, as stated


@dataclass
class Target:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object, dict], str | None]
    words: int = 0  # q^k of the enumerated code (enumerate workload)


def rng_for(seed, slot):
    return np.random.default_rng((seed % 2**64, slot))


def random_generator(rng, q, n, k):
    """Uniform k x n matrix over GF(q), resampled until full rank."""
    while True:
        gen = rng.integers(0, q, size=(k, n), dtype=np.uint8)
        if oracle.rank(q, gen) == k:
            return gen


def random_distribution(rng, q, n, k):
    """Weight distribution of a random [n, k] code whose enumerator has
    n distinct roots."""
    while True:
        dist = oracle.weight_distribution(q, random_generator(rng, q, n, k))
        if oracle.has_n_distinct_roots(dist):
            return dist


def pair_sum_code(rng, q, n):
    """A monomially scrambled direct sum of n/2 blocks <(a, b)> with its
    rows mixed, and the coordinate pairs of the blocks."""
    add, mul, _, _ = oracle.field_tables(q)
    h = n // 2
    perm = rng.permutation(n)
    gen = np.zeros((h, n), dtype=np.uint8)
    for i in range(h):
        gen[i, perm[2 * i : 2 * i + 2]] = rng.integers(1, q, size=2)
    for _ in range(4 * h):  # row additions keep the row space
        i, j = rng.choice(h, size=2, replace=False)
        gen[i] = add[gen[i], mul[rng.integers(1, q), gen[j]]]
    pairs = tuple(sorted(tuple(sorted(int(c) for c in perm[2 * i : 2 * i + 2]))
                         for i in range(h)))
    return gen, pairs


# --- checks --------------------------------------------------------------------


def check_equal(expected):
    def check(got, firsts):
        return None if tuple(got) == tuple(expected) else "enumerator differs from oracle"
    return check


def check_code_enumerator(q, k):
    """What every enumerator of a q^k-word code satisfies: the counts sum
    to q^k, one word has weight 0, and the MacWilliams transform is a
    vector of nonnegative integers."""
    def check(got, firsts):
        dist = oracle.to_dist(got)
        if sum(dist) != q**k:
            return f"coefficients sum to {sum(dist)}, not q^k = {q**k}"
        if dist[0] != 1:
            return f"{dist[0]} words of weight 0"
        if oracle.dual_distribution(dist, q, q**k) is None:
            return "MacWilliams transform is not a nonnegative integer vector"
        return None
    return check


def check_via_dual(q, gen):
    """Exact oracle for k > n - k: brute-force the smaller dual code and
    transform back."""
    want = []

    def check(got, firsts):
        if not want:
            dual = oracle.dual_generator(q, gen)
            dual_dist = oracle.weight_distribution(q, dual)
            want.append(oracle.to_coeffs(
                oracle.dual_distribution(dual_dist, q, q ** dual.shape[0])))
        return check_equal(want[0])(got, firsts)
    return check


def check_order(n, known, partner):
    """Group order against the known one, and against the order found
    for the MacWilliams partner: the two groups are conjugate."""
    def check(got, firsts):
        verdict, order = got
        if verdict != "FiniteGroup":
            return f"verdict {verdict}, want FiniteGroup"
        if known is not None and order != known:
            return f"order {order}, want {known}"
        if order % n:
            return f"order {order} is not a multiple of n = {n}"
        other = firsts.get(partner)
        if partner and other and other[1] != order:
            return f"order {order}, but {other[1]} for {partner}"
        return None
    return check


def check_verdict(want):
    def check(got, firsts):
        return None if got == want else f"verdict {got}, want {want}"
    return check


def check_cross(stab, w, q):
    """A certified-trivial verdict must agree with compute_stabilizer
    (order n).  The cross-check runs once, at check time, outside every
    timed region."""
    order = []

    def check(got, firsts):
        if got != "TrivialCertified":
            return None  # no certificate claimed, nothing to contradict
        if not order:
            order.append(stab.compute_stabilizer(w, q).size)
        if order[0] != w.n:
            return f"certified trivial, but compute_stabilizer finds order {order[0]}"
        return None
    return check


# --- workloads -----------------------------------------------------------------


def _enumerate_targets(seed, wenum):
    codes, reference = wenum.codes, oracle.load_reference()
    targets = []

    def add(name, code, call, check):
        targets.append(Target(name=name, call=call, summarize=tuple, check=check,
                              words=code.q**code.k))

    def counting(code):
        return lambda: codes.enumerate_weights(code, workers=1).coeffs

    for name in ("rm4_3_2", "prm5_3_2"):
        code = wenum.catalog.get_entry(name).code
        add(name, code, counting(code), check_equal(reference[name][1]))
    for slot, (q, n, k) in enumerate(ENUM_RANDOM):
        gen = random_generator(rng_for(seed, slot), q, n, k)
        code = codes.LinearCode(wenum.fields.GF(q), gen)
        check = check_via_dual(q, gen) if k > n - k else check_code_enumerator(q, k)
        add(f"rand_q{q}_{n}_{k}", code, counting(code), check)
    q, n = PAIR_SUM
    gen, pairs = pair_sum_code(rng_for(seed, 10), q, n)
    code = codes.LinearCode(wenum.fields.GF(q), gen)
    add(f"decompose_q{q}_{n}", code, lambda: codes.decompose_case_c(code),
        lambda got, firsts: None if got == pairs else "pairs differ from the blocks")
    return targets


def _enumerators(seed, names, randoms, first_slot):
    """{name: (q, dist)} for the requested names: the stated Gleason
    enumerator, the brute-forced catalog codes, first-order RM closed
    forms, random codes, and "<name>_dual" as the exact MacWilliams
    transform of <name>."""
    base = {"gleason": (2, oracle.to_dist(GLEASON))}
    base.update({name: (q, oracle.to_dist(coeffs))
                 for name, (q, coeffs) in oracle.load_reference().items()})
    base.update({f"rm2_1_{m}": (2, oracle.rm1_distribution(m)) for m in range(3, 7)})
    for slot, (q, n, k) in enumerate(randoms, start=first_slot):
        base[f"rand_q{q}_{n}_{k}"] = (q, random_distribution(rng_for(seed, slot), q, n, k))
    out = {}
    for name in names:
        primal = name.removesuffix("_dual")
        q, dist = base[primal]
        if name != primal:
            dist = oracle.dual_distribution(dist, q, sum(dist))
        out[name] = (q, dist)
    return out


def _random_names(randoms, duals):
    names = []
    for q, n, k in randoms:
        names += [f"rand_q{q}_{n}_{k}"] + ([f"rand_q{q}_{n}_{k}_dual"] if duals else [])
    return names


def _stabilizer_targets(seed, wenum):
    stab, codes = wenum.stabilizer, wenum.codes
    names = target_names("stabilizer")
    partner = {"rm2_1_5": "rm2_1_5_dual"}
    partner.update({a: a + "_dual" for a in _random_names(STAB_RANDOM, duals=False)})
    partner.update({b: a for a, b in list(partner.items())})
    targets = []
    for name, (q, dist) in _enumerators(seed, names, STAB_RANDOM, 20).items():
        w = codes.WeightEnumerator(oracle.to_coeffs(dist))
        targets.append(Target(
            name=name,
            call=lambda w=w, q=q: stab.compute_stabilizer(w, q),
            summarize=lambda r: (r.verdict.value, r.size),
            check=check_order(w.n, KNOWN_ORDER.get(name), partner.get(name)),
        ))
    return targets


def known_defect_targets(wenum):
    """compute_stabilizer on each KNOWN_DEFECTS enumerator, checked
    against its known group order."""
    stab, codes = wenum.stabilizer, wenum.codes
    targets = []
    for name, (q, dist) in _enumerators(0, KNOWN_DEFECTS, (), 0).items():
        w = codes.WeightEnumerator(oracle.to_coeffs(dist))
        targets.append(Target(
            name=name,
            call=lambda w=w, q=q: stab.compute_stabilizer(w, q),
            summarize=lambda r: (r.verdict.value, r.size),
            check=check_order(w.n, KNOWN_ORDER[name], None),
        ))
    return targets


def _certify_targets(seed, wenum):
    stab, codes = wenum.stabilizer, wenum.codes
    names = target_names("certify")
    targets = []
    for name, (q, dist) in _enumerators(seed, names, CERT_RANDOM, 30).items():
        w = codes.WeightEnumerator(oracle.to_coeffs(dist))
        if name in CERTIFY_DUE:
            check = check_verdict("TrivialCertified")
        elif name in CERTIFY_NONTRIVIAL:
            check = check_verdict("Inconclusive")
        else:
            check = check_cross(stab, w, q)
        targets.append(Target(
            name=name,
            call=lambda w=w, q=q: stab.certify_trivial(w, q),
            summarize=lambda r: r.verdict.value,
            check=check,
        ))
    return targets


WORKLOADS = {
    "enumerate": _enumerate_targets,
    "stabilizer": _stabilizer_targets,
    "certify": _certify_targets,
}


def make_targets(workload, seed, wenum):
    """The targets of one workload, in a fixed order.  `wenum` holds the
    program's modules as attributes (fields, codes, catalog, stabilizer)."""
    return WORKLOADS[workload](seed, wenum)


def target_names(workload):
    """Names of a workload's targets, without building any input."""
    if workload == "enumerate":
        q, n = PAIR_SUM
        return (["rm4_3_2", "prm5_3_2"] + _random_names(ENUM_RANDOM, duals=False)
                + [f"decompose_q{q}_{n}"])
    if workload == "stabilizer":
        return list(STABILIZER) + _random_names(STAB_RANDOM, duals=True)
    return list(CERTIFY_DUE) + list(CERTIFY_NONTRIVIAL) + _random_names(CERT_RANDOM, duals=False)


def parallel_target(wenum, workers):
    """prm5_3_2 enumerated again with a thread pool of `workers`."""
    code = wenum.catalog.get_entry("prm5_3_2").code
    return Target(
        name="prm5_3_2_parallel",
        call=lambda: wenum.codes.enumerate_weights(code, workers=workers).coeffs,
        summarize=tuple,
        check=check_equal(oracle.load_reference()["prm5_3_2"][1]),
    )
