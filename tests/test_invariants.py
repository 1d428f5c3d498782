"""Divisor sets, periodic spectra, and trace-image subgroups."""

import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cantorconj import invariants
from cantorconj.bratteli import OrderedBratteliDiagram, composed_incidence, incidence
from cantorconj.check import check_divides_certificate, check_infinity_certificate
from cantorconj.classify import decide_k_conjugacy, decide_tau, decide_weak
from cantorconj.fieldpoly import _mat_apply, _solve_lin, charpoly, count_real_roots, isolate_largest_real_root
from cantorconj.invariants import (
    AtLeast,
    DividesUnitResult,
    InfiniteValuation,
    SupernaturalTruncation,
    TraceIsoResult,
    divides_unit,
    periodic_spectrum,
    spectra_equal,
    trace_image_group,
    trace_images_isomorphic,
)
from cantorconj.invariants import (
    _eventually_integral,
    _first_zero,
    _hnf_rows,
    _mul_by_t,
    _stationary_data,
    _stationary_valuation,
    _walk_bound,
)
from cantorconj.systems import (
    NAMED,
    dyadic,
    fibonacci,
    odometer,
    quaternary,
    stationary_from_rows,
    triadic,
)

from conftest import (
    _is_primitive,
    hierarchy_pool,
    oracle_heights,
    random_explicit,
    random_stationary,
    rows_of,
    time_ceiling,
)
from test_telescoping import p40_rows, primitive_incidences

DYADIC = dyadic()
TRIADIC = triadic()
QUATERNARY = quaternary()
FIB = fibonacci()


def oracle_gcd_chain(d, depth):
    # gcd of the height entries per level, from raw tables only
    out = []
    for m in range(1, depth + 1):
        h = oracle_heights(d, m)
        g = 0
        for x in h:
            g = gcd(g, x)
        out.append(g)
    return out


def naive_divides(d, n, depth=30):
    for m, g in enumerate(oracle_gcd_chain(d, depth), start=1):
        if g % n == 0:
            return m
    return None


def explicit_truncation(rows_per_level):
    # single-vertex explicit chain; rows_per_level[i] = edge multiplicity
    counts = (1,) * (len(rows_per_level) + 1)
    tables = tuple(((0,) * r,) for r in rows_per_level)
    return OrderedBratteliDiagram("explicit", counts, tables)


# ---------------------------------------------------------------------------
# divides_unit


def test_divides_unit_powers_of_two():
    res = divides_unit(DYADIC, 8)
    assert res.verdict == "yes" and res.level == 3
    assert divides_unit(DYADIC, 16).level == 4


def test_divides_unit_one_is_unit():
    for d in (DYADIC, TRIADIC, FIB):
        res = divides_unit(d, 1)
        assert res.verdict == "yes" and res.level == 0


def test_divides_unit_rejects_zero():
    with pytest.raises(ValueError):
        divides_unit(DYADIC, 0)


def test_divides_unit_dyadic_three_cycles():
    res = divides_unit(DYADIC, 3)
    assert res.verdict == "no"
    # 2^m mod 3 runs through {2, 1} and never hits 0; one vertex and
    # floor(log2 3) = 1 bound the walk at one step past level 1
    assert res.certificate == {"modulus": 3, "level": 2}
    assert check_divides_certificate(DYADIC, 3, res)


def test_divides_unit_matches_naive_gcd_scan():
    rng = random.Random(17)
    diagrams = [DYADIC, TRIADIC, QUATERNARY, FIB]
    diagrams += [random_stationary(rng) for _ in range(8)]
    for d in diagrams:
        for n in range(2, 65):
            res = divides_unit(d, n)
            naive = naive_divides(d, n)
            if naive is not None:
                assert res.verdict == "yes" and res.level == naive
            if res.verdict == "no":
                assert naive is None
            if res.verdict == "yes" and res.level <= 30:
                assert naive == res.level


def test_divides_unit_divisor_closure():
    rng = random.Random(5)
    for _ in range(10):
        d = random_stationary(rng)
        for n in (4, 6, 12, 18, 36, 48):
            if divides_unit(d, n).verdict == "yes":
                for m in range(2, n + 1):
                    if n % m == 0:
                        assert divides_unit(d, m).verdict == "yes"


def test_divides_unit_explicit_bounded():
    trunc = explicit_truncation([2, 2, 2])  # heights 2, 4, 8
    assert divides_unit(trunc, 4).verdict == "yes"
    res = divides_unit(trunc, 5)
    assert res.verdict == "unknown"
    assert res.depth == 3


def test_divides_certificate_detects_tampering():
    res = divides_unit(DYADIC, 3)
    assert check_divides_certificate(DYADIC, 3, res)
    tampered = [
        {"modulus": 5, "level": 2},
        {"modulus": 3, "level": 1},
        {"modulus": 3, "level": 3},
        {"modulus": 3, "level": 2.0},
        {"modulus": 3, "level": "2"},
        {"modulus": 3, "level": None},
        {"level": 2},
        {"modulus": 3},
    ]
    for cert in tampered:
        bad = type(res)(verdict="no", level=None, certificate=cert, depth=res.depth)
        assert not check_divides_certificate(DYADIC, 3, bad), cert
    # the modulus must match the question as well as the certificate
    assert not check_divides_certificate(DYADIC, 5, res)
    # a well-formed No for a modulus that does divide the unit
    two = type(res)(verdict="no", level=None, certificate={"modulus": 2, "level": 2}, depth=res.depth)
    assert not check_divides_certificate(DYADIC, 2, two)


def test_divides_certificate_replays_a_far_yes_at_the_bound():
    # past level 1 + J divisibility is the same at every level, so a Yes
    # claimed a billion levels up is replayed at 1 + J, not by pushing there
    far = 10 ** 9
    with time_ceiling(1):
        assert check_divides_certificate(DYADIC, 2, DividesUnitResult("yes", far, None, 40))
        assert not check_divides_certificate(DYADIC, 3, DividesUnitResult("yes", far, None, 40))
    assert not check_divides_certificate(DYADIC, 2, DividesUnitResult("yes", "far", None, 40))
    assert not check_divides_certificate(DYADIC, 2, DividesUnitResult("yes", -1, None, 40))


def test_divides_certificate_rejects_malformed_input_and_propagates_faults(monkeypatch):
    # levels 0 -> 1 -> 2 -> 3 with heights (1,), (2,), (4, 2), (10,)
    explicit = OrderedBratteliDiagram(
        "explicit", (1, 1, 2, 1), (((0, 0),), ((0, 0), (0,)), ((0, 1, 0),))
    )
    for dg, n, level in ((DYADIC, 2 ** 10, 10), (explicit, 2, 2)):
        assert check_divides_certificate(dg, n, DividesUnitResult("yes", level, None, 40))
        # a level that is not a plain int, a negative one (ValueError)
        for bad in (None, "3", 2.5, -1):
            assert not check_divides_certificate(dg, n, DividesUnitResult("yes", bad, None, 40))
        # modulus 0
        assert not check_divides_certificate(dg, 0, DividesUnitResult("yes", level, None, 40))
    # past an explicit diagram's end (LevelRangeError, a ValueError)
    assert not check_divides_certificate(explicit, 2, DividesUnitResult("yes", 4, None, 40))

    def faulty(*args, **kwargs):
        raise AssertionError("fault inside the check")

    monkeypatch.setattr("cantorconj.check.heights", faulty)
    for dg, n, level in ((DYADIC, 2 ** 10, 10), (explicit, 2, 2)):
        with pytest.raises(AssertionError, match="fault inside the check"):
            check_divides_certificate(dg, n, DividesUnitResult("yes", level, None, 40))


def test_malformed_divisor_and_infinity_certificates_are_rejected_not_raised():
    cert = entry_map(periodic_spectrum(DYADIC))[2].certificate
    assert check_infinity_certificate(DYADIC, 2, cert)
    for bad in (
        {"p": 2, "annihilator": ["x", 1]},
        {"p": 2, "annihilator": 5},
        {"p": 2, "annihilator": [-2.0, 1]},
        {"p": 2, "annihilator": [True, 1]},
        {"p": 2.0, "annihilator": cert["annihilator"]},
        {"p": True, "annihilator": [-1, 1]},
        [2, cert["annihilator"]],
        None,
    ):
        assert check_infinity_certificate(DYADIC, 2, bad) is False, bad
    assert check_infinity_certificate(DYADIC, 1, {"p": 1, "annihilator": [-2, 1]}) is False
    res = divides_unit(DYADIC, 3)
    assert res.verdict == "no" and check_divides_certificate(DYADIC, 3, res)
    for bad in (
        [3, res.certificate["level"]],
        "no",
        {"modulus": 3.0, "level": res.certificate["level"]},
        {"modulus": 3, "level": float(res.certificate["level"])},
        {"modulus": 3, "level": True},
    ):
        no = DividesUnitResult("no", None, bad, res.depth)
        assert check_divides_certificate(DYADIC, 3, no) is False, bad
    yes = DividesUnitResult("yes", True, None, 40)
    assert check_divides_certificate(DYADIC, 2, yes) is False


# The walk divides_unit ran before its length was bounded: the height
# residues mod n from level 1 until they vanish (the least level) or repeat
# a state (None); "cap" when neither happened within `cap` steps.
def reference_divides_level(d, n, cap):
    table = d.table(1)
    state = tuple(x % n for x in oracle_heights(d, 1))
    seen = set()
    level = 1
    while any(state):
        if state in seen:
            return None
        if level > cap:
            return "cap"
        seen.add(state)
        state = tuple(sum(state[s] for s in row) % n for row in table)
        level += 1
    return level


# The cycle search _eventually_integral ran before: least j with
# coeffs * tmat^j integral, None once the fractional parts repeat.
def reference_eventually_integral(coeffs, tmat):
    den = lcm(*(c.denominator for c in coeffs))
    k = len(coeffs)
    state = tuple(int(c * den) % den for c in coeffs)
    seen = set()
    j = 0
    while any(state):
        if state in seen:
            return None
        seen.add(state)
        state = tuple(sum(state[i] * tmat[i][c] for i in range(k)) % den for c in range(k))
        j += 1
    return j


def _stationary_pool():
    # seeded stationary systems of 1-4 vertices, primitive or not
    rng = random.Random(11)
    return [random_stationary(rng, max_vertices=4) for _ in range(100)]


def test_divides_unit_matches_the_cycle_search():
    compared, verdicts = 0, set()
    pool = _stationary_pool()
    assert {d.num_vertices(1) for d in pool} == {1, 2, 3, 4}
    for d in pool:
        for n in range(2, 65):
            ref = reference_divides_level(d, n, cap=1000)
            if ref == "cap":
                continue
            res = divides_unit(d, n)
            assert (res.level if res.verdict == "yes" else None) == ref, (d.tables, n)
            assert res.verdict == ("no" if ref is None else "yes")
            assert check_divides_certificate(d, n, res), (d.tables, n)
            compared += 1
            verdicts.add(res.verdict)
    assert compared >= 0.9 * len(pool) * 63
    assert verdicts == {"yes", "no"}


def test_eventually_integral_matches_the_cycle_search():
    rng = random.Random(12)
    answers = set()
    for d in _stationary_pool():
        if not _is_primitive(d.table(1), d.num_vertices(1)):
            continue
        g = trace_image_group(d)
        if g.kind != "field":
            continue
        tmat = g.lattice[2]
        # denominators built from the primes of det(tmat) reach 0 after a
        # few steps; the others never do
        det_primes = [p for p in range(2, 50) if charpoly(tmat)[0] % p == 0] or [1]
        for _ in range(12):
            den = rng.choice(det_primes) ** rng.randint(0, 4) * rng.choice((1, 1, 2, 3))
            coeffs = [Fraction(rng.randint(-30, 30), den) for _ in tmat]
            j = _eventually_integral(coeffs, tmat)
            assert j == reference_eventually_integral(coeffs, tmat), (coeffs, tmat)
            answers.add("none" if j is None else min(j, 1))
    assert answers == {"none", 0, 1}


# 8-vertex primitive system with long residue cycles: the cycle search
# stored 236,220 states for n = 10 and 65,024 for n = 1024, and gave up
# past a million steps for n = 11 and 37
EIGHT = stationary_from_rows(rows_of((
    (1, 1, 0, 0, 0, 0, 1, 1),
    (0, 0, 1, 1, 1, 0, 0, 0),
    (0, 0, 1, 0, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, 1, 0),
    (0, 0, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 0, 1, 0, 0),
    (1, 1, 1, 1, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 1, 1, 0),
)))


@pytest.mark.parametrize("n", [10, 11, 37, 1024])
def test_divides_unit_long_cycles_end_within_the_bound(n):
    with time_ceiling(5):
        res = divides_unit(EIGHT, n)
        assert res.verdict == "no"
        assert check_divides_certificate(EIGHT, n, res)
    assert res.certificate == {"modulus": n, "level": 1 + 8 * (n.bit_length() - 1)}
    assert len(json.dumps(res.certificate)) < 100


# ---------------------------------------------------------------------------
# periodic_spectrum


def entry_map(tr):
    return dict(tr.entries)


def test_spectrum_dyadic_is_two_adic():
    tr = periodic_spectrum(DYADIC)
    ent = entry_map(tr)
    assert set(ent) == {2}
    assert isinstance(ent[2], InfiniteValuation)
    assert check_infinity_certificate(DYADIC, 2, ent[2].certificate)
    # oracle: the gcd chain gains a factor of two every level
    chain = oracle_gcd_chain(DYADIC, 40)
    assert all(g == 2 ** (m + 1) for m, g in enumerate(chain))


def test_spectrum_fibonacci_is_trivial():
    tr = periodic_spectrum(FIB)
    assert tr.entries == ()
    assert all(g == 1 for g in oracle_gcd_chain(FIB, 40))


def test_spectrum_triadic():
    ent = entry_map(periodic_spectrum(TRIADIC))
    assert set(ent) == {3}
    assert isinstance(ent[3], InfiniteValuation)


def test_spectrum_finite_valuation_off_eigenvalue():
    # single tower doubling with twelve root edges: gcd chain is 12 * 2^(m-1)
    d = stationary_from_rows(((0, 0),), root=((0,) * 12,))
    ent = entry_map(periodic_spectrum(d))
    assert isinstance(ent[2], InfiniteValuation)
    assert ent[3] == 1
    assert set(ent) == {2, 3}


def test_spectrum_finite_valuation_on_bad_prime():
    # second tower pins a factor of 8: valuation at 2 tops out at 3,
    # even though single levels are divisible by 16 and more
    d = stationary_from_rows(((0, 0, 1, 1, 1, 1, 1, 1, 1, 1), (1,)),
                             root=((0,), (0,) * 8))
    chain = oracle_gcd_chain(d, 40)
    assert max(g & -g for g in chain) == 8
    ent = entry_map(periodic_spectrum(d))
    assert ent[2] == 3
    assert divides_unit(d, 8).verdict == "yes"
    assert divides_unit(d, 16).verdict == "no"


def test_spectrum_explicit_reports_lower_bounds():
    trunc = explicit_truncation([2, 2, 2])
    tr = periodic_spectrum(trunc)
    ent = entry_map(tr)
    assert ent[2] == AtLeast(3)
    assert set(ent) == {2}
    assert tr.level_cutoff == 3


def test_spectrum_entries_sorted_and_serializable():
    d = stationary_from_rows(((0, 0, 0, 0, 0, 0),), root=((0,) * 6,))  # 6^m
    tr = periodic_spectrum(d)
    primes = [p for p, _ in tr.entries]
    assert primes == sorted(primes) == [2, 3]
    blob = tr.to_json()
    assert blob["prime_cutoff"] == 97
    two = next(e for e in blob["entries"] if e["p"] == 2)
    assert two["v"] == "inf" and "cert" in two
    json.dumps(blob)  # must be plain data


def test_spectrum_serializes_a_finite_valuation():
    # two root edges into each vertex: the unit is 2 * (1, 1) and 2 divides
    # it exactly once at every level, since the incidence has determinant -1
    d = stationary_from_rows(((0, 1), (0,)), root=((0, 0), (0, 0)))
    blob = periodic_spectrum(d).to_json()
    assert blob["entries"] == [{"p": 2, "v": 1}]
    json.dumps(blob)


def _primitive_pool():
    # seeded primitive 2x2 and 3x3 systems, plus the twelve-root-edge doubling
    rng = random.Random(20)
    pool = []
    while len(pool) < 32:
        d = random_stationary(rng, primitive=True)
        if d.num_vertices(1) >= 2:
            pool.append(d)
    return pool + [stationary_from_rows(((0, 0),), root=((0,) * 12,))]


def test_prime_sieve_matches_sympy():
    from sympy import primerange

    from cantorconj.fieldpoly import primes_up_to

    for n in list(range(-2, 400)) + [997, 1000, 7919]:
        assert primes_up_to(n) == list(primerange(2, n + 1)), n


def test_spectrum_lists_candidate_primes_only():
    # reference: every prime up to the cutoff, keeping the nonzero valuations
    from sympy import primerange

    for d in _primitive_pool():
        cands = _stationary_data(d).candidates
        cutoffs = [2, 3, 13, 97] + ([max(cands) - 1] if cands else [])
        for cutoff in cutoffs:
            ref = []
            for p in primerange(2, cutoff + 1):
                v = _stationary_valuation(d, p)
                if v != 0:
                    ref.append((p, v))
            tr = periodic_spectrum(d, prime_cutoff=cutoff)
            assert tr.entries == tuple(ref)
            assert tr.prime_cutoff == cutoff


TRI3 = stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2)))


def test_valuations_and_spectra_are_pinned():
    # the valuation at every candidate prime of the 11,200 primitive 2x2 and
    # 3x3 incidences with entries 0..2, then the spectra of the named systems
    # and tri3, hashed in order
    digest = hashlib.sha256()
    counts = collections.Counter()
    for n in (2, 3):
        for mat in primitive_incidences(n):
            d = stationary_from_rows(rows_of(mat))
            for p in sorted(_stationary_data(d).candidates):
                v = _stationary_valuation(d, p)
                if isinstance(v, InfiniteValuation):
                    counts["inf"] += 1
                    v = v.certificate
                else:
                    counts[v] += 1
                digest.update(json.dumps([mat, p, v], sort_keys=True).encode())
    for d in [NAMED[name]() for name in sorted(NAMED)] + [TRI3]:
        digest.update(json.dumps(periodic_spectrum(d).to_json(), sort_keys=True).encode())
    assert counts == {0: 5481, "inf": 3618, 1: 1088, 2: 228, 3: 54}
    assert digest.hexdigest() == (
        "f05cb9cf4eb06ac97e703c4c5ff5da6d0491ac728556783f672e34335365f940"
    )


def nilpotent_rank(mat, p):
    """Multiplicity of t as a factor of charpoly(mat) mod p."""
    return next(i for i, c in enumerate(charpoly(mat)) if c % p)


def test_first_zeros_lie_within_the_nilpotent_length():
    # a walk bounded by z*e finds the same first zero mod p^e as one bounded
    # by k*floor(log2 p^e), z the multiplicity of t in charpoly mod p
    rng = random.Random(47)
    zeros = collections.Counter()
    for _ in range(6000):
        k = rng.randint(1, 5)
        mat = tuple(tuple(rng.randint(-3, 4) for _ in range(k)) for _ in range(k))
        vec = [rng.randint(-3, 4) for _ in range(k)]
        p, e = rng.choice((2, 3, 5, 7)), rng.randint(1, 4)
        z = nilpotent_rank(mat, p)
        j = _first_zero(mat, vec, p ** e, _walk_bound(k, p ** e))
        if j is not None:
            assert j <= z * e, (mat, vec, p, e)
            zeros[j > 0] += 1
        assert _first_zero(mat, vec, p ** e, z * e) == j, (mat, vec, p, e)
    assert zeros[True] >= 100 and zeros[False] >= 100, zeros


def test_valuation_walks_stop_at_the_nilpotent_length(monkeypatch):
    # tri3 at 2: z = 1 and v = 2, so walks mod 2, 4 and 8 of at most 1, 2
    # and 3 steps, where k*floor(log2 2^e) allowed 3 + 6 + 9
    assert nilpotent_rank(incidence(TRI3, 1), 2) == 1
    _stationary_data(TRI3)
    steps = []

    def counted(mat, vec):
        steps.append(vec)
        return _mat_apply(mat, vec)

    monkeypatch.setattr(invariants, "_mat_apply", counted)
    assert _stationary_valuation(TRI3, 2) == 2
    assert 0 < len(steps) <= 6


def test_trace_lattice_and_stabilized_match_their_formulas():
    # reference: the integer lattice and the determinant test written out
    fields = 0
    for d in _primitive_pool():
        g = trace_image_group(d)
        if g.kind != "field":
            assert g.stabilized is None
            continue
        fields += 1
        scale = lcm(*(c.denominator for vec in g.generators for c in vec))
        basis = _hnf_rows([[int(c * scale) for c in vec] for vec in g.generators])
        tmat = []
        for row in basis:
            coeffs = _solve_lin(basis, _mul_by_t([Fraction(c) for c in row], g.minpoly))
            tmat.append([int(c) for c in coeffs])
        assert g.lattice == (basis, scale, tmat)
        assert g.stabilized is (abs(charpoly(tmat)[0]) == 1)
    assert fields >= 10


def test_infinity_certificate_detects_tampering():
    ent = entry_map(periodic_spectrum(DYADIC))
    cert = dict(ent[2].certificate)
    cert["annihilator"] = [c + 1 for c in cert["annihilator"]]
    assert not check_infinity_certificate(DYADIC, 2, cert)


def cofactor_det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def test_det_is_signed_constant_term_of_charpoly():
    # the valuations and the trace lattice read det A as (-1)^n charpoly(A)(0)
    rng = random.Random(17)
    singular = 0
    for n in range(1, 6):
        for trial in range(30):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 3 == 0:
                # one row a multiple of another (zero when c = 0): singular
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                m[i] = [c * x for x in m[j]]
            det = cofactor_det(m)
            singular += det == 0
            assert (-1) ** n * charpoly(m)[0] == det, m
    assert singular >= 20


# ---------------------------------------------------------------------------
# spectra_equal


def test_spectra_dyadic_vs_triadic_distinct_at_two():
    res = spectra_equal(DYADIC, TRIADIC)
    assert res.verdict == "distinct" and res.witness == 2
    rev = spectra_equal(TRIADIC, DYADIC)
    assert rev.verdict == "distinct" and rev.witness == 2


def test_spectra_dyadic_vs_quaternary_equal():
    res = spectra_equal(DYADIC, QUATERNARY)
    assert res.verdict == "equal"
    assert res.certificate is not None


def test_spectra_dyadic_vs_fibonacci_distinct():
    res = spectra_equal(DYADIC, FIB)
    assert res.verdict == "distinct" and res.witness == 2


def test_spectra_equal_minimal_witness():
    # 12^m against 18^m: valuations at 2 and 3 are infinite on both sides,
    # so the first difference can only come from finite entries
    a = stationary_from_rows(((0,) * 12,), root=((0,) * 12,))
    b = stationary_from_rows(((0,) * 12,), root=((0,) * 9,))
    # same repetition, roots 12 vs 9: at p=3 both infinite; at p=2 both infinite
    res = spectra_equal(a, b)
    assert res.verdict == "equal"
    c = stationary_from_rows(((0, 0, 1, 1, 1, 1, 1, 1, 1, 1), (1,)),
                             root=((0,), (0,) * 8))
    res2 = spectra_equal(DYADIC, c)  # 2^inf vs 2^3
    assert res2.verdict == "distinct" and res2.witness == 16


def test_spectra_equal_reflexive_on_randoms():
    rng = random.Random(23)
    for _ in range(8):
        d = random_stationary(rng)
        assert spectra_equal(d, d).verdict == "equal"


def test_spectra_explicit_side_certified_distinct():
    trunc = explicit_truncation([2, 2, 2])  # two-divisibility to depth 3
    res = spectra_equal(trunc, TRIADIC)
    assert res.verdict == "distinct" and res.witness == 2


def test_spectra_explicit_side_unknown_when_compatible():
    trunc = explicit_truncation([2, 2, 2])
    assert spectra_equal(trunc, DYADIC).verdict == "unknown"


def test_spectra_comparisons_are_pinned():
    # (verdict, witness, certificate) on every ordered pair of the hierarchy
    # pool, the named systems and six explicit diagrams, at a small and at
    # the default prime cutoff and depth, hashed in order
    rng = random.Random(3)
    pool = hierarchy_pool() + [NAMED[name]() for name in sorted(NAMED)]
    pool += [random_explicit(rng, levels=6) for _ in range(6)]
    digest = hashlib.sha256()
    counts = collections.Counter()
    for prime_cutoff, depth in ((7, 3), (97, 40)):
        for a, b in itertools.product(pool, repeat=2):
            res = spectra_equal(a, b, prime_cutoff, depth)
            counts[res.verdict] += 1
            record = [res.verdict, res.witness, res.certificate]
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert counts == {"equal": 264, "distinct": 1586, "unknown": 462}
    assert digest.hexdigest() == (
        "4a83f5ca7b29d411ac8fd6f900d1888b88937b84287364cab90062cd8f5a3ed1"
    )


# ---------------------------------------------------------------------------
# trace_image_group


def test_trace_image_dyadic():
    g = trace_image_group(DYADIC)
    assert g.kind == "cyclic" and g.ratio == 2 and g.denominator == 1
    # the traces of the level-m basis element, exactly 2^-m
    for m in (1, 2, 5):
        assert g.contains(Fraction(1, 2 ** m))
    assert g.contains(Fraction(1))
    assert not g.contains(Fraction(1, 3))


def test_trace_image_triadic_and_quaternary():
    t = trace_image_group(TRIADIC)
    assert (t.kind, t.ratio, t.denominator) == ("cyclic", 3, 1)
    q = trace_image_group(QUATERNARY)
    assert (q.kind, q.ratio, q.denominator) == ("cyclic", 4, 1)
    assert q.contains(Fraction(1, 2))  # 1/2 = 2/4


def test_trace_image_scaled_odometer_denominator():
    # doubling with three root edges: traces live in (1/3) Z[1/2]
    d = stationary_from_rows(((0, 0),), root=((0, 0, 0),))
    g = trace_image_group(d)
    assert (g.kind, g.ratio, g.denominator) == ("cyclic", 2, 3)
    assert g.contains(Fraction(1, 3)) and g.contains(Fraction(5, 12))
    assert not g.contains(Fraction(1, 5))


def test_trace_image_fibonacci():
    g = trace_image_group(FIB)
    assert g.kind == "field"
    assert g.minpoly == (-1, -1, 1)
    assert g.stabilized is True
    # generators hold 1 and the golden-ratio trace of the first tower,
    # 1/phi = phi - 1, written in the power basis
    assert (Fraction(1), Fraction(0)) in g.generators
    assert (Fraction(-1), Fraction(1)) in g.generators
    assert g.contains((Fraction(-1), Fraction(1)))
    assert g.contains((Fraction(7), Fraction(-4)))
    assert not g.contains((Fraction(1, 2), Fraction(0)))


def test_trace_image_pads_trimmed_generators():
    # incidence ((1,1,0),(0,1,1),(2,2,2)): the third tower's trace has a zero
    # top coordinate, which the field element trims away
    d = stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2)))
    g = trace_image_group(d)
    assert g.kind == "field" and g.minpoly == (-2, 3, -4, 1)
    assert (Fraction(-1, 2), Fraction(1, 4), Fraction(0)) in g.generators
    assert all(len(vec) == 3 for vec in g.generators)
    assert g.contains(Fraction(1))
    assert trace_images_isomorphic(g, g).value is True


def test_largest_root_isolated_past_a_repeated_root():
    # t^2 (t - 3): every member of the plain Sturm chain vanishes at the
    # double root 0, so the count on (0, 4] read 0 and the bisection never
    # ended; the Cauchy bound is 4 and one halving isolates the root 3
    p = (0, 0, -3, 1)
    with time_ceiling(5):
        lo, hi = isolate_largest_real_root(p)
    assert (lo, hi) == (0, 4)
    assert count_real_roots(p, lo, hi) == 1
    assert count_real_roots(p, Fraction(-4), Fraction(4)) == 2
    assert count_real_roots((1, -2, 1), Fraction(0), Fraction(2)) == 1  # (t - 1)^2


def test_largest_root_isolated_when_a_bisection_point_is_the_root():
    # (t - 3)(t + 1)(t^2 - t - 1): the Cauchy bound is 6, and the second
    # midpoint is the root 3 itself, with no root above it; hi moves to 9/2,
    # strictly above 3, instead of to 3
    p = (3, 5, -2, -3, 1)
    lo, hi = isolate_largest_real_root(p)
    assert (lo, hi) == (Fraction(9, 4), Fraction(9, 2))
    assert lo < 3 < hi and count_real_roots(p, lo, hi) == 1
    # a primitive 4-vertex system with that characteristic polynomial: its
    # trace image exists, and every relation holds of it against itself
    d = stationary_from_rows(((0, 2, 3), (1, 2, 1), (3, 0, 0), (0, 1, 0)), root=((0,), (0,), (0, 0), (0, 0)))
    assert charpoly(composed_incidence(d, 1, 2)) == p
    assert trace_image_group(d).kind == "cyclic"
    assert decide_weak(d, d).verdict == "weak"
    assert decide_tau(d, d).verdict == "tau"
    assert decide_k_conjugacy(d, d).verdict == "k-conjugate"


def test_trace_image_with_a_repeated_eigenvalue():
    # incidence ((1,2,0),(1,0,1),(2,0,2)), characteristic polynomial
    # t^2 (t - 3); the left Perron vector (3, 2, 2) over the level-1 heights
    # (1, 1, 1) gives the tower traces 3/7, 2/7, 2/7: the image is (1/7) Z[1/3]
    d = stationary_from_rows(((0, 1, 1), (0, 2), (0, 0, 2, 2)))
    with time_ceiling(10):
        g = trace_image_group(d)
    assert (g.kind, g.ratio, g.denominator) == ("cyclic", 3, 7)
    assert g.contains(Fraction(2, 63)) and not g.contains(Fraction(1, 2))


def test_trace_image_requires_primitive_stationary():
    trunc = explicit_truncation([2, 2])
    with pytest.raises(ValueError):
        trace_image_group(trunc)
    reducible = stationary_from_rows(((0,), (1, 1)))
    with pytest.raises(ValueError):
        trace_image_group(reducible)


# ---------------------------------------------------------------------------
# trace_images_isomorphic


def test_iso_dyadic_quaternary():
    a = trace_image_group(DYADIC)
    b = trace_image_group(QUATERNARY)
    assert trace_images_isomorphic(a, b).value is True


def test_iso_dyadic_triadic_distinct():
    a = trace_image_group(DYADIC)
    b = trace_image_group(TRIADIC)
    assert trace_images_isomorphic(a, b).value is False


def test_iso_field_vs_rational():
    res = trace_images_isomorphic(trace_image_group(FIB), trace_image_group(DYADIC))
    assert res.value is False
    assert "rational" in res.reason


def test_iso_same_field_reflexive():
    g = trace_image_group(FIB)
    res = trace_images_isomorphic(g, g)
    assert res.value is True


def test_iso_scaled_odometers_differ():
    d = stationary_from_rows(((0, 0),), root=((0, 0, 0),))  # (1/3) Z[1/2]
    res = trace_images_isomorphic(trace_image_group(d), trace_image_group(DYADIC))
    assert res.value is False


def test_iso_distinct_fields_unknown():
    # squared golden-mean matrix generates the same real field but is
    # presented with a different minimal polynomial; comparison declines
    sq = stationary_from_rows(((0, 0, 1), (0, 1)))  # [[2,1],[1,1]]
    res = trace_images_isomorphic(trace_image_group(sq), trace_image_group(FIB))
    assert res.value is None


def test_iso_self_on_random_primitive():
    rng = random.Random(31)
    found = 0
    while found < 6:
        d = random_stationary(rng, primitive=True)
        g = trace_image_group(d)
        assert trace_images_isomorphic(g, g).value is True
        found += 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=40))
def test_iso_pure_odometers_match_radicals(p, q):
    a = trace_image_group(stationary_from_rows(((0,) * p,), root=((0,) * p,)))
    b = trace_image_group(stationary_from_rows(((0,) * q,), root=((0,) * q,)))
    rad = lambda n: {f for f in range(2, n + 1) if n % f == 0 and all(f % d for d in range(2, f))}
    expected = rad(p) == rad(q)
    assert trace_images_isomorphic(a, b).value is expected


def integer_root_incidences():
    """Every primitive 2x2 incidence with entries 0..4 whose Perron root is
    an integer, in itertools.product order."""
    for m in itertools.product(range(5), repeat=4):
        mat = (m[:2], m[2:])
        disc = (m[0] + m[3]) ** 2 - 4 * (m[0] * m[3] - m[1] * m[2])
        if isqrt(disc) ** 2 == disc and _is_primitive(rows_of(mat), 2):
            yield mat


def rational_pool():
    """195 systems with rational trace images: odometers 2-40, the q-edge
    odometer under r root edges (q in 2..12, r in 2..5), and the 2x2
    incidences of integer_root_incidences."""
    pool = [odometer(q) for q in range(2, 41)]
    pool += [
        stationary_from_rows(((0,) * q,), root=((0,) * r,))
        for q in range(2, 13)
        for r in range(2, 6)
    ]
    pool += [stationary_from_rows(rows_of(m)) for m in integer_root_incidences()]
    return pool


def radical(n):
    """The primes dividing n, by trial division."""
    out, p = set(), 2
    while n > 1:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out


def test_rational_images_agree_with_the_closed_form(monkeypatch):
    # reference: (1/q)Z[1/lam] and (1/q')Z[1/lam'] (q coprime to lam) are
    # equal iff lam and lam' have the same prime divisors and q = q'
    from cantorconj import invariants

    groups = [trace_image_group(d) for d in rational_pool()]
    assert len(groups) == 195 and {g.kind for g in groups} == {"cyclic"}
    calls = []
    real = invariants.factor_integer
    monkeypatch.setattr(invariants, "factor_integer", lambda n: calls.append(n) or real(n))
    results = [trace_images_isomorphic(a, b) for a, b in itertools.product(groups, repeat=2)]
    # the comparisons test membership by gcds alone
    assert calls == []
    equal = lattices_only = 0
    for (a, b), res in zip(itertools.product(groups, repeat=2), results):
        expected = radical(a.ratio) == radical(b.ratio) and a.denominator == b.denominator
        assert res.value is expected, (a, b)
        equal += expected
        # 1/q_A in (1/q_B)Z[1/lam_B] and the other way round, in integers:
        # each lattice inside the other group, without the stability checks
        into_b = radical(a.denominator // gcd(a.denominator, b.denominator)) <= radical(b.ratio)
        into_a = radical(b.denominator // gcd(a.denominator, b.denominator)) <= radical(a.ratio)
        lattices_only += into_a and into_b and not expected
    assert equal == 2707
    # the two inclusions alone would call these pairs equal
    assert lattices_only == 19918


def test_rational_reasons_name_the_escaping_number():
    # reference: the four numbers 1/q_A, 1/q_B, 1/(lam_A q_B), 1/(lam_B q_A)
    # in order, each tested against the radical closed form
    scaled = stationary_from_rows(((0, 0),), root=((0, 0, 0),))  # (1/3) Z[1/2]
    diagrams = [stationary_from_rows(((0,) * q,), root=((0,) * q,)) for q in (2, 3, 4, 6, 12, 18)]
    groups = [trace_image_group(d) for d in diagrams + [scaled]]

    def member(x, g):
        return radical((x * g.denominator).denominator) <= radical(g.ratio)

    for a, b in itertools.product(groups, repeat=2):
        checks = [(a.denominator, b, a), (b.denominator, a, b)]
        if a.ratio != b.ratio:
            checks += [(a.ratio * b.denominator, b, a), (b.ratio * a.denominator, a, b)]
        escapes = [(k, g, h) for k, g, h in checks if not member(Fraction(1, k), g)]
        res = trace_images_isomorphic(a, b)
        if not escapes:
            assert res == TraceIsoResult(True, "identical rational subgroups")
            continue
        k, g, h = escapes[0]
        # the number named lies in exactly one of the two images
        assert member(Fraction(1, k), h) and not member(Fraction(1, k), g)
        where = "first image, not the second" if h is a else "second image, not the first"
        assert res == TraceIsoResult(False, "1/%d lies in the %s" % (k, where))
    res = trace_images_isomorphic(trace_image_group(dyadic()), trace_image_group(odometer(6)))
    assert res.reason == "1/6 lies in the second image, not the first"


def test_field_pair_comparisons_are_pinned():
    # (value, reason, certificate) on every ordered pair of field images of
    # the named systems, the hierarchy pool and P40', hashed in order
    pool = [make() for make in NAMED.values()] + hierarchy_pool()
    pool += [stationary_from_rows(r) for r in p40_rows()]
    groups = [g for g in map(trace_image_group, pool) if g.kind == "field"]
    digest = hashlib.sha256()
    counts = collections.Counter()
    for a, b in itertools.product(groups, repeat=2):
        res = trace_images_isomorphic(a, b)
        counts[res.value] += 1
        digest.update(json.dumps([res.value, res.reason, res.certificate], sort_keys=True).encode())
    assert counts == {None: 2054, True: 50, False: 12}
    assert digest.hexdigest() == (
        "32c61c71b13a76d0bad532807d39d1f816b1983ffcb4015256e61e04759c14bd"
    )
