"""Decision procedures for the conjugacy hierarchy and their certificates."""

import collections
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from cantorconj import classify as classify_module
from cantorconj.bratteli import (
    CapabilityError,
    DgElement,
    OrderedBratteliDiagram,
    capped_heights,
    cells,
    class_of_clopen,
    heights,
    incidence,
    parse_diagram,
    serialize_diagram,
    tower_map,
    tower_stacks,
)
from cantorconj.classify import (
    ClopenSet,
    IntertwiningLadder,
    K0Morphism,
    Obstruction,
    PartitionHomeomorphism,
    SearchExhausted,
    StageError,
    _class_signs,
    build_k0_morphism,
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    lift_class_under,
    partition_from_classes,
    tau_certificate,
    verify_certificate,
    verify_ladder,
    weak_certificate,
)
from cantorconj.check import (
    WEAK_ROUNDS,
    CertificateCheck,
    _certificate,
    _least_failing_factor,
    _weak_witness,
    diagram_digest,
    frobenius,
    pair_weak_schedules,
    represent,
    weak_schedules,
)
from cantorconj.dimgroup import POSITIVE, UNKNOWN, ZERO, DimGroup
from cantorconj.fieldpoly import _mat_apply
from cantorconj.fullgroup import BlockConditionViolation, ConjugatorError
from cantorconj.invariants import DEFAULT_DEPTH, divides_unit, spectra_equal
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
    power_of,
    primitive_2x2_diagrams,
    random_explicit,
    random_stationary,
    rows_of,
    time_ceiling,
)
from test_telescoping import telescoping_pairs

DYADIC = dyadic()
TRIADIC = triadic()
QUATERNARY = quaternary()
FIB = fibonacci()
# incidence ((1,1,0),(0,1,1),(2,2,2)): a cubic trace field
TRI3 = stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2)))


# ---------------------------------------------------------------------------
# oracles


def oracle_representable(k, bound):
    ok = [False] * (bound + 1)
    ok[0] = True
    for t in range(1, bound + 1):
        ok[t] = any(t >= ki and ok[t - ki] for ki in k)
    return ok


def oracle_threshold(k):
    # least N with everything from N up representable, by direct scan
    bound = max(k) * max(k) + max(k) + 1
    ok = oracle_representable(k, bound)
    n = bound + 1
    while n > 1 and ok[n - 1]:
        n -= 1
    return max(n, 1)


def oracle_lex_least(d, k):
    best = None
    caps = [d // ki + 1 for ki in k]
    for combo in itertools.product(*[range(c) for c in caps]):
        if sum(c * ki for c, ki in zip(combo, k)) == d:
            if best is None or combo < best:
                best = combo
    return best


def reach_table(k, top):
    """reach[i][t]: t is a nonnegative combination of k[i:], for t <= top."""
    r = len(k)
    reach = [[False] * (top + 1) for _ in range(r + 1)]
    reach[r][0] = True
    for i in range(r - 1, -1, -1):
        row, below = reach[i], reach[i + 1]
        for t in range(top + 1):
            row[t] = below[t] or (t >= k[i] and row[t - k[i]])
    return reach


def reach_lex_least(reach, k, d):
    """Lex-least representation of d read greedily off a reach table."""
    if not reach[0][d]:
        return None
    out = []
    for i, ki in enumerate(k):
        c = 0
        while not reach[i + 1][d - c * ki]:
            c += 1
        out.append(c)
        d -= c * ki
    return tuple(out)


def mat_apply(mat, vec):
    return tuple(sum(r * x for r, x in zip(row, vec)) for row in mat)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def cset(level, cells_):
    return ClopenSet(level, tuple(sorted(cells_)))


# ---------------------------------------------------------------------------
# numerical semigroup helpers


def test_frobenius_known_values():
    assert frobenius((3, 5)) == 8
    assert frobenius((2, 3)) == 2
    assert frobenius((1,)) == 1
    assert frobenius((6, 10, 15)) == 30


def test_frobenius_rejects_bad_input():
    with pytest.raises(ValueError):
        frobenius((2, 4))
    with pytest.raises(ValueError):
        frobenius(())
    with pytest.raises(ValueError):
        frobenius((0, 3))


def test_frobenius_matches_scan():
    rng = random.Random(4)
    done = 0
    while done < 40:
        k = tuple(sorted(rng.sample(range(2, 20), rng.randint(2, 4))))
        if math.gcd(*k) != 1:
            continue
        assert frobenius(k) == oracle_threshold(k)
        done += 1


def test_frobenius_of_two_generators_matches_scan():
    # Sylvester's formula, also with a repeated generator or a 1
    pairs = [(a, b) for a in range(1, 16) for b in range(a + 1, 25) if math.gcd(a, b) == 1]
    for a, b in pairs:
        assert frobenius((a, b)) == frobenius((b, a, b)) == oracle_threshold((a, b)), (a, b)
    assert len(pairs) > 150


def test_represent_examples():
    assert represent(8, (3, 5)) == (1, 1)
    assert represent(7, (3, 5)) is None
    assert represent(0, (3, 5)) == (0, 0)
    assert represent(0, ()) == ()
    assert represent(3, ()) is None
    assert represent(5, (0, 5)) is None
    # by hand: 4 is not needed, d = 5 + 6 c with c = (10**30 + 2) / 6
    assert represent(10**30 + 7, (4, 1, 6)) == (0, 5, (10**30 + 2) // 6)


def test_represent_matches_reach_table():
    rng = random.Random(17)
    done = with_one = not_coprime = 0
    while done < 2000:
        k = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.15:
            k = k[:3] + (1,)
        with_one += 1 in k
        not_coprime += math.gcd(*k) > 1
        ds = [rng.randint(0, 3000) for _ in range(10)]
        reach = reach_table(k, max(ds))
        for d in ds:
            assert represent(d, k) == reach_lex_least(reach, k, d), (d, k)
        done += len(ds)
    assert with_one and not_coprime


def test_represent_is_lex_least():
    rng = random.Random(11)
    for _ in range(80):
        k = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
        d = rng.randint(0, 40)
        got = represent(d, k)
        want = oracle_lex_least(d, k)
        assert got == want
        if got is not None:
            assert sum(c * ki for c, ki in zip(got, k)) == d


# ---------------------------------------------------------------------------
# unit-preserving morphisms


def test_morphism_dyadic_into_quaternary():
    t = build_k0_morphism(DYADIC, 2, QUATERNARY, 1)
    assert isinstance(t, K0Morphism)
    assert t.matrix == ((1,),)
    assert mat_apply(t.matrix, heights(DYADIC, t.source_level)) == heights(
        QUATERNARY, t.target_level
    )


def test_morphism_unit_preservation_always():
    for a, la, b in [
        (DYADIC, 1, QUATERNARY),
        (QUATERNARY, 1, DYADIC),
        (DYADIC, 3, DYADIC),
        (FIB, 1, FIB),
        (FIB, 2, FIB),
    ]:
        t = build_k0_morphism(a, la, b, 1)
        assert isinstance(t, K0Morphism)
        assert all(x >= 0 for row in t.matrix for x in row)
        assert mat_apply(t.matrix, heights(a, la)) == heights(b, t.target_level)


def test_morphism_obstruction_dyadic_triadic():
    t = build_k0_morphism(DYADIC, 1, TRIADIC, 1)
    assert isinstance(t, Obstruction)
    assert t.kind == "divisor" and t.witness == 2


def test_morphism_trivial_root():
    t = build_k0_morphism(DYADIC, 0, DYADIC, 0)
    assert isinstance(t, K0Morphism)
    assert t.matrix == ((1,),)


def reference_build_k0_morphism(dgA, levelA, dgB, levelB, depth=DEFAULT_DEPTH):
    """build_k0_morphism with frobenius and represent run afresh on every
    call, as it was before the source level's tables were kept."""
    hA = heights(dgA, levelA)
    p = math.gcd(*hA)
    ks = tuple(m // p for m in hA)
    res = divides_unit(dgB, p, depth)
    if res.verdict == "no":
        return Obstruction("divisor", _least_failing_factor(dgB, p, depth))
    if res.verdict == "unknown":
        raise SearchExhausted(depth, "divisibility of the target unit by %d" % p)
    threshold = frobenius(ks)
    start = max(levelB, res.level)
    top = dgB.max_level()
    bound = start + depth if top is None else min(start + depth, top)
    for lb in range(start, bound + 1):
        hB = heights(dgB, lb)
        if any(x % p for x in hB):
            continue
        ds = tuple(x // p for x in hB)
        if not all(dd >= threshold for dd in ds):
            continue
        rows = tuple(represent(dd, ks) for dd in ds)
        assert all(row is not None for row in rows)
        t = K0Morphism(rows, levelA, lb)
        assert t.apply(hA) == hB
        return t
    raise SearchExhausted(depth, "target level with reduced heights above %d" % threshold)


def _morphism_outcome(build, *args):
    try:
        return build(*args)
    except SearchExhausted as e:
        return ("exhausted", str(e))


def fresh(d):
    """An equal diagram that has computed nothing yet."""
    return OrderedBratteliDiagram(d.kind, d.vertex_counts, d.tables)


def test_morphisms_match_the_per_call_reference():
    # named systems, odometers 2-6, 20 seeded primitive 2x2/3x3 systems and
    # 8 seeded explicit 4-level diagrams, every ordered pair at source and
    # target levels 1-3, at the default depth and at depth 1; the first call
    # on a source level, target search or morphism fills its entry, the
    # later ones read it and must give what fresh copies of both diagrams
    # give, and a search that ran out raises again on the second call
    pool = [NAMED[name]() for name in sorted(NAMED)]
    pool += [odometer(q) for q in range(2, 7)]
    rng = random.Random(14)
    while len(pool) < 9 + 20:
        d = random_stationary(rng, primitive=True)
        if d.num_vertices(1) >= 2:
            pool.append(d)
    pool += [random_explicit(rng) for _ in range(8)]
    morphisms = obstructions = 0
    exhausted = collections.Counter()
    for a in pool:
        for b in pool:
            for la in (1, 2, 3):
                for lb in (1, 2, 3):
                    for depth in (DEFAULT_DEPTH, 1):
                        args = (a, la, b, lb, depth)
                        got = _morphism_outcome(build_k0_morphism, *args)
                        assert got == _morphism_outcome(reference_build_k0_morphism, *args)
                        assert got == _morphism_outcome(build_k0_morphism, *args)
                        assert got == _morphism_outcome(
                            build_k0_morphism, fresh(a), la, fresh(b), lb, depth
                        )
                        morphisms += isinstance(got, K0Morphism)
                        obstructions += isinstance(got, Obstruction)
                        if isinstance(got, tuple):
                            exhausted[got[1].split(" by ")[0].split(" above ")[0]] += 1
    assert morphisms > 1000 and obstructions > 1000
    assert set(exhausted) == {
        "divisibility of the target unit",
        "target level with reduced heights",
    }, exhausted


def test_one_source_level_keeps_a_morphism_per_target():
    # fibonacci's level 2 (heights (2, 1)) into dyadic and triadic: both
    # targets are found at level 1, with reduced heights (2,) and (3,)
    a = fibonacci()
    got = [build_k0_morphism(a, 2, b, 1) for b in (DYADIC, TRIADIC)]
    assert [t.target_level for t in got] == [1, 1]
    assert got[0] != got[1]
    for t, b in zip(got, (DYADIC, TRIADIC)):
        assert t == build_k0_morphism(fresh(a), 2, fresh(b), 1)
        assert mat_apply(t.matrix, heights(a, 2)) == heights(b, 1)
    assert sorted(key for key in a._memo if key[0] == "k0_morphism") == [
        ("k0_morphism", 2, 1, (2,)),
        ("k0_morphism", 2, 1, (3,)),
    ]
    assert [build_k0_morphism(a, 2, b, 1) for b in (DYADIC, TRIADIC)] == got


def verbatim_least_failing_factor(dg, p, depth):
    """_least_failing_factor as it was first written: trial division by
    every odd q up to p."""
    q, rest = 2, p
    while rest > 1:
        if rest % q == 0:
            power = q
            while rest % q == 0:
                rest //= q
                if divides_unit(dg, power, depth).verdict == "no":
                    return power
                power *= q
        q += 1 if q == 2 else 2
    return p


def test_obstruction_witness_matches_the_full_trial_division():
    pool = [odometer(q) for q in range(2, 61)] + [NAMED[name]() for name in sorted(NAMED)]
    obstructions = 0
    for a in pool:
        p = math.gcd(*heights(a, 1))
        for b in pool:
            want = verbatim_least_failing_factor(b, p, DEFAULT_DEPTH)
            assert _least_failing_factor(b, p, DEFAULT_DEPTH) == want
            got = build_k0_morphism(a, 1, b, 1)
            if isinstance(got, Obstruction):
                assert got == Obstruction("divisor", want)
                obstructions += 1
    assert obstructions > 2000


def test_obstruction_witness_of_a_large_prime_stops_at_its_square_root():
    # both level-2 heights are 10^4 * 10^4 + 1 * 7 = 100000007, a prime; the
    # diagram has about 3 * 10^4 edges where odometer(100000007) has 10^8
    row = (0,) * 10 ** 4 + (1,)
    a = stationary_from_rows((row, row), root=((0,) * 10 ** 4, (0,) * 7))
    assert heights(a, 2) == (100000007, 100000007)
    with time_ceiling(5):
        start = time.perf_counter()
        got = build_k0_morphism(a, 2, dyadic(), 1)
        elapsed = time.perf_counter() - start
    assert got == Obstruction("divisor", 100000007)
    assert elapsed < 0.1


# ---------------------------------------------------------------------------
# deciders


def test_weak_dyadic_quaternary():
    res = decide_weak(DYADIC, QUATERNARY)
    assert res.verdict == "weak"
    assert res.forward and res.backward
    for t in res.forward:
        assert mat_apply(t.matrix, heights(DYADIC, t.source_level)) == heights(
            QUATERNARY, t.target_level
        )
    for t in res.backward:
        assert mat_apply(t.matrix, heights(QUATERNARY, t.source_level)) == heights(
            DYADIC, t.target_level
        )


def test_weak_negative_witnesses():
    assert decide_weak(DYADIC, TRIADIC).verdict == "not"
    assert decide_weak(DYADIC, TRIADIC).witness == 2
    res = decide_weak(DYADIC, FIB)
    assert res.verdict == "not" and res.witness == 2


def test_weak_symmetric():
    for a, b in [(DYADIC, TRIADIC), (DYADIC, QUATERNARY), (FIB, DYADIC)]:
        assert decide_weak(a, b).verdict == decide_weak(b, a).verdict


def test_k_conjugacy_dyadic_quaternary():
    res = decide_k_conjugacy(DYADIC, QUATERNARY)
    assert res.verdict == "k-conjugate"
    lad = res.ladder
    assert lad.forwards == (((2,),), ((2,),))
    assert lad.backwards == (((2,),), ((2,),))
    assert lad.a_levels == (1, 3, 5) and lad.b_levels == (1, 2)
    assert verify_ladder(lad, DYADIC, QUATERNARY).ok


def test_k_conjugacy_negative_cases():
    res = decide_k_conjugacy(DYADIC, TRIADIC)
    assert res.verdict == "not"
    assert any(o.kind == "spectra" and o.witness == 2 for o in res.obstructions)

    res = decide_k_conjugacy(FIB, DYADIC)
    assert res.verdict == "not"
    kinds = {o.kind for o in res.obstructions}
    assert "trace" in kinds and "rank" in kinds


def test_k_conjugacy_reflexive():
    for d in (DYADIC, FIB, TRIADIC):
        res = decide_k_conjugacy(d, d)
        assert res.verdict == "k-conjugate"
        assert verify_ladder(res.ladder, d, d).ok


def test_ladder_detects_perturbation():
    lad = decide_k_conjugacy(DYADIC, QUATERNARY).ladder
    rows = [list(map(list, m)) for m in lad.forwards]
    rows[0][0][0] += 1
    broken = IntertwiningLadder(
        lad.a_levels,
        lad.b_levels,
        tuple(tuple(map(tuple, m)) for m in rows),
        lad.backwards,
    )
    rep = verify_ladder(broken, DYADIC, QUATERNARY)
    assert not rep.ok
    assert rep.index is not None


def test_ladder_identity_pair():
    lad = IntertwiningLadder((1, 1), (1,), (((1, 0), (0, 1)),), (((1, 0), (0, 1)),))
    assert verify_ladder(lad, FIB, FIB).ok


def test_tau_verdicts():
    assert decide_tau(DYADIC, QUATERNARY).verdict == "tau"
    assert decide_tau(FIB, FIB).verdict == "tau"
    res = decide_tau(DYADIC, TRIADIC)
    assert res.verdict == "not"
    assert any(o.kind == "spectra" and o.witness == 2 for o in res.obstructions)
    res = decide_tau(FIB, DYADIC)
    assert res.verdict == "not"


def test_tau_reports_the_rank_obstruction():
    # a cubic against a quadratic trace field: equal spectra, so the pair is
    # weak, but images spanning real fields of different degree differ
    a = stationary_from_rows(rows_of(((1, 1, 1), (2, 1, 0), (1, 1, 0))))
    b = stationary_from_rows(rows_of(((0, 1, 0), (1, 1, 1), (0, 1, 2))))
    assert decide_weak(a, b).verdict == "weak"
    for x, y, ranks in ((a, b, (3, 2)), (b, a, (2, 3))):
        res = decide_tau(x, y)
        assert res.verdict == "not"
        assert Obstruction("rank", ranks) in res.obstructions
        kres = decide_k_conjugacy(x, y)
        assert kres.verdict == "not"
        assert kres.obstructions == res.obstructions


def test_tau_symmetric():
    for a, b in [(DYADIC, QUATERNARY), (DYADIC, TRIADIC), (FIB, DYADIC)]:
        assert decide_tau(a, b).verdict == decide_tau(b, a).verdict


def test_hierarchy_consistency():
    mat = [DYADIC, TRIADIC, QUATERNARY, FIB]
    for a in mat:
        for b in mat:
            k = decide_k_conjugacy(a, b)
            t = decide_tau(a, b)
            w = decide_weak(a, b)
            if k.verdict == "k-conjugate":
                assert t.verdict == "tau"
            if t.verdict == "tau":
                assert w.verdict == "weak"


def test_positive_answers_close_on_telescoping_pairs():
    # each primitive 2x2 system against its square, both orders, and
    # odometers 2, 3, 5 against their squares, both orders, and their cubes;
    # weak's scan of target levels is bounded by depth even on stationary
    # input, and at depth 3 or less it gives up on some of these pairs
    pairs = []
    for d in primitive_2x2_diagrams():
        sq = power_of(d, 2)
        pairs += [(d, sq), (sq, d)]
    for q in (2, 3, 5):
        pairs += [(odometer(q), odometer(q * q)), (odometer(q * q), odometer(q))]
        pairs.append((odometer(q), odometer(q ** 3)))
    assert len(pairs) == 73
    counts = collections.Counter()
    for a, b in pairs:
        w = decide_weak(a, b, depth=DEFAULT_DEPTH).verdict
        t = decide_tau(a, b, depth=DEFAULT_DEPTH).verdict
        k = decide_k_conjugacy(a, b, depth=DEFAULT_DEPTH).verdict
        counts[t, k] += 1
        if t == "tau" or k == "k-conjugate":
            assert w == "weak", (incidence(a, 1), incidence(b, 1), t, k)
    assert counts == {("tau", "k-conjugate"): 33, ("unknown", "k-conjugate"): 40}


def test_kept_weak_schedules_match_a_fresh_build_at_every_depth(monkeypatch):
    # each pair's schedules are built once per depth and kept on A; at
    # depths -1..6, up and down again on the same objects, the kept ones
    # are a fresh build's on fresh objects, and so are the verdicts:
    # Unknown on every pair at depth -1 and on some up to depth 3
    counts = collections.Counter()
    for a, b in telescoping_pairs():
        for depth in (*range(-1, 7), *range(6, -2, -1)):
            res = decide_weak(a, b, depth=depth)
            fresh = weak_schedules(
                parse_diagram(serialize_diagram(a)), parse_diagram(serialize_diagram(b)), depth
            )
            assert pair_weak_schedules(a, b, depth) == fresh
            assert res.spectra.verdict == "equal"
            assert res.verdict == ("unknown" if fresh is None else "weak")
            assert (res.forward, res.backward) == (fresh or ((), ()))
            counts[depth, res.verdict] += 1
    unknown = {-1: 73, 0: 40, 1: 32, 2: 24, 3: 24, 4: 0, 5: 0, 6: 0}
    want = collections.Counter()
    for depth, n in unknown.items():
        want[depth, "unknown"] += 2 * n
        want[depth, "weak"] += 2 * (73 - n)
    assert counts == want
    # decide_weak and the weak replay read one build, and decide_weak takes
    # no digest
    built = []
    monkeypatch.setattr(
        "cantorconj.check.weak_schedules", lambda *args: built.append(1) or weak_schedules(*args)
    )
    a, b = fibonacci(), power_of(fibonacci(), 2)
    res = decide_weak(a, b)
    assert res.verdict == "weak" and "digest" not in b._memo
    assert verify_certificate(weak_certificate(res, a, b), (a, b)).ok
    assert decide_weak(a, b) == res and built == [1]


def test_three_vertex_trace_field_verdicts():
    assert decide_tau(TRI3, TRI3).verdict == "tau"
    assert decide_k_conjugacy(TRI3, TRI3).verdict == "k-conjugate"
    for other in (DYADIC, TRIADIC, QUATERNARY, FIB):
        for a, b in ((TRI3, other), (other, TRI3)):
            k = decide_k_conjugacy(a, b)
            t = decide_tau(a, b)
            w = decide_weak(a, b)
            if k.verdict == "k-conjugate":
                assert t.verdict == "tau"
            if t.verdict == "tau":
                assert w.verdict == "weak"


# ---------------------------------------------------------------------------
# lifting lemmas


def test_lift_under_prefix():
    u = cset(3, [(0, j) for j in range(1, 7)])
    grp = DimGroup(DYADIC)
    q = lift_class_under(DYADIC, u, grp.element(3, (3,)))
    assert q.cells == ((0, 1), (0, 2), (0, 3))


def test_lift_full_space():
    grp = DimGroup(DYADIC)
    u = cset(1, cells(DYADIC, 1))
    q = lift_class_under(DYADIC, u, grp.unit(1))
    assert set(q.cells) == set(cells(DYADIC, q.level))


def test_lift_rejects_oversized_class():
    grp = DimGroup(DYADIC)
    u = cset(3, [(0, j) for j in range(1, 7)])
    with pytest.raises(ValueError):
        lift_class_under(DYADIC, u, grp.element(3, (7,)))


def test_lift_multitower():
    grp = DimGroup(FIB)
    u = cset(2, cells(FIB, 2))
    x = grp.element(2, (1, 0))
    q = lift_class_under(FIB, u, x)
    got = class_of_clopen(FIB, q.level, q.cells)
    assert grp.equal(got, x).value is True


def test_lift_random_subsets():
    rng = random.Random(23)
    grp = DimGroup(DYADIC)
    all2 = cells(DYADIC, 2)
    for _ in range(20):
        u_cells = sorted(rng.sample(all2, rng.randint(1, 4)))
        take = rng.randint(1, len(u_cells))
        x = class_of_clopen(DYADIC, 2, u_cells[:take])
        u = cset(2, u_cells)
        q = lift_class_under(DYADIC, u, x)
        from cantorconj.bratteli import tower_map

        proj = tower_map(DYADIC, 2, q.level)
        assert all(proj[c] in u.cells for c in q.cells)
        got = class_of_clopen(DYADIC, q.level, q.cells)
        assert grp.equal(got, x).value is True


def test_partition_from_classes_singletons():
    grp = DimGroup(DYADIC)
    parts = partition_from_classes(DYADIC, (grp.element(1, (1,)), grp.element(1, (1,))))
    assert len(parts) == 2
    covered = sorted(c for p in parts for c in p.cells)
    assert covered == sorted(cells(DYADIC, parts[0].level))


def test_partition_single_block():
    grp = DimGroup(DYADIC)
    parts = partition_from_classes(DYADIC, (grp.unit(1),))
    assert len(parts) == 1
    assert set(parts[0].cells) == set(cells(DYADIC, parts[0].level))


def test_partition_rejects_bad_sums():
    grp = DimGroup(DYADIC)
    with pytest.raises(ValueError):
        partition_from_classes(DYADIC, (grp.element(1, (1,)),))
    with pytest.raises(ValueError):
        partition_from_classes(
            DYADIC, (grp.element(1, (3,)), grp.element(1, (-1,)))
        )


def test_partition_allows_zero_blocks():
    grp = DimGroup(DYADIC)
    parts = partition_from_classes(
        DYADIC, (grp.element(1, (0,)), grp.unit(1))
    )
    assert parts[0].cells == ()
    assert set(parts[1].cells) == set(cells(DYADIC, parts[1].level))


def test_partition_classes_match():
    rng = random.Random(5)
    grp = DimGroup(DYADIC)
    for _ in range(10):
        a = rng.randint(0, 4)
        xs = (grp.element(2, (a,)), grp.element(2, (4 - a,)))
        parts = partition_from_classes(DYADIC, xs)
        seen = set()
        for p, x in zip(parts, xs):
            assert seen.isdisjoint(p.cells)
            seen.update(p.cells)
            got = class_of_clopen(DYADIC, p.level, p.cells)
            assert grp.equal(got, x).value is True


def test_partition_homeo_identity():
    # the identity morphism matches each level-m cell with itself
    for d in (DYADIC, TRIADIC):
        bundle = conjugate_at_resolution(d, d, 2)
        assert bundle.sigma == PartitionHomeomorphism(2, 2)
        assert bundle.blocks == tuple((c,) for c in cells(d, 2))


def test_partition_homeo_from_morphism():
    t = build_k0_morphism(DYADIC, 1, QUATERNARY, 1)
    grpb = DimGroup(QUATERNARY)
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 1)
    sigma = bundle.sigma
    # one block per level-1 cell of the dyadic system, none empty
    assert sigma.source_level == 1 and len(bundle.blocks) == 2 and all(bundle.blocks)
    for block in bundle.blocks:
        got = class_of_clopen(QUATERNARY, sigma.target_level, block)
        img = grpb.element(t.target_level, mat_apply(t.matrix, (1,)))
        assert grpb.equal(got, img).value is True


def test_partition_homeo_degenerate():
    # an image in the zero class gets an empty target block
    grpb = DimGroup(QUATERNARY)
    images = (grpb.element(1, (4,)), grpb.element(1, (0,)))
    target = partition_from_classes(QUATERNARY, images)
    assert target[0].cells == tuple(cells(QUATERNARY, 1))
    assert target[1].cells == ()


def test_lifts_bind_cell_cap_on_the_levels_they_refine_to():
    # level 12 of the dyadic odometer has CELL_CAP = 4096 cells, level 13
    # twice that: a lift reads the cells of a level only when it refines to it
    d = odometer(2)
    q = lift_class_under(d, ClopenSet(13, ((0, 5), (0, 9))), DgElement(13, (1,)))
    assert q == ClopenSet(13, ((0, 5),))
    q = lift_class_under(d, ClopenSet(11, ((0, 5),)), DgElement(12, (1,)))
    assert q == ClopenSet(12, ((0, 5),))
    with pytest.raises(CapabilityError, match="level 13 has more than CELL_CAP"):
        lift_class_under(d, ClopenSet(12, ((0, 5),)), DgElement(13, (1,)))
    with pytest.raises(CapabilityError, match="level 13 has more than CELL_CAP"):
        partition_from_classes(d, [DgElement(13, (1,)), DgElement(13, (8191,))])


def greedy_partition_reference(d, xs, depth=40):
    """The greedy partition built on the public lift_class_under, which
    decides every sign again and measures the running complement itself."""
    grp = DimGroup(d)
    verdicts = []
    for x in xs:
        v = grp.is_positive(x, depth).verdict
        if v not in (POSITIVE, ZERO):
            raise SearchExhausted(depth) if v == UNKNOWN else ValueError(v)
        verdicts.append(v)
    total = xs[0]
    for x in xs[1:]:
        total = grp.add(total, x)
    if grp.equal(total, grp.unit(1), depth).value is not True:
        raise ValueError("classes must sum to the order unit")
    last = max(i for i, v in enumerate(verdicts) if v == POSITIVE)
    level0 = max([x.level for x in xs] + [1])
    running = ClopenSet(level0, tuple(cells(d, level0)))
    out = []
    for i, x in enumerate(xs):
        if verdicts[i] == ZERO:
            out.append(ClopenSet(running.level, ()))
        elif i == last:
            out.append(running)
            running = ClopenSet(running.level, ())
        else:
            q = lift_class_under(d, running, x, depth)
            out.append(q)
            proj = tower_map(d, running.level, q.level)
            rest = [
                c for c in cells(d, q.level)
                if proj[c] in running.cells and c not in q.cells
            ]
            running = ClopenSet(q.level, tuple(rest))
    final = max(b.level for b in out)
    refined = []
    for b in out:
        proj = tower_map(d, b.level, final)
        refined.append(ClopenSet(final, tuple(c for c in cells(d, final) if proj[c] in b.cells)))
    return tuple(refined)


def _random_split(rng, items, parts):
    items = list(items)
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    return [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]


def seeded_class_lists(rng, d, count):
    """Classes of random clopen partitions: cells of level 1 or 2 split
    into blocks, one block sometimes split again a level further down,
    and sometimes a zero class inserted."""
    grp = DimGroup(d)
    for _ in range(count):
        lvl = rng.randint(1, 2)
        level_cells = cells(d, lvl)
        parts = _random_split(rng, level_cells, rng.randint(1, min(5, len(level_cells))))
        xs = [class_of_clopen(d, lvl, p) for p in parts]
        if rng.random() < 0.5:
            i = rng.randrange(len(parts))
            proj = tower_map(d, lvl, lvl + 1)
            under = [c for c in cells(d, lvl + 1) if proj[c] in parts[i]]
            if len(under) > 1:
                xs[i:i + 1] = [
                    class_of_clopen(d, lvl + 1, p) for p in _random_split(rng, under, 2)
                ]
        if rng.random() < 0.3:
            zero = grp.element(lvl, (0,) * d.num_vertices(lvl))
            xs.insert(rng.randrange(len(xs) + 1), zero)
        yield tuple(xs)


def seeded_signed_class_lists(rng, d, count):
    """Positive classes summing to the unit, drawn as integer vectors that
    may have negative entries at their level (the lifts must push them)."""
    grp = DimGroup(d)
    made = 0
    while made < count:
        lvl = rng.randint(1, 2)
        k = d.num_vertices(lvl)
        xs = [
            grp.element(lvl, [rng.randint(-2, 4) for _ in range(k)])
            for _ in range(rng.randint(1, 3))
        ]
        rest = grp.unit(lvl)
        for x in xs:
            rest = grp.sub(rest, x)
        xs.insert(rng.randrange(len(xs) + 1), rest)
        if all(grp.is_positive(x).verdict == POSITIVE for x in xs):
            made += 1
            yield tuple(xs)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, SearchExhausted, CapabilityError) as e:
        return type(e)


def test_partition_matches_greedy_lift_reference():
    rng = random.Random(41)
    systems_ = [DYADIC, FIB]
    while len(systems_) < 8:
        k = rng.choice((2, 3))
        rows = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 3))) for _ in range(k)]
        d = stationary_from_rows(rows)
        if DimGroup(d).primitive:
            systems_.append(d)
    systems_ += [random_explicit(rng, levels=6) for _ in range(2)]
    outcomes = []
    for d in systems_:
        lists = list(seeded_class_lists(rng, d, 12))
        if d.kind == "stationary":
            lists += seeded_signed_class_lists(rng, d, 6)
        for xs in lists:
            got = _outcome(partition_from_classes, d, xs)
            assert got == _outcome(greedy_partition_reference, d, xs), xs
            outcomes.append(got if isinstance(got, type) else tuple)
    # a few lifts run past the cell cap, identically in both
    assert outcomes.count(tuple) > 0.9 * len(outcomes)

    # the transported shape: one class per source tower, repeated on its cells
    transported = 0
    for a, b in itertools.product(systems_[:8], repeat=2):
        for m in (1, 2):
            t = _outcome(build_k0_morphism, a, m, b, 1)
            if not isinstance(t, K0Morphism):
                continue
            columns = [DgElement(t.target_level, col) for col in zip(*t.matrix)]
            xs = tuple(x for x, h in zip(columns, heights(a, m)) for _ in range(h))
            got = _outcome(partition_from_classes, b, xs)
            assert got == _outcome(greedy_partition_reference, b, xs), (a, b, m)
            transported += got is not CapabilityError
    assert transported > 40

    # explicit diagrams where a lift walks three or more levels past its
    # start, so the room moves up the levels one incidence matrix at a time
    deep = 0
    for _ in range(12):
        d = random_explicit(rng, levels=9, max_vertices=3, max_edges=3)
        grp = DimGroup(d)
        for _ in range(30):
            k = d.num_vertices(1)
            xs = [grp.element(1, [rng.randint(-2, 3) for _ in range(k)])
                  for _ in range(rng.randint(1, 3))]
            rest = grp.unit(1)
            for x in xs:
                rest = grp.sub(rest, x)
            xs.insert(rng.randrange(len(xs) + 1), rest)
            got = _outcome(partition_from_classes, d, xs)
            assert got == _outcome(greedy_partition_reference, d, xs), xs
            assert got == _outcome(rescanning_partition_from_classes, d, xs), xs
            deep += isinstance(got, tuple) and got[0].level >= 4
    assert deep >= 3, deep


def rescanning_lowest_floors(grp, u, cls_u, x, depth):
    """The lowest floors of u, found by scanning every cell of the lift
    level against the projection of u."""
    d = grp.diagram
    base = max(u.level, x.level)
    top = d.max_level()
    bound = base + depth if top is None else min(base + depth, top)
    for lvl in range(base, bound + 1):
        rep = grp.push(x, lvl).vector
        cap = grp.push(cls_u, lvl).vector
        if all(0 <= r <= c for r, c in zip(rep, cap)):
            proj = tower_map(d, u.level, lvl)
            members = set(u.cells)
            chosen = []
            need = list(rep)
            for c in cells(d, lvl):
                if need[c[0]] > 0 and proj[c] in members:
                    chosen.append(c)
                    need[c[0]] -= 1
            return ClopenSet(lvl, tuple(chosen))
    raise SearchExhausted(depth, "level with a coordinatewise representative")


def rescanning_refine(d, cs, level):
    if level == cs.level:
        return cs
    proj = tower_map(d, cs.level, level)
    members = set(cs.cells)
    return ClopenSet(level, tuple(c for c in cells(d, level) if proj[c] in members))


def rescanning_lift_class_under(d, u, x, depth=DEFAULT_DEPTH):
    """lift_class_under as it was before the per-tower floor lists."""
    grp = DimGroup(d)
    cls_u = class_of_clopen(d, u.level, u.cells)
    pos = grp.is_positive(x, depth)
    if pos.verdict == ZERO:
        return ClopenSet(u.level, ())
    if pos.verdict != POSITIVE:
        if pos.verdict == UNKNOWN:
            raise SearchExhausted(depth, "positivity of the class")
        raise ValueError("class to lift must be positive or zero")
    rem = grp.is_positive(grp.sub(cls_u, x), depth)
    if rem.verdict == UNKNOWN:
        raise SearchExhausted(depth, "room under the given set")
    if rem.verdict not in (POSITIVE, ZERO):
        raise ValueError("class exceeds the set it must fit under")
    return rescanning_lowest_floors(grp, u, cls_u, x, depth)


def rescanning_partition_from_classes(d, xs, depth=DEFAULT_DEPTH):
    """partition_from_classes as it was before the per-tower floor lists:
    every lift rescans the cells of its level and rebuilds the complement."""
    grp = DimGroup(d)
    xs = tuple(xs)
    verdicts = []
    for x in xs:
        v = grp.is_positive(x, depth).verdict
        if v == UNKNOWN:
            raise SearchExhausted(depth, "positivity of a prescribed class")
        if v not in (POSITIVE, ZERO):
            raise ValueError("classes must be positive or zero")
        verdicts.append(v)
    total = xs[0]
    for x in xs[1:]:
        total = grp.add(total, x)
    if grp.equal(total, grp.unit(1), depth).value is not True:
        raise ValueError("classes must sum to the order unit")
    last_positive = max(i for i, v in enumerate(verdicts) if v == POSITIVE)
    level0 = max([x.level for x in xs] + [1])
    running = ClopenSet(level0, tuple(cells(d, level0)))
    room = grp.unit(level0)
    out = []
    for i, x in enumerate(xs):
        if verdicts[i] == ZERO:
            out.append(ClopenSet(running.level, ()))
            continue
        if i == last_positive:
            out.append(running)
            running = ClopenSet(running.level, ())
            continue
        q = rescanning_lowest_floors(grp, running, room, x, depth)
        out.append(q)
        room = grp.sub(room, x)
        refined = rescanning_refine(d, running, q.level)
        taken = set(q.cells)
        running = ClopenSet(q.level, tuple(c for c in refined.cells if c not in taken))
    final = max(b.level for b in out)
    return tuple(rescanning_refine(d, b, final) for b in out)


def _kind(outcome, level):
    """The error raised, or whether the sets came out finer than level."""
    if isinstance(outcome, type):
        return outcome.__name__
    lifted = outcome[0].level if isinstance(outcome, tuple) else outcome.level
    return "finer" if lifted > level else "same level"


def test_partition_and_lift_match_the_rescanning_references():
    rng = random.Random(43)
    systems_ = [odometer(2), odometer(3), FIB, TRI3]
    systems_ += [random_explicit(rng, levels=6) for _ in range(3)]
    kinds = {}
    for d in systems_:
        grp = DimGroup(d)
        lists = list(seeded_class_lists(rng, d, 10))
        if d.kind == "stationary":
            lists += seeded_signed_class_lists(rng, d, 5)
        # classes off the unit, and a negative class
        lists.append(lists[0][:-1] + (grp.add(lists[0][-1], lists[0][-1]),))
        lists.append((grp.scale(-1, grp.unit(1)), grp.scale(2, grp.unit(1))))
        u1 = grp.unit(1)
        for xs in lists:
            for depth in (0, 1, DEFAULT_DEPTH):
                got = _outcome(partition_from_classes, d, xs, depth)
                assert got == _outcome(rescanning_partition_from_classes, d, xs, depth), xs
                key = "partition " + _kind(got, max(x.level for x in xs + (u1,)))
                kinds[key] = kinds.get(key, 0) + 1
        for _ in range(12):
            lvl = rng.randint(1, 2)
            under = sorted(rng.sample(cells(d, lvl), rng.randint(1, min(6, len(cells(d, lvl))))))
            u = ClopenSet(lvl, under)
            part = under[: rng.randint(0, len(under))]
            if rng.random() < 0.5:
                # the same class one level down, so the lift must refine
                proj = tower_map(d, lvl, lvl + 1)
                x = class_of_clopen(d, lvl + 1, [c for c in cells(d, lvl + 1) if proj[c] in part])
            else:
                x = class_of_clopen(d, lvl, part)
            if rng.random() < 0.2:
                x = grp.add(x, grp.unit(1))  # too large for u
            for depth in (0, DEFAULT_DEPTH):
                got = _outcome(lift_class_under, d, u, x, depth)
                assert got == _outcome(rescanning_lift_class_under, d, u, x, depth), (u, x)
                key = "lift " + _kind(got, lvl)
                kinds[key] = kinds.get(key, 0) + 1
    for key in ("partition ValueError", "partition SearchExhausted", "partition finer",
                "partition same level", "lift ValueError", "lift finer", "lift same level"):
        assert kinds.get(key, 0) > 0, (key, kinds)


# The lift on per-tower floor lists that classify kept before its sets
# were refined through tower_map, as it was there: a set is one increasing
# deque of floors per tower, and a lift takes a prefix of each.


def _refine_floors(d, floors, level: int, fine: int) -> list:
    """The same set at a finer level, one increasing deque per fine tower.

    A fine tower stacks whole level towers (bratteli.tower_stacks), so its
    floors in the set are those of each copy shifted by the floors below
    the copy; the work grows with the floors kept, not with the level.
    """
    if fine == level:
        return floors
    h = heights(d, level)
    out = []
    for stack in tower_stacks(d, level, fine):
        row = collections.deque()
        below = 0
        for u in stack:
            row.extend(below + j for j in floors[u])
            below += h[u]
        out.append(row)
    return out


def _lowest_floors(grp, level: int, floors, x: DgElement, depth) -> tuple:
    """The floor-picking routine of lift_class_under and
    partition_from_classes, with no sign checks.

    floors holds a set u at level as one increasing deque per tower, so
    their lengths are u's counting vector there, and pushed further they
    are u's counting vector at each finer level.  The first level lvl from
    max(level, x.level) on where x's representative rep lies between zero
    and that vector is the lift level; both vectors move up one incidence
    matrix per level.  Returns lvl, the lowest rep[w] floors of u in each
    tower w at lvl, and u's remaining floors there, taken off the front of
    the deques: the complement is what is left, so nothing is rebuilt.
    CELL_CAP binds on a lift level past level, whose cells the lifts
    enumerate (the caller's set at level is within it already).
    """
    d = grp.diagram
    base = max(level, x.level)
    rep = grp.push(x, base).vector
    room = tuple(map(len, floors))
    for n in range(level, base):
        room = _mat_apply(incidence(d, n), room)
    for lvl in range(base, d.scan_end(base, depth) + 1):
        if lvl > base:
            a = incidence(d, lvl - 1)
            rep, room = _mat_apply(a, rep), _mat_apply(a, room)
        if all(0 <= r <= c for r, c in zip(rep, room)):
            if lvl > level:
                capped_heights(d, lvl)
            floors = _refine_floors(d, floors, level, lvl)
            taken = [[row.popleft() for _ in range(r)] for row, r in zip(floors, rep)]
            return lvl, taken, floors
    raise SearchExhausted(depth, "level with a coordinatewise representative")


def per_class_partition_reference(d, xs, depth=DEFAULT_DEPTH):
    """partition_from_classes on per-tower floor lists: every class decides
    its sign and searches its lift level through _lowest_floors on its own,
    and every set is refined to the last lift level from its floor lists."""
    grp = DimGroup(d)
    xs = tuple(xs)
    if not xs:
        raise ValueError("need at least one class")
    verdicts = _class_signs(grp, xs, depth)
    level = max(max(x.level for x in xs), 1)
    total = DgElement(level, tuple(map(sum, zip(*(grp.push(x, level).vector for x in xs)))))
    if grp.equal(total, grp.unit(level), depth).value is not True:
        raise ValueError("classes must sum to the order unit")
    last_positive = max(i for i, v in enumerate(verdicts) if v == POSITIVE)
    running = [collections.deque(range(1, h + 1)) for h in capped_heights(d, level)]
    out = []
    for i, x in enumerate(xs):
        if verdicts[i] == ZERO:
            out.append((level, ()))
            continue
        if i == last_positive:
            out.append((level, running))
            running = [collections.deque() for _ in running]
            continue
        level, taken, running = _lowest_floors(grp, level, running, x, depth)
        out.append((level, taken))
    final = max(lvl for lvl, _ in out)
    sets = []
    for lvl, floors in out:
        rows = _refine_floors(d, floors, lvl, final) if floors else ()
        sets.append(ClopenSet(final, tuple((w, j) for w, row in enumerate(rows) for j in row)))
    return tuple(sets)


def _full_outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, SearchExhausted, CapabilityError) as e:
        return type(e), str(e)


def _run_lists(rng, d, count):
    """Lists of classes in runs: a few classes at level 1 or 2, each
    repeated, in runs or interleaved, a zero class sometimes put inside a
    run, and the remainder to the unit placed anywhere, or as the last
    copy of a run when the copies fill the unit.  Half the lists take
    nonnegative counting vectors that fit under the unit; the others take
    signed vectors, which the lifts must push and which may not be
    positive or fit at all."""
    grp = DimGroup(d)
    for i in range(count):
        lvl = rng.randint(1, 2)
        k = d.num_vertices(lvl)
        room = list(heights(d, lvl))
        parts = []
        for _ in range(rng.randint(1, 3)):
            if i % 2:
                x = [rng.randint(-1, 2) for _ in range(k)]
                n = rng.randint(1, 4)
            else:
                x = [rng.randint(0, 1) for _ in range(k)]
                if not any(x):
                    continue
                n = rng.randint(0, min(4, min(r // v for r, v in zip(room, x) if v)))
            room = [r - n * v for r, v in zip(room, x)]
            parts += [grp.element(lvl, x)] * n
        if rng.random() < 0.5:
            rng.shuffle(parts)  # interleaved runs
        xs = list(parts)
        if xs and rng.random() < 0.3:
            xs.insert(rng.randrange(len(xs) + 1), grp.element(lvl, (0,) * k))
        if any(room):
            xs.insert(rng.randrange(len(xs) + 1), grp.element(lvl, room))
        yield tuple(xs)


def test_partition_run_boundaries_match_the_per_class_reference(monkeypatch):
    lifted = []  # the class of each _lowest_floors call, per partition call
    search = classify_module._lowest_floors

    def recording(grp, level, floors, x, depth):
        lifted[-1].append(x)
        return search(grp, level, floors, x, depth)

    def run_wise(d, xs):
        lifted.append([])
        with monkeypatch.context() as patch:
            patch.setattr(classify_module, "_lowest_floors", recording)
            return _full_outcome(partition_from_classes, d, xs)

    grp = DimGroup(DYADIC)
    one = grp.element(2, (1,))
    zero = grp.element(2, (0,))
    two = grp.element(2, (2,))
    hand = [
        (one, one, two),  # the last positive class after a run
        (one, one, one, one),  # the last positive class inside a run
        (one, one, zero, one, one),  # a zero class inside a run
        (one, one, one, one, zero, zero),  # zero classes after the last run
        (one, two, one),  # interleaved runs
        (zero, one, one, one, one),
        (one, one, one, one, one),  # one copy too many
        (zero, zero),
    ]
    for xs in hand:
        assert run_wise(DYADIC, xs) == _full_outcome(per_class_partition_reference, DYADIC, xs)

    rng = random.Random(32)
    pool = [DYADIC, FIB, TRI3, stationary_from_rows(((0, 1), (0, 1, 1)))]
    pool += [random_stationary(rng, max_vertices=3, max_edges=3) for _ in range(4)]
    pool += [random_explicit(rng, levels=7, max_vertices=3, max_edges=3) for _ in range(3)]
    refits = 0
    outcomes = collections.Counter()
    for d in pool:
        for xs in _run_lists(rng, d, 25):
            got = run_wise(d, xs)
            assert got == _full_outcome(per_class_partition_reference, d, xs), (d, xs)
            outcomes[type(got[0]).__name__ if isinstance(got, tuple) and got else got] += 1
            # a class lifted twice without another class between: a copy that
            # did not fit at its run's level searched a finer one
            calls = lifted[-1]
            refits += any(a == b for a, b in zip(calls, calls[1:]))
    assert refits > 0
    assert outcomes["ClopenSet"] > 120, outcomes

    # the shape conjugate_at_resolution passes: one class per tower of a
    # multi-tower system, repeated once per cell of that tower
    grid = resolution_grid()
    transported = 0
    for a, b in itertools.product(grid, repeat=2):
        for m in (1, 2):
            if a.num_vertices(m) < 2:
                continue
            t = _outcome(build_k0_morphism, a, m, b, 1)
            if not isinstance(t, K0Morphism):
                continue
            columns = [DgElement(t.target_level, col) for col in zip(*t.matrix)]
            xs = tuple(x for x, h in zip(columns, heights(a, m)) for _ in range(h))
            got = run_wise(b, xs)
            assert got == _full_outcome(per_class_partition_reference, b, xs), (a, b, m)
            transported += isinstance(got, tuple) and isinstance(got[0], ClopenSet)
    assert transported > 1000, transported


def test_conjugator_past_the_cell_cap_replays():
    # quaternary against dyadic at m = 5 audits 8,192 cells at level 13,
    # above CELL_CAP: the audit runs per coarse tower
    from conftest import time_ceiling

    with time_ceiling(30):
        bundle = conjugate_at_resolution(QUATERNARY, DYADIC, 5)
        assert sum(heights(DYADIC, bundle.report.level)) > 4096
        assert bundle.report.verdict == "ok"
        cert = conjugator_certificate(
            bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
        )
        check = verify_certificate(json.loads(json.dumps(cert)), (DYADIC,))
    assert check.ok, check.reason


# ---------------------------------------------------------------------------
# conjugation at a resolution


def test_conjugate_self_dyadic():
    bundle = conjugate_at_resolution(DYADIC, DYADIC, 2)
    assert bundle.report.verdict == "ok"
    assert all(bundle.blocks)


def test_conjugate_dyadic_quaternary():
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    assert bundle.report.verdict == "ok"
    assert bundle.corrector.diagram == QUATERNARY


def test_conjugate_quaternary_dyadic_past_twenty_blocks():
    # 64 level-3 cells of the quaternary odometer, one block each
    bundle = conjugate_at_resolution(QUATERNARY, DYADIC, 3)
    assert len(bundle.blocks) == 64
    assert bundle.report.verdict == "ok"


def test_conjugate_obstructed():
    with pytest.raises(StageError) as e:
        conjugate_at_resolution(DYADIC, TRIADIC, 2)
    assert e.value.stage == "morphism"
    assert e.value.obstruction.witness == 2


def test_package_errors_survive_pickle_and_copy():
    # errors handed back across a process pool are pickled: each comes back
    # with its type, its text and its attributes
    expected = [
        (
            ConjugatorError(
                "blocks",
                "tower 0 at level 4 fails the block condition",
                tower=0,
                violation=((1,),),
            ),
            "tower 0 at level 4 fails the block condition",
        ),
        (
            StageError("partition", message="a cell transported to the zero class"),
            "a cell transported to the zero class",
        ),
        (
            StageError("morphism", Obstruction("divisor", 2)),
            "morphism stage failed: Obstruction(kind='divisor', witness=2)",
        ),
        (
            SearchExhausted(40, "ladder node budget"),
            "ladder node budget exhausted within depth 40",
        ),
        (SearchExhausted(7), "search exhausted within depth 7"),
        (
            BlockConditionViolation(((1, 2), (4,))),
            "block condition fails on the subfamily {(1, 2), (4,)}",
        ),
    ]
    for e, text in expected:
        assert str(e) == text
        for back in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
            assert type(back) is type(e)
            assert str(back) == text
            assert vars(back) == vars(e)


def test_conjugate_unresolved_divisibility_is_a_morphism_stage_error():
    # no scanned level of the target shows its unit divisible by 2
    target = OrderedBratteliDiagram(
        "explicit", (1, 2, 2, 1), (((0,), (0,)), ((0, 1), (1,)), ((0, 1),))
    )
    with pytest.raises(StageError) as e:
        conjugate_at_resolution(DYADIC, target, 1)
    assert e.value.stage == "morphism"
    assert e.value.obstruction is None
    assert "divisibility of the target unit by 2" in str(e.value)


def two_partition_stage_reference(dA, dB, m, depth=DEFAULT_DEPTH):
    """The morphism and partition stages built with both sides split along
    classes: dA along its cells' classes, dB along their images.  Returns
    the matching with the cells of its source and target blocks, or raises
    the StageError those stages raise."""
    try:
        t = build_k0_morphism(dA, m, dB, 1, depth)
    except SearchExhausted as e:
        raise StageError("morphism", message=str(e))
    if isinstance(t, Obstruction):
        raise StageError("morphism", t)
    acells = cells(dA, m)
    grpb = DimGroup(dB)
    classes = tuple(class_of_clopen(dA, m, (c,)) for c in acells)
    images = tuple(
        grpb.element(t.target_level, tuple(row[c[0]] for row in t.matrix))
        for c in acells
    )
    try:
        source = partition_from_classes(dA, classes, depth)
        target = partition_from_classes(dB, images, depth)
    except (ValueError, SearchExhausted) as e:
        raise StageError("partition", message=str(e))
    if not all(b.cells for b in source + target):
        raise StageError("partition", message="a cell transported to the zero class")
    sigma = PartitionHomeomorphism(source[0].level, target[0].level)
    return sigma, tuple(b.cells for b in source), tuple(b.cells for b in target)


def pipeline_stages(dA, dB, m):
    """conjugate_at_resolution's matching with the cells of its blocks: dA's
    are its level-m cells, dB's the bundle's blocks."""
    bundle = conjugate_at_resolution(dA, dB, m)
    return bundle.sigma, tuple((c,) for c in cells(dA, m)), bundle.blocks


def resolution_grid():
    """Every 2x2 incidence with entries <= 2 that builds (primitive or not),
    odometers 2, 3, 4 and 6, and two multi-vertex systems: 70 systems."""
    out = []
    for entries in itertools.product(range(3), repeat=4):
        try:
            out.append(stationary_from_rows(rows_of((entries[:2], entries[2:]))))
        except ValueError:  # a vertex with no incoming edge
            pass
    out += [odometer(q) for q in (2, 3, 4, 6)]
    out += [FIB, stationary_from_rows(((0, 1), (0, 1, 1)))]
    return out


def test_one_partition_stage_matches_the_two_partition_reference():
    def outcome(run):
        try:
            return run()
        except (StageError, CapabilityError) as e:
            return (type(e).__name__, getattr(e, "stage", None), str(e))

    grid = resolution_grid()
    assert len(grid) == 70
    failures = collections.Counter()
    for a, b in itertools.product(grid, repeat=2):
        for m in (1, 2):
            want = outcome(lambda: two_partition_stage_reference(a, b, m))
            got = outcome(lambda: pipeline_stages(a, b, m))
            if isinstance(want[0], PartitionHomeomorphism) and isinstance(got[0], str):
                # a later stage failed; those stages read only dB's side
                assert got[1] not in ("morphism", "partition"), (a, b, m, got)
                continue
            assert got == want, (a, b, m)
            if isinstance(got[0], str):
                failures[got] += 1
    # non-primitive systems reach both partition-stage failures
    partition = {msg for _, stage, msg in failures if stage == "partition"}
    assert partition == {
        "a cell transported to the zero class",
        "positivity of a prescribed class exhausted within depth %d" % DEFAULT_DEPTH,
    }, partition


def test_pipeline_outputs_on_odometer_pairs_are_pinned():
    # the conjugator certificate and report of every ordered pair of
    # odometers 2..6 at m = 1..3, or the error raised, hashed in order
    odometers = {q: odometer(q) for q in range(2, 7)}
    digest = hashlib.sha256()
    for qa, qb in itertools.product(odometers, repeat=2):
        for m in (1, 2, 3):
            try:
                b = conjugate_at_resolution(odometers[qa], odometers[qb], m)
            except (StageError, CapabilityError) as e:
                record = [type(e).__name__, getattr(e, "stage", None), str(e)]
            else:
                cert = conjugator_certificate(
                    b.corrector, b.sigma.target_level, b.blocks, b.images
                )
                record = [cert, dataclasses.asdict(b.report)]
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "7d86b14efbf783b959cb5ee92172a5339a20a3320f5c524fb11bf473937269c9"
    )


def resolution_inputs():
    """Freshly built (dA, dB, m): the bench's odometer pairs at every level
    with at most 20 cells of dA, quaternary against dyadic at m = 1..3, and
    each primitive 2x2 system with entries <= 2 against itself at m = 1, 2.
    Within one call the odometers are shared objects, as in the bench."""
    odometers = {q: odometer(q) for q in (2, 3, 4)}
    out = [
        (odometers[qa], odometers[qb], m)
        for qa, qb in ((2, 2), (2, 4), (4, 2), (3, 3), (4, 4))
        for m in range(1, 5)
        if qa ** m <= 20
    ]
    q, d = quaternary(), dyadic()
    out += [(q, d, m) for m in (1, 2, 3)]
    out += [(a, a, m) for a in primitive_2x2_diagrams() for m in (1, 2)]
    return out


def resolution_outcome(dA, dB, m):
    """The report's verdict and counts, the corrector's level and tables,
    the blocks and images, the certificate's bytes and its replay; or the
    failing stage and its message."""
    try:
        b = conjugate_at_resolution(dA, dB, m)
    except StageError as e:
        return ["StageError", e.stage, str(e)]
    cert = conjugator_certificate(b.corrector, b.sigma.target_level, b.blocks, b.images)
    check = verify_certificate(cert, (dB,))
    return [
        b.report.verdict,
        b.report.checked,
        b.report.unresolved,
        b.corrector.level,
        b.corrector.tables,
        b.blocks,
        b.images,
        json.dumps(cert, sort_keys=True),
        [check.ok, check.reason],
    ]


def test_resolution_outcomes_agree_over_rounds_and_are_pinned():
    # two rounds on the same objects, the second reading what the first
    # kept, and one on freshly built objects give the same records
    inputs = resolution_inputs()
    assert len(inputs) == 14 + 3 + 64
    rounds = [[resolution_outcome(*x) for x in inputs] for _ in range(2)]
    rounds.append([resolution_outcome(*x) for x in resolution_inputs()])
    assert rounds[0] == rounds[1] == rounds[2]
    failed = collections.Counter(r[1] for r in rounds[0] if r[0] == "StageError")
    assert failed == {"partition": 50, "conjugator": 14}
    digest = hashlib.sha256(json.dumps(rounds[0]).encode()).hexdigest()
    assert digest == "8a92cb6f414a4c380576d3219f3bd8545164e5d3bcabf5c6f17108cf4d108ea6"


# ---------------------------------------------------------------------------
# certificates


def test_ladder_certificate_roundtrip():
    res = decide_k_conjugacy(DYADIC, QUATERNARY)
    cert = ladder_certificate(res.ladder, DYADIC, QUATERNARY)
    cert = json.loads(json.dumps(cert, sort_keys=True))
    check = verify_certificate(cert, (DYADIC, QUATERNARY))
    assert check.ok, check.reason


def test_certificate_binds_to_inputs():
    res = decide_k_conjugacy(DYADIC, QUATERNARY)
    cert = ladder_certificate(res.ladder, DYADIC, QUATERNARY)
    assert not verify_certificate(cert, (DYADIC, TRIADIC)).ok
    assert not verify_certificate(cert, (QUATERNARY, DYADIC)).ok


def test_certificate_rejects_tampering():
    res = decide_k_conjugacy(DYADIC, QUATERNARY)
    cert = ladder_certificate(res.ladder, DYADIC, QUATERNARY)

    bad = copy.deepcopy(cert)
    bad["witness"]["forwards"][0][0][0] += 1
    assert not verify_certificate(bad, (DYADIC, QUATERNARY)).ok

    bad = copy.deepcopy(cert)
    bad["claim"] = "weak"
    assert not verify_certificate(bad, (DYADIC, QUATERNARY)).ok

    bad = copy.deepcopy(cert)
    digest = bad["systems"][0]
    bad["systems"][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert not verify_certificate(bad, (DYADIC, QUATERNARY)).ok


def test_weak_certificate_roundtrip():
    res = decide_weak(DYADIC, QUATERNARY)
    cert = weak_certificate(res, DYADIC, QUATERNARY)
    assert verify_certificate(cert, (DYADIC, QUATERNARY)).ok
    bad = copy.deepcopy(cert)
    bad["witness"]["forward"][0]["matrix"][0][0] += 1
    assert not verify_certificate(bad, (DYADIC, QUATERNARY)).ok


def test_tau_certificate_roundtrip():
    res = decide_tau(DYADIC, QUATERNARY)
    cert = tau_certificate(res, DYADIC, QUATERNARY)
    assert verify_certificate(cert, (DYADIC, QUATERNARY)).ok
    assert not verify_certificate(cert, (DYADIC, TRIADIC)).ok


def test_conjugator_certificate_roundtrip():
    from cantorconj.fullgroup import conjugator_from_partition

    blocks = (((0, 1),), ((0, 2),))
    images = (((0, 2),), ((0, 1),))
    elem = conjugator_from_partition(DYADIC, 1, blocks, images)
    cert = conjugator_certificate(elem, 1, blocks, images)
    assert verify_certificate(cert, (DYADIC,)).ok
    bad = copy.deepcopy(cert)
    bad["witness"]["element"]["towers"][0]["r"][1] += 1
    assert not verify_certificate(bad, (DYADIC,)).ok


def test_digest_is_canonical_and_distinct():
    assert diagram_digest(DYADIC) == diagram_digest(dyadic())
    assert diagram_digest(DYADIC) != diagram_digest(QUATERNARY)


def test_digest_of_a_warm_diagram_is_the_hash_of_its_serialization():
    d = fibonacci()
    decide_k_conjugacy(d, stationary_from_rows(((0, 0, 1), (0, 1))))
    first = diagram_digest(d)
    assert d._memo
    for _ in range(2):
        assert diagram_digest(d) == first
        assert first == hashlib.sha256(serialize_diagram(d).encode("utf-8")).hexdigest()


def _tupled(obj):
    """obj with every list turned into a tuple, as a caller in this process
    may hand a witness over."""
    if isinstance(obj, dict):
        return {k: _tupled(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return tuple(_tupled(v) for v in obj)
    return obj


def _as_given(cert):
    """The certificate as emitted, after a JSON round trip, and tupled."""
    loaded = json.loads(json.dumps(cert))
    return cert, loaded, _tupled(loaded)


# weak and tau pairs: odometers, a multi-vertex system against its
# square, and a cubic trace field against itself
B21 = stationary_from_rows(((0, 0, 1), (0, 1, 1)))  # [[2,1],[1,2]]
REPLAY_PAIRS = (
    (DYADIC, QUATERNARY),
    (QUATERNARY, DYADIC),
    (B21, power_of(B21, 2)),
    (power_of(B21, 2), B21),
    (TRI3, TRI3),
)


def test_weak_replay_accepts_every_form_and_rejects_a_changed_schedule():
    for a, b in REPLAY_PAIRS + ((FIB, stationary_from_rows(((0, 0, 1), (0, 1)))),):
        res = decide_weak(a, b)
        assert res.verdict == "weak"
        cert = weak_certificate(res, a, b)
        for given in _as_given(cert):
            check = verify_certificate(given, (a, b))
            assert check.ok, check.reason
        for key, src, dst in (("forward", a, b), ("backward", b, a)):
            for i, blob in enumerate(cert["witness"][key]):
                # a unit-preserving morphism one target level deeper: true,
                # but not the canonical schedule entry
                deeper = build_k0_morphism(src, blob["source_level"], dst, blob["target_level"] + 1)
                bad = copy.deepcopy(cert)
                bad["witness"][key][i] = deeper.to_json()
                for given in _as_given(bad):
                    check = verify_certificate(given, (a, b))
                    assert check.reason == "witness differs from recomputation"
                # the same entry read one level off
                bad = copy.deepcopy(cert)
                bad["witness"][key][i]["target_level"] += 1
                for given in _as_given(bad):
                    assert not verify_certificate(given, (a, b)).ok
        bad = copy.deepcopy(cert)
        bad["witness"]["forward"][0]["source_level"] = str(bad["witness"]["forward"][0]["source_level"])
        assert verify_certificate(bad, (a, b)).reason == "witness differs from recomputation"
        bad = copy.deepcopy(cert)
        bad["witness"]["extra"] = []
        assert verify_certificate(bad, (a, b)).reason == "witness differs from recomputation"


def verbatim_same_json(ours, given) -> bool:
    """The structural comparison the weak replay below used before weak
    witnesses were compared as canonical text: scalars compared with ==."""
    if isinstance(ours, dict):
        return (
            isinstance(given, dict)
            and given.keys() == ours.keys()
            and all(verbatim_same_json(v, given[k]) for k, v in ours.items())
        )
    if isinstance(ours, (list, tuple)):
        return (
            isinstance(given, (list, tuple))
            and len(given) == len(ours)
            and all(map(verbatim_same_json, ours, given))
        )
    return isinstance(given, (str, int, float, type(None))) and given == ours


def verbatim_weak_replay(witness, systems) -> CertificateCheck:
    """The weak branch of verify_certificate, with its handler, as it was
    while every entry was parsed and checked for sign and unit preservation
    and the recomputation was rebuilt as JSON to compare."""
    try:
        if len(systems) != 2:
            return CertificateCheck(False, "claim needs exactly two systems")
        if any(len(witness[key]) != WEAK_ROUNDS for key in ("forward", "backward")):
            return CertificateCheck(False, "schedules must hold %d morphisms" % WEAK_ROUNDS)
        for key, src, dst in (
            ("forward", systems[0], systems[1]),
            ("backward", systems[1], systems[0]),
        ):
            for blob in witness[key]:
                mat = tuple(tuple(int(x) for x in row) for row in blob["matrix"])
                if any(x < 0 for row in mat for x in row):
                    return CertificateCheck(False, "negative entry in schedule")
                hs = heights(src, int(blob["source_level"]))
                ht = heights(dst, int(blob["target_level"]))
                if _mat_apply(mat, hs) != ht:
                    return CertificateCheck(
                        False, "%s schedule does not preserve the unit" % key
                    )
        schedules = None
        if spectra_equal(*systems).verdict == "equal":
            schedules = weak_schedules(*systems)
        if schedules is None:
            return CertificateCheck(False, "spectra no longer verify as equal")
        if not verbatim_same_json(_weak_witness(*schedules), witness):
            return CertificateCheck(False, "witness differs from recomputation")
        return CertificateCheck(True)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, CapabilityError) as e:
        return CertificateCheck(False, "malformed certificate: %s" % e)


def _nodes(obj, path=()):
    """(path, value) for obj and every value inside it; a path lists the
    keys and indices that lead there."""
    yield path, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _nodes(v, path + (i,))


def _replaced(obj, path, value):
    """obj with the value at path replaced, obj itself left as it is."""
    if not path:
        return value
    out = copy.copy(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


# JSON scalars: a leaf retyped to one of these and equal to the original in
# Python (2.0 or True for an integer, 1.0 for true) is a "retype"
_SCALARS = (bool, int, float, str, type(None))


def witness_tampers(witness):
    """(form, tampered witness) pairs: each digit of the JSON text bumped;
    each leaf negated and retyped to float, str, bool, None and Fraction
    (no JSON value); each list as a tuple, one item short and one item
    long, and every list a tuple at once; each key of each dict dropped,
    and an extra one added.  form is "tuple" for the tuple forms, "retype"
    for a leaf retyped to another JSON scalar type equal to it in Python,
    and "tamper" for the rest.  An edit that changes nothing (0 negated,
    an empty list shortened) or that cannot apply (a string negated) is
    left out."""
    text = json.dumps(witness)
    for pos, ch in enumerate(text):
        if ch.isdigit():
            yield "tamper", json.loads(text[:pos] + str((int(ch) + 1) % 10) + text[pos + 1 :])
    yield "tuple", _tupled(witness)
    for path, value in _nodes(witness):
        if isinstance(value, dict):
            for key in value:
                dropped = {k: v for k, v in value.items() if k != key}
                yield "tamper", _replaced(witness, path, dropped)
            yield "tamper", _replaced(witness, path, dict(value, extra=0))
        elif isinstance(value, list):
            yield "tuple", _replaced(witness, path, tuple(value))
            if value:
                yield "tamper", _replaced(witness, path, value[:-1])
                yield "tamper", _replaced(witness, path, value + value[-1:])
        else:
            for retype in (operator.neg, float, str, bool, lambda v: None, Fraction):
                try:
                    new = retype(value)
                except (TypeError, ValueError):
                    continue
                if type(new) is type(value) and new == value:
                    continue
                form = "retype" if isinstance(new, _SCALARS) and new == value else "tamper"
                yield form, _replaced(witness, path, new)


def weak_replay_pairs():
    """REPLAY_PAIRS, the fibonacci pair, and the weak ordered pairs among
    four seeded primitive 2x2/3x3 systems and their squares."""
    pairs = list(REPLAY_PAIRS) + [(FIB, stationary_from_rows(((0, 0, 1), (0, 1))))]
    rng = random.Random(25)
    pool = []
    while len(pool) < 8:
        d = random_stationary(rng, primitive=True)
        if d.num_vertices(1) >= 2:
            pool += [d, power_of(d, 2)]
    pairs += [
        (a, b)
        for a, b in itertools.product(pool, repeat=2)
        if decide_weak(a, b).verdict == "weak"
    ]
    return pairs


def test_weak_replay_agrees_with_the_verbatim_branch_on_every_tamper():
    pairs = weak_replay_pairs()
    assert len(pairs) >= 6 + 8
    outcomes = collections.Counter()
    for a, b in pairs:
        cert = weak_certificate(decide_weak(a, b), a, b)
        witness = json.loads(json.dumps(cert["witness"]))
        for form, bad in witness_tampers(witness):
            got = verify_certificate(dict(cert, witness=bad), (a, b))
            verbatim = verbatim_weak_replay(bad, (a, b))
            if form == "retype":
                # the verbatim branch compared leaves with ==
                assert verbatim.ok, bad
                assert got.reason == "witness differs from recomputation", bad
            else:
                assert got.ok == verbatim.ok, (bad, got.reason)
            assert got.ok == (form == "tuple"), (form, bad, got.reason)
            outcomes[form] += 1
        # a level a million levels up is never walked to
        for key in ("forward", "backward"):
            for i in range(WEAK_ROUNDS):
                for field in ("source_level", "target_level"):
                    bad = _replaced(witness, (key, i, field), 10 ** 6)
                    with time_ceiling(1):
                        got = verify_certificate(dict(cert, witness=bad), (a, b))
                    assert got.reason == "witness differs from recomputation"
    # tuples pass, as lists; a float or boolean equal to an integer leaf
    # fails, as every other tamper does
    assert outcomes["tuple"] > 100, outcomes
    assert outcomes["retype"] > 1000 and outcomes["tamper"] > 1000, outcomes


def test_tau_replay_accepts_every_form_and_rejects_a_changed_witness():
    outcomes = collections.Counter()
    for a, b in REPLAY_PAIRS:
        res = decide_tau(a, b)
        assert res.verdict == "tau"
        cert = tau_certificate(res, a, b)
        for given in _as_given(cert):
            check = verify_certificate(given, (a, b))
            assert check.ok, check.reason
        witness = json.loads(json.dumps(cert["witness"]))
        for form, bad in witness_tampers(witness):
            tampered = dict(cert, witness=bad)
            try:
                givens = _as_given(tampered)
            except TypeError:  # a Fraction leaf has no JSON round trip
                givens = (tampered, _tupled(tampered))
            for given in givens:
                got = verify_certificate(given, (a, b))
                if form == "tuple":
                    assert got.ok, (given, got.reason)
                else:
                    assert got.reason == "witness differs from recomputation", (form, given)
            outcomes[form] += 1
    # among the retypes: stabilized true read as 1.0, minpoly entries as floats
    assert outcomes["retype"] > 10 and outcomes["tamper"] > 100, outcomes


def test_a_cyclic_or_too_deep_witness_differs_and_raises_nothing():
    weak = weak_certificate(decide_weak(DYADIC, QUATERNARY), DYADIC, QUATERNARY)
    tau = tau_certificate(decide_tau(FIB, FIB), FIB, FIB)
    deep = []
    for _ in range(10 ** 5):
        deep = [deep]
    for cert, systems, path in (
        (weak, (DYADIC, QUATERNARY), ("forward", 0, "matrix")),
        (tau, (FIB, FIB), ("trace", "a", "minpoly")),
    ):
        cyclic = copy.deepcopy(cert["witness"])
        node = cyclic
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = [cyclic]
        for bad in (cyclic, _replaced(cert["witness"], path, deep)):
            got = verify_certificate(dict(cert, witness=bad), systems)
            assert got.reason == "witness differs from recomputation"


def test_verify_certificate_rejects_malformed_payloads_and_propagates_faults(monkeypatch):
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    cert = conjugator_certificate(
        bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
    )
    for key in ("lookahead", "block_level"):
        # json.loads reads Infinity and 1e999 as float("inf")
        bad = json.loads(json.dumps(cert))
        bad["witness"][key] = float("inf")
        check = verify_certificate(bad, (QUATERNARY,))
        assert not check.ok and check.reason.startswith("malformed certificate: ")

    # every integer of a witness is a plain JSON integer, and no level lies
    # past MAX_LEVEL, which is refused before any heights are read
    from cantorconj.fullgroup import conjugator_from_partition

    ladder = json.loads(json.dumps(ladder_certificate(
        decide_k_conjugacy(DYADIC, QUATERNARY).ladder, DYADIC, QUATERNARY
    )))
    one = stationary_from_rows(((0,),))  # incidence [1]: never past the cell cap
    blocks = (((0, 1),),)
    single = conjugator_certificate(
        conjugator_from_partition(one, 1, blocks, blocks), 1, blocks, blocks
    )
    malformed = "malformed certificate: "
    for given, systems, path, value, reason in (
        (ladder, (DYADIC, QUATERNARY), ("a_levels", 0), 1.5, malformed),
        (ladder, (DYADIC, QUATERNARY), ("a_levels", 0), "1", malformed),
        (ladder, (DYADIC, QUATERNARY), ("b_levels", 0), True, malformed),
        (ladder, (DYADIC, QUATERNARY), ("a_levels", -1), 10 ** 20,
         "ladder rejected: a level lies past MAX_LEVEL = 1024"),
        (cert, (QUATERNARY,), ("lookahead",), "2", malformed),
        (cert, (QUATERNARY,), ("blocks", 0, 0, 1), 1.0, malformed),
        (single, (one,), ("block_level",), 10 ** 9,
         "level 1000000000 lies past MAX_LEVEL = 1024"),
    ):
        bad = copy.deepcopy(given)
        node = bad["witness"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with time_ceiling(1):
            check = verify_certificate(bad, systems)
        assert not check.ok and check.reason.startswith(reason), (path, check.reason)

    def faulty(*args, **kwargs):
        raise AssertionError("fault inside the replay")

    monkeypatch.setattr("cantorconj.check.verify_conjugator", faulty)
    with pytest.raises(AssertionError, match="fault inside the replay"):
        verify_certificate(cert, (QUATERNARY,))

    # a recomputed witness JSON cannot hold is a fault too, not malformed
    # input; fresh systems, so no text of the pair is kept yet
    a, b = dyadic(), quaternary()
    weak = weak_certificate(decide_weak(a, b), a, b)
    monkeypatch.setattr("cantorconj.check._weak_witness", lambda *s: {"forward": Fraction(1)})
    with pytest.raises(TypeError, match="Fraction"):
        verify_certificate(weak, (a, b))


def test_conjugator_replay_rejects_blocks_that_are_not_a_partition():
    d = odometer(2)
    bundle = conjugate_at_resolution(d, d, 2)
    cert = conjugator_certificate(
        bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
    )
    cert = json.loads(json.dumps(cert))
    assert verify_certificate(cert, (d,)).ok
    w = cert["witness"]
    assert len(w["blocks"]) >= 2

    def tampered(change):
        bad = copy.deepcopy(cert)
        change(bad["witness"])
        return verify_certificate(bad, (d,))

    for change, reason in (
        (lambda w: w["blocks"][0].append([0, 999]), "blocks do not partition"),
        (lambda w: w["images"][0].append(list(w["images"][1][0])), "image block overlap"),
        (lambda w: w["blocks"][0].append(list(w["blocks"][1][0])), "block overlap"),
    ):
        check = tampered(change)
        assert not check.ok
        assert check.reason.startswith("conjugator witness is not a partition: ")
        assert reason in check.reason


# ---------------------------------------------------------------------------
# invariants kept on the diagram


def test_memo_leaves_identity_alone():
    a, b = fibonacci(), fibonacci()
    before = (repr(a), serialize_diagram(a), diagram_digest(a), hash(a))
    decide_k_conjugacy(a, QUATERNARY)
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert (repr(a), serialize_diagram(a), diagram_digest(a), hash(a)) == before


def test_pair_outcomes_are_kept_per_ordered_pair(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("recomputed a kept pair outcome")

    a, b = dyadic(), quaternary()
    found = decide_k_conjugacy(a, b)
    narrow = decide_k_conjugacy(a, b, max_span=2, max_base=1)
    assert found.verdict == "k-conjugate" and narrow.verdict == "unknown"
    audits = []
    inner = classify_module.verify_ladder
    with monkeypatch.context() as patch:
        patch.setattr(classify_module, "_ladder_search", refused)
        patch.setattr(
            classify_module, "verify_ladder", lambda *args: audits.append(1) or inner(*args)
        )
        # the same question on the same objects reads the kept outcome, and
        # a returned ladder is audited again
        assert decide_k_conjugacy(a, b) == found
        assert decide_k_conjugacy(a, b, max_span=2, max_base=1) == narrow
        assert audits == [1]
        # another window or node budget is another question
        with pytest.raises(AssertionError, match="recomputed"):
            decide_k_conjugacy(a, b, max_span=11)
        patch.setattr(classify_module, "LADDER_NODE_BUDGET", 19_999)
        with pytest.raises(AssertionError, match="recomputed"):
            decide_k_conjugacy(a, b)
    # fresh objects with the same content search again, to the same bytes
    fresh_a, fresh_b = dyadic(), quaternary()
    assert json.dumps(ladder_certificate(found.ladder, a, b)) == json.dumps(
        ladder_certificate(decide_k_conjugacy(fresh_a, fresh_b).ladder, fresh_a, fresh_b)
    )

    # weak and tau replays recompute once per ordered pair, an acceptance
    # and a rejection alike
    fib = fibonacci()
    weak = weak_certificate(decide_weak(a, b), a, b)
    tau = tau_certificate(decide_tau(a, b), a, b)
    forged = [
        (_certificate("weak", (a, fib), weak["witness"]), (a, fib)),
        (_certificate("tau", (a, fib), tau["witness"]), (a, fib)),
    ]
    replays = [(weak, (a, b)), (tau, (a, b))] + forged
    firsts = [verify_certificate(cert, systems) for cert, systems in replays]
    assert [r.reason for r in firsts] == [
        "", "", "spectra no longer verify as equal", "invariants no longer verify"
    ]
    with monkeypatch.context() as patch:
        for name in ("spectra_equal", "weak_schedules", "trace_images_isomorphic"):
            patch.setattr("cantorconj.check." + name, refused)
        for (cert, systems), first in zip(replays, firsts):
            assert verify_certificate(cert, systems) == first
        # the submitted witness is still compared on every replay
        bumped = copy.deepcopy(tau)
        bumped["witness"]["trace"]["a"]["ratio"] = 3
        assert verify_certificate(bumped, (a, b)).reason == "witness differs from recomputation"


def counted_tau(monkeypatch):
    """decide_tau as decide_k_conjugacy calls it, counting its calls."""
    calls = []
    inner = classify_module.decide_tau
    monkeypatch.setattr(
        classify_module, "decide_tau", lambda *args: calls.append(args[:2]) or inner(*args)
    )
    return calls


def test_kept_ladder_outcome_is_read_before_tau(monkeypatch):
    calls = counted_tau(monkeypatch)
    a, b = fibonacci(), power_of(fibonacci(), 2)
    first = decide_k_conjugacy(a, b)
    assert first.verdict == "k-conjugate" and len(calls) == 1
    # a repeat, under any prime cutoff or depth, and an equal B loaded
    # separately read the kept outcome, and its ladder is audited again
    audits = []
    inner = classify_module.verify_ladder
    monkeypatch.setattr(
        classify_module, "verify_ladder", lambda *args: audits.append(1) or inner(*args)
    )
    twin = parse_diagram(serialize_diagram(b))
    for again in (
        decide_k_conjugacy(a, b),
        decide_k_conjugacy(a, b, prime_cutoff=2, depth=0),
        decide_k_conjugacy(a, twin),
    ):
        assert again == first
    assert len(calls) == 1 and audits == [1, 1, 1]
    # another window is another question
    assert decide_k_conjugacy(a, b, max_span=11) == first
    assert len(calls) == 2
    # an outcome kept as Unknown is read back the same way
    narrow = decide_k_conjugacy(a, b, max_span=2, max_base=1)
    assert narrow.verdict == "unknown" and len(calls) == 3
    assert decide_k_conjugacy(a, b, max_span=2, max_base=1) == narrow
    assert len(calls) == 3


def test_unkept_pairs_run_tau_on_every_call(monkeypatch):
    calls = counted_tau(monkeypatch)
    fib, dy = fibonacci(), dyadic()
    # a pair with a kept outcome on A does not keep A's refutations
    assert decide_k_conjugacy(dy, quaternary()).verdict == "k-conjugate"
    explicit = OrderedBratteliDiagram("explicit", (1, 1, 1, 1), ((((0, 0),)),) * 3)
    pairs = ((fib, dy), (dy, fib), (fib, fib), (dy, dy), (explicit, dy), (dy, explicit))
    want = ["not", "not", "k-conjugate", "k-conjugate", "unknown", "unknown"]
    for _ in range(3):
        del calls[:]
        assert [decide_k_conjugacy(x, y).verdict for x, y in pairs] == want
        assert calls == list(pairs)


def test_refutation_on_a_fresh_diagram_takes_no_digest(monkeypatch):
    def refused(d):
        raise AssertionError("took a digest")

    monkeypatch.setattr("cantorconj.check._sha256_of", refused)
    a, b = fibonacci(), dyadic()
    for _ in range(2):
        assert decide_k_conjugacy(a, b).verdict == "not"
        assert decide_k_conjugacy(a, a).verdict == "k-conjugate"


def test_tau_on_stationary_pairs_reads_no_cutoff_or_depth():
    # what lets a kept ladder outcome stand for every prime cutoff and depth
    pool = [DYADIC, TRIADIC, QUATERNARY, FIB, TRI3, odometer(6)]
    pool += [power_of(FIB, 2), power_of(TRI3, 2), stationary_from_rows(((0, 0, 1), (0, 1, 1)))]
    for a, b in itertools.product(pool, repeat=2):
        want = decide_tau(a, b)
        for prime_cutoff, depth in itertools.product((-1, 0, 2, 97, 10 ** 6), (-1, 0, 40)):
            got = decide_tau(a, b, prime_cutoff, depth)
            assert (got.verdict, got.obstructions) == (want.verdict, want.obstructions)


def test_corrector_synthesis_is_kept_per_ordered_pair_and_level(monkeypatch):
    syntheses, replays = [], []
    synthesize = classify_module.conjugator_from_partition
    replay = classify_module.verify_conjugator
    monkeypatch.setattr(
        classify_module,
        "conjugator_from_partition",
        lambda *args: syntheses.append(args[0]) or synthesize(*args),
    )
    monkeypatch.setattr(
        classify_module, "verify_conjugator", lambda *args: replays.append(1) or replay(*args)
    )

    def kept(d):
        return {k: v for k, v in d._memo.items() if k[0] == "corrector"}

    def plain(value):
        return isinstance(value, int) or (
            isinstance(value, tuple) and all(map(plain, value))
        )

    a, b = dyadic(), quaternary()
    first = conjugate_at_resolution(a, b, 2)
    assert first.report.ok and (len(syntheses), len(replays)) == (1, 1)
    # the same question synthesizes no more, and replays on every call
    again = conjugate_at_resolution(a, b, 2)
    assert again == first and again.corrector is not first.corrector
    assert (len(syntheses), len(replays)) == (1, 2)
    # a separately loaded equal dB reads the same entry, and the corrector
    # is rebuilt on the diagram the call was given
    loaded = parse_diagram(serialize_diagram(b))
    assert conjugate_at_resolution(a, loaded, 2) == first
    assert (len(syntheses), len(replays)) == (1, 3)
    assert conjugate_at_resolution(a, loaded, 2).corrector.diagram is loaded
    # another level, or (A, A) at the same level, is another entry
    conjugate_at_resolution(a, b, 1)
    conjugate_at_resolution(a, a, 2)
    assert syntheses == [b, b, a]
    assert sorted(k[2] for k in kept(a)) == [1, 2, 2] and not kept(b) and not kept(loaded)
    # a kept value is plain tuples of integers: no diagram is kept alive
    assert all(plain(v) for v in kept(a).values())
    value = kept(a)[("corrector", diagram_digest(b), 2, DEFAULT_DEPTH)]
    assert value == (first.blocks, first.images, first.corrector.level, first.corrector.tables)

    # a stall is raised again, with the same message, and nothing is kept
    s = stationary_from_rows(((1, 1), (0, 0, 1, 1)))
    syntheses.clear()
    for _ in range(2):
        with pytest.raises(StageError) as e:
            conjugate_at_resolution(s, s, 2)
        assert (e.value.stage, str(e.value)) == (
            "conjugator", "tower 0 at level 4 fails the block condition"
        )
    assert syntheses == [s, s] and not kept(s)


def test_replays_keep_the_recomputed_witness_text(monkeypatch):
    # the recomputed weak or tau witness is encoded once per ordered pair,
    # the submitted witness on every replay
    from cantorconj.bratteli import CANONICAL_JSON

    encoded = []

    class Counting:
        def encode(self, value):
            encoded.append(value)
            return CANONICAL_JSON.encode(value)

    monkeypatch.setattr("cantorconj.check.CANONICAL_JSON", Counting())
    a, b = dyadic(), quaternary()
    for cert in (
        weak_certificate(decide_weak(a, b), a, b),
        tau_certificate(decide_tau(a, b), a, b),
    ):
        for count in (2, 1, 1):
            encoded.clear()
            assert verify_certificate(cert, (a, b)).ok
            assert len(encoded) == count
    # an encoding error propagates and is not kept, so it comes back
    a, b = dyadic(), quaternary()
    weak = weak_certificate(decide_weak(a, b), a, b)
    monkeypatch.setattr("cantorconj.check._weak_witness", lambda *s: {"forward": Fraction(1)})
    for _ in range(2):
        with pytest.raises(TypeError, match="Fraction"):
            verify_certificate(weak, (a, b))


def test_invariants_computed_once_per_diagram(monkeypatch):
    from cantorconj import dimgroup

    calls = []
    real = dimgroup.irreducible_factor_of_largest_root

    def counted(p):
        calls.append(tuple(p))
        return real(p)

    monkeypatch.setattr(dimgroup, "irreducible_factor_of_largest_root", counted)
    fib, sq = fibonacci(), stationary_from_rows(((0, 0, 1), (0, 1)))  # [[2,1],[1,1]]
    assert decide_weak(fib, sq).verdict == "weak"
    decide_tau(fib, sq)
    res = decide_k_conjugacy(fib, sq)
    assert res.verdict == "k-conjugate"
    assert verify_certificate(ladder_certificate(res.ladder, fib, sq), (fib, sq)).ok
    for d in (fib, sq):
        cert = tau_certificate(decide_tau(d, d), d, d)
        assert verify_certificate(cert, (d, d)).ok
    assert sorted(calls) == [(-1, -1, 1), (1, -3, 1)]


def test_stabilized_is_read_off_the_norm(monkeypatch):
    from cantorconj import invariants
    from cantorconj.invariants import trace_image_group

    b21 = stationary_from_rows(((0, 0, 1), (0, 1, 1)))
    fib, tri3 = fibonacci(), stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2)))
    pairs = ((fib, fib), (fibonacci(), fibonacci()), (b21, power_of(b21, 2)), (tri3, tri3))
    pairs += ((dyadic(), quaternary()),)
    results = [decide_tau(a, b) for a, b in pairs]
    assert {res.verdict for res in results} == {"tau"}
    # one group per diagram object, equal groups counted apart: fibonacci
    # three times and tri3 once are field groups, b21 and the odometers cyclic
    groups = {id(d): trace_image_group(d) for pair in pairs for d in pair}
    field_groups = [g for g in groups.values() if g.kind == "field"]
    assert len(field_groups) == 4

    calls = []
    real = invariants.charpoly

    def counted(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(invariants, "charpoly", counted)
    for _ in range(3):
        for res, (a, b) in zip(results, pairs):
            tau_certificate(res, a, b)
    # stabilized is |minpoly(0)| == 1: the action of t has characteristic
    # polynomial minpoly, so no certificate asks for charpoly
    assert calls == []
    assert [g.stabilized for g in field_groups] == [True, True, True, False]
