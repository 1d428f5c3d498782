"""Positivity, pushing and Perron data in the dimension group, against references.

is_positive reads the sign of the trace from its numerator <v, rep> alone.
The reference here is the trace built by division in Q[x]/(minpoly) with
sympy's invert and rem, its sign read by interval evaluation over Fraction
endpoints, and the witness level is found by pushing through the raw edge
tables.

The Perron data is computed in integers: the characteristic polynomial
without fractions, the largest root's factor without refining, root counts
by integer Sturm chains, and the left eigenvector without elimination, as
integer polynomials in the root, kept as integer trace weights over one
scale.  The references below are the Fraction characteristic polynomial,
the factor selection that bisects until one factor is left and tightens
until it changes sign, the eigenvector solved by Gauss-Jordan elimination
over Q[x]/(minpoly) in sympy, the Sturm chain over Fraction by exact
division, and field signs by interval evaluation over Fraction endpoints.
The Perron data and trace images of the pooled systems are pinned by a
digest taken before the arithmetic moved to integers.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from cantorconj.bratteli import LevelRangeError, composed_incidence, heights, incidence
from cantorconj.check import _trace_group_json
from cantorconj.dimgroup import (
    NEGATIVE,
    NOT_COMPARABLE,
    POSITIVE,
    ZERO,
    DimGroup,
)
from cantorconj.fieldpoly import (
    NumberField,
    _mat_apply,
    _mat_mul,
    charpoly,
    count_real_roots,
    irreducible_factor_of_largest_root,
    irreducible_factors,
    isolate_largest_real_root,
    poly_mul,
    poly_trim,
    sturm_chain,
)
from cantorconj.invariants import trace_image_group
from cantorconj.systems import NAMED, fibonacci, odometer, stationary_from_rows

from conftest import _is_primitive, hierarchy_pool, oracle_incidence, random_explicit, time_ceiling
from test_telescoping import p40_rows, u22_rows

TRI3 = stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2)))


def _seeded_primitive(rng, count):
    out = []
    while len(out) < count:
        k = rng.choice((2, 3))
        rows = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 3))) for _ in range(k)]
        if _is_primitive(rows, k):
            root = tuple((0,) * rng.randint(1, 2) for _ in range(k))
            out.append(stationary_from_rows(rows, root=root))
    return out


def _systems():
    rng = random.Random(2024)
    return [odometer(2), odometer(6), fibonacci(), TRI3] + _seeded_primitive(rng, 20)


def _elements(grp, rng, count):
    for _ in range(count):
        level = rng.randint(0, 12)
        k = grp.diagram.num_vertices(level)
        if rng.random() < 0.15:
            vec = (0,) * k
        else:
            vec = tuple(rng.randint(-50, 50) for _ in range(k))
        yield grp.element(level, vec)


X = sympy.symbols("x")


def _qpoly(coeffs):
    """The rational polynomial with these coefficients, constant first, in sympy."""
    return sympy.Poly([sympy.Rational(str(c)) for c in reversed(coeffs)] or [0], X, domain="QQ")


def _fractions(poly):
    """The coefficients of a sympy polynomial, constant first, as trimmed Fractions."""
    return poly_trim(tuple(Fraction(str(c)) for c in reversed(poly.all_coeffs())))


def _eigenvector_of(data):
    """The left eigenvector the Perron data keeps, v_i = W_i / scale, as
    trimmed Fraction coefficient tuples."""
    return [poly_trim(tuple(Fraction(w, data.scale) for w in wi)) for wi in zip(*data.weights)]


def _normalizer_of(data, h1):
    """<v, heights(1)> from the Perron data: <W, heights(1)> / scale."""
    return poly_trim(tuple(Fraction(c, data.scale) for c in _mat_apply(data.weights, h1)))


def _division_trace(grp, g):
    """The trace as <v, rep> / (root^(m-1) * normalizer), by division in
    Q[x]/(minpoly) with sympy: the denominator's inverse from invert, the
    product reduced by rem."""
    data = grp.perron
    rep = grp.push(g, max(1, g.level))
    m = _qpoly(data.minpoly)
    v = [_qpoly(vi) for vi in _eigenvector_of(data)]
    num = _qpoly(())
    for vi, gi in zip(v, rep.vector):
        num += vi * gi
    den = _qpoly((0,) * (rep.level - 1) + (1,)) * _qpoly(_normalizer_of(data, heights(grp.diagram, 1)))
    return _fractions((num * den.invert(m)).rem(m))


def _reference_positivity(grp, g, depth=40):
    """Verdict and witness level from the division trace's sign."""
    data = grp.perron
    s = _interval_sign(NumberField(data.minpoly, *data.field.interval()), _division_trace(grp, g))
    if s == 0:
        return (ZERO if grp.is_zero(g).value else NOT_COMPARABLE), None
    d = grp.diagram
    level = max(1, g.level)
    vec = [s * x for x in grp.push(g, level).vector]
    for _ in range(max(64, 8 * depth)):
        if all(x >= 0 for x in vec):
            return (POSITIVE if s > 0 else NEGATIVE), level
        mat = oracle_incidence(d, level)
        vec = [sum(a * x for a, x in zip(row, vec)) for row in mat]
        level += 1
    return (POSITIVE if s > 0 else NEGATIVE), None


def test_positivity_matches_division_reference():
    rng = random.Random(77)
    seen = set()
    with time_ceiling(60):
        for d in _systems():
            grp = DimGroup(d)
            for g in _elements(grp, rng, 25):
                res = grp.is_positive(g)
                assert (res.verdict, res.witness_level) == _reference_positivity(grp, g), g
                seen.add(res.verdict)
    assert {POSITIVE, NEGATIVE, ZERO} <= seen


def test_trace_weights_are_the_eigenvector_scaled_to_integers():
    for d in _systems():
        data = DimGroup(d).perron
        scale, columns = data.scale, data.weights
        assert isinstance(scale, int) and scale > 0
        assert DimGroup(d).perron is data
        v = eliminated_left_eigenvector(incidence(d, 1), data.minpoly)
        assert len(columns) == data.field.degree
        for t, col in enumerate(columns):
            assert all(type(x) is int for x in col)
            for i, vi in enumerate(v):
                coeff = vi[t] if t < len(vi) else 0
                assert col[i] == coeff * scale
        # the least scale that clears every denominator: no common factor
        assert math.gcd(scale, *(x for col in columns for x in col)) == 1


def test_push_to_its_own_level_is_the_element_itself():
    rng = random.Random(79)
    for d in _systems()[:6] + [random_explicit(rng, levels=4)]:
        grp = DimGroup(d)
        for level in range(0, 4):
            g = grp.element(level, [rng.randint(-9, 9) for _ in range(d.num_vertices(level))])
            assert grp.push(g, level) is g
            assert grp.push(g, level + 1) is not g


def test_push_matches_composed_incidence():
    rng = random.Random(78)
    with time_ceiling(60):
        for d in _systems():
            grp = DimGroup(d)
            for g in _elements(grp, rng, 10):
                to = g.level + rng.randint(0, 6)
                m = composed_incidence(d, g.level, to)
                assert grp.push(g, to).vector == _mat_apply(m, g.vector)
        for _ in range(10):
            d = random_explicit(rng, levels=6)
            grp = DimGroup(d)
            level = rng.randint(0, 6)
            g = grp.element(level, [rng.randint(-50, 50) for _ in range(d.num_vertices(level))])
            to = rng.randint(level, 6)
            m = composed_incidence(d, level, to)
            assert grp.push(g, to).vector == _mat_apply(m, g.vector)


def test_push_range_errors():
    grp = DimGroup(fibonacci())
    with pytest.raises(ValueError, match="backwards"):
        grp.push(grp.element(3, (1, 2)), 2)
    d = random_explicit(random.Random(5), levels=4)
    grp = DimGroup(d)
    g = grp.element(2, (1,) * d.num_vertices(2))
    assert grp.push(g, 4).level == 4
    with pytest.raises(LevelRangeError):
        grp.push(g, 5)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_interval(p, box):
    """Interval Horner evaluation over Fraction endpoints."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p):
        prods = (acc[0] * box[0], acc[0] * box[1], acc[1] * box[0], acc[1] * box[1])
        acc = (min(prods) + c, max(prods) + c)
    return acc


def _interval_sign(field, coeffs):
    """Sign by interval evaluation at the root, refining until it excludes 0."""
    while True:
        lo, hi = poly_eval_interval(coeffs, field.interval())
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi == 0:
            return 0
        field.refine()


@pytest.mark.parametrize("minpoly,lo,hi", [((-6, 1), 5, 7), ((-1, -1, 1), 1, 2)])
def test_sign_of_constants_matches_interval_path(minpoly, lo, hi):
    field = NumberField(minpoly, lo, hi)
    for c in (Fraction(3, 7), Fraction(-5, 2), 1, -1, 10 ** 20, Fraction(-1, 10 ** 20)):
        exact = 1 if c > 0 else -1
        assert field.sign((Fraction(c),)) == _interval_sign(field, (Fraction(c),)) == exact
    assert field.sign((Fraction(0),)) == field.sign(()) == 0
    if field.degree == 2:
        # the golden ratio: t - 1 > 0 > 1 - t
        assert field.sign((-1, 1)) == _interval_sign(field, (-1, 1)) == 1
        assert field.sign((1, -1)) == _interval_sign(field, (1, -1)) == -1


# -- Perron data against the elimination references ---------------------------


def fraction_charpoly(matrix):
    """Faddeev-LeVerrier over Fraction."""
    n = len(matrix)
    cs = [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        amk = _mat_mul(matrix, mk)
        c = -sum(amk[i][i] for i in range(n)) / k
        cs.append(c)
        mk = [[amk[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    assert all(c.denominator == 1 for c in cs)
    out = [int(c) for c in reversed(cs)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def looped_largest_root_factor(p):
    """The factor selection that bisects the isolating interval until one
    factor is left and then tightens it until that factor changes sign."""
    import sympy

    x = sympy.symbols("x")
    expr = sum(int(c) * x ** i for i, c in enumerate(p))
    factors = []
    for fac, _ in sympy.factor_list(sympy.Poly(expr, x))[1]:
        coeffs = [int(c) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
        factors.append(tuple(-c for c in coeffs) if coeffs[-1] < 0 else tuple(coeffs))
    lo, hi = isolate_largest_real_root(p)
    chain_p = sturm_chain(p)

    def halve(lo, hi):
        mid = (lo + hi) / 2
        return (mid, hi) if count_real_roots(p, mid, hi, chain_p) >= 1 else (lo, mid)

    while True:
        live = [f for f in factors if count_real_roots(f, lo, hi) >= 1]
        if len(live) == 1:
            f = live[0]
            while (poly_eval(f, lo) > 0) == (poly_eval(f, hi) > 0) or poly_eval(f, lo) == 0:
                lo, hi = halve(lo, hi)
            return f, (lo, hi)
        lo, hi = halve(lo, hi)


def eliminated_left_eigenvector(a, minpoly):
    """v A = root v with v[last] = 1, by Gauss-Jordan elimination over
    Q[x]/(minpoly) in sympy: every entry reduced by rem, every pivot divided
    out by its inverse from invert.  Fraction coefficient tuples."""
    k = len(a)
    m = _qpoly(minpoly)
    root = _qpoly((0, 1)).rem(m)
    # equation j: sum_i v_i (A[i][j] - root delta_ij) = 0, v_{k-1} = 1 moved right
    rows = [[_qpoly((a[i][j],)) - (root if i == j else 0) for i in range(k)] for j in range(k)]
    aug = [row[:-1] + [-row[-1]] for row in rows]
    for col in range(k - 1):
        sel = [r for r in range(col, k) if not aug[r][col].is_zero]
        assert sel, "the first k - 1 columns must have full rank"
        aug[col], aug[sel[0]] = aug[sel[0]], aug[col]
        inv = aug[col][col].invert(m)
        aug[col] = [(x * inv).rem(m) for x in aug[col]]
        for r in range(k):
            f = aug[r][col]
            if r != col and not f.is_zero:
                aug[r] = [(x - f * y).rem(m) for x, y in zip(aug[r], aug[col])]
    return [_fractions(aug[r][k - 1]) for r in range(k - 1)] + [(Fraction(1),)]


def _perron_pool(rng, sizes, count):
    """Seeded primitive systems; some repeat a row, so that 0 is a root and
    the characteristic polynomial is reducible."""
    out = []
    while len(out) < count:
        k = rng.choice(sizes)
        mat = [[rng.randint(0, 2 if k <= 4 else 1) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.3:
            mat[-1] = list(mat[rng.randrange(k - 1)])
        rows = tuple(tuple(s for s in range(k) for _ in range(r[s])) for r in mat)
        if all(rows) and _is_primitive(rows, k):
            out.append(stationary_from_rows(rows))
    return out


def test_charpoly_matches_fraction_version():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        mat = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        assert charpoly(mat) == fraction_charpoly(mat), mat


def test_perron_data_matches_elimination_references():
    rng = random.Random(12)
    pool = [odometer(2), odometer(3), odometer(6), fibonacci(), TRI3]
    pool += _perron_pool(rng, (2, 3, 4), 30) + _perron_pool(rng, (5, 6, 7, 8), 12)
    # t^2 (t - 3): the largest root is a rational root of a reducible polynomial
    pool.append(stationary_from_rows(((0, 1, 1), (0, 2), (0, 0, 2, 2))))
    reducible = 0
    with time_ceiling(120):
        for d in pool:
            a = incidence(d, 1)
            cp = fraction_charpoly(a)
            minpoly, (lo, hi) = looped_largest_root_factor(cp)
            assert irreducible_factor_of_largest_root(cp) == (minpoly, (lo, hi)), cp
            data = DimGroup(d).perron
            assert (data.char_poly, data.minpoly) == (cp, minpoly)
            v = eliminated_left_eigenvector(a, minpoly)
            assert _eigenvector_of(data) == v, a
            h1 = heights(d, 1)
            norm = sum((_qpoly(vi) * h for vi, h in zip(v, h1)), _qpoly(()))
            assert _normalizer_of(data, h1) == _fractions(norm), a
            reducible += cp != minpoly
    assert DimGroup(pool[-1]).perron.char_poly == (0, 0, -3, 1)
    assert reducible >= 10


# -- the cold Perron path, pinned and against the Fraction Sturm chain ---------


def _pinned_pool():
    """The named systems, P40', U22, the hierarchy pool and the repeated-root
    system, built afresh so that nothing derived is reused."""
    pool = [make() for make in NAMED.values()]
    pool += [stationary_from_rows(r) for r in p40_rows() + u22_rows()]
    pool += hierarchy_pool()
    # incidence ((1,2,0),(1,0,1),(2,0,2)), characteristic polynomial t^2 (t - 3)
    pool.append(stationary_from_rows(((0, 1, 1), (0, 2), (0, 0, 2, 2))))
    return pool


def test_cold_perron_outputs_are_pinned():
    # the largest root's interval, the Perron data and the trace image of
    # every system of the pool, hashed in order
    digest = hashlib.sha256()
    with time_ceiling(60):
        for d in _pinned_pool():
            data = DimGroup(d).perron
            lo, hi = isolate_largest_real_root(data.char_poly)
            record = [
                [str(lo), str(hi)],
                list(data.char_poly),
                list(data.minpoly),
                [[str(c) for c in vi] for vi in _eigenvector_of(data)],
                [str(c) for c in _normalizer_of(data, heights(d, 1))],
                _trace_group_json(trace_image_group(d)),
            ]
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "1001dad8926710f791ad966b20d475e9f03c012f4fef8544f2375a8d4e35dbc0"
    )


def fraction_sturm_chain(p):
    """The Sturm chain over Fraction by exact division, each member divided
    by the last when that is not constant."""

    def divmod_q(a, b):
        rem, quot = [Fraction(x) for x in a], [Fraction(0)] * max(0, len(a) - len(b) + 1)
        while len(rem) >= len(b):
            coef = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            quot[shift] = coef
            for i, y in enumerate(b):
                rem[shift + i] -= coef * y
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        while quot and quot[-1] == 0:
            quot.pop()
        return quot, rem

    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    chain = [p, [i * p[i] for i in range(1, len(p))]]
    while chain[-1]:
        rem = divmod_q(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-x for x in rem])
    chain = [c for c in chain if c]
    if len(chain[-1]) > 1:
        chain = [divmod_q(c, chain[-1])[0] for c in chain]
    return chain


def fraction_root_count(chain, lo, hi):
    """Distinct roots in (lo, hi]: sign changes at lo minus those at hi."""

    def changes(x):
        signs = [v > 0 for v in (poly_eval(c, x) for c in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


def test_root_counts_match_the_fraction_sturm_chain():
    rng = random.Random(35)
    polys = set()
    for d in _pinned_pool():
        cp = charpoly(incidence(d, 1))
        polys.add(cp)
        polys.update(irreducible_factors(cp))
    polys.update([(0, 0, -3, 1), (1, -2, 1), (3, 5, -2, -3, 1), (-4, 0, 1), (6, -5, 1)])
    # leading coefficients of either sign and any size, squares among them:
    # remainders that drop more than one degree take an odd number of
    # pseudo-division steps, where only |lc| keeps the sign
    for _ in range(150):
        f = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))) + (rng.choice((1, -1, 2, -3)),)
        polys.add(poly_mul(f, f) if rng.random() < 0.2 else f)
    for p in sorted(polys):
        ref = fraction_sturm_chain(p)
        chain = sturm_chain(p)
        assert len(chain) == len(ref), p
        # each member a positive multiple of the Fraction one
        for c, r in zip(chain, ref):
            assert len(c) == len(r) and all(type(x) is int for x in c), p
            ratio = Fraction(c[-1]) / r[-1]
            assert ratio > 0 and all(x == ratio * y for x, y in zip(c, r)), p
        # the rational roots, from the linear factors, are endpoints too
        roots = [Fraction(-f[0], f[1]) for f in irreducible_factors(p) if len(f) == 2]
        for _ in range(12):
            k = rng.randint(0, 6)
            ends = [Fraction(rng.randint(-40 << k, 40 << k), 1 << k) for _ in range(2)] + roots
            for lo in ends:
                for hi in ends:
                    if lo < hi:
                        want = fraction_root_count(ref, lo, hi)
                        assert count_real_roots(p, lo, hi) == want, (p, lo, hi)
                        assert count_real_roots(p, lo, hi, chain) == want, (p, lo, hi)
