"""Positivity and pushing in the dimension group, against division references.

is_positive reads the sign of the trace from its numerator <v, rep> alone.
The reference here is the trace built by division, sign included, and the
witness level is found by pushing through the raw edge tables.
"""

import random
from fractions import Fraction

import pytest

from cantorconj.bratteli import LevelRangeError, composed_incidence
from cantorconj.dimgroup import (
    NEGATIVE,
    NOT_COMPARABLE,
    POSITIVE,
    ZERO,
    DimGroup,
)
from cantorconj.fieldpoly import NumberField, _mat_apply, poly_eval_interval
from cantorconj.systems import fibonacci, odometer, stationary_from_rows

from conftest import _is_primitive, oracle_incidence, random_explicit, time_ceiling

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


def _division_trace(grp, g):
    """The trace as <v, rep> / (root^(m-1) * normalizer), by field division."""
    data = grp.perron
    rep = grp.push(g, max(1, g.level))
    field = data.field
    num = field.rational(0)
    for vi, gi in zip(data.left_eigenvector, rep.vector):
        num = num + vi * gi
    return num / ((field.generator() ** (rep.level - 1)) * data.normalizer)


def _reference_positivity(grp, g, depth=40):
    """Verdict and witness level from the division trace's sign."""
    s = _division_trace(grp, g).sign()
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
                assert grp.trace_value(g).element == _division_trace(grp, g), g
                seen.add(res.verdict)
    assert {POSITIVE, NEGATIVE, ZERO} <= seen


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
        assert field.rational(c).sign() == exact
    assert field.sign((Fraction(0),)) == field.sign(()) == field.rational(0).sign() == 0
    if field.degree == 2:
        # the golden ratio: t - 1 > 0 > 1 - t and t^2 - t - 1 reduces to 0
        assert field.sign((-1, 1)) == _interval_sign(field, (-1, 1)) == 1
        assert field.sign((1, -1)) == _interval_sign(field, (1, -1)) == -1
        assert (field.generator() ** 2 - field.generator() - 1).sign() == 0
