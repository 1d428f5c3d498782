"""Dimension group of an ordered Bratteli diagram.

The group is the direct limit of Z^{V_m} under the incidence matrices, with
the positive cone generated by coordinatewise-nonnegative vectors and the
order unit given by the height vector at any level.  Elements are DgElement
values: a level together with an integer vector over that level's towers.
Two presentations are identified when they agree after pushing forward.

Decision style mandated throughout: for stationary diagrams answers are
exact (the kernel chain of incidence powers stabilizes within |V| steps, and
positivity is settled by the certified sign of the unique normalized trace);
for explicit diagrams answers are depth-bounded three-valued, never guessed.
The trace of g is <v, rep> / (root^(m-1) * normalizer), with rep a level-m
presentation of g, v the Perron left eigenvector and normalizer
<v, heights(1)>; the denominator is certified positive, so the sign is read
from the numerator <v, rep> alone.  v is kept in one form, as integer trace
weights W = scale * v over the least positive integer scale, so the
numerator's multiple <W, rep> is an integer dot product and nothing is
divided.

The Perron data is computed in integers: the characteristic polynomial by
Faddeev-LeVerrier, the largest root's factor and interval by integer
factoring and integer Sturm chains, and W as integer polynomials in the
root modulo the monic minimal polynomial, its eigen-equation and every sign
certified there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bratteli import (
    DEFAULT_DEPTH,
    DgElement,
    OrderedBratteliDiagram,
    derived,
    heights,
    incidence,
    validate,
)
from .fieldpoly import (
    NumberField,
    _mat_apply,
    _zinverse,
    _zrem,
    charpoly,
    irreducible_factor_of_largest_root,
    poly_add,
    poly_mul,
    poly_scale,
    poly_trim,
)

__all__ = [
    "DgElement",
    "DimGroup",
    "Decision",
    "PositivityResult",
    "POSITIVE",
    "ZERO",
    "NEGATIVE",
    "NOT_COMPARABLE",
    "UNKNOWN",
    "PerronData",
]


POSITIVE = "Positive"
ZERO = "Zero"
NEGATIVE = "Negative"
NOT_COMPARABLE = "NotComparable"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Decision:
    """Three-valued answer; value None means undetermined at the given depth."""

    value: bool | None
    depth: int | None = None
    witness_level: int | None = None


@dataclass(frozen=True)
class PositivityResult:
    verdict: str
    witness_level: int | None = None
    depth: int | None = None


@dataclass(frozen=True)
class PerronData:
    """Exact spectral data of a primitive stationary diagram.

    minpoly is the monic irreducible integer factor of the characteristic
    polynomial carrying the Perron root; field holds that root in a rational
    isolating interval, found by an integer Sturm chain.  The Perron left
    eigenvector v, normalized with its last entry equal to 1 and strictly
    positive, is kept as its integer trace weights: weights[t][i] is the
    coefficient of root^t in scale * v[i], and scale is the least positive
    integer that makes them all integers.  The trace of g presented at level
    m >= 1 is <v, g> / (root^(m-1) * normalizer) with normalizer
    <v, heights(1)>, so the order unit's trace is 1, and scale * <v, g> has
    the power-basis coefficients weights . g.
    """

    char_poly: tuple
    minpoly: tuple
    field: NumberField
    scale: int
    weights: tuple


def _is_primitive(d) -> bool:
    return validate(d).primitive is True


class DimGroup:
    """Operations on the dimension group of one diagram.

    The spectral data (primitive, perron) are kept on the diagram, so every
    DimGroup of one diagram object shares a single computation of them.
    """

    def __init__(self, diagram: OrderedBratteliDiagram):
        self.diagram = diagram

    # -- presentation plumbing ---------------------------------------------

    def element(self, level: int, vector) -> DgElement:
        self.diagram.check_level(level)
        vec = tuple(int(x) for x in vector)
        if len(vec) != self.diagram.num_vertices(level):
            raise ValueError(
                "vector length %d does not match %d towers at level %d"
                % (len(vec), self.diagram.num_vertices(level), level)
            )
        return DgElement(level, vec)

    def unit(self, level: int = 1) -> DgElement:
        return DgElement(level, heights(self.diagram, level))

    def push(self, g: DgElement, to_level: int) -> DgElement:
        """Push a presentation forward, one incidence matrix per level; g
        itself when it already sits at to_level."""
        if to_level < g.level:
            raise ValueError("cannot push backwards (from %d to %d)" % (g.level, to_level))
        self.diagram.check_level(to_level)
        if to_level == g.level:
            return g
        vec = g.vector
        for n in range(g.level, to_level):
            vec = _mat_apply(incidence(self.diagram, n), vec)
        return DgElement(to_level, vec)

    def common_level(self, a: DgElement, b: DgElement) -> tuple:
        lvl = max(a.level, b.level)
        return self.push(a, lvl), self.push(b, lvl)

    def add(self, a: DgElement, b: DgElement) -> DgElement:
        a, b = self.common_level(a, b)
        return DgElement(a.level, tuple(x + y for x, y in zip(a.vector, b.vector)))

    def sub(self, a: DgElement, b: DgElement) -> DgElement:
        a, b = self.common_level(a, b)
        return DgElement(a.level, tuple(x - y for x, y in zip(a.vector, b.vector)))

    def scale(self, n: int, a: DgElement) -> DgElement:
        return DgElement(a.level, tuple(n * x for x in a.vector))

    # -- exact/bounded decisions --------------------------------------------

    def is_zero(self, g: DgElement, depth: int = DEFAULT_DEPTH) -> Decision:
        """Is g the zero class?

        Stationary: exact.  The kernels of A, A^2, ... form an increasing
        chain in Z^{|V|} whose rational spans stabilize within |V| steps, so
        g vanishes in the limit iff A^{|V|} kills a level->=1 representative.
        Explicit: decided within depth, None when the data runs out.
        """
        d = self.diagram
        if d.kind == "stationary":
            k = d.num_vertices(1)
            vec = self.push(g, max(1, g.level)).vector
            a = incidence(d, 1)
            for _ in range(k):
                vec = _mat_apply(a, vec)
            return Decision(all(x == 0 for x in vec))
        # the bounded scan: strictly one-signed vectors stay strictly one-signed
        pos = self.is_positive(g, depth)
        if pos.verdict == UNKNOWN:
            return Decision(None, depth=pos.depth)
        return Decision(pos.verdict == ZERO, witness_level=pos.witness_level)

    def equal(self, a: DgElement, b: DgElement, depth: int = DEFAULT_DEPTH) -> Decision:
        """Is a - b the zero class?  Two presentations at one level with
        one vector are answered at once, with the Decision is_zero gives
        the zero vector there."""
        if a == b:
            self.diagram.check_level(a.level)
            if self.diagram.kind == "stationary":
                return Decision(True)
            return Decision(True, witness_level=a.level)
        return self.is_zero(self.sub(a, b), depth)

    def is_positive(self, g: DgElement, depth: int = DEFAULT_DEPTH) -> PositivityResult:
        """Order position of g: Positive, Zero, Negative, NotComparable, Unknown.

        Primitive stationary case is exact: the sign of the normalized trace
        decides (strictly positive trace forces an eventually strictly
        positive representative by Perron-Frobenius; zero trace with nonzero
        class is an infinitesimal-free contradiction, reported as
        NotComparable).  The trace's denominator root^(m-1) * normalizer is
        certified positive, so the sign is that of the numerator <v, rep>,
        read in the integer trace weights.  A witness level with an
        all-nonnegative representative is located by pushing; a nonnegative,
        nonzero vector at level >= 1 is its own witness, and its trace is
        positive because v is, so it is answered at once.
        """
        d = self.diagram
        if d.kind == "stationary" and self.primitive:
            data = self.perron  # unsupported diagrams raise here either way
            if g.level >= 1 and min(g.vector) >= 0 and any(g.vector):
                d.check_level(g.level)
                return PositivityResult(POSITIVE, g.level)
            rep = self.push(g, max(1, g.level))
            s = data.field.sign(self._trace_numerator(rep))
            if s == 0:
                if self.is_zero(g).value:
                    return PositivityResult(ZERO)
                return PositivityResult(NOT_COMPARABLE)
            vec = rep if s > 0 else self.scale(-1, rep)
            level = vec.level
            cap = max(64, 8 * depth)
            witness = None
            for _ in range(cap):
                if all(x >= 0 for x in vec.vector):
                    witness = level
                    break
                level += 1
                vec = DgElement(level, _mat_apply(incidence(d, level - 1), vec.vector))
            return PositivityResult(POSITIVE if s > 0 else NEGATIVE, witness)
        # bounded scan for explicit (or non-primitive stationary) diagrams
        vec = g.vector
        level = g.level
        limit = d.scan_end(g.level, depth)
        while True:
            if all(x == 0 for x in vec):
                return PositivityResult(ZERO, witness_level=level)
            if all(x > 0 for x in vec):
                return PositivityResult(POSITIVE, witness_level=level)
            if all(x < 0 for x in vec):
                return PositivityResult(NEGATIVE, witness_level=level)
            if level >= limit:
                return PositivityResult(UNKNOWN, depth=limit)
            level += 1
            vec = _mat_apply(incidence(d, level - 1), vec)

    # -- spectral data -------------------------------------------------------

    @property
    def primitive(self) -> bool:
        return derived(self.diagram, "primitive", _is_primitive, self.diagram)

    @property
    def perron(self) -> PerronData:
        return derived(self.diagram, "perron", DimGroup._perron, self)

    def _perron(self) -> PerronData:
        d = self.diagram
        if d.kind != "stationary":
            raise ValueError("Perron data requires a stationary diagram")
        if not self.primitive:
            raise ValueError("Perron data requires a primitive incidence matrix")
        a = incidence(d, 1)
        if len(a) > 8:
            raise ValueError("spectral factorization supported up to 8 towers")
        cp = charpoly(a)
        minpoly, (lo, hi) = irreducible_factor_of_largest_root(cp)
        field = NumberField(minpoly, lo, hi)
        scale, weights = self._left_eigenvector(a, cp, field)
        # <weights, heights(1)> is scale * normalizer, an integer polynomial
        if field.sign(_mat_apply(weights, heights(d, 1))) <= 0:
            raise AssertionError("trace normalizer must be positive")
        return PerronData(cp, minpoly, field, scale, weights)

    @staticmethod
    def _left_eigenvector(a, cp, field):
        """(scale, weights) of PerronData: the left eigenvector v, v A =
        root v and v[last] = 1, as integer trace weights over the least
        positive scale, certified an eigenvector and strictly positive.

        Synthetic division gives cp(t) = (t - root) q(t); as q(A)(A - root)
        = cp(A) = 0, every row of q(A) is a left eigenvector.  The root is
        simple and the right Perron vector w is positive, so q(A) is
        cp'(root) w v^T / <v, w> and its last row, acc = sum_j q_j e_last
        A^j, is a nonzero multiple of v.  The q_j are integer polynomials in
        the root (the minimal polynomial is monic), so acc is too, and v is
        acc times the inverse of its last entry, w / d with acc[last] w = d:
        V / d for the integer polynomials V = acc w modulo the minimal
        polynomial.  Divided by the gcd g of d and V's coefficients, V gives
        the weights and d the scale; W A = root W is checked in integers.
        """
        k = len(a)
        minpoly = field.minpoly
        q = [(1,)]  # q_{k-1}, ..., q_0
        for c in reversed(cp[1:k]):
            q.append(_zrem(poly_add((0,) + q[-1], (c,)), minpoly))
        at = tuple(zip(*a))
        row = (0,) * (k - 1) + (1,)  # e_last A^j, integral
        acc = [()] * k
        for qj in reversed(q):
            acc = [poly_add(x, poly_scale(qj, r)) for x, r in zip(acc, row)]
            row = _mat_apply(at, row)
        w, d = _zinverse(acc[-1], minpoly)
        vs = [_zrem(poly_mul(x, w), minpoly) for x in acc]
        if vs[-1] != (d,):
            raise AssertionError("left eigenvector must end in 1")
        g = gcd(d, *(c for vi in vs for c in vi))
        # W A = root W, coefficient by coefficient of the power basis:
        # weights[s][i] is the coefficient of root^s in W_i = V_i / g, and
        # root^deg reduces by the monic minimal polynomial
        deg = field.degree
        weights = tuple(tuple(x[s] // g if s < len(x) else 0 for x in vs) for s in range(deg))
        top = weights[-1]
        shifted = [tuple(-minpoly[0] * y for y in top)] + [
            tuple(x - minpoly[s] * y for x, y in zip(weights[s - 1], top)) for s in range(1, deg)
        ]
        if [_mat_apply(at, c) for c in weights] != shifted:
            raise AssertionError("left eigenvector verification failed")
        for wi in zip(*weights):
            if field.sign(wi) <= 0:
                raise AssertionError("Perron left eigenvector must be positive")
        return d // g, weights

    def _trace_numerator(self, rep: DgElement) -> tuple:
        """Power-basis coefficients of scale * <v, rep> = weights . rep, for
        rep at level >= 1: integers, reduced as the weights are, with the
        sign of <v, rep>."""
        return poly_trim(_mat_apply(self.perron.weights, rep.vector))
