"""Exact arithmetic: small dense matrices, and real algebraic numbers.

Matrices are sequences of rows over any exact ring (int, Fraction or
FieldElement); one product and one matrix-vector product serve every layer
above, and so does one Gauss-Jordan elimination, fraction-free over the
integers; rational systems are scaled to integers first.  Everything
spectral is decided over Q: elements of the number field Q[t]/(minpoly) are
dense rational-coefficient polynomials, the distinguished real root lives in an
isolating interval with rational endpoints (endpoint signs of the minimal
polynomial differ), and sign questions are settled by interval evaluation
plus bisection refinement.  No floating point participates in any
decision; floats appear only in display helpers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# ---------------------------------------------------------------------------
# Small dense matrices over an exact ring, as sequences of rows.


def _mat_apply(mat, vec):
    return tuple([sum(map(operator.mul, row, vec)) for row in mat])


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a])


def _row_reduce_int(aug, columns):
    """Fraction-free Gauss-Jordan elimination of the integer rows `aug`, in place.

    Pivots are sought in the order of `columns`, and the pivot columns are
    returned, row r of aug belonging to pivots[r].  A pivot row is divided by
    the gcd of its entries and negated when its pivot is negative; every
    other row with an entry in the pivot column becomes pv*row - f*prow
    divided by the gcd of its entries.  So the pivot rows end primitive, with
    a positive pivot and zero in every other pivot column, each a positive
    multiple of the row Gauss-Jordan elimination over Q would leave there,
    and the rows past the pivots are zero in every column of `columns`.
    """
    m = len(aug)
    pivots = []
    row = 0
    for col in columns:
        if row == m:
            break
        sel = row
        while sel < m and aug[sel][col] == 0:
            sel += 1
        if sel == m:
            continue
        prow = aug[sel]
        aug[sel] = aug[row]
        pv = prow[col]
        g = math.gcd(*prow)
        if pv < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
            pv = prow[col]
        aug[row] = prow
        for r in range(m):
            other = aug[r]
            f = other[col]
            if f and r != row:
                new = [pv * x - f * y for x, y in zip(other, prow)]
                g = math.gcd(*new)
                aug[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    return pivots


def _solve_lin(vectors, target):
    """Rational x with sum x_i vectors[i] = target, or None.

    Each equation is scaled by the lcm of its denominators and the integer
    system reduced by `_row_reduce_int`; a pivot row is a positive multiple
    of the fully reduced one, so x[col] is its constant over its pivot, and
    free variables stay 0.
    """
    m = len(target)
    ncols = len(vectors)
    aug = []
    for i in range(m):
        row = [Fraction(vectors[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        den = math.lcm(*(x.denominator for x in row))
        aug.append([int(x * den) for x in row])
    pivots = _row_reduce_int(aug, range(ncols))
    for r in range(len(pivots), m):
        if aug[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = Fraction(aug[r][ncols], aug[r][col])
    return x


# ---------------------------------------------------------------------------
# Polynomials are tuples of coefficients, constant term first.


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_deg(p) -> int:
    return len(p) - 1


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))
    )


def poly_sub(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        tuple((p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n))
    )


def poly_scale(p, c):
    if c == 0:
        return ()
    return tuple(c * x for x in p)


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    """Division with remainder over Q; q must be non-zero."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(x) for x in p]
    dq = len(q) - 1
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(rem) - dq)
    while len(rem) - 1 >= dq and any(x != 0 for x in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        coef = rem[-1] / lead
        quot[shift] = coef
        for i in range(len(q)):
            rem[shift + i] -= coef * Fraction(q[i])
    return poly_trim(quot), poly_trim(rem)


def poly_mod(p, q):
    return poly_divmod(p, q)[1]


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p):
    return poly_trim(tuple(i * p[i] for i in range(1, len(p))))


# ---------------------------------------------------------------------------
# Sturm chains: exact real root counting for integer/rational polynomials.


def sturm_chain(p):
    """Sturm sequence of p, reduced to count distinct roots.

    The last member is gcd(p, p') up to a scalar.  When it is not constant p
    has repeated roots, every member vanishes there, and the sign changes
    no longer count roots; dividing every member by it restores the count
    for the distinct roots of p.
    """
    p = poly_trim(tuple(Fraction(c) for c in p))
    chain = [p, poly_derivative(p)]
    while chain[-1]:
        rem = poly_mod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(poly_scale(rem, -1))
    chain = [c for c in chain if c]
    g = chain[-1]
    if poly_deg(g) > 0:
        chain = [poly_divmod(c, g)[0] for c in chain]
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo, hi, chain=None):
    """Distinct real roots of p in the half-open interval (lo, hi]."""
    chain = chain or sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def root_bound(p) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    p = poly_trim(p)
    lead = abs(Fraction(p[-1]))
    m = max((abs(Fraction(c)) for c in p[:-1]), default=Fraction(0))
    return 1 + m / lead


def isolate_largest_real_root(p):
    """Isolating rational interval (lo, hi) for the largest real root of p.

    Requires p to have at least one real root.  The returned interval
    contains exactly one distinct real root of p and hi sits strictly above
    every root.
    """
    chain = sturm_chain(p)
    bound = root_bound(p)
    lo, hi = -bound, bound
    if count_real_roots(p, lo, hi, chain) < 1:
        raise ValueError("polynomial has no real root")
    # shrink until exactly one distinct root remains, keeping the top
    while count_real_roots(p, lo, hi, chain) > 1:
        mid = (lo + hi) / 2
        if count_real_roots(p, mid, hi, chain) >= 1:
            lo = mid
        else:
            # mid may be the largest root itself; hi stays strictly above it
            hi = (mid + hi) / 2 if poly_eval(p, mid) == 0 else mid
    return lo, hi


# ---------------------------------------------------------------------------
# Interval arithmetic with rational endpoints (for certified signs).


def _imul(a, b):
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def poly_eval_interval(p, box):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p):
        c = Fraction(c)
        acc = _iadd(_imul(acc, box), (c, c))
    return acc


# ---------------------------------------------------------------------------
# The number field Q(root) with a certified real embedding.


_REFINE_CAP = 20000


class NumberField:
    """Q[t]/(minpoly) embedded at a distinguished real root.

    minpoly: monic irreducible integer polynomial (constant term first).
    The isolating interval brackets a simple real root with a sign change,
    so bisection converges and every refinement keeps the certificate.
    """

    def __init__(self, minpoly, lo, hi):
        self.minpoly = poly_trim(tuple(int(c) for c in minpoly))
        if self.minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        s_lo = poly_eval(self.minpoly, self._lo)
        s_hi = poly_eval(self.minpoly, self._hi)
        if s_lo == 0 or s_hi == 0 or (s_lo > 0) == (s_hi > 0):
            raise ValueError("interval endpoints must straddle a sign change")

    @property
    def degree(self) -> int:
        return poly_deg(self.minpoly)

    def interval(self):
        return (self._lo, self._hi)

    def refine(self, steps: int = 1):
        for _ in range(steps):
            mid = (self._lo + self._hi) / 2
            v = poly_eval(self.minpoly, mid)
            if v == 0:
                # rational root of an irreducible monic poly: degree is 1
                self._lo = mid
                self._hi = mid
                return
            if (v > 0) == (poly_eval(self.minpoly, self._hi) > 0):
                self._hi = mid
            else:
                self._lo = mid

    # elements -------------------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        raw = tuple(Fraction(c) for c in coeffs)
        return FieldElement(self, poly_mod(raw, self.minpoly))

    def rational(self, value) -> "FieldElement":
        return self.element((Fraction(value),))

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # t == -c0 in the degree-1 field
            return self.rational(-Fraction(self.minpoly[0]))
        return self.element((0, 1))

    def sign(self, coeffs) -> int:
        """Certified sign of the element with the given residue coefficients.

        A constant (every element of a degree-1 field) is its own sign; the
        rest is decided by interval evaluation at the root, refined until
        the enclosure excludes 0.
        """
        p = poly_trim(coeffs)
        if len(p) <= 1:
            return (p[0] > 0) - (p[0] < 0) if p else 0
        steps = 0
        while True:
            lo, hi = poly_eval_interval(p, (self._lo, self._hi))
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine()
            steps += 1
            if steps > _REFINE_CAP:
                raise RuntimeError(
                    "sign refinement exceeded its cap; element may be zero "
                    "without being reduced"
                )


@dataclass(frozen=True)
class FieldElement:
    field: NumberField
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", poly_trim(tuple(Fraction(c) for c in self.coeffs)))

    def _lift(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.rational(other)

    def __add__(self, other):
        other = self._lift(other)
        return FieldElement(self.field, poly_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, poly_scale(self.coeffs, -1))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return FieldElement(
            self.field, poly_mod(poly_mul(self.coeffs, other.coeffs), self.field.minpoly)
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid over Q[t]
        r0, r1 = poly_trim(self.field.minpoly), self.coeffs
        s0, s1 = (), (Fraction(1),)
        while poly_deg(r1) > 0:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
            if not r1:
                raise ZeroDivisionError("element shares a factor with the modulus")
        c = Fraction(r1[0])
        inv = tuple(x / c for x in s1)
        return FieldElement(self.field, poly_mod(inv, self.field.minpoly))

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.rational(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.coeffs[0]) if self.coeffs else Fraction(0)

    def sign(self) -> int:
        return self.field.sign(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def interval(self, eps) -> tuple:
        """Rational enclosure of the real value, width at most eps."""
        eps = Fraction(eps)
        while True:
            lo, hi = poly_eval_interval(self.coeffs or (Fraction(0),), self.field.interval())
            if hi - lo <= eps:
                return (lo, hi)
            self.field.refine()


# ---------------------------------------------------------------------------
# Integer characteristic polynomials (Faddeev-LeVerrier, exact).


def charpoly(matrix) -> tuple:
    """Characteristic polynomial det(tI - A) of an integer matrix.

    Returned constant-first as a tuple of ints, monic.  Every step stays in
    the integers: the k-th coefficient is -trace(A M_k) / k, and Newton's
    identities make that division exact for an integer matrix.
    """
    n = len(matrix)
    cs = [1]  # highest-degree coefficient first
    mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        amk = _mat_mul(matrix, mk)
        c, rem = divmod(-sum(amk[i][i] for i in range(n)), k)
        if rem:
            raise AssertionError("characteristic polynomial must be integral")
        cs.append(c)
        mk = [[amk[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return poly_trim(tuple(reversed(cs)))


def irreducible_factor_of_largest_root(p):
    """Monic irreducible integer factor of p whose root is p's largest real root.

    Factorization itself is delegated to sympy (standard method, degree kept
    small); the selection is certified here with Sturm counts on the
    isolating interval of p's largest root, so no inexact data flows onward.
    """
    import sympy

    x = sympy.symbols("x")
    expr = sum(int(c) * x ** i for i, c in enumerate(p))
    factors = []
    for fac, mult in sympy.factor_list(sympy.Poly(expr, x))[1]:
        coeffs = [int(c) for c in reversed(sympy.Poly(fac, x).all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        factors.append(poly_trim(tuple(coeffs)))
    # (lo, hi] holds one distinct root of p, the largest; distinct
    # irreducible factors are coprime, so exactly one vanishes there, and it
    # changes sign across: its roots are simple, hi is above all of them, and
    # lo is none of them (a rational root would be the largest one, above lo)
    lo, hi = isolate_largest_real_root(p)
    (f,) = [f for f in factors if count_real_roots(f, lo, hi) >= 1]
    if f[-1] != 1:
        raise AssertionError("factor of a monic integer polynomial must be monic")
    return f, (lo, hi)
