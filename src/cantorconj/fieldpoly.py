"""Exact arithmetic: small dense matrices, factoring over Z, and real algebraic numbers.

Matrices are sequences of rows over an exact ring (int or Fraction); one
product and one matrix-vector product serve every layer above, and so does
one Gauss-Jordan elimination, fraction-free over the integers; rational
systems are scaled to integers first.  Everything spectral is decided in
integers: an element of the number field Q[t]/(minpoly) is an integer
polynomial in the root reduced modulo the monic minimal polynomial (any
positive denominator stays with the caller), and the distinguished real
root lives in an isolating interval with rational endpoints (endpoint signs
of the minimal polynomial differ).  The work runs over Z, as H. Cohen's GTM
138, ch. 3 does it: Sturm chains are pseudo-remainder sequences whose
members are positive multiples of the chain over Q; a sign at a rational
point num/den is that of the integer den^n p(num/den), read by homogeneous
Horner evaluation; a sign in the field is settled by interval evaluation at
integer endpoints over one denominator, plus bisection refinement up to a
cap; and a field inverse is a half-extended pseudo-remainder sequence that
ends in one integer to divide by.  The minimal polynomial of the Perron
root is found by factoring the characteristic polynomial over Z here, and
integers are factored here too (trial division, Pollard-Brent rho,
Miller-Rabin and Baillie-PSW); no other library takes part.  No floating
point participates in any decision; floats appear only in display helpers.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction


class CapabilityError(RuntimeError):
    """The request exceeds a supported bound of exact enumeration or arithmetic."""


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


def poly_derivative(p):
    return poly_trim(tuple(i * p[i] for i in range(1, len(p))))


# ---------------------------------------------------------------------------
# Integer polynomials: pseudo-division, reduction modulo a monic polynomial,
# and signs at rational points, all without fractions.


def _content_free(p):
    """The integer polynomial p divided by the positive gcd of its coefficients."""
    g = math.gcd(*p)
    return tuple(c // g for c in p) if g > 1 else p


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    g = math.gcd(*f)
    if f[-1] < 0:
        g = -g
    return tuple(c // g for c in f)


def _zquo(f, g):
    """The integer polynomial f / g when g divides f in Z[t], else None."""
    rem = list(f)
    dg, lead = len(g) - 1, g[-1]
    quot = [0] * max(0, len(rem) - dg)
    while len(rem) > dg:
        c, r = divmod(rem[-1], lead)
        if r:
            return None
        shift = len(rem) - 1 - dg
        quot[shift] = c
        if c:
            for i, y in enumerate(g):
                rem[shift + i] -= c * y
        rem.pop()
    return poly_trim(quot) if not any(rem) else None


def _zgcd(f, g):
    """Primitive gcd of integer polynomials, positive leading coefficient,
    by the primitive pseudo-remainder sequence; gcd(f, ()) is f's primitive
    part."""
    if not g:
        return _primitive(f)
    f, g = _primitive(f), _primitive(g)
    while len(g) > 1:
        rem = _zdivmod(f, g)[2]
        f, g = g, (_primitive(rem) if rem else ())
    return (1,) if g else f


def _zdivmod(a, b):
    """(f, q, r) with f a = q b + r, f a positive integer and deg r < deg b.

    Pseudo-division: each step scales the running remainder by |lc(b)|, so r
    is a positive multiple of the remainder of a by b over Q.
    """
    rem, quot, f = list(a), [0] * max(0, len(a) - len(b) + 1), 1
    db, lead = len(b) - 1, abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while len(rem) > db:
        c = sign * rem[-1]
        shift = len(rem) - 1 - db
        if lead != 1:
            rem = [lead * x for x in rem]
            quot = [lead * x for x in quot]
            f *= lead
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
    return f, poly_trim(quot), tuple(rem)


def _zrem(p, m):
    """The integer polynomial p reduced modulo the monic m."""
    rem = list(p)
    dm = len(m) - 1
    while len(rem) > dm:
        c = rem.pop()
        if c:
            shift = len(rem) - dm
            for i in range(dm):
                rem[shift + i] -= c * m[i]
    return poly_trim(rem)


def _zinverse(a, m):
    """(w, d) with a w = d modulo the monic m, w an integer polynomial of
    degree below deg m and d a positive integer.

    The half-extended pseudo-remainder sequence of m and a, each pair (r, s)
    kept with s a = r mod m and divided by the content the two share, ends at
    a constant r when a is prime to m.
    """
    r0, r1 = m, _zrem(a, m)
    s0, s1 = (), (1,)
    while len(r1) > 1:
        f, q, r = _zdivmod(r0, r1)
        s = poly_sub(poly_scale(s0, f), poly_mul(q, s1))
        g = math.gcd(*r, *s) or 1
        r0, r1, s0, s1 = r1, tuple(c // g for c in r), s1, tuple(c // g for c in s)
    if not r1:
        raise ZeroDivisionError("element shares a factor with the modulus")
    w, d = _zrem(s1, m), r1[0]
    if d < 0:
        w, d = poly_scale(w, -1), -d
    return w, d


def _scaled_value(p, num, den):
    """p(num/den) den^deg(p) for the integer polynomial p and den > 0: an
    integer with the sign of p(num/den), by homogeneous Horner evaluation."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _scaled_interval(p, lo, hi, den):
    """Interval Horner evaluation of the integer polynomial p on [lo/den,
    hi/den], both ends times den^deg(p) > 0: the products and sums are those
    of rational interval arithmetic scaled by one positive integer, so the
    enclosure excludes 0 exactly when the rational one does."""
    low = high = 0
    scale = 1
    for c in reversed(p):
        prods = (low * lo, low * hi, high * lo, high * hi)
        c *= scale
        low, high = min(prods) + c, max(prods) + c
        scale *= den
    return low, high


# ---------------------------------------------------------------------------
# Sturm chains over Z: exact real root counting for integer/rational polynomials.


def sturm_chain(p):
    """Sturm sequence of p over Z, reduced to count distinct roots.

    Each member is a positive multiple of the member the Sturm sequence over
    Q has there (p, p', then the negated remainders), so both change sign at
    the same places: remainders come from pseudo-division by |lc|, and every
    member is divided by the positive gcd of its coefficients.  The last
    member is gcd(p, p') up to a positive scalar.  When it is not constant p
    has repeated roots, every member vanishes there, and the sign changes no
    longer count roots; dividing every member by it (exactly, in Z[t], as it
    is primitive) restores the count for the distinct roots of p.
    """
    p = _content_free(poly_trim(p))
    chain = [p, _content_free(poly_derivative(p))]
    while chain[-1]:
        rem = _zdivmod(chain[-2], chain[-1])[2]
        if not rem:
            break
        chain.append(tuple(-c for c in _content_free(rem)))
    chain = [c for c in chain if c]
    g = chain[-1]
    if poly_deg(g) > 0:
        chain = [_content_free(_zquo(c, g)) for c in chain]
    return chain


def _sign_changes(chain, num, den):
    """Sign changes of the chain at num/den (den > 0), zeros skipped."""
    changes, last = 0, 0
    for p in chain:
        v = _scaled_value(p, num, den)
        if v:
            if last and (v > 0) != (last > 0):
                changes += 1
            last = v
    return changes


def count_real_roots(p, lo, hi, chain=None):
    """Distinct real roots of p in the half-open interval (lo, hi]."""
    chain = chain or sturm_chain(p)
    lo, hi = Fraction(lo), Fraction(hi)
    return _sign_changes(chain, lo.numerator, lo.denominator) - _sign_changes(
        chain, hi.numerator, hi.denominator
    )


def root_bound(p) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    p = poly_trim(p)
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=0)
    return Fraction(lead + m) / lead


def isolate_largest_real_root(p):
    """Isolating rational interval (lo, hi) for the largest real root of p.

    Requires p to have at least one real root.  The returned interval
    contains exactly one distinct real root of p and hi sits strictly above
    every root.  The bisection points are kept as integer numerators over
    one denominator, the bound's denominator times a power of two.
    """
    chain = sturm_chain(p)
    bound = root_bound(p)
    lo, hi, den = -bound.numerator, bound.numerator, bound.denominator
    vlo, vhi = _sign_changes(chain, lo, den), _sign_changes(chain, hi, den)
    if vlo - vhi < 1:
        raise ValueError("polynomial has no real root")
    # shrink until exactly one distinct root remains, keeping the top
    while vlo - vhi > 1:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        vmid = _sign_changes(chain, mid, den)
        if vmid - vhi >= 1:
            lo, vlo = mid, vmid
        elif _scaled_value(chain[0], mid, den) == 0:
            # mid is the largest root itself (chain[0] vanishes at the
            # roots of p and nowhere else); hi stays strictly above it
            lo, hi, den = 2 * lo, mid + hi, 2 * den
            vhi = _sign_changes(chain, hi, den)
        else:
            hi, vhi = mid, vmid
    return Fraction(lo, den), Fraction(hi, den)


# ---------------------------------------------------------------------------
# The number field Q(root) with a certified real embedding.


# Bisections one sign may take: an unreduced zero, or a reducible minpoly,
# would refine forever.
_REFINE_CAP = 20000


class NumberField:
    """Q[t]/(minpoly) embedded at a distinguished real root.

    minpoly: monic irreducible integer polynomial (constant term first).
    An element is the tuple of its power-basis coefficients, constant term
    first, reduced modulo minpoly; callers keep the coefficients integral,
    over a positive denominator of their own that no sign depends on.  The
    isolating interval brackets a simple real root with a sign change, so
    bisection converges and every refinement keeps the certificate.  Its
    endpoints are kept as integer numerators over one positive denominator,
    which each refinement doubles.
    """

    def __init__(self, minpoly, lo, hi):
        self.minpoly = poly_trim(tuple(int(c) for c in minpoly))
        if self.minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        lo, hi = Fraction(lo), Fraction(hi)
        self._den = math.lcm(lo.denominator, hi.denominator)
        self._lo = lo.numerator * (self._den // lo.denominator)
        self._hi = hi.numerator * (self._den // hi.denominator)
        s_lo = _scaled_value(self.minpoly, self._lo, self._den)
        s_hi = _scaled_value(self.minpoly, self._hi, self._den)
        if s_lo == 0 or s_hi == 0 or (s_lo > 0) == (s_hi > 0):
            raise ValueError("interval endpoints must straddle a sign change")
        self._hi_positive = s_hi > 0

    @property
    def degree(self) -> int:
        return poly_deg(self.minpoly)

    def interval(self):
        return (Fraction(self._lo, self._den), Fraction(self._hi, self._den))

    def refine(self):
        lo, hi, den = 2 * self._lo, 2 * self._hi, 2 * self._den
        mid = (lo + hi) // 2
        v = _scaled_value(self.minpoly, mid, den)
        if v == 0:
            # rational root of an irreducible monic poly: degree is 1
            lo = hi = mid
        elif (v > 0) == self._hi_positive:
            hi = mid
        else:
            lo = mid
        self._lo, self._hi, self._den = lo, hi, den

    def sign(self, coeffs) -> int:
        """Certified sign of the element with the given integer residue
        coefficients.

        A constant (every element of a degree-1 field) is its own sign; the
        rest is decided by interval evaluation at the root, in integers
        (over the interval's denominator), refined until the enclosure
        excludes 0, or past _REFINE_CAP bisections raises CapabilityError.
        """
        p = poly_trim(coeffs)
        if len(p) <= 1:
            return (p[0] > 0) - (p[0] < 0) if p else 0
        for _ in range(_REFINE_CAP + 1):
            lo, hi = _scaled_interval(p, self._lo, self._hi, self._den)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine()
        raise CapabilityError(
            "sign refinement exceeded _REFINE_CAP = %d bisections; the element is "
            "too close to 0 for the supported precision, or zero without being "
            "reduced" % _REFINE_CAP
        )


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


# ---------------------------------------------------------------------------
# Integer factoring: trial division by the primes below 1000, then
# Pollard-Brent rho.  Primality is decided by Miller-Rabin on the first 13
# prime bases, which no composite below 3.3e24 passes, and above that by the
# Baillie-PSW test (a base-2 strong probable prime that is also a strong
# Lucas probable prime), for which no composite is known.


def primes_up_to(n):
    """The primes p <= n in increasing order, by the sieve of Eratosthenes;
    n is a prime cutoff, which is small."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


_TRIAL_PRIMES = tuple(primes_up_to(1000))
_MR_BASES = _TRIAL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981  # least composite passing every base in _MR_BASES


def _strong_probable_prime(n, a):
    """Miller-Rabin to base a of the odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) of odd positive n."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test of the odd n, with Selfridge's parameters: D the first
    of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would do
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # n > |D| shares a factor with D
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k for k the leading bits of d, doubling then stepping
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n) -> bool:
    """Is the integer n prime: by trial division up to 1000^2, then as above."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _brent_rho(n):
    """A proper factor of the composite n, which has no prime factor below
    1000: Pollard's rho with Brent's cycle search, taking gcds of batched
    products, on t^2 + c for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor_integer(n) -> dict:
    """The prime factorization {p: exponent} of the positive integer n, in
    increasing order of p."""
    out = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _brent_rho(m)
            stack += [f, m // f]
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Factoring integer polynomials: Yun's square-free decomposition, then
# Zassenhaus's method on each part (H. Cohen, A Course in Computational
# Algebraic Number Theory, ch. 3).  Integer polynomials are tuples of ints;
# polynomials over F_p are lists of residues in [0, p); both are constant
# first and trimmed.


def _squarefree_parts(f):
    """Yun: pairwise coprime square-free primitive a_1, a_2, ... with f = c
    prod a_i^i; returns those of positive degree."""
    df = poly_derivative(f)
    a = _zgcd(f, df)
    b, c = _zquo(f, a), _zquo(df, a)
    out = []
    while len(b) > 1:
        d = poly_sub(c, poly_derivative(b))
        a = _zgcd(b, d)
        if len(a) > 1:
            out.append(a)
        b, c = _zquo(b, a), _zquo(d, a)
    return out


def _pmod(f, p):
    out = [c % p for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(f, g, p):
    return _pmod(poly_mul(f, g), p)


def _psub(f, g, p):
    return _pmod(poly_sub(f, g), p)


def _pdivmod(f, g, p):
    """Division with remainder in F_p[t]; g must be non-zero."""
    rem = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quot = [0] * max(0, len(rem) - dg)
    while len(rem) > dg:
        c = rem[-1] * inv % p
        shift = len(rem) - 1 - dg
        quot[shift] = c
        for i, y in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * y) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _pmonic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _pgcd(f, g, p):
    """Monic gcd in F_p[t]."""
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    return _pmonic(f, p)


def _ppowmod(f, e, m, p):
    """f^e mod m in F_p[t]."""
    out, base = [1], _pdivmod(f, m, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, base, p), m, p)[1]
        base = _pdivmod(_pmul(base, base, p), m, p)[1]
        e >>= 1
    return out


def _pinverse(f, m, p):
    """g with f g = 1 mod m in F_p[t]; f must be prime to m."""
    r0, r1 = m, _pdivmod(f, m, p)[1]
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if not r1:
        raise AssertionError("polynomial is not invertible modulo m")
    inv = pow(r1[0], -1, p)
    return _pdivmod([c * inv % p for c in s1], m, p)[1]


def _distinct_degree(f, p):
    """Distinct-degree factorization of the monic square-free f over F_p:
    pairs (g_d, d), g_d the product of f's irreducible factors of degree d."""
    out = []
    h, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(h, p, f, p)
        g = _pgcd(f, _psub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p):
    """The monic irreducible factors of f over F_p (p odd), all of degree d:
    Cantor-Zassenhaus splitting by gcd(f, a^((p^d - 1)/2) - 1), with a running
    through the polynomials of degree 1 to deg f - 1 in the order of the
    integer whose base-p digits are a's coefficients."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    for k in range(p, p**n):
        a, x = [], k
        while x:
            x, r = divmod(x, p)
            a.append(r)
        g = _pgcd(f, _psub(_ppowmod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p) + _equal_degree(_pdivmod(f, g, p)[0], d, p)
    raise AssertionError("no splitting polynomial below degree %d" % n)


def _hensel_lift(f, factors, p, k):
    """Monic g_i = factors[i] mod p whose product is f / lc(f) mod p^k, lifted
    one p-adic digit at a time: with E = (f / lc(f) - prod g_i) / p^e mod p,
    each g_i gains p^e (s_i E mod g_i), where s_i inverts prod_{j != i} g_j
    modulo g_i; then sum_i (s_i E mod g_i) prod_{j != i} g_j = E mod p, both
    sides being of degree below deg f and equal modulo every g_i."""
    m = p**k
    inv = pow(f[-1], -1, m)
    target = [c * inv % m for c in f]
    s = []
    for i, g in enumerate(factors):
        cof = [1]
        for j, h in enumerate(factors):
            if j != i:
                cof = _pmul(cof, h, p)
        s.append(_pinverse(cof, g, p))
    lifted = [list(g) for g in factors]
    pe = p
    for _ in range(1, k):
        prod = [1]
        for g in lifted:
            prod = _pmod(poly_mul(prod, g), pe * p)
        err = _pmod([(c - x) // pe for c, x in zip(target, prod)], p)
        for i, g in enumerate(factors):
            delta = _pdivmod(_pmul(s[i], err, p), g, p)[1]
            for j, c in enumerate(delta):
                lifted[i][j] += pe * c
        pe *= p
    return lifted


def _zassenhaus(f):
    """The irreducible factors of the square-free primitive f (degree at least
    2): factor f mod the least odd prime p that divides neither lc(f) nor the
    discriminant, lift the factors mod p^k past twice the bound B on the
    coefficients of lc(f)/lc(h) h for any factor h of f, and recombine them,
    fewest first, keeping each product whose primitive part divides f."""
    lc = f[-1]
    for p in _TRIAL_PRIMES[1:]:
        fp = _pmod(f, p)
        if lc % p and len(_pgcd(fp, _pmod(poly_derivative(f), p), p)) == 1:
            break
    else:
        raise AssertionError("no prime below 1000 keeps f square-free")
    fp = _pmonic(fp, p)
    factors = [g for h, d in _distinct_degree(fp, p) for g in _equal_degree(h, d, p)]
    if len(factors) == 1:
        return [f]
    # Mignotte: every factor h of f has |h_j| <= 2^deg(h) |f|_2
    bound = lc * (math.isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)
    k, m = 1, p
    while m <= 2 * bound:
        k, m = k + 1, m * p
    lifted = _hensel_lift(f, factors, p, k)
    out = []
    live = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(live):
        for subset in itertools.combinations(live, size):
            g = [f[-1]]
            for i in subset:
                g = _pmod(poly_mul(g, lifted[i]), m)
            g = _primitive(tuple(c - m if 2 * c > m else c for c in g))
            q = _zquo(f, g)
            if q is not None:
                out.append(g)
                f = q
                live = [i for i in live if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def irreducible_factors(p):
    """The distinct irreducible factors of the non-zero integer polynomial p,
    each primitive with a positive leading coefficient."""
    out = []
    for a in _squarefree_parts(_primitive(poly_trim(tuple(int(c) for c in p)))):
        out += [a] if len(a) == 2 else _zassenhaus(a)
    return out


def irreducible_factor_of_largest_root(p):
    """Monic irreducible integer factor of p whose root is p's largest real root.

    p is a monic integer polynomial.  Its distinct irreducible factors come
    from irreducible_factors, in exact integer arithmetic; the selection is
    certified with Sturm counts on the isolating interval of p's largest root.
    """
    factors = irreducible_factors(p)
    # (lo, hi] holds one distinct root of p, the largest; distinct
    # irreducible factors are coprime, so exactly one vanishes there, and it
    # changes sign across: its roots are simple, hi is above all of them, and
    # lo is none of them (a rational root would be the largest one, above lo)
    lo, hi = isolate_largest_real_root(p)
    (f,) = [f for f in factors if count_real_roots(f, lo, hi) >= 1]
    if f[-1] != 1:
        raise AssertionError("factor of a monic integer polynomial must be monic")
    return f, (lo, hi)
