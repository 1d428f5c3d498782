"""Divisibility invariants and trace images of dimension groups.

The divisor set of a unital ordered group G with unit u collects every n
such that u splits into n copies of a single positive element.  In a
Bratteli-Vershik presentation this happens exactly when some level has all
tower heights divisible by n, so membership reduces to the height vector
trajectory mod n.  On a stationary diagram that trajectory reaches zero
within k*floor(log2 n) levels past level 1 or never (k vertices), so every
verdict here is exact; explicit finite diagrams only support bounded scans
and degrade to Unknown / AtLeast answers.

Valuations are certified, not sampled:
  * infinite p-valuation holds iff the minimal monic integer annihilator of
    the level-1 height vector under the incidence matrix reduces to a pure
    power of t mod p (then each annihilator degree worth of levels gains a
    factor p; conversely a unit factor mod p pins the valuation),
  * a finite valuation is the largest v such that p^v divides the heights
    at some level, each power p^e decided by a walk of at most z*e levels
    from level 1, where z is the multiplicity of t in charpoly(A) mod p
    (see _stationary_valuation); the annihilator test has certified that
    the powers run out,
  * for p coprime to det(A), z = 0 and the walk stays at level 1: the
    valuation is v_p of gcd(heights(1)).

Trace images.  A primitive stationary diagram has a unique normalized
trace, and the image of the dimension group is a union G of lambda^-m L:
(1/q)Z[1/lambda] (L = (1/q)Z, q coprime to lambda) for an integer
eigenvalue lambda, or, for an irrational Perron root, L is the lattice
spanned by the level-1 tower traces inside Q(lambda).  Subgroups of the
reals containing 1 are unitally order isomorphic iff they are equal as
sets (order isomorphisms being multiplications by a positive scalar), and
one rule compares them: G_A = G_B iff each lattice lies in the other group
and each group is stable under the other's lambda^-1.  Rational membership
is a test of gcds alone, and a field lattice is stable under lambda^-1
exactly when the norm of lambda is +-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .bratteli import (
    DEFAULT_DEPTH,
    CapabilityError,
    OrderedBratteliDiagram,
    derived,
    heights,
    incidence,
)
from .dimgroup import DimGroup
from .fieldpoly import (
    _mat_apply,
    _solve_lin,
    _zinverse,
    _zrem,
    charpoly,
    factor_integer,
    poly_add,
    poly_mul,
    poly_scale,
    poly_trim,
    primes_up_to,
)

__all__ = [
    "AtLeast",
    "InfiniteValuation",
    "SupernaturalTruncation",
    "DividesUnitResult",
    "SpectraComparison",
    "TraceImageGroup",
    "TraceIsoResult",
    "divides_unit",
    "periodic_spectrum",
    "spectra_equal",
    "trace_image_group",
    "trace_images_isomorphic",
    "DEFAULT_PRIME_CUTOFF",
    "DEFAULT_DEPTH",
]

DEFAULT_PRIME_CUTOFF = 97

_VALUATION_CAP = 4096  # defense in depth: certified-finite loops must stop long before


# ---------------------------------------------------------------------------
# divisor set membership


@dataclass(frozen=True)
class DividesUnitResult:
    """Answer to "does n divide the unit", with its witness or refutation."""

    verdict: str  # "yes" | "no" | "unknown"
    level: Optional[int]
    certificate: Optional[dict]
    depth: int


def divides_unit(dg: OrderedBratteliDiagram, n: int, depth: int = DEFAULT_DEPTH) -> DividesUnitResult:
    """Decide whether n*e = u for some positive e, i.e. n | heights(m) for some m.

    Stationary diagrams are decided exactly by walking the height residues
    mod n from level 1 for at most J = k*floor(log2 n) levels (k vertices,
    see _first_zero): Yes names the least level with zero residues, No
    carries {"modulus": n, "level": 1 + J}.  Explicit diagrams scan at most
    min(depth, last level) levels.
    """
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    if n == 1:
        return DividesUnitResult("yes", 0, None, depth)
    if dg.kind == "stationary":
        k = dg.num_vertices(1)
        j = _first_zero(incidence(dg, 1), heights(dg, 1), n, _walk_bound(k, n))
        if j is not None:
            return DividesUnitResult("yes", 1 + j, None, depth)
        cert = {"modulus": n, "level": 1 + _walk_bound(k, n)}
        return DividesUnitResult("no", None, cert, depth)
    cap = dg.scan_end(0, depth)
    for m in range(1, cap + 1):
        if all(x % n == 0 for x in heights(dg, m)):
            return DividesUnitResult("yes", m, None, cap)
    return DividesUnitResult("unknown", None, None, cap)


def _walk_bound(k, n):
    """J = k*floor(log2 n): the longest walk _first_zero needs on (Z/n)^k."""
    return k * (n.bit_length() - 1)


def _first_zero(mat, vec, n, bound):
    """Least j <= bound with mat^j vec = 0 mod n, or None.

    mat is a k x k integer matrix, k = len(vec).  The kernels K_j of
    mat^j on (Z/n)^k increase with j, and once K_j = K_(j+1) they stay
    equal (mat maps K_(j+2) into K_(j+1) = K_j).  A strict chain of
    submodules of (Z/n)^k has at most k*Omega(n) <= J = k*floor(log2 n)
    steps (Omega counts prime factors with multiplicity), so K_J holds
    every K_j: with bound >= J, or any bound the caller has shown the
    chain to stop growing by, zero stays zero and the first zero of this
    walk is the least j there is.
    """
    state = [x % n for x in vec]
    j = 0
    while any(state) and j < bound:
        state = [x % n for x in _mat_apply(mat, state)]
        j += 1
    return None if any(state) else j


def _minimal_annihilator(mat, vec):
    """Least-degree monic integer polynomial g with g(mat) vec = 0, constant first."""
    iterates = [tuple(vec)]
    while True:
        sol = _solve_lin(iterates[:-1], iterates[-1])
        if sol is not None:
            coeffs = []
            for x in sol:
                assert x.denominator == 1  # monic divisor of an integer polynomial
                coeffs.append(-int(x))
            return tuple(coeffs) + (1,)
        iterates.append(_mat_apply(mat, iterates[-1]))


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _prime_factors(n):
    """The primes dividing the integer n; none for 0 and +-1."""
    return set(factor_integer(abs(n))) if n else set()


# ---------------------------------------------------------------------------
# periodic spectrum


@dataclass(frozen=True)
class AtLeast:
    """Lower bound on a valuation, used where the scan had to stop."""

    bound: int


@dataclass(frozen=True)
class InfiniteValuation:
    """Infinite valuation with an annihilator certificate.

    The certificate stores the minimal monic integer annihilator of the
    level-1 height vector; all coefficients below the leading one being
    divisible by p forces every block of deg(annihilator) levels to gain
    another factor of p in the height gcd.
    """

    certificate: dict


@dataclass(frozen=True)
class SupernaturalTruncation:
    """Prime-by-prime description of the divisor set up to stated cutoffs."""

    entries: tuple  # ((p, int | AtLeast | InfiniteValuation), ...), p increasing
    prime_cutoff: int
    level_cutoff: int

    def to_json(self) -> dict:
        out = []
        for p, v in self.entries:
            if isinstance(v, InfiniteValuation):
                out.append({"p": p, "v": "inf", "cert": v.certificate})
            elif isinstance(v, AtLeast):
                out.append({"p": p, "v": {"at_least": v.bound}})
            else:
                out.append({"p": p, "v": v})
        return {"prime_cutoff": self.prime_cutoff, "level_cutoff": self.level_cutoff, "entries": out}


def _infinity_certificate(p, annihilator):
    return {"p": p, "annihilator": list(annihilator), "vector_level": 1}


@dataclass(frozen=True)
class _StationaryData:
    """Level-1 data behind the valuations of a stationary diagram."""

    mu: tuple  # minimal monic annihilator of heights(1), constant first
    charpoly: tuple  # charpoly of the level-1 incidence matrix, constant first
    candidates: frozenset  # every prime with a positive valuation


def _stationary_data(dg: OrderedBratteliDiagram) -> _StationaryData:
    return derived(dg, "stationary_data", _level_one_data, dg)


def _level_one_data(dg):
    mat = incidence(dg, 1)
    h1 = heights(dg, 1)
    mu = _minimal_annihilator(mat, h1)
    return _StationaryData(mu, charpoly(mat), _candidate_primes(mat, h1, mu))


def _stationary_valuation(dg, p):
    """Valuation at p of a stationary diagram's divisor set.

    Infinite iff mu is a power of t mod p.  Otherwise the largest v with
    p^v dividing the heights at some level; p^e does iff the walk from
    heights(1) under A = incidence(dg, 1) reaches zero mod p^e within
    z*e steps, z the multiplicity of t in charpoly(A) mod p.  By Fitting's
    lemma (Z/p^e)^k splits into a summand where A is nilpotent, free of
    rank z and so of length z*e, and one where A is invertible; every
    kernel of A^j lies in the first, so the kernel chain stops growing by
    step z*e.  p coprime to det A is z = 0: the valuation of gcd(heights(1)).
    """
    sd = _stationary_data(dg)
    if all(c % p == 0 for c in sd.mu[:-1]):
        return InfiniteValuation(_infinity_certificate(p, sd.mu))
    z = 0
    while sd.charpoly[z] % p == 0:
        z += 1
    mat, h1 = incidence(dg, 1), heights(dg, 1)
    v = 0
    while True:
        if v >= _VALUATION_CAP:
            raise CapabilityError("finite valuation exceeded the supported bound")
        if _first_zero(mat, h1, p ** (v + 1), z * (v + 1)) is None:
            return v
        v += 1


def periodic_spectrum(
    dg: OrderedBratteliDiagram,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> SupernaturalTruncation:
    """Valuation of the divisor set at every prime up to prime_cutoff.

    Stationary diagrams list the candidate primes (the finite set that can
    carry a positive valuation, see _candidate_primes) up to prime_cutoff,
    each with a certified answer: an exact natural number or Infinity with
    a replayable certificate (see the module docstring for the criterion).
    Explicit diagrams report AtLeast lower bounds from the levels available
    within depth.  Primes without an entry have valuation 0 for stationary
    input and are simply unobserved for explicit input.
    """
    if dg.kind == "stationary":
        entries = []
        for p in sorted(q for q in _stationary_data(dg).candidates if q <= prime_cutoff):
            v = _stationary_valuation(dg, p)
            if v != 0:
                entries.append((p, v))
        return SupernaturalTruncation(tuple(entries), prime_cutoff, depth)
    cap = dg.scan_end(0, depth)
    primes = primes_up_to(prime_cutoff)
    best = {p: 0 for p in primes}
    for m in range(1, cap + 1):
        g = 0
        for x in heights(dg, m):
            g = gcd(g, x)
        for p in primes:
            v = _valuation(g, p)
            if v > best[p]:
                best[p] = v
    entries = tuple((p, AtLeast(v)) for p, v in sorted(best.items()) if v >= 1)
    return SupernaturalTruncation(entries, prime_cutoff, cap)


# ---------------------------------------------------------------------------
# spectra comparison


@dataclass(frozen=True)
class SpectraComparison:
    verdict: str  # "equal" | "distinct" | "unknown"
    witness: Optional[int]
    certificate: Optional[dict]


def _candidate_primes(mat, vec, mu):
    """Every prime with positive valuation divides one of these numbers.

    Writing mu = t^s q(t) for the minimal annihilator of vec = heights(1)
    under mat with q(0) != 0: a prime entering the divisor set either
    divides the gcd of one of the first s+1 height iterates, or kills q(0)
    mod p (the residue trajectory can only reach zero when t divides the
    annihilator mod p).
    """
    s = 0
    while mu[s] == 0:
        s += 1
    cands = _prime_factors(mu[s])
    for _ in range(s + 1):
        cands |= _prime_factors(gcd(*vec))
        vec = _mat_apply(mat, vec)
    return frozenset(cands)


_INF = float("inf")


def _valuation_bounds(dg, primes, prime_cutoff, depth):
    """(lower, upper) bounds on the valuation of dg's divisor set at each of
    primes: exact on a stationary diagram, and on an explicit one
    periodic_spectrum's lower bound with no upper bound (_INF)."""
    if dg.kind != "stationary":
        lower = {p: v.bound for p, v in periodic_spectrum(dg, prime_cutoff, depth).entries}
        return [(lower.get(p, 0), _INF) for p in primes]
    candidates = _stationary_data(dg).candidates
    out = []
    for p in primes:
        v = _stationary_valuation(dg, p) if p in candidates else 0
        v = _INF if isinstance(v, InfiniteValuation) else v
        out.append((v, v))
    return out


def spectra_equal(
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> SpectraComparison:
    """Compare divisor sets; exact for stationary pairs.

    One rule for every pair of diagram kinds: at a prime p where one side's
    lower valuation bound exceeds the other's finite upper bound u, p^(u+1)
    lies in exactly one divisor set, and Distinct returns the least such
    power.  A stationary pair is compared over every prime that could carry
    a nonzero valuation on either side (a finite, computed set), so its
    Equal is a full certificate.  When an explicit diagram is involved the
    primes up to prime_cutoff are compared, and without a difference the
    answer is Unknown.
    """
    stationary = dgA.kind == dgB.kind == "stationary"
    if stationary:
        primes = sorted(_stationary_data(dgA).candidates | _stationary_data(dgB).candidates)
    else:
        primes = primes_up_to(prime_cutoff)
    boundsA = _valuation_bounds(dgA, primes, prime_cutoff, depth)
    boundsB = _valuation_bounds(dgB, primes, prime_cutoff, depth)
    rows, witnesses = [], []
    for p, (loA, hiA), (loB, hiB) in zip(primes, boundsA, boundsB):
        # nothing exceeds _INF, so a bound exceeded is finite
        if loA > hiB:
            witnesses.append(p ** (hiB + 1))
        if loB > hiA:
            witnesses.append(p ** (hiA + 1))
        rows.append([p, "inf" if loA == _INF else loA, "inf" if loB == _INF else loB])
    if stationary:
        cert = {"compared_primes": primes, "valuations": rows}
    elif witnesses:
        cert = {"prime_cutoff": prime_cutoff, "depth": depth}
    else:
        return SpectraComparison("unknown", None, None)
    if witnesses:
        return SpectraComparison("distinct", min(witnesses), cert)
    return SpectraComparison("equal", None, cert)


# ---------------------------------------------------------------------------
# trace images


@dataclass(frozen=True)
class TraceImageGroup:
    """Image of the dimension group under the unique normalized trace.

    kind "cyclic": the subgroup (1/denominator) Z[1/ratio] of the rationals
    (denominator coprime to ratio); n/d lies in it iff d / gcd(n *
    denominator, d) has no prime outside ratio, a test of gcds alone.
    kind "field": the increasing union of lambda^-m copies of the lattice
    spanned by `generators` (coordinate tuples over the power basis of
    Q[t]/(minpoly)); `lattice` is that lattice in integer form, and
    `stabilized` marks the union collapsing to the lattice itself, which
    happens exactly when lambda acts on it with determinant +-1, that is
    when its norm minpoly(0) is +-1.  Membership tests are exact in both
    kinds.
    """

    kind: str
    ratio: Optional[int] = None
    denominator: Optional[int] = None
    minpoly: Optional[tuple] = None
    generators: Optional[tuple] = None

    @property
    def degree(self) -> int:
        """The degree of the field the image spans over Q."""
        return 1 if self.kind == "cyclic" else len(self.minpoly) - 1

    @cached_property
    def lattice(self):
        """(integer HNF basis, scale, action of t): lattice = basis / scale."""
        scale = lcm(*(c.denominator for vec in self.generators for c in vec))
        basis = _hnf_rows([[int(c * scale) for c in vec] for vec in self.generators])
        assert len(basis) == self.degree  # generators span the field over Q
        tmat = []
        for row in basis:
            shifted = _mul_by_t([Fraction(c) for c in row], self.minpoly)
            coeffs = _solve_lin(basis, shifted)
            assert coeffs is not None and all(c.denominator == 1 for c in coeffs)
            tmat.append([int(c) for c in coeffs])
        return basis, scale, tmat

    @property
    def stabilized(self) -> Optional[bool]:
        """Field kind: does t act on the lattice with determinant +-1?  That
        action's characteristic polynomial is minpoly."""
        return abs(self.minpoly[0]) == 1 if self.kind == "field" else None

    def contains(self, x) -> bool:
        """Exact membership; x is a Fraction (cyclic) or coordinate tuple (field)."""
        if self.kind == "cyclic":
            x = Fraction(x)
            return _cyclic_member(self, x.numerator, x.denominator)
        if isinstance(x, Fraction) or isinstance(x, int):
            x = (Fraction(x),) + (Fraction(0),) * (self.degree - 1)
        return _shift(self, x) is not None


def _cyclic_member(g, n, d):
    """Is n/d in the cyclic image g?  Only when n * denominator / d has a
    denominator made of primes of the ratio."""
    return _coprime_part(d // gcd(n * g.denominator, d), g.ratio) == 1


def _shift(g, vec):
    """Least j with lambda^j * vec in the lattice of the field image g, or
    None when vec lies in no lambda^-j copy of it, that is not in g."""
    basis, scale, tmat = g.lattice
    coeffs = _solve_lin(basis, [Fraction(c) * scale for c in vec])
    return None if coeffs is None else _eventually_integral(coeffs, tmat)


def _coprime_part(n, ratio):
    """n stripped of every prime factor it shares with ratio."""
    g = gcd(n, ratio)
    while g > 1:
        while n % g == 0:
            n //= g
        g = gcd(n, ratio)
    return n


def _mul_by_t(vec, minpoly):
    # multiply a power-basis coordinate vector by t, reducing mod minpoly
    deg = len(minpoly) - 1
    lead = vec[deg - 1]
    out = [Fraction(0)] + list(vec[: deg - 1])
    return [a - lead * minpoly[i] for i, a in enumerate(out)]


def _hnf_rows(rows):
    """Row Hermite form (echelon, positive pivots) of an integer row span."""
    mat = [list(r) for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    top = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(top, m) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(mat[i][col]))
            p = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[p][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[p])]
        nz = [i for i in range(top, m) if mat[i][col] != 0]
        if not nz:
            continue
        mat[top], mat[nz[0]] = mat[nz[0]], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        for i in range(top):
            q = mat[i][col] // mat[top][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
        top += 1
    return [tuple(r) for r in mat[:top]]


def _eventually_integral(coeffs, tmat):
    """Least j with coeffs * tmat^j integral, or None if there is none.

    The fractional parts live in (Z/den)^k for the common denominator den,
    so _first_zero decides it by a walk of at most k*floor(log2 den) steps.
    """
    den = lcm(*(c.denominator for c in coeffs))
    vec = [int(c * den) for c in coeffs]
    return _first_zero(tuple(zip(*tmat)), vec, den, _walk_bound(len(vec), den))


def trace_image_group(dg: OrderedBratteliDiagram) -> TraceImageGroup:
    """Image of the dimension group under the normalized trace (exact form),
    computed once per diagram object."""
    return derived(dg, "trace_image", _trace_image_group, dg)


def _trace_image_group(dg):
    """The tower traces v_i / normalizer, read in integers: with the trace
    weights W = scale * v of the Perron data, the normalizer is
    <W, heights(1)> / scale, so one inverse N u = e of N = <W, heights(1)>
    makes the trace of tower i (W_i u mod minpoly) / e."""
    data = DimGroup(dg).perron  # raises ValueError unless primitive stationary
    minpoly = data.minpoly
    deg = len(minpoly) - 1
    h1 = heights(dg, 1)
    columns = data.weights
    u, e = _zinverse(poly_trim(_mat_apply(columns, h1)), minpoly)
    nums = [_zrem(poly_mul(poly_trim(w), u), minpoly) for w in zip(*columns)]
    # the unit maps to 1
    unit = ()
    for x, h in zip(nums, h1):
        unit = poly_add(unit, poly_scale(x, h))
    if unit != (e,):
        raise AssertionError("the unit must have trace 1")
    if deg == 1:
        lam = -minpoly[0]
        span = Fraction(gcd(*(x[0] if x else 0 for x in nums)), e)
        q = _coprime_part(span.denominator, lam)
        out = TraceImageGroup("cyclic", ratio=lam, denominator=q)
        assert out.contains(Fraction(1))  # the unit always maps to 1
        return out
    one = (Fraction(1),) + (Fraction(0),) * (deg - 1)
    gens = (one,) + tuple(
        tuple(Fraction(c, e) for c in x + (0,) * (deg - len(x))) for x in nums
    )
    return TraceImageGroup("field", minpoly=minpoly, generators=gens)


# ---------------------------------------------------------------------------
# unital order isomorphism of trace images


@dataclass(frozen=True)
class TraceIsoResult:
    value: Optional[bool]
    reason: str
    certificate: Optional[dict] = None


def _field_included(a: TraceImageGroup, b: TraceImageGroup):
    """Is the group of a contained in the group of b (same minimal polynomial)?

    Each generator of a must land in some lambda^-j copy of b's lattice;
    returns the largest such least j and None, or None and the first
    generator that escapes.
    """
    shifts = []
    for vec in a.generators:
        j = _shift(b, vec)
        if j is None:
            return None, vec
        shifts.append(j)
    return max(shifts, default=0), None


def trace_images_isomorphic(a: TraceImageGroup, b: TraceImageGroup) -> TraceIsoResult:
    """Decide unital order isomorphism (equivalently set equality) of images.

    Rational images are compared by the module's rule on the numbers 1/q_A,
    1/q_B and, when lambda_A != lambda_B, 1/(lambda_A q_B) and
    1/(lambda_B q_A); once the checks before it hold, each lies in one
    image, so a "not" names a number in exactly one.  Field images with one
    minimal polynomial share lambda, so the two lattice inclusions decide
    them.
    """
    if a.kind == b.kind == "cyclic":
        checks = [(a.denominator, b), (b.denominator, a)]
        if a.ratio != b.ratio:
            checks += [(a.ratio * b.denominator, b), (b.ratio * a.denominator, a)]
        for k, g in checks:
            if not _cyclic_member(g, 1, k):
                where = "first image, not the second" if g is b else "second image, not the first"
                return TraceIsoResult(False, "1/%d lies in the %s" % (k, where))
        return TraceIsoResult(True, "identical rational subgroups")
    if a.kind != b.kind:
        return TraceIsoResult(False, "one image is rational, the other spans a real number field")
    if a.minpoly != b.minpoly:
        return TraceIsoResult(None, "images lie in fields with distinct minimal polynomials")
    ab, bad_a = _field_included(a, b)
    if ab is None:
        return TraceIsoResult(False, "a generator of the first image escapes the second", {"generator": [str(c) for c in bad_a]})
    ba, bad_b = _field_included(b, a)
    if ba is None:
        return TraceIsoResult(False, "a generator of the second image escapes the first", {"generator": [str(c) for c in bad_b]})
    return TraceIsoResult(True, "identical subgroups of the trace field", {"shift_ab": ab, "shift_ba": ba})
