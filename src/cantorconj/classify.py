"""Deciders for the conjugacy hierarchy of Cantor minimal systems.

Three nested relations are decided as far as the computable invariants
reach:

- weak approximate conjugacy, governed by the divisor sets of the two
  dimension groups (the supernatural spectra);
- approximate tau-conjugacy, which additionally needs the trace images to
  be isomorphic as unital ordered subgroups of the reals;
- approximate K-conjugacy (equivalently strong orbit equivalence), which
  asks for a unital order isomorphism of the dimension groups and is
  certified here by an explicit intertwining ladder of nonnegative integer
  matrices.

A ladder rung pair (h, H) with H.h = A^ga and h.H = B^gb makes h a
solution of the intertwining equation h.A^ga = B^gb.h with h.u_A = u_B
(shift equivalence over Z+).  The search therefore enumerates h as the
nonnegative integer points of that linear system, and H as those of
H.h = A^ga, h.H = B^gb and H.u_B = u_A' (the unit ga levels up), each in
lexicographic order by a depth-first walk over a row echelon form; one
budget of walk nodes bounds the whole search.  A period pair whose powers
A^ga and B^gb differ in nonzero spectrum cannot hold such a pair (H.h and
h.H share it), so its cells are skipped before any elimination.

No-verdicts are only ever derived from sound obstructions: a prime power
present in one divisor set and absent from the other, a rational-rank
mismatch of the trace images, or certified non-isomorphy of the trace
images.  Exhausted searches return Unknown, never No; order isomorphism of
dimension groups has no known general decision procedure, so honesty about
the search boundary is part of the contract.  Positive verdicts carry
witnesses that re-verify from their serialized form, and the certificate
layer binds every witness to content digests of the input presentations.

The second half of the module implements the lifting lemmas the deciders
rest on: realizing a positive class as a clopen subset of a given clopen
set, splitting the space along a list of classes, and finally assembling
an approximate conjugacy at a fixed resolution out of a unit-preserving
morphism, such a splitting of the target and a full-group corrector.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .bratteli import (
    CapabilityError,
    DgElement,
    OrderedBratteliDiagram,
    capped_heights,
    cells,
    class_of_clopen,
    composed_incidence,
    derived,
    heights,
    serialize_diagram,
    tower_stacks,
)
from .dimgroup import DimGroup, NEGATIVE, NOT_COMPARABLE, POSITIVE, UNKNOWN, ZERO
from .fieldpoly import _mat_apply, _mat_mul, _row_reduce_int, charpoly
from .fullgroup import (
    ConjugacyReport,
    ConjugatorError,
    FullGroupElement,
    _validate_partition,
    conjugator_from_partition,
    verify_conjugator,
)
from .invariants import (
    DEFAULT_DEPTH,
    DEFAULT_PRIME_CUTOFF,
    SpectraComparison,
    TraceIsoResult,
    divides_unit,
    spectra_equal,
    trace_image_group,
    trace_images_isomorphic,
)

# Depth-first nodes one ladder search may visit over all its cells; beyond
# this the search reports Unknown.
LADDER_NODE_BUDGET = 20_000

# Conjugator certificates always audit at this lookahead; the verifier
# rejects any other value, so the witness bytes stay fully pinned.
AUDIT_LOOKAHEAD = 2


class SearchExhausted(RuntimeError):
    """A bounded search ran out of room without reaching a verdict."""

    def __init__(self, depth, what="search"):
        self.depth = depth
        super().__init__("%s exhausted within depth %s" % (what, depth))


@dataclass(frozen=True)
class Obstruction:
    """Sound reason a positive verdict is impossible.

    kind "divisor": witness is an integer absent from the target divisor
    set.  kind "spectra": witness is the minimal distinguishing prime
    power.  kind "rank": witness is the pair of rational ranks.  kind
    "trace": witness is the verifier's reason string.
    """

    kind: str
    witness: object


# ---------------------------------------------------------------------------
# numerical semigroups


def _least_by_residue(ks):
    """Least nonnegative combination of ks in each residue class mod min(ks).

    Dijkstra over the residues (Nijenhuis 1979): entry r is the least
    representable number congruent to r, or None when none is.  A number
    t is representable exactly when t >= entry t % min(ks), since adding
    min(ks) to a representation stays in the class.
    """
    g = min(ks)
    least = [None] * g
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        val, r = heapq.heappop(heap)
        if val > least[r]:
            continue
        for x in ks:
            nv, nr = val + x, (val + x) % g
            if least[nr] is None or nv < least[nr]:
                least[nr] = nv
                heapq.heappush(heap, (nv, nr))
    return least


def frobenius(k) -> int:
    """Least N with every integer >= N a nonnegative combination of k.

    The largest gap is the largest least representable number of a residue
    class modulo min(k) (see _least_by_residue), less min(k); the
    threshold sits one past it.  Returns at least 1 even when k contains 1 (so callers can rely on the
    reduced heights being strictly positive).
    """
    ks = tuple(int(x) for x in k)
    if not ks or any(x < 1 for x in ks):
        raise ValueError("generators must be positive integers")
    if math.gcd(*ks) != 1:
        raise ValueError("generators must be coprime, gcd is %d" % math.gcd(*ks))
    return max(max(_least_by_residue(ks)) - min(ks) + 1, 1)


def represent(d: int, k) -> Optional[tuple]:
    """Lexicographically least nonnegative coefficients with sum c_i k_i = d.

    None when d is not representable.  Builds the residue table of every
    proper suffix of k (see _least_by_residue) and reads the coefficients
    off them with _least_row, the routine build_k0_morphism runs on the
    tables it keeps per level.
    """
    ks = tuple(int(x) for x in k)
    d = int(d)
    if d < 0 or any(x < 1 for x in ks):
        return None
    if not ks:
        return () if d == 0 else None
    return _least_row(d, ks, _suffix_tables(ks))


def _suffix_tables(ks):
    """Residue tables of ks[i + 1:] for each i but the last."""
    return tuple(_least_by_residue(ks[i + 1 :]) for i in range(len(ks) - 1))


def _least_row(d, ks, tables):
    """represent(d, ks) for d >= 0 and nonempty positive ks, given
    tables = _suffix_tables(ks).

    Greedy: each coordinate takes the least value that leaves the rest
    representable by the later entries, read off their residue table.
    Values of a coordinate that differ by the tail's least entry g leave
    remainders in one residue class, and the smaller value leaves the
    larger remainder, so at most g values are tried; the last coordinate
    is one division.  The work does not grow with d.
    """
    out = []
    rem = d
    for x, least in zip(ks, tables):
        g = len(least)
        for c in range(min(g, rem // x + 1)):
            t = rem - c * x
            if least[t % g] is not None and least[t % g] <= t:
                break
        else:
            return None
        out.append(c)
        rem -= c * x
    c, left = divmod(rem, ks[-1])
    if left:
        return None
    return tuple(out) + (c,)


# ---------------------------------------------------------------------------
# unit-preserving morphisms


def _least_failing_factor(dg, p, depth):
    """Smallest prime power dividing p that misses the divisor set of dg."""
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


@dataclass(frozen=True)
class K0Morphism:
    """Nonnegative integer matrix sending the source unit to the target unit."""

    matrix: tuple
    source_level: int
    target_level: int

    def apply(self, vec):
        return _mat_apply(self.matrix, vec)

    def to_json(self) -> dict:
        return {
            "source_level": self.source_level,
            "target_level": self.target_level,
            "matrix": [list(row) for row in self.matrix],
        }


def _source_level(d, m):
    """(heights, p, ks, threshold, tables) of level m as a morphism source:
    p = gcd of the heights, ks the heights over p, threshold = frobenius(ks)
    and tables = _suffix_tables(ks); kept per diagram and level."""

    def compute():
        hs = heights(d, m)
        p = math.gcd(*hs)
        ks = tuple(x // p for x in hs)
        return hs, p, ks, frobenius(ks), _suffix_tables(ks)

    return derived(d, ("k0_source", m), compute)


def build_k0_morphism(
    dgA: OrderedBratteliDiagram,
    levelA: int,
    dgB: OrderedBratteliDiagram,
    levelB: int,
    depth: int = DEFAULT_DEPTH,
):
    """Positive unit-preserving morphism from level levelA of A into B.

    Extracts p = gcd of the source heights; p must divide the target unit
    (else the divisor obstruction is returned with p as witness).  The
    target is then pushed deep enough that the reduced heights clear the
    representability threshold, and each row is the lexicographically least
    representation; unit preservation holds by construction and is asserted.
    The source level's gcd, threshold and residue tables are computed once
    per diagram and level and shared by every call (see _source_level).
    """
    hA, p, ks, threshold, tables = _source_level(dgA, levelA)
    res = divides_unit(dgB, p, depth)
    if res.verdict == "no":
        return Obstruction("divisor", _least_failing_factor(dgB, p, depth))
    if res.verdict == "unknown":
        raise SearchExhausted(depth, "divisibility of the target unit by %d" % p)
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
        rows = tuple(_least_row(dd, ks, tables) for dd in ds)
        assert all(row is not None for row in rows)
        t = K0Morphism(rows, levelA, lb)
        assert t.apply(hA) == hB
        return t
    raise SearchExhausted(depth, "target level with reduced heights above %d" % threshold)


# ---------------------------------------------------------------------------
# weak approximate conjugacy


@dataclass(frozen=True)
class WeakResult:
    verdict: str  # "weak" | "not" | "unknown"
    witness: Optional[int] = None
    forward: tuple = ()
    backward: tuple = ()
    spectra: Optional[SpectraComparison] = None


def decide_weak(
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
    rounds: int = 2,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> WeakResult:
    """Equality of the divisor sets, with morphism schedules as evidence.

    On equal spectra the result carries unit-preserving positive morphisms
    in both directions at increasing source levels: the finite-level content
    of the two asymptotic intertwinings.  A distinguishing prime power is a
    sound No.
    """
    comp = spectra_equal(dgA, dgB, prime_cutoff, depth)
    if comp.verdict == "distinct":
        return WeakResult("not", comp.witness, spectra=comp)
    if comp.verdict != "equal":
        return WeakResult("unknown", spectra=comp)
    try:
        forward = tuple(
            build_k0_morphism(dgA, m, dgB, 1, depth) for m in range(1, rounds + 1)
        )
        backward = tuple(
            build_k0_morphism(dgB, m, dgA, 1, depth) for m in range(1, rounds + 1)
        )
    except SearchExhausted:
        return WeakResult("unknown", spectra=comp)
    if any(isinstance(t, Obstruction) for t in forward + backward):
        # cannot happen with exactly equal spectra; stay honest if it does
        return WeakResult("unknown", spectra=comp)
    return WeakResult("weak", None, forward, backward, comp)


# ---------------------------------------------------------------------------
# intertwining ladders / approximate K-conjugacy


@dataclass(frozen=True)
class IntertwiningLadder:
    """Alternating unit-preserving matrices whose squares telescope.

    forwards[i] maps level a_levels[i] of the A side to level b_levels[i]
    of the B side; backwards[i] returns to level a_levels[i+1].  Each
    backward-after-forward composite equals the A-side connecting matrix,
    each forward-after-backward composite the B-side one.
    """

    a_levels: tuple
    b_levels: tuple
    forwards: tuple
    backwards: tuple

    def to_json(self) -> dict:
        return {
            "a_levels": list(self.a_levels),
            "b_levels": list(self.b_levels),
            "forwards": [[list(row) for row in m] for m in self.forwards],
            "backwards": [[list(row) for row in m] for m in self.backwards],
        }

    @staticmethod
    def from_json(blob: dict) -> "IntertwiningLadder":
        freeze = lambda m: tuple(tuple(int(x) for x in row) for row in m)
        return IntertwiningLadder(
            tuple(int(x) for x in blob["a_levels"]),
            tuple(int(x) for x in blob["b_levels"]),
            tuple(freeze(m) for m in blob["forwards"]),
            tuple(freeze(m) for m in blob["backwards"]),
        )


@dataclass(frozen=True)
class LadderReport:
    ok: bool
    index: Optional[int] = None  # rung position: forward i -> 2i, backward i -> 2i+1
    reason: Optional[str] = None


def verify_ladder(
    ladder: IntertwiningLadder,
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
) -> LadderReport:
    """Exact integer recomputation of every square and every unit image."""
    la, lb = ladder.a_levels, ladder.b_levels
    fs, bs = ladder.forwards, ladder.backwards
    if not (len(fs) == len(bs) == len(lb) == len(la) - 1):
        return LadderReport(False, None, "rung counts do not line up")
    if any(x > y for x, y in zip(la, la[1:])) or any(
        x > y for x, y in zip(lb, lb[1:])
    ):
        return LadderReport(False, None, "levels must be nondecreasing")
    for i, h in enumerate(fs):
        ua, ub = heights(dgA, la[i]), heights(dgB, lb[i])
        if len(h) != len(ub) or any(len(row) != len(ua) for row in h):
            return LadderReport(False, 2 * i, "forward rung has the wrong shape")
        if any(x < 0 for row in h for x in row):
            return LadderReport(False, 2 * i, "negative entry")
        if _mat_apply(h, ua) != ub:
            return LadderReport(False, 2 * i, "unit not preserved")
    for i, bm in enumerate(bs):
        ub, ua1 = heights(dgB, lb[i]), heights(dgA, la[i + 1])
        if len(bm) != len(ua1) or any(len(row) != len(ub) for row in bm):
            return LadderReport(False, 2 * i + 1, "backward rung has the wrong shape")
        if any(x < 0 for row in bm for x in row):
            return LadderReport(False, 2 * i + 1, "negative entry")
        if _mat_apply(bm, ub) != ua1:
            return LadderReport(False, 2 * i + 1, "unit not preserved")
        if _mat_mul(bm, fs[i]) != composed_incidence(dgA, la[i], la[i + 1]):
            return LadderReport(False, 2 * i + 1, "source-side square does not commute")
        if i + 1 < len(fs):
            if _mat_mul(fs[i + 1], bm) != composed_incidence(dgB, lb[i], lb[i + 1]):
                return LadderReport(
                    False, 2 * i + 2, "target-side square does not commute"
                )
    return LadderReport(True)


@dataclass(frozen=True)
class KConjResult:
    verdict: str  # "k-conjugate" | "not" | "unknown"
    ladder: Optional[IntertwiningLadder] = None
    obstructions: tuple = ()
    note: Optional[str] = None


def _trace_group_or_none(dg):
    try:
        return trace_image_group(dg)
    except ValueError:
        return None


def _rational_rank(g):
    return 1 if g.kind == "cyclic" else len(g.minpoly) - 1


def _obstructions(dgA, dgB, prime_cutoff, depth):
    """(sound obstructions: spectra, rank, trace; spectra comparison; trace
    verdict, None unless both trace images exist)."""
    obstructions = []
    comp = spectra_equal(dgA, dgB, prime_cutoff, depth)
    if comp.verdict == "distinct":
        obstructions.append(Obstruction("spectra", comp.witness))
    ga, gb = _trace_group_or_none(dgA), _trace_group_or_none(dgB)
    iso = None
    if ga is not None and gb is not None:
        ra, rb = _rational_rank(ga), _rational_rank(gb)
        if ra != rb:
            obstructions.append(Obstruction("rank", (ra, rb)))
        iso = trace_images_isomorphic(ga, gb)
        if iso.value is False:
            obstructions.append(Obstruction("trace", iso.reason))
    return tuple(obstructions), comp, iso


class _NodeBudget:
    """Depth-first nodes left to the ladder search, shared by all its cells."""

    def __init__(self, limit):
        self.limit = limit
        self.spent = 0

    def charge(self):
        if self.spent >= self.limit:
            raise SearchExhausted(self.limit, "ladder node budget")
        self.spent += 1


def _lex_solutions(rows, rhs, bounds, budget):
    """Integer x with rows . x = rhs and 0 <= x[k] <= bounds[k], in lex order.

    The system is reduced over Z, fraction-free, with pivots sought from the
    highest-index variable down, so each pivot row is primitive with a
    positive pivot, and each pivot variable is an affine function of the free
    variables before it, with that pivot as its denominator.  A depth-first
    walk sets the free variables in index order; each pivot row whose last
    free variable is the one being set narrows that variable to the values
    that put the pivot inside its bounds, and the pivot must also come out
    integral.  Two solutions first differ at a free variable, so they appear
    in lexicographic order.  The root and every value tried cost one node of
    the budget.
    """
    n = len(bounds)
    budget.charge()
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = _row_reduce_int(aug, range(n - 1, -1, -1))
    if any(aug[r][n] != 0 for r in range(len(pivots), len(aug))):
        return
    free = [k for k in range(n) if k not in pivots]
    slot = {k: t for t, k in enumerate(free)}
    # checks[t]: (pivot, constant, denominator, coefficient of free[t], other
    # terms) for each pivot row fixed once free[t] is set
    checks = [[] for _ in free]
    x = [0] * n
    for r, p in enumerate(pivots):
        row = aug[r]
        terms = [k for k in free if row[k] != 0]
        den, const = row[p], row[n]
        if not terms:
            if const % den or not 0 <= const // den <= bounds[p]:
                return
            x[p] = const // den
            continue
        last = max(terms)
        others = tuple((k, row[k]) for k in terms if k != last)
        checks[slot[last]].append((p, const, den, row[last], others))

    def walk(t):
        if t == len(free):
            yield tuple(x)
            return
        k = free[t]
        lo, hi = 0, bounds[k]
        pending = []
        for p, const, den, coef, others in checks[t]:
            # x[p] = (base - coef * x[k]) / den must lie in 0..bounds[p]
            base = const - sum(c * x[j] for j, c in others)
            top = den * bounds[p]
            if coef > 0:
                lo, hi = max(lo, -((top - base) // coef)), min(hi, base // coef)
            else:
                lo, hi = max(lo, -(base // -coef)), min(hi, (top - base) // -coef)
            pending.append((p, base, den, coef))
        for v in range(lo, hi + 1):
            budget.charge()
            x[k] = v
            for p, base, den, coef in pending:
                num = base - coef * v
                if num % den:
                    break
                x[p] = num // den
            else:
                yield from walk(t + 1)

    yield from walk(0)


def _forward_system(ua0, ub0, conn_a, conn_b):
    """h . u_A = u_B and h . C_A = C_B . h for h (|u_B| x |u_A|), row-major."""
    na, nb = len(ua0), len(ub0)
    rows, rhs = [], []
    for i in range(nb):
        row = [0] * (nb * na)
        row[i * na : (i + 1) * na] = ua0
        rows.append(row)
        rhs.append(ub0[i])
    for i in range(nb):
        for k in range(na):
            row = [0] * (nb * na)
            for j in range(na):
                row[i * na + j] += conn_a[j][k]
            for l in range(nb):
                row[l * na + k] -= conn_b[i][l]
            rows.append(row)
            rhs.append(0)
    bounds = [ub0[i] // ua0[j] for i in range(nb) for j in range(na)]
    return rows, rhs, bounds


def _backward_system(h, ub0, ua1, conn_a, conn_b):
    """H . h = C_A, h . H = C_B and H . u_B = u_A' for H (|u_A'| x |u_B|), row-major."""
    na, nb = len(ua1), len(ub0)
    rows, rhs = [], []
    for w in range(na):
        for k in range(len(h[0])):
            row = [0] * (na * nb)
            for i in range(nb):
                row[w * nb + i] = h[i][k]
            rows.append(row)
            rhs.append(conn_a[w][k])
    for i in range(nb):
        for l in range(nb):
            row = [0] * (na * nb)
            for w in range(na):
                row[w * nb + l] = h[i][w]
            rows.append(row)
            rhs.append(conn_b[i][l])
    for w in range(na):
        row = [0] * (na * nb)
        row[w * nb : (w + 1) * nb] = ub0
        rows.append(row)
        rhs.append(ua1[w])
    bounds = [ua1[w] // ub0[i] for w in range(na) for i in range(nb)]
    return rows, rhs, bounds


def _unflatten(flat, width):
    return tuple(flat[i : i + width] for i in range(0, len(flat), width))


def _nonzero_charpoly(d, g):
    """charpoly of A^g, the g-th power of d's stationary incidence, with its
    factors of t dropped; constant first, kept per power in derived()."""

    def compute():
        cp = charpoly(composed_incidence(d, 1, 1 + g))
        return cp[next(i for i, c in enumerate(cp) if c) :]

    return derived(d, ("nonzero_charpoly", 1, 1 + g), compute)


def _ladder_search(dgA, dgB, max_span, max_base, budget):
    """Breadth-first over the total level span, then lexicographic.

    A periodic pair (h, H) with H.h and h.H equal to powers C_A and C_B of
    the two incidence matrices extends to an infinite intertwining by
    stationarity, so two periods are materialized and the rest is implied.
    Any such h solves h.C_A = C_B.h (shift equivalence over Z+), so h ranges
    over the solutions of that equation with h.u_A = u_B, and H over those
    of H.h = C_A, h.H = C_B and H.u_B = u_A'; the first pair in
    lexicographic order of h, then of H, is returned.

    Each period pair (ga, gb) is first tested once, exactly, and skipped
    with all its base levels when the test fails:

    - a cell yields a ladder only if H.h = C_A and h.H = C_B;
    - Sylvester's identity gives t^nb det(tI - H.h) = t^na det(tI - h.H),
      so there cp(C_A) and cp(C_B) agree once factors of t are dropped
      (equal nonzero spectra, as shift equivalence forces);
    - on a stationary diagram composed_incidence(d, a0, a0 + g) is A^g for
      every a0 >= 1, so the test of A^ga against B^gb covers every cell of
      the pair.

    A skipped cell never held a ladder, so the ladder returned is the one
    the unpruned search finds; only the nodes spent differ.  Returns the
    ladder or None, the period pairs skipped and the period pairs visited.
    """
    skipped = visited = 0
    for span in range(2, max_span + 1):
        for ga in range(1, span):
            gb = span - ga
            visited += 1
            if _nonzero_charpoly(dgA, ga) != _nonzero_charpoly(dgB, gb):
                skipped += 1
                continue
            for a0 in range(1, max_base + 1):
                ua0, ua1 = heights(dgA, a0), heights(dgA, a0 + ga)
                conn_a = composed_incidence(dgA, a0, a0 + ga)
                for b0 in range(1, max_base + 1):
                    ub0 = heights(dgB, b0)
                    conn_b = composed_incidence(dgB, b0, b0 + gb)
                    forward = _forward_system(ua0, ub0, conn_a, conn_b)
                    for flat in _lex_solutions(*forward, budget):
                        h = _unflatten(flat, len(ua0))
                        backward = _backward_system(h, ub0, ua1, conn_a, conn_b)
                        flat_b = next(_lex_solutions(*backward, budget), None)
                        if flat_b is not None:
                            bm = _unflatten(flat_b, len(ub0))
                            ladder = IntertwiningLadder(
                                (a0, a0 + ga, a0 + 2 * ga),
                                (b0, b0 + gb),
                                (h, h),
                                (bm, bm),
                            )
                            return ladder, skipped, visited
    return None, skipped, visited


def _reversed_ladder(ladder: IntertwiningLadder) -> IntertwiningLadder:
    """The periodic ladder of _ladder_search read from the other side.

    A ladder from B to A, with B levels (b0, b0 + gb, b0 + 2gb), A levels
    (a0, a0 + ga) and rungs (h, h), (H, H), is the chain b0 -> a0 -> b0 + gb
    -> a0 + ga -> b0 + 2gb.  Dropping its first rung and extending it by one
    period (stationarity) gives a0 -> b0 + gb -> a0 + ga -> b0 + 2gb ->
    a0 + 2ga, a ladder from A to B with the rungs swapped.
    """
    (a0, a1), (_, b1, b2) = ladder.b_levels, ladder.a_levels
    return IntertwiningLadder(
        (a0, a1, 2 * a1 - a0), (b1, b2), ladder.backwards, ladder.forwards
    )


def decide_k_conjugacy(
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
    max_span: int = 12,
    max_base: int = 3,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> KConjResult:
    """Unital order isomorphism of the dimension groups, certified by a ladder.

    All sound obstructions are collected and reported together: a spectra
    witness, a rational-rank mismatch of the trace images, and certified
    non-isomorphy of the trace images.  With none present, stationary inputs
    go to a bounded search for a periodic intertwining ladder, by total
    level span up to max_span and base levels up to max_base.  In each cell
    the forward rung h runs over the nonnegative integer solutions of
    h.A^ga = B^gb.h with h.u_A = u_B, and the backward rung over those of
    H.h = A^ga, h.H = B^gb and H.u_B = u_A' (the unit ga levels up), both
    in lexicographic order.  A period pair (ga, gb) is skipped with all its
    cells when the characteristic polynomials of A^ga and B^gb differ once
    factors of t are dropped: by Sylvester's identity H.h and h.H share
    their nonzero spectrum, so no cell of such a pair holds a ladder, and
    the ladder found is the one the unpruned search finds.  When the window
    holds no ladder from A to B, the same window is searched from B to A
    and a ladder found there is read backwards (_reversed_ladder), so the
    verdict does not depend on the argument order.  Both searches together
    may visit LADDER_NODE_BUDGET nodes.  Unknown comes with a note that
    names what ran out, the window or the node budget, and the nodes spent;
    a window run out also counts the period pairs the spectral test
    skipped, over both orders.
    """
    obstructions = _obstructions(dgA, dgB, prime_cutoff, depth)[0]
    if obstructions:
        return KConjResult("not", obstructions=obstructions)
    if dgA == dgB:
        eye = composed_incidence(dgA, 1, 1)
        ladder = IntertwiningLadder((1, 1), (1,), (eye,), (eye,))
        return KConjResult("k-conjugate", ladder)
    if dgA.kind != "stationary" or dgB.kind != "stationary":
        return KConjResult("unknown", note="ladder search needs stationary input")
    budget = _NodeBudget(LADDER_NODE_BUDGET)
    try:
        ladder, skipped, visited = _ladder_search(dgA, dgB, max_span, max_base, budget)
        if ladder is None:
            back, skipped_b, visited_b = _ladder_search(
                dgB, dgA, max_span, max_base, budget
            )
            skipped += skipped_b
            visited += visited_b
            if back is not None:
                ladder = _reversed_ladder(back)
    except SearchExhausted:
        return KConjResult(
            "unknown",
            note="ladder search ran out of LADDER_NODE_BUDGET = %d nodes "
            "after %d nodes" % (budget.limit, budget.spent),
        )
    if ladder is None:
        return KConjResult(
            "unknown",
            note="no ladder with span <= %d from base levels <= %d in either "
            "order (%d nodes; spectral test skipped %d of %d period pairs)"
            % (max_span, max_base, budget.spent, skipped, visited),
        )
    rep = verify_ladder(ladder, dgA, dgB)
    assert rep.ok, rep.reason
    return KConjResult("k-conjugate", ladder)


# ---------------------------------------------------------------------------
# approximate tau-conjugacy


@dataclass(frozen=True)
class TauResult:
    verdict: str  # "tau" | "not" | "unknown"
    obstructions: tuple = ()
    spectra: Optional[SpectraComparison] = None
    trace: Optional[TraceIsoResult] = None


def decide_tau(
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> TauResult:
    """Conjunction of equal spectra and isomorphic trace images; a rank
    mismatch (fields of different degree) already rules the second out."""
    obstructions, comp, iso = _obstructions(dgA, dgB, prime_cutoff, depth)
    if obstructions:
        return TauResult("not", obstructions, comp, iso)
    if comp.verdict == "equal" and iso is not None and iso.value is True:
        return TauResult("tau", (), comp, iso)
    return TauResult("unknown", (), comp, iso)


# ---------------------------------------------------------------------------
# clopen realizations of classes


@dataclass(frozen=True)
class ClopenSet:
    """A union of tower cells at a fixed level; an empty union is allowed."""

    level: int
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(sorted(set(self.cells))))


def _tower_floors(d, cs: ClopenSet) -> list:
    """cs's floors, one increasing deque per tower of its level."""
    floors = [deque() for _ in range(d.num_vertices(cs.level))]
    for w, j in cs.cells:
        floors[w].append(j)
    return floors


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
        row = deque()
        below = 0
        for u in stack:
            row.extend(below + j for j in floors[u])
            below += h[u]
        out.append(row)
    return out


def _as_clopen(level: int, floors) -> ClopenSet:
    return ClopenSet(level, tuple((w, j) for w, row in enumerate(floors) for j in row))


def lift_class_under(
    d: OrderedBratteliDiagram,
    u: ClopenSet,
    x: DgElement,
    depth: int = DEFAULT_DEPTH,
) -> ClopenSet:
    """A clopen subset of u whose class is exactly x.

    Pushes until x has a representative wedged coordinatewise between zero
    and u's counting vector, then takes the lowest floors of u in each
    tower.  Requires x positive (or zero: the empty set) and u - x at least
    zero; violations raise, undecidable positivity raises SearchExhausted.
    """
    grp = DimGroup(d)
    cls_u = class_of_clopen(d, u.level, u.cells)
    pos = grp.is_positive(x, depth)
    if pos.verdict == ZERO:
        return ClopenSet(u.level, ())
    if pos.verdict in (NEGATIVE, NOT_COMPARABLE):
        raise ValueError("class to lift must be positive or zero")
    if pos.verdict == UNKNOWN:
        raise SearchExhausted(depth, "positivity of the class")
    rem = grp.is_positive(grp.sub(cls_u, x), depth)
    if rem.verdict in (NEGATIVE, NOT_COMPARABLE):
        raise ValueError("class exceeds the set it must fit under")
    if rem.verdict == UNKNOWN:
        raise SearchExhausted(depth, "room under the given set")
    lvl, taken, _ = _lowest_floors(grp, u.level, _tower_floors(d, u), cls_u, x, depth)
    return _as_clopen(lvl, taken)


def _lowest_floors(grp, level: int, floors, cls_u: DgElement, x: DgElement, depth) -> tuple:
    """The floor-picking routine of lift_class_under and
    partition_from_classes, with no sign checks.

    floors holds a set u at level as one increasing deque per tower, and
    cls_u is any presentation of u's class at a level <= level: pushed to a
    level at or past level it is u's counting vector there.  The first level
    lvl from max(level, x.level) on where x's representative rep lies
    between zero and that vector is the lift level.  Returns lvl, the lowest
    rep[w] floors of u in each tower w at lvl, and u's remaining floors
    there, taken off the front of the deques: the complement is what is
    left, so nothing is rebuilt.  CELL_CAP binds on a lift level past
    level, whose cells the lifts enumerate (the caller's set at level is
    within it already).
    """
    d = grp.diagram
    base = max(level, x.level)
    top = d.max_level()
    bound = base + depth if top is None else min(base + depth, top)
    for lvl in range(base, bound + 1):
        rep = grp.push(x, lvl).vector
        cap = grp.push(cls_u, lvl).vector
        if all(0 <= r <= c for r, c in zip(rep, cap)):
            if lvl > level:
                capped_heights(d, lvl)
            floors = _refine_floors(d, floors, level, lvl)
            taken = [[row.popleft() for _ in range(r)] for row, r in zip(floors, rep)]
            return lvl, taken, floors
    raise SearchExhausted(depth, "level with a coordinatewise representative")


def _class_signs(grp, xs, depth) -> list:
    """Each class's verdict, POSITIVE or ZERO; any other sign raises."""
    verdicts = []
    for x in xs:
        v = grp.is_positive(x, depth).verdict
        if v in (NEGATIVE, NOT_COMPARABLE):
            raise ValueError("classes must be positive or zero")
        if v == UNKNOWN:
            raise SearchExhausted(depth, "positivity of a prescribed class")
        verdicts.append(v)
    return verdicts


def partition_from_classes(
    d: OrderedBratteliDiagram,
    xs,
    depth: int = DEFAULT_DEPTH,
) -> tuple:
    """Disjoint clopen sets with the prescribed classes, covering the space.

    Greedy: each positive class is lifted under the running complement; the
    last positive class receives the remainder outright.  Zero classes get
    empty sets.  The classes must each be positive or zero and sum to the
    order unit.

    Each class's sign is decided once, up front.  The lifts then skip
    lift_class_under's checks: a positive class is still positive, and the
    room left, the unit minus the classes lifted so far, is the sum of the
    remaining classes and so at least zero.  That room is kept as a class,
    which pushed to the lift level is the running complement's counting
    vector, so the cells chosen are the ones lift_class_under would choose.

    The complement is one increasing deque of floors per tower: each lift
    takes a prefix of every deque and leaves the suffix, and a lift that
    needs a finer level refines only what is left.  Every set is refined
    once more, to the last lift level, at the end.  So the work grows with
    the cells of the levels reached, not with their product with the
    number of classes; CELL_CAP binds on the levels reached.
    """
    grp = DimGroup(d)
    xs = tuple(xs)
    if not xs:
        raise ValueError("need at least one class")
    verdicts = _class_signs(grp, xs, depth)
    top = max(x.level for x in xs)
    total = DgElement(top, tuple(map(sum, zip(*(grp.push(x, top).vector for x in xs)))))
    if grp.equal(total, grp.unit(1), depth).value is not True:
        raise ValueError("classes must sum to the order unit")
    last_positive = max(i for i, v in enumerate(verdicts) if v == POSITIVE)
    level = max(top, 1)
    running = [deque(range(1, h + 1)) for h in capped_heights(d, level)]
    room = grp.unit(level)
    out = []
    for i, x in enumerate(xs):
        if verdicts[i] == ZERO:
            out.append((level, ()))
            continue
        if i == last_positive:
            left = DgElement(level, tuple(len(row) for row in running))
            assert grp.equal(left, x).value
            out.append((level, running))
            running = [deque() for _ in running]
            continue
        level, taken, running = _lowest_floors(grp, level, running, room, x, depth)
        out.append((level, taken))
        room = grp.sub(room, x)
    final = max(lvl for lvl, _ in out)
    return tuple(
        _as_clopen(final, _refine_floors(d, floors, lvl, final) if floors else ())
        for lvl, floors in out
    )


@dataclass(frozen=True)
class PartitionHomeomorphism:
    """Block-to-block matching of clopen partitions of two systems.

    Any two nonempty clopen Cantor sets are homeomorphic, so matched blocks
    of equal K0 class carry a homeomorphism; the object records its action
    on the partition algebra.  invertible says no block is empty; the
    resolution pipeline fails instead of returning a matching that is not.
    """

    source_level: int
    target_level: int
    source_blocks: tuple
    target_blocks: tuple
    invertible: bool


# ---------------------------------------------------------------------------
# conjugacy at a fixed resolution


class StageError(RuntimeError):
    """A stage of the resolution pipeline hit its obstruction."""

    def __init__(self, stage: str, obstruction=None, message=None):
        self.stage = stage
        self.obstruction = obstruction
        super().__init__(message or "%s stage failed: %r" % (stage, obstruction))


@dataclass(frozen=True)
class ResolutionBundle:
    morphism: K0Morphism
    sigma: PartitionHomeomorphism
    corrector: FullGroupElement
    report: ConjugacyReport
    blocks: tuple = ()
    images: tuple = ()


def conjugate_at_resolution(
    dA: OrderedBratteliDiagram,
    dB: OrderedBratteliDiagram,
    m: int,
    lookahead_bound: Optional[int] = None,
    depth: int = DEFAULT_DEPTH,
) -> ResolutionBundle:
    """Transport the level-m tower partition of one system into the other
    and correct the second transformation to agree with the first on it.

    Pipeline, each stage failing with its own label: a unit-preserving
    morphism (divisor obstructions surface here); a partition matching
    realizing the transported classes as clopen sets of dB; the successor
    map on level-m cells pushed through the matching, with roofs paired to
    bases of equal class; and a full-group corrector synthesized and
    verified on the transported data.

    Only dB's side is realized as clopen sets: dA's blocks are its level-m
    cells (sigma.source_level is m), which splitting dA along their classes
    would give back.  A zero cell class, or one of undecided sign (only a
    non-primitive dA has either), fails the partition stage.
    """
    try:
        t = build_k0_morphism(dA, m, dB, 1, depth)
    except SearchExhausted as e:
        raise StageError("morphism", message=str(e))
    if isinstance(t, Obstruction):
        raise StageError("morphism", t)
    acells = cells(dA, m)
    grpb = DimGroup(dB)
    images = tuple(
        grpb.element(t.target_level, tuple(row[c[0]] for row in t.matrix))
        for c in acells
    )
    # one sign per tower: its cells share their class
    bottoms = [class_of_clopen(dA, m, ((w, 1),)) for w in range(dA.num_vertices(m))]
    try:
        signs = _class_signs(DimGroup(dA), bottoms, depth)
        target = partition_from_classes(dB, images, depth)
    except (ValueError, SearchExhausted) as e:
        raise StageError("partition", message=str(e))
    if ZERO in signs or not all(b.cells for b in target):
        raise StageError("partition", message="a cell transported to the zero class")
    source = tuple(ClopenSet(m, (c,)) for c in acells)
    sigma = PartitionHomeomorphism(m, target[0].level, source, target, True)
    blocks = tuple(b.cells for b in target)
    hA = heights(dA, m)
    index = {c: i for i, c in enumerate(acells)}
    perm = [None] * len(acells)
    for i, (w, j) in enumerate(acells):
        if j < hA[w]:
            perm[i] = index[(w, j + 1)]
    free_bases = [index[(v, 1)] for v in range(len(hA))]
    for i, (w, j) in enumerate(acells):
        if perm[i] is not None:
            continue
        match = None
        for bidx in free_bases:
            if grpb.equal(images[i], images[bidx], depth).value is True:
                match = bidx
                break
        if match is None:
            raise StageError(
                "transport",
                message="no base cell matches the class of tower %d's roof" % w,
            )
        free_bases.remove(match)
        perm[i] = match
    image_blocks = tuple(blocks[perm[i]] for i in range(len(acells)))
    try:
        corrector = conjugator_from_partition(
            dB, sigma.target_level, blocks, image_blocks, lookahead_bound
        )
    except ConjugatorError as e:
        raise StageError("conjugator", message=str(e))
    report = verify_conjugator(
        corrector, blocks, image_blocks, block_level=sigma.target_level
    )
    return ResolutionBundle(t, sigma, corrector, report, blocks, image_blocks)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str = ""


def diagram_digest(d: OrderedBratteliDiagram) -> str:
    """Content hash of the canonical serialization, kept per diagram."""
    return derived(
        d, "digest", lambda: hashlib.sha256(serialize_diagram(d).encode("utf-8")).hexdigest()
    )


def _certificate(claim, systems, witness, verifier) -> dict:
    return {
        "claim": claim,
        "systems": [diagram_digest(d) for d in systems],
        "witness": witness,
        "verifier": verifier,
    }


def ladder_certificate(ladder: IntertwiningLadder, dgA, dgB) -> dict:
    return _certificate("k-conjugate", (dgA, dgB), ladder.to_json(), "verify_ladder")


def _weak_witness(res: WeakResult) -> dict:
    return {
        "forward": [t.to_json() for t in res.forward],
        "backward": [t.to_json() for t in res.backward],
    }


def weak_certificate(res: WeakResult, dgA, dgB) -> dict:
    if res.verdict != "weak":
        raise ValueError("only positive weak verdicts have certificates")
    return _certificate("weak", (dgA, dgB), _weak_witness(res), "unit_preservation")


def _trace_group_json(g) -> dict:
    return {
        "kind": g.kind,
        "ratio": g.ratio,
        "denominator": g.denominator,
        "minpoly": None if g.minpoly is None else list(g.minpoly),
        "generators": None
        if g.generators is None
        else [[str(c) for c in vec] for vec in g.generators],
        "stabilized": g.stabilized,
    }


def _tau_witness(res: TauResult, dgA, dgB) -> dict:
    return {
        "spectra": res.spectra.certificate,
        "trace": {
            "a": _trace_group_json(trace_image_group(dgA)),
            "b": _trace_group_json(trace_image_group(dgB)),
        },
    }


def tau_certificate(res: TauResult, dgA, dgB) -> dict:
    if res.verdict != "tau":
        raise ValueError("only positive tau verdicts have certificates")
    witness = _tau_witness(res, dgA, dgB)
    return _certificate("tau", (dgA, dgB), witness, "invariant_recomputation")


def conjugator_certificate(
    elem: FullGroupElement,
    block_level: int,
    blocks,
    images,
    lookahead: int = AUDIT_LOOKAHEAD,
) -> dict:
    witness = {
        "element": elem.to_json(),
        "block_level": block_level,
        "blocks": [[list(c) for c in u] for u in blocks],
        "images": [[list(c) for c in v] for v in images],
        "lookahead": lookahead,
    }
    return _certificate("conjugator", (elem.diagram,), witness, "verify_conjugator")


_JSON_SCALARS = (str, int, float, type(None))


def _same_json(ours, given) -> bool:
    """Does given stand for the same JSON value as ours?

    ours is a recomputed witness: dicts with string keys, lists, strings,
    numbers, booleans and None.  given may come from json.loads or from a
    caller in this process, so a tuple stands for a list; a value of any
    type JSON has no counterpart for is a mismatch.  Scalars compare with
    ==, as they do after a JSON round trip.
    """
    if isinstance(ours, dict):
        return (
            isinstance(given, dict)
            and given.keys() == ours.keys()
            and all(_same_json(v, given[k]) for k, v in ours.items())
        )
    if isinstance(ours, (list, tuple)):
        return (
            isinstance(given, (list, tuple))
            and len(given) == len(ours)
            and all(map(_same_json, ours, given))
        )
    return isinstance(given, _JSON_SCALARS) and given == ours


_EXPECTED_VERIFIER = {
    "k-conjugate": "verify_ladder",
    "weak": "unit_preservation",
    "tau": "invariant_recomputation",
    "conjugator": "verify_conjugator",
}


def verify_certificate(cert: dict, systems) -> CertificateCheck:
    """Re-verify a certificate against the actual systems it claims to bind.

    The systems' digests must match in order, and the witness must pass the
    named independent check; any malformation is a rejection, not an error,
    while a fault inside a check (an AssertionError, say) propagates.
    Witness payloads are pinned down to the byte: schedules must equal their
    canonical recomputation and free parameters are fixed constants, so any
    tampering fails even when the mutated payload would still be true.  Weak
    and tau witnesses are compared with their recomputation as JSON values
    (see _same_json), whether they were loaded from JSON or built in this
    process; a conjugator's blocks and images must each partition the cells
    of its block level before the conjugator is replayed.
    """
    systems = tuple(systems)
    try:
        digests = list(cert["systems"])
        if digests != [diagram_digest(d) for d in systems]:
            return CertificateCheck(False, "system digests do not match the inputs")
        claim = cert["claim"]
        witness = cert["witness"]
        if cert["verifier"] != _EXPECTED_VERIFIER.get(claim):
            return CertificateCheck(False, "verifier does not match the claim")
        if claim == "k-conjugate":
            if len(systems) != 2:
                return CertificateCheck(False, "claim needs exactly two systems")
            ladder = IntertwiningLadder.from_json(witness)
            rep = verify_ladder(ladder, systems[0], systems[1])
            if not rep.ok:
                return CertificateCheck(
                    False, "ladder broken at rung %s: %s" % (rep.index, rep.reason)
                )
            return CertificateCheck(True)
        if claim == "weak":
            if len(systems) != 2:
                return CertificateCheck(False, "claim needs exactly two systems")
            for key, src, dst in (
                ("forward", systems[0], systems[1]),
                ("backward", systems[1], systems[0]),
            ):
                schedule = witness[key]
                if not schedule:
                    return CertificateCheck(False, "empty %s schedule" % key)
                for blob in schedule:
                    mat = tuple(tuple(int(x) for x in row) for row in blob["matrix"])
                    if any(x < 0 for row in mat for x in row):
                        return CertificateCheck(False, "negative entry in schedule")
                    hs = heights(src, int(blob["source_level"]))
                    ht = heights(dst, int(blob["target_level"]))
                    if _mat_apply(mat, hs) != ht:
                        return CertificateCheck(
                            False, "%s schedule does not preserve the unit" % key
                        )
            rounds = len(witness["forward"])
            res = decide_weak(systems[0], systems[1], rounds=rounds)
            if res.verdict != "weak":
                return CertificateCheck(False, "spectra no longer verify as equal")
            if not _same_json(_weak_witness(res), witness):
                return CertificateCheck(False, "witness differs from recomputation")
            return CertificateCheck(True)
        if claim == "tau":
            if len(systems) != 2:
                return CertificateCheck(False, "claim needs exactly two systems")
            res = decide_tau(systems[0], systems[1])
            if res.verdict != "tau":
                return CertificateCheck(False, "invariants no longer verify")
            if not _same_json(_tau_witness(res, *systems), witness):
                return CertificateCheck(False, "witness differs from recomputation")
            return CertificateCheck(True)
        if claim == "conjugator":
            if len(systems) != 1:
                return CertificateCheck(False, "claim needs exactly one system")
            if int(witness["lookahead"]) != AUDIT_LOOKAHEAD:
                return CertificateCheck(False, "audit lookahead must be %d" % AUDIT_LOOKAHEAD)
            blob = witness["element"]
            towers = sorted(blob["towers"], key=lambda t: t["w"])
            if [t["w"] for t in towers] != list(range(len(towers))):
                return CertificateCheck(False, "tower indices must be 0..k-1")
            elem = FullGroupElement(
                systems[0],
                int(blob["level"]),
                tuple(tuple(int(x) for x in tower["r"]) for tower in towers),
            )
            blocks = tuple(tuple(tuple(c) for c in u) for u in witness["blocks"])
            images = tuple(tuple(tuple(c) for c in v) for v in witness["images"])
            block_level = int(witness["block_level"])
            universe = set(cells(systems[0], block_level))
            try:
                _validate_partition(blocks, universe, "block")
                _validate_partition(images, universe, "image block")
            except ValueError as e:
                return CertificateCheck(False, "conjugator witness is not a partition: %s" % e)
            rep = verify_conjugator(
                elem,
                blocks,
                images,
                lookahead=int(witness["lookahead"]),
                block_level=block_level,
            )
            if rep.verdict != "ok":
                return CertificateCheck(False, "conjugator fails verification: %s" % rep.verdict)
            return CertificateCheck(True)
        return CertificateCheck(False, "unknown claim %r" % claim)
    # what a malformed payload raises (OverflowError: int() of an infinite
    # float); a fault inside a check propagates
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, CapabilityError) as e:
        return CertificateCheck(False, "malformed certificate: %s" % e)
