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
(shift equivalence over Z+).  On a stationary diagram A^ga carries the
heights at level a0 + j*ga to those at a0 + (j+1)*ga, so h carries K_A,
the square matrix of the first na of those height vectors (na the
vertices of A), to the matching K_B of B.  When K_A is invertible that
forces h, and when h has full column rank h.H = B^gb forces H; each
forced rung is read off one fraction-free elimination, of [K_A^T | K_B^T]
or of [h | B^gb].  Otherwise the search enumerates h as the nonnegative
integer points of the linear system, and H as those of H.h = A^ga,
h.H = B^gb and H.u_B = u_A' (the unit ga levels up), each in
lexicographic order by a depth-first walk over a row echelon form; one
budget of walk nodes bounds the whole search.  A period pair whose powers
A^ga and B^gb differ in nonzero spectrum cannot hold such a pair (H.h and
h.H share it), so its cells are skipped before any elimination.

No-verdicts are only ever derived from sound obstructions: a prime power
present in one divisor set and absent from the other, trace images
spanning fields of different degrees over Q, or certified non-isomorphy
of the trace images.  decide_k_conjugacy's No is decide_tau's, so a
refutation of a coarser relation refutes every finer one by construction.
Exhausted searches return Unknown, never No; order isomorphism of
dimension groups has no known general decision procedure, so honesty
about the search boundary is part of the contract.

The second half of the module holds the lifting lemmas, public API that
no decider calls: realizing a positive class as a clopen subset of a
given clopen set, and splitting the space along a list of classes.  A
clopen set is a ClopenSet, a sorted tuple of cells at one level, and it is
carried to a finer level through bratteli.tower_map.  Last comes an
approximate conjugacy at a fixed resolution, assembled from a
unit-preserving morphism, the target blocks read straight off its matrix
and a full-group corrector.  The corrector is synthesized once per
ordered pair and level and kept as plain tables; the morphism, the blocks
and the replay that yields the report run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
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
    incidence,
    tower_map,
)
from .check import (
    MAX_LEVEL,
    ConjugacyReport,
    FullGroupElement,
    IntertwiningLadder,
    K0Morphism,
    Obstruction,
    SearchExhausted,
    _certificate,
    _conjugator_witness,
    _tau_witness,
    _weak_witness,
    build_k0_morphism,
    diagram_digest,
    identity_ladder,
    pair_weak_schedules,
    verify_certificate,  # not called here: bench/spans.py wraps it under this module
    verify_conjugator,
    verify_ladder,
)
from .dimgroup import DimGroup, NEGATIVE, NOT_COMPARABLE, POSITIVE, UNKNOWN, ZERO
from .fieldpoly import _mat_apply, _mat_mul, _row_reduce_int, charpoly
from .fullgroup import ConjugatorError, conjugator_from_partition
from .invariants import (
    DEFAULT_DEPTH,
    DEFAULT_PRIME_CUTOFF,
    SpectraComparison,
    TraceIsoResult,
    spectra_equal,
    trace_image_group,
    trace_images_isomorphic,
)

# Depth-first nodes one ladder search may visit over all its cells; beyond
# this the search reports Unknown.
LADDER_NODE_BUDGET = 20_000

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
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> WeakResult:
    """Equality of the divisor sets, with morphism schedules as evidence.

    On equal spectra the result carries unit-preserving positive morphisms
    in both directions at increasing source levels (check.weak_schedules):
    the finite-level content of the two asymptotic intertwinings.  A
    distinguishing prime power is a sound No.  The schedules are built
    once per ordered pair and depth (check.pair_weak_schedules), kept on A
    under B's fields, not its digest, so no digest is taken here; the
    replay of a weak certificate reads those of DEFAULT_DEPTH.

    depth bounds the scan for each schedule's target level even on
    stationary input, where the spectra are exact and read no depth: a
    stationary pair with equal spectra, even a tau or K-conjugate one, can
    be Unknown here at a small depth.  On the 73 systems against their own
    telescopings (README) that happens up to depth 3 and at depth -1, and
    at no pair from depth 4 on, DEFAULT_DEPTH included.
    """
    comp = spectra_equal(dgA, dgB, prime_cutoff, depth)
    if comp.verdict == "distinct":
        return WeakResult("not", comp.witness, spectra=comp)
    if comp.verdict != "equal":
        return WeakResult("unknown", spectra=comp)
    schedules = pair_weak_schedules(dgA, dgB, depth)
    if schedules is None:
        return WeakResult("unknown", spectra=comp)
    return WeakResult("weak", None, *schedules, comp)


# ---------------------------------------------------------------------------
# approximate tau-conjugacy


@dataclass(frozen=True)
class TauResult:
    verdict: str  # "tau" | "not" | "unknown"
    obstructions: tuple = ()
    spectra: Optional[SpectraComparison] = None
    trace: Optional[TraceIsoResult] = None


def _trace_group_or_none(dg):
    try:
        return trace_image_group(dg)
    except ValueError:
        return None


def decide_tau(
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    depth: int = DEFAULT_DEPTH,
) -> TauResult:
    """Conjunction of equal spectra and isomorphic trace images.

    Every sound obstruction is reported: decide_weak's spectra witness,
    the degrees of the trace images' fields when they differ, and certified
    non-isomorphy of the trace images.  decide_k_conjugacy takes its No
    from here, so refutations are closed by construction.
    """
    obstructions = []
    comp = spectra_equal(dgA, dgB, prime_cutoff, depth)
    if comp.verdict == "distinct":
        obstructions.append(Obstruction("spectra", comp.witness))
    ga, gb = _trace_group_or_none(dgA), _trace_group_or_none(dgB)
    iso = None
    if ga is not None and gb is not None:
        if ga.degree != gb.degree:
            obstructions.append(Obstruction("rank", (ga.degree, gb.degree)))
        iso = trace_images_isomorphic(ga, gb)
        if iso.value is False:
            obstructions.append(Obstruction("trace", iso.reason))
    if obstructions:
        return TauResult("not", tuple(obstructions), comp, iso)
    if comp.verdict == "equal" and iso is not None and iso.value is True:
        return TauResult("tau", (), comp, iso)
    return TauResult("unknown", (), comp, iso)


# ---------------------------------------------------------------------------
# approximate K-conjugacy


@dataclass(frozen=True)
class KConjResult:
    verdict: str  # "k-conjugate" | "not" | "unknown"
    ladder: Optional[IntertwiningLadder] = None
    obstructions: tuple = ()
    note: Optional[str] = None


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


# what _forced_solution returns when M's columns are linearly dependent
_RANK_SHORT = "rank short"


def _forced_solution(m, n):
    """The nonnegative integer matrix X with M.X = N, for integer matrices
    M (r x k) and N (r x c): None when there is none, and _RANK_SHORT when
    M has rank below k, so that X need not be unique.

    One fraction-free elimination of [M | N] on M's k columns decides the
    rank.  At full rank the pivots are columns 0..k-1 and X is forced: row
    i of X is the N side of pivot row i over its pivot, so each division
    must be exact and nonnegative, and the rows past the pivots must be
    zero on the N side.
    """
    k = len(m[0])
    aug = [list(mrow) + list(nrow) for mrow, nrow in zip(m, n)]
    if len(_row_reduce_int(aug, range(k))) < k:
        return _RANK_SHORT
    if any(any(row[k:]) for row in aug[k:]):
        return None
    x = []
    for i, row in enumerate(aug[:k]):
        if any(v < 0 or v % row[i] for v in row[k:]):
            return None
        x.append(tuple([v // row[i] for v in row[k:]]))
    return tuple(x)


def _forward_rungs(cols_a, cols_b, conn_a, conn_b, budget):
    """The forward rungs h of a cell, in lexicographic order.

    cols_a[j] is heights(dgA, a0 + j*ga) and cols_b[j] is heights(dgB,
    b0 + j*gb), for j up to na, A's vertex count.  C_A carries cols_a[j]
    to cols_a[j+1], so h.C_A = C_B.h and h.u_A = u_B give h.K_A = K_B, K_A
    and K_B having the first na of them as columns.  When K_A is
    invertible that forces h (_forced_solution on the transposes), and h
    solves the cell exactly when it is a nonnegative integer matrix with
    h.cols_a[na] = cols_b[na]: the commutation read on the columns of K_A,
    whose first column is u_A.  Its bounds follow from h.u_A = u_B.  The
    Kronecker system has no free variable here, so this costs the one node
    `_lex_solutions` charges on it.  A singular K_A goes to
    `_forward_system` and `_lex_solutions`.
    """
    na = len(conn_a)
    ht = _forced_solution(cols_a[:na], cols_b[:na])
    if ht is _RANK_SHORT:
        forward = _forward_system(cols_a[0], cols_b[0], conn_a, conn_b)
        return (_unflatten(flat, na) for flat in _lex_solutions(*forward, budget))
    budget.charge()
    h = None if ht is None else tuple(zip(*ht))
    return () if h is None or _mat_apply(h, cols_a[na]) != cols_b[na] else (h,)


def _backward_rung(h, ub0, ua1, conn_a, conn_b, budget):
    """The lexicographically least backward rung H for the forward rung h,
    or None when there is none.

    When h has full column rank, h.H = C_B forces H (_forced_solution),
    and H.h = C_A is checked.  H.u_B = u_A' follows, since H.u_B = H.h.u_A
    = C_A.u_A, and with it the bounds of the Kronecker system; that system
    has no free variable here, so this costs the one node `_lex_solutions`
    charges on it.  A rank-deficient h (only when C_A is singular) goes to
    `_backward_system` and `_lex_solutions`.
    """
    bm = _forced_solution(h, conn_b)
    if bm is _RANK_SHORT:
        backward = _backward_system(h, ub0, ua1, conn_a, conn_b)
        flat = next(_lex_solutions(*backward, budget), None)
        return None if flat is None else _unflatten(flat, len(ub0))
    budget.charge()
    return bm if bm is not None and _mat_mul(bm, h) == conn_a else None


def _nonzero_charpoly(d, g):
    """charpoly of A^g, the g-th power of d's stationary incidence, with its
    factors of t dropped; constant first, kept per power in derived()."""
    return derived(d, ("nonzero_charpoly", 1, 1 + g), _nonzero_part, d, g)


def _nonzero_part(d, g):
    cp = charpoly(composed_incidence(d, 1, 1 + g))
    return cp[next(i for i, c in enumerate(cp) if c) :]


def _ladder_search(dgA, dgB, max_span, max_base, budget):
    """Breadth-first over the total level span, then lexicographic.

    A periodic pair (h, H) with H.h and h.H equal to powers C_A and C_B of
    the two incidence matrices extends to an infinite intertwining by
    stationarity, so two periods are materialized and the rest is implied.
    Any such h solves h.C_A = C_B.h (shift equivalence over Z+), so h ranges
    over the solutions of that equation with h.u_A = u_B, and H over those
    of H.h = C_A, h.H = C_B and H.u_B = u_A'; the first pair in
    lexicographic order of h, then of H, is returned.

    Each rung is read off one elimination (_forced_solution) where it is
    forced, for one node, as the Kronecker system would charge with no free
    variable: h where K_A, the square matrix of A's heights at the levels
    a0 + j*ga, is invertible, since h.K_A = K_B by stationarity
    (_forward_rungs), and H where h has full column rank, since
    h.H = C_B (_backward_rung).  Only a singular K_A takes the Kronecker
    system of _forward_system, and only a rank-deficient h, possible only
    when C_A is singular, that of _backward_system.

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
    if max_base < 1:  # no base level: no cell, so no period pair to test
        return None, skipped, visited
    for span in range(2, max_span + 1):
        for ga in range(1, span):
            gb = span - ga
            visited += 1
            if _nonzero_charpoly(dgA, ga) != _nonzero_charpoly(dgB, gb):
                skipped += 1
                continue
            for a0 in range(1, max_base + 1):
                conn_a = composed_incidence(dgA, a0, a0 + ga)
                cols_a = [heights(dgA, a0 + j * ga) for j in range(len(conn_a) + 1)]
                for b0 in range(1, max_base + 1):
                    conn_b = composed_incidence(dgB, b0, b0 + gb)
                    cols_b = [heights(dgB, b0 + j * gb) for j in range(len(cols_a))]
                    for h in _forward_rungs(cols_a, cols_b, conn_a, conn_b, budget):
                        bm = _backward_rung(h, cols_b[0], cols_a[1], conn_a, conn_b, budget)
                        if bm is not None:
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

    No comes from decide_tau, with its obstructions, so kconj is refuted
    exactly when tau is.  Otherwise stationary inputs go to a bounded
    search for a periodic intertwining ladder, by total level span up to
    max_span and base levels up to max_base.  In each cell the forward
    rung h runs over the nonnegative integer solutions of
    h.A^ga = B^gb.h with h.u_A = u_B, and the backward rung H over those of
    H.h = A^ga, h.H = B^gb and H.u_B = u_A' (the unit ga levels up), both
    in lexicographic order.  Each rung is read off one elimination where it
    is forced: h when the heights at levels a0 + j*ga (j below A's vertex
    count) are linearly independent, since A^ga carries each to the next,
    and H when h has full column rank; only otherwise is the rung's linear
    system enumerated.  A period pair (ga, gb) is skipped with all its
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
    skipped, over both orders.  A window whose ladders could name a level
    past check.MAX_LEVEL (max_base + 2 * (max_span - 1)), which
    verify_ladder rejects, raises CapabilityError before any search: a
    skipped period pair spends no node, so the budget would not end it.
    What the search ends with, the ladder or Unknown with its note, is kept
    once per ordered pair in one table on A (bratteli.derived, "ladder")
    under B's digest, the window and LADDER_NODE_BUDGET, and that table
    is read first: the same question on the same A answers from it
    without decide_tau.  This is sound because an outcome is kept only
    for a stationary pair that decide_tau did not refute, and on a
    stationary pair decide_tau reads neither prime_cutoff nor depth (the
    valuations and the trace image of a stationary diagram are exact), so
    neither belongs in the key.  B's digest is taken only once A's table
    holds an outcome or a search is due, so a refutation or a self pair on
    a fresh A hashes nothing.  Refutations, self pairs and non-stationary
    pairs are not kept and run decide_tau on every call.  Every ladder
    returned passes verify_ladder again; the audit that accepted it first
    kept its first period on A (check._first_period_holds), so on a
    repeat it costs the audit's guard pass alone.
    """
    top = max_base + 2 * (max_span - 1)
    if top > MAX_LEVEL:
        raise CapabilityError(
            "a ladder with span <= %d from base levels <= %d may name level %d, "
            "past MAX_LEVEL = %d" % (max_span, max_base, top, MAX_LEVEL)
        )
    outcomes = derived(dgA, "ladder", dict)
    limit = LADDER_NODE_BUDGET
    res = outcomes.get((diagram_digest(dgB), max_span, max_base, limit)) if outcomes else None
    if res is None:
        tau = decide_tau(dgA, dgB, prime_cutoff, depth)
        if tau.verdict == "not":
            return KConjResult("not", obstructions=tau.obstructions)
        if dgA == dgB:
            return KConjResult("k-conjugate", identity_ladder(dgA))
        if dgA.kind != "stationary" or dgB.kind != "stationary":
            return KConjResult("unknown", note="ladder search needs stationary input")
        key = (diagram_digest(dgB), max_span, max_base, limit)
        res = outcomes[key] = _ladder_outcome(dgA, dgB, max_span, max_base, limit)
    if res.ladder is not None:
        rep = verify_ladder(res.ladder, dgA, dgB)
        assert rep.ok, rep.reason
    return res


def _ladder_outcome(dgA, dgB, max_span, max_base, limit) -> KConjResult:
    """What the ladder search in both orders ends with: the ladder from A to
    B, or Unknown with the note naming what ran out."""
    budget = _NodeBudget(limit)
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
    return KConjResult("k-conjugate", ladder)


# ---------------------------------------------------------------------------
# clopen realizations of classes


@dataclass(frozen=True)
class ClopenSet:
    """A union of tower cells at a fixed level; an empty union is allowed.
    cells is kept sorted and free of repeats."""

    level: int
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(sorted(set(self.cells))))


def _refine(d, u: ClopenSet, fine: int) -> ClopenSet:
    """u as a union of cells of the level fine >= u.level: the cells that
    tower_map sends into u.  CELL_CAP binds on fine when it is finer."""
    if fine == u.level:
        return u
    members = set(u.cells)
    return ClopenSet(
        fine, tuple(c for c, coarse in tower_map(d, u.level, fine).items() if coarse in members)
    )


def lift_class_under(
    d: OrderedBratteliDiagram,
    u: ClopenSet,
    x: DgElement,
    depth: int = DEFAULT_DEPTH,
) -> ClopenSet:
    """A clopen subset of u whose class is exactly x (the lifting lemma).

    x must be positive, or zero (the empty set), and fit under u: u's class
    minus x at least zero.  The signs are decided in that order, a wrong one
    raising ValueError and an undecided one SearchExhausted.  The set is
    the lowest floors of u in each tower at the first level where x has a
    representative between zero and u's counting vector (_lowest_floors).
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
    return _lowest_floors(grp, u, cls_u.vector, x, depth)[0]


def _lowest_floors(grp, u: ClopenSet, room, x: DgElement, depth) -> tuple:
    """The floor-picking routine of lift_class_under and
    partition_from_classes, with no sign checks.

    room is u's counting vector at u.level.  The lift level lvl is the
    first level from max(u.level, x.level) on where x's representative rep
    lies between zero and room; both move up one incidence matrix per
    level.  Returns (taken, rest) at lvl: the lowest rep[w] floors of u in
    each tower w there, and the rest of u.  u is refined through tower_map,
    so CELL_CAP binds on a lift level past u.level, whose cells are read.
    """
    d = grp.diagram
    base = max(u.level, x.level)
    rep = grp.push(x, base).vector
    for n in range(u.level, base):
        room = _mat_apply(incidence(d, n), room)
    for lvl in range(base, d.scan_end(base, depth) + 1):
        if lvl > base:
            a = incidence(d, lvl - 1)
            rep, room = _mat_apply(a, rep), _mat_apply(a, room)
        if all(0 <= r <= c for r, c in zip(rep, room)):
            need = list(rep)
            taken, rest = [], []
            for w, j in _refine(d, u, lvl).cells:
                if need[w]:
                    need[w] -= 1
                    taken.append((w, j))
                else:
                    rest.append((w, j))
            return ClopenSet(lvl, tuple(taken)), ClopenSet(lvl, tuple(rest))
    raise SearchExhausted(depth, "level with a coordinatewise representative")


def _class_signs(grp, xs, depth) -> list:
    """Each class's verdict, POSITIVE or ZERO; any other sign raises at the
    first class that has it.  Equal classes share one decision."""
    known = {}
    verdicts = []
    for x in xs:
        v = known.get(x)
        if v is None:
            v = known[x] = grp.is_positive(x, depth).verdict
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

    Each distinct class's sign is decided once, up front, and then the sum;
    the lifts skip lift_class_under's checks, since a positive class is
    still positive and the room left is the sum of the classes not yet
    lifted.  So each lift takes the cells lift_class_under would take under
    the running complement, which starts as every cell of the first level
    (CELL_CAP binds there) and is refined to each lift level.  Every set is
    refined to the last lift level at the end.
    """
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
    running = ClopenSet(level, tuple(cells(d, level)))
    out = []
    for i, (x, v) in enumerate(zip(xs, verdicts)):
        if v == ZERO:
            out.append(ClopenSet(running.level, ()))
            continue
        room = class_of_clopen(d, running.level, running.cells)
        if i == last_positive:
            assert grp.equal(room, x).value
            out.append(running)
            running = ClopenSet(running.level, ())
        else:
            taken, running = _lowest_floors(grp, running, room.vector, x, depth)
            out.append(taken)
    final = max(s.level for s in out)
    return tuple(_refine(d, s, final) for s in out)


@dataclass(frozen=True)
class PartitionHomeomorphism:
    """Block-to-block matching of clopen partitions of two systems.

    Any two nonempty clopen Cantor sets are homeomorphic, so matched blocks
    of equal K0 class carry a homeomorphism.  The source blocks are the
    cells of source_level; the target blocks (ResolutionBundle.blocks, none
    empty) partition the cells of target_level.
    """

    source_level: int
    target_level: int


# ---------------------------------------------------------------------------
# conjugacy at a fixed resolution


class StageError(RuntimeError):
    """A stage of the resolution pipeline hit its obstruction."""

    def __init__(self, stage: str, obstruction=None, message=None):
        self.stage = stage
        self.obstruction = obstruction
        super().__init__(message or "%s stage failed: %r" % (stage, obstruction))

    def __reduce__(self):
        return type(self), (self.stage, self.obstruction, self.args[0])


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
    depth: int = DEFAULT_DEPTH,
) -> ResolutionBundle:
    """Transport the level-m tower partition of one system into the other
    and correct the second transformation to agree with the first on it.

    Pipeline, each stage failing with its own label: a unit-preserving
    morphism (divisor obstructions surface here); a partition of dB into
    blocks carrying the transported classes; the successor map on level-m
    cells pushed through the matching, with roofs paired to bases of equal
    class; and a full-group corrector synthesized and verified on the
    transported data.

    Only dB's side is realized as clopen sets: dA's blocks are its level-m
    cells (sigma.source_level is m), which splitting dA along their classes
    would give back.  dB's blocks are read off the morphism's matrix: it is
    nonnegative, and column w, taken once per cell of tower w, sums to dB's
    heights at the target level, so copy j of column w takes the next
    column-w count of floors of each target tower there.  Those are the
    lowest floors of the running complement, the sets partition_from_classes
    would lift at that level.  A zero cell class, or one of undecided sign
    (only a non-primitive system has either), fails the partition stage.

    The synthesis is kept once per ordered pair on dA (bratteli.derived)
    under dB's digest, m and depth, which fix its inputs: the blocks and
    image blocks it was given and the corrector's level and displacement
    tables, plain tuples that keep neither diagram alive.  A synthesis that
    fails is not kept, so its conjugator-stage error is raised on every
    call.  Every call still builds the morphism, with its unit check, and
    the blocks and image blocks, which must equal the kept ones, so the
    synthesis's partition checks cover what is replayed; it rebuilds the
    corrector on dB, whose shape is checked again, and replays it
    (verify_conjugator) for the report.
    """
    try:
        t = build_k0_morphism(dA, m, dB, 1, depth)
    except SearchExhausted as e:
        raise StageError("morphism", message=str(e))
    if isinstance(t, Obstruction):
        raise StageError("morphism", t)
    hA = capped_heights(dA, m)
    # one class per tower: column w of the matrix is the class of every
    # cell of tower w, and its bottom cell's class is the unit vector e_w
    classes = [DgElement(t.target_level, col) for col in zip(*t.matrix)]
    bottoms = [DgElement(m, tuple(int(v == w) for v in range(len(hA)))) for w in range(len(hA))]
    grpb = DimGroup(dB)
    try:
        signs = _class_signs(DimGroup(dA), bottoms, depth) + _class_signs(grpb, classes, depth)
        capped_heights(dB, t.target_level)  # CELL_CAP binds on the cells the blocks name
    except (ValueError, SearchExhausted) as e:
        raise StageError("partition", message=str(e))
    if ZERO in signs:
        raise StageError("partition", message="a cell transported to the zero class")
    sigma = PartitionHomeomorphism(m, t.target_level)
    floors = [count(1) for _ in t.matrix]  # the next free floor of each tower of dB
    blocks = tuple(
        tuple((v, next(floors[v])) for v, n in enumerate(x.vector) for _ in range(n))
        for x, h in zip(classes, hA) for _ in range(h)
    )
    # the successor moves each cell one floor up its tower; a roof goes to
    # the first free base whose tower has the roof's class
    free = list(range(len(hA)))
    base = 0
    image_blocks = []
    for w, h in enumerate(hA):
        match = next(
            (v for v in free if grpb.equal(classes[w], classes[v], depth).value is True), None
        )
        if match is None:
            raise StageError(
                "transport",
                message="no base cell matches the class of tower %d's roof" % w,
            )
        free.remove(match)
        image_blocks += blocks[base + 1:base + h]
        image_blocks.append(blocks[sum(hA[:match])])
        base += h
    image_blocks = tuple(image_blocks)
    key = ("corrector", diagram_digest(dB), m, depth)
    try:
        kept = derived(dA, key, _corrector, dB, sigma.target_level, blocks, image_blocks)
    except ConjugatorError as e:
        raise StageError("conjugator", message=str(e))
    kept_blocks, kept_images, level, tables = kept
    assert (kept_blocks, kept_images) == (blocks, image_blocks)
    corrector = FullGroupElement(dB, level, tables)
    report = verify_conjugator(corrector, blocks, image_blocks, sigma.target_level)
    return ResolutionBundle(t, sigma, corrector, report, blocks, image_blocks)


def _corrector(dB, level, blocks, images) -> tuple:
    """The blocks and images the synthesis is given, then the corrector's
    level and displacement tables: plain tuples, holding no diagram."""
    s = conjugator_from_partition(dB, level, blocks, images)
    return blocks, images, s.level, s.tables


# ---------------------------------------------------------------------------
# certificate builders; check defines the formats and replays them


def ladder_certificate(ladder: IntertwiningLadder, dgA, dgB) -> dict:
    return _certificate("k-conjugate", (dgA, dgB), ladder.to_json())


def weak_certificate(res: WeakResult, dgA, dgB) -> dict:
    if res.verdict != "weak":
        raise ValueError("only positive weak verdicts have certificates")
    return _certificate("weak", (dgA, dgB), _weak_witness(res.forward, res.backward))


def tau_certificate(res: TauResult, dgA, dgB) -> dict:
    if res.verdict != "tau":
        raise ValueError("only positive tau verdicts have certificates")
    return _certificate("tau", (dgA, dgB), _tau_witness(res.spectra, dgA, dgB))


def conjugator_certificate(elem: FullGroupElement, block_level: int, blocks, images) -> dict:
    witness = _conjugator_witness(elem, block_level, blocks, images)
    return _certificate("conjugator", (elem.diagram,), witness)
