"""Certificates: the witnesses of the conjugacy hierarchy and their replay.

A certificate binds a witness to content digests of the input
presentations, and verify_certificate replays it from the invariants the
claim rests on, never by re-running a decider: a periodic ladder by the
identities of its first period, any other square by square
(verify_ladder), weak schedules by equal spectra and their canonical
recomputation (build_k0_morphism, whose output a weak witness is, so it
lives here with the semigroup arithmetic it reads), tau by equal spectra
and isomorphic trace images, and a full-group element by its induced cell
maps at a finer level (verify_conjugator, which allows a bounded number of
unresolved roof cells and reports anything beyond as inconclusive).  The
divisor and infinite-valuation answers of invariants replay here too.

This module imports no decider (classify), no synthesis (fullgroup) and no
front end (cli); no module of the package imports sympy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from operator import add
from typing import Optional

from .bratteli import (
    CANONICAL_JSON,
    CELL_CAP,
    MAX_LEVEL,  # classify reads it from here
    CapabilityError,
    OrderedBratteliDiagram,
    _plain_int,
    capped_heights,
    cell_set,
    composed_incidence,
    derived,
    first_level_over_cap,
    heights,
    incidence,
    serialize_diagram,
    tower_stacks,
)
from .fieldpoly import _mat_apply, _mat_mul, factor_integer
from .invariants import (
    DEFAULT_DEPTH,
    DividesUnitResult,
    _first_zero,
    _walk_bound,
    divides_unit,
    spectra_equal,
    trace_image_group,
    trace_images_isomorphic,
)

# verify_conjugator always audits this many levels past the element, and a
# conjugator certificate states it: the verifier rejects any other value,
# so the witness bytes stay fully pinned.
AUDIT_LOOKAHEAD = 2

# Morphisms per direction in a weak witness, from source levels 1.. on;
# the verifier rejects schedules of any other length.
WEAK_ROUNDS = 2

_INT = frozenset((int,))
_TUPLE = frozenset((tuple,))


def _json_int(x) -> int:
    """x when it is a plain JSON integer (not a bool); ValueError otherwise."""
    if not _plain_int(x):
        raise ValueError("%r is not an integer" % (x,))
    return x


def _json_ints(seq) -> tuple:
    """seq as a tuple when every entry is a plain JSON integer; ValueError
    naming the first entry that is not one.

    The entries' types are read in one pass; only a sequence holding a type
    other than int is checked entry by entry, which finds the first
    offender and still accepts a subclass of int other than bool.
    """
    out = tuple(seq)
    if not _INT.issuperset(map(type, out)):
        for x in out:
            _json_int(x)
    return out


class SearchExhausted(RuntimeError):
    """A bounded search ran out of room without reaching a verdict."""

    def __init__(self, depth, what="search"):
        self.depth = depth
        self.what = what
        super().__init__("%s exhausted within depth %s" % (what, depth))

    def __reduce__(self):
        return type(self), (self.depth, self.what)


@dataclass(frozen=True)
class Obstruction:
    """Sound reason a positive verdict is impossible.

    kind "divisor": witness is an integer absent from the target divisor
    set.  kind "spectra": witness is the minimal distinguishing prime
    power.  kind "rank": witness is the pair of degrees of the trace
    images' fields.  kind "trace": witness is the verifier's reason string.
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
    threshold sits one past it.  Two distinct generators a, b need no
    table: Sylvester's ab - a - b is their largest gap.  Returns at least 1
    even when k contains 1 (so callers can rely on the reduced heights
    being strictly positive).
    """
    ks = tuple(int(x) for x in k)
    if not ks or any(x < 1 for x in ks):
        raise ValueError("generators must be positive integers")
    if math.gcd(*ks) != 1:
        raise ValueError("generators must be coprime, gcd is %d" % math.gcd(*ks))
    distinct = set(ks)
    if len(distinct) == 2:
        a, b = distinct
        return max(a * b - a - b + 1, 1)
    return max(max(_least_by_residue(sorted(distinct))) - min(ks) + 1, 1)


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
# divisor sets and valuations


def check_divides_certificate(dg: OrderedBratteliDiagram, n: int, result: DividesUnitResult) -> bool:
    """Replay a divides_unit answer against the diagram it talks about.

    On a stationary diagram a Yes past level 1 + J is checked at 1 + J,
    where divisibility is the same (see invariants._first_zero); a No must
    name level 1 + J and have nonzero height residues on every level up to
    it.  Anything but plain int moduli and levels and a dict is rejected.
    """
    if not _plain_int(n) or n < 1:
        return False
    if result.verdict == "yes":
        level = result.level
        if not _plain_int(level):
            return False
        if level == 0:
            return n == 1
        try:
            if dg.kind == "stationary":
                level = min(level, 1 + _walk_bound(dg.num_vertices(1), n))
            return all(x % n == 0 for x in heights(dg, level))
        # a negative level or one past an explicit diagram's end
        # (LevelRangeError); a fault inside the check propagates
        except ValueError:
            return False
    cert = result.certificate
    if result.verdict != "no" or dg.kind != "stationary" or not isinstance(cert, dict):
        return False
    modulus, level = cert.get("modulus"), cert.get("level")
    if not (_plain_int(modulus) and _plain_int(level)) or modulus != n:
        return False
    bound = _walk_bound(dg.num_vertices(1), n)
    if level != 1 + bound:
        return False
    return _first_zero(incidence(dg, 1), heights(dg, 1), n, bound) is None


def check_infinity_certificate(dg: OrderedBratteliDiagram, p: int, cert: dict) -> bool:
    """Re-verify an infinite-valuation claim: the stored polynomial must be a
    monic annihilator of heights(1) that is a power of t mod p, replayed in
    integers.  Anything but plain int p and coefficients and a dict is
    rejected."""
    if dg.kind != "stationary" or not isinstance(cert, dict):
        return False
    q, mu = cert.get("p"), cert.get("annihilator")
    if not (_plain_int(q) and q == p and q > 1):
        return False
    if not (isinstance(mu, (list, tuple)) and mu and all(map(_plain_int, mu)) and mu[-1] == 1):
        return False
    if any(c % q for c in mu[:-1]):
        return False
    mat, vec = incidence(dg, 1), heights(dg, 1)
    acc = [0] * len(vec)
    for c in reversed(mu):
        acc = [a + c * x for a, x in zip(_mat_apply(mat, acc), vec)]
    return not any(acc)


# ---------------------------------------------------------------------------
# unit-preserving morphisms


def _least_failing_factor(dg, p, depth):
    """Smallest prime power dividing p that misses the divisor set of dg:
    the powers of each prime of p in turn, primes in increasing order."""
    for q, e in factor_integer(p).items():
        power = q
        for _ in range(e):
            if divides_unit(dg, power, depth).verdict == "no":
                return power
            power *= q
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
    return derived(d, ("k0_source", m), _source_tables, d, m)


def _source_tables(d, m):
    hs = heights(d, m)
    p = math.gcd(*hs)
    ks = tuple(x // p for x in hs)
    return hs, p, ks, frobenius(ks), _suffix_tables(ks)


def _target_level(d, p, threshold, level, depth):
    """(level, heights, reduced heights) of the first level of d from level
    on whose heights p divides with every reduced height at least
    threshold, or the divisor Obstruction when p misses the divisor set of
    d; kept per diagram under every input the search reads.  SearchExhausted
    is not kept (see derived), so it is raised again on every call."""
    key = ("k0_target", p, threshold, level, depth)
    return derived(d, key, _find_target_level, d, p, threshold, level, depth)


def _find_target_level(d, p, threshold, level, depth):
    res = divides_unit(d, p, depth)
    if res.verdict == "no":
        return Obstruction("divisor", _least_failing_factor(d, p, depth))
    if res.verdict == "unknown":
        raise SearchExhausted(depth, "divisibility of the target unit by %d" % p)
    start = max(level, res.level)
    for lb in range(start, d.scan_end(start, depth) + 1):
        hs = heights(d, lb)
        if any(x % p for x in hs):
            continue
        ds = tuple(x // p for x in hs)
        if all(dd >= threshold for dd in ds):
            return lb, hs, ds
    raise SearchExhausted(depth, "target level with reduced heights above %d" % threshold)


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
    representation; unit preservation holds by construction and is asserted
    on every call.  Everything else is kept per diagram: the source level's
    gcd, threshold and residue tables (see _source_level), the target level
    found for a gcd, threshold, start level and depth, or the obstruction
    (see _target_level), and the morphism itself on the source diagram,
    under its source level, target level and reduced target heights, which
    are all its rows read.
    """
    hA, p, ks, threshold, tables = _source_level(dgA, levelA)
    found = _target_level(dgB, p, threshold, levelB, depth)
    if isinstance(found, Obstruction):
        return found
    lb, hB, ds = found
    key = ("k0_morphism", levelA, lb, ds)
    t = derived(dgA, key, _least_morphism, ks, tables, ds, levelA, lb)
    assert t.apply(hA) == hB
    return t


def _least_morphism(ks, tables, ds, levelA, lb):
    rows = tuple(_least_row(dd, ks, tables) for dd in ds)
    assert all(row is not None for row in rows)
    return K0Morphism(rows, levelA, lb)


def weak_schedules(dgA, dgB, depth: int = DEFAULT_DEPTH) -> Optional[tuple]:
    """(forward, backward): build_k0_morphism from levels 1..WEAK_ROUNDS of
    A into B, then of B into A, both from level 1 on.  None when a search
    runs out or a divisor obstruction turns up (equal spectra rule it out).
    """
    try:
        out = tuple(
            tuple(build_k0_morphism(src, m, dst, 1, depth) for m in range(1, WEAK_ROUNDS + 1))
            for src, dst in ((dgA, dgB), (dgB, dgA))
        )
    except SearchExhausted:
        return None
    if any(isinstance(t, Obstruction) for schedule in out for t in schedule):
        return None
    return out


# ---------------------------------------------------------------------------
# intertwining ladders


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
        """The ladder a witness states; ValueError on a level or entry that
        is not a plain JSON integer."""
        return IntertwiningLadder(
            _json_ints(blob["a_levels"]),
            _json_ints(blob["b_levels"]),
            tuple(tuple(map(_json_ints, m)) for m in blob["forwards"]),
            tuple(tuple(map(_json_ints, m)) for m in blob["backwards"]),
        )


def identity_ladder(d: OrderedBratteliDiagram) -> IntertwiningLadder:
    """The ladder decide_k_conjugacy gives d against itself: level 1 on
    both sides, each rung the identity matrix there."""
    eye = composed_incidence(d, 1, 1)
    return IntertwiningLadder((1, 1), (1,), (eye,), (eye,))


@dataclass(frozen=True)
class LadderReport:
    ok: bool
    index: Optional[int] = None  # rung position: forward i -> 2i, backward i -> 2i+1
    reason: Optional[str] = None


_ACCEPTED = LadderReport(True)


def verify_ladder(
    ladder: IntertwiningLadder,
    dgA: OrderedBratteliDiagram,
    dgB: OrderedBratteliDiagram,
) -> LadderReport:
    """Exact integer recomputation of every square and every unit image,
    then the shapes of ladder that certify an isomorphism.

    Finitely many rungs prove nothing by themselves.  A ladder certifies in
    two shapes only:

    - period zero (every level of each side the same): only the identity
      ladder (identity_ladder), binding a diagram to itself;
    - periodic: both diagrams stationary, at least two forward rungs, all
      forwards equal and all backwards equal, and each side's levels a
      progression with step >= 1 from level >= 1.  Then H.h = A^ga and
      h.H = B^gb, and the ladder extends by stationarity to an infinite
      intertwining (the ladders of _ladder_search and _reversed_ladder).

    A level past MAX_LEVEL is rejected before any heights are read.

    A periodic ladder is accepted by its first period (_first_period_holds):
    h and H shaped and nonnegative, h.u_A(a0) = u_B(b0), H.u_B(b0) =
    u_A(a1), H.h = A^ga and h.H = B^gb.  These imply every later rung and
    square.  On a stationary diagram u(m + g) = A^g.u(m) for m >= 1, and
    h.A^ga = h.H.h = B^gb.h, so by induction on i
    h.u_A(a0 + i.ga) = B^(i.gb).h.u_A(a0) = u_B(b0 + i.gb) and
    H.u_B(b0 + i.gb) = A^(i.ga).H.u_B(b0) = u_A(a1 + i.ga), while every
    square is the first one again.  Such a ladder thus costs two unit
    checks and two matrix products whatever its length.

    Any other ladder is scanned rung by rung, which is what names a
    rejection: each rung's shape, sign and unit, forward rungs first, then
    each square's product, and the first check to fail is reported.  The
    scan runs only on ladders the first period does not accept, and no
    bench workload reaches it, so it keeps nothing between checks; the
    first period accepts only what the scan accepts.
    """
    if _first_period_holds(ladder, dgA, dgB):
        return _ACCEPTED
    la, lb = ladder.a_levels, ladder.b_levels
    fs, bs = ladder.forwards, ladder.backwards
    if not (len(fs) == len(bs) == len(lb) == len(la) - 1):
        return LadderReport(False, None, "rung counts do not line up")
    if any(x > y for x, y in zip(la, la[1:])) or any(
        x > y for x, y in zip(lb, lb[1:])
    ):
        return LadderReport(False, None, "levels must be nondecreasing")
    if max(chain(la, lb)) > MAX_LEVEL:
        return LadderReport(False, None, "a level lies past MAX_LEVEL = %d" % MAX_LEVEL)
    for i, h in enumerate(fs):
        fault = _rung_fault("forward", h, heights(dgA, la[i]), heights(dgB, lb[i]))
        if fault:
            return LadderReport(False, 2 * i, fault)
    for i, bm in enumerate(bs):
        fault = _rung_fault("backward", bm, heights(dgB, lb[i]), heights(dgA, la[i + 1]))
        if fault:
            return LadderReport(False, 2 * i + 1, fault)
        if _mat_mul(bm, fs[i]) != composed_incidence(dgA, la[i], la[i + 1]):
            return LadderReport(False, 2 * i + 1, "source-side square does not commute")
        if i + 1 < len(fs) and _mat_mul(fs[i + 1], bm) != composed_incidence(
            dgB, lb[i], lb[i + 1]
        ):
            return LadderReport(False, 2 * i + 2, "target-side square does not commute")
    if not fs:
        return LadderReport(False, None, "ladder has no rungs")
    if la[0] == la[-1] and lb[0] == lb[-1]:
        if dgA != dgB:
            return LadderReport(False, None, "ladder of period zero between different diagrams")
        # la[0] first: the identity ladder reads level 1, which may not exist
        if la[0] == 1 and ladder == identity_ladder(dgA):
            return _ACCEPTED
        return LadderReport(False, None, "ladder of period zero is not the identity ladder")
    if not _periodic(ladder, dgA, dgB):
        return LadderReport(False, None, "ladder is not periodic on stationary diagrams")
    return _ACCEPTED


def _rung_fault(side, rung, source, target):
    """Why rung, a side ("forward" or "backward") rung from the units
    source to target, fails: its shape, a negative entry or the unit; None
    when it holds."""
    if len(rung) != len(target) or any(len(row) != len(source) for row in rung):
        return "%s rung has the wrong shape" % side
    if any(x < 0 for row in rung for x in row):
        return "negative entry"
    if _mat_apply(rung, source) != target:
        return "unit not preserved"
    return None


def _periodic(ladder, dgA, dgB) -> bool:
    """Whether ladder, with rung counts that line up, is periodic on
    stationary diagrams: at least two rungs, all forwards equal, all
    backwards equal, and each side's levels a progression (the last shape
    verify_ladder accepts)."""
    fs, bs = ladder.forwards, ladder.backwards
    return (
        len(fs) >= 2
        and dgA.kind == dgB.kind == "stationary"
        and fs.count(fs[0]) == len(fs)
        and bs.count(bs[0]) == len(bs)
        and _progression(ladder.a_levels)
        and _progression(ladder.b_levels)
    )


def _progression(levels):
    """Levels from level >= 1 on, each the last plus one step >= 1."""
    step = levels[1] - levels[0]
    return (
        levels[0] >= 1 and step >= 1 and all(y - x == step for x, y in zip(levels, levels[1:]))
    )


def _first_period_holds(ladder, dgA, dgB) -> bool:
    """Whether ladder is periodic on stationary diagrams, up to MAX_LEVEL,
    and its first period holds, which proves the rest (see verify_ladder).

    Only levels and rungs that are tuples of exact ints are read, on
    diagrams whose tables read as incidence matrices, so nothing here
    raises; any other ladder is False and goes to the scan.
    """
    la, lb = ladder.a_levels, ladder.b_levels
    fs, bs = ladder.forwards, ladder.backwards
    if not (
        type(la) is type(lb) is type(fs) is type(bs) is tuple
        and len(fs) == len(bs) == len(lb) == len(la) - 1
        and _INT.issuperset(map(type, la + lb))
        and _int_matrices(fs + bs)
        and _periodic(ladder, dgA, dgB)
        and max(la[-1], lb[-1]) <= MAX_LEVEL
        and _regular(dgA)
        and _regular(dgB)
    ):
        return False
    h, back = fs[0], bs[0]
    ua0, ub0, ua1 = heights(dgA, la[0]), heights(dgB, lb[0]), heights(dgA, la[1])
    return (
        _rung_fault("forward", h, ua0, ub0) is None
        and _rung_fault("backward", back, ub0, ua1) is None
        and _mat_mul(back, h) == composed_incidence(dgA, la[0], la[1])
        and _mat_mul(h, back) == composed_incidence(dgB, lb[0], lb[1])
    )


def _int_matrices(ms) -> bool:
    """Each of ms is a tuple of tuples of exact ints."""
    if not _TUPLE.issuperset(map(type, ms)):
        return False
    rows = tuple(chain.from_iterable(ms))
    return _TUPLE.issuperset(map(type, rows)) and _INT.issuperset(
        map(type, chain.from_iterable(rows))
    )


def _regular(d) -> bool:
    """d is stationary with k >= 1 vertices, and its root and repeating
    tables read as incidence matrices with k rows: then heights at level
    m + 1 are A.u(m) for every m >= 1, all of length k."""
    if d.kind != "stationary":
        return False
    try:  # both kept on d; a table with a stray source index raises
        root, step = incidence(d, 0), incidence(d, 1)
        return len(root) == len(step) == d.num_vertices(1) >= 1
    except (IndexError, TypeError):
        return False


# ---------------------------------------------------------------------------
# full-group elements and the replay of a conjugator


@dataclass(frozen=True)
class FullGroupElement:
    """An element of the topological full group in return-time form.

    tables[w][j-1] is the orbit displacement applied on floor j of tower w
    at the stated level: the element acts as the j -> j + r(w, j) power of
    the underlying transformation there.  Displacements may point past the
    tower at this resolution; verification treats those cells as unresolved
    instead of guessing how the roof continues.
    """

    diagram: OrderedBratteliDiagram = field(compare=False)
    level: int
    tables: tuple

    def __post_init__(self):
        h = heights(self.diagram, self.level)
        if len(self.tables) != len(h):
            raise ValueError("need one displacement row per tower")
        for w, row in enumerate(self.tables):
            if len(row) != h[w]:
                raise ValueError(
                    "tower %d has height %d but %d displacements" % (w, h[w], len(row))
                )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "towers": [
                {"w": w, "r": list(row)} for w, row in enumerate(self.tables)
            ],
        }


@dataclass(frozen=True)
class ConjugacyReport:
    """Outcome of replaying a candidate conjugator against block data.

    verdict "ok" means every resolvable cell conjugates the successor map
    into the block bijection and the unresolved remainder is no larger than
    the number of fine towers (their roof bands, which no finite level can
    resolve; the unique maximal path sits inside one of them and is counted
    there rather than reported separately).  "counterexample" pins a block
    or a failed bijection; "inconclusive" means too many cells stayed
    unresolved to certify anything at the audit level.
    """

    verdict: str  # "ok" | "counterexample" | "inconclusive"
    level: int
    checked: int
    unresolved: int
    block: Optional[int] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def _validate_partition(part, universe, what):
    seen = set()
    for u in part:
        if not u:
            raise ValueError("empty %s" % what)
        for c in u:
            if c in seen:
                raise ValueError("%s overlap at cell %r" % (what, (c,)))
            seen.add(c)
    if seen != universe:
        raise ValueError("%ss do not partition the cells at this level" % what)


def _floor_labels(hs, part) -> list:
    """labels[w][j - 1], the index of the part holding cell (w, j) of the
    towers of heights hs, or None where no part does; a cell off these
    towers is passed over, and a cell in two parts takes the later one."""
    labels = [[None] * h for h in hs]
    for bi, u in enumerate(part):
        for w, j in u:
            if 0 <= w < len(hs) and 0 < j <= hs[w]:
                labels[w][j - 1] = bi
    return labels


class _CoarseTower:
    """One tower of the audit's coarse level, replayed on its own floors.

    disp holds the displacements of its floors, bottom first.  fwd[j] is
    the floor s sends floor j to while it stays in the tower, 0 otherwise;
    back[t] is the lowest floor sent to t, 0 if none.  collision is the
    first floor, upwards, whose image is already taken, with that image.
    leaves says that s sends some floor out of the tower.  The tower is
    closed when every floor has a preimage: by counting, s then sends
    every floor inside it and no two onto one, so it permutes the floors.
    """

    def __init__(self, h: int, disp):
        self.h = h
        self.disp = disp = tuple(disp)
        fwd = [0] * (h + 1)
        back = [0] * (h + 1)
        collision = None
        for j, r in enumerate(disp, 1):
            t = j + r
            if not 1 <= t <= h:
                continue
            fwd[j] = t
            if not back[t]:
                back[t] = j
            elif collision is None:
                collision = (j, t)
        self.fwd, self.back, self.collision = fwd, back, collision
        self.leaves = fwd.count(0) > 1  # fwd[0] is 0
        self.closed = back.count(0) == 1

    def label(self, lab, img):
        """Take the block and image-block labels of the floors, bottom
        first, and walk one copy of a closed tower.

        The seam, floor fwd[h], is the floor whose preimage is the top
        floor: its walk enters the next copy and lands on that copy's image
        of floor 1.  seam is the block of the seam, entry the image block
        of this copy's image of floor 1, so a seam holds when its block
        equals the next copy's entry.  clean says that the tower is closed
        and no other floor's walk leaves its block's image.
        """
        h, fwd, back = self.h, self.fwd, self.back
        self.lab = lab = (None, *lab)
        self.img = img = (None, *img)
        self.seam, self.entry = lab[fwd[h]], img[fwd[1]]
        self.clean = self.closed
        for j in range(1, h + 1) if self.clean else ():
            y = back[j]
            if y < h and img[fwd[y + 1]] != lab[j]:
                self.clean = False
                break


def _flat_images(stack, towers, h: int) -> list:
    """image[f], the floor s sends floor f of a fine tower of height h to,
    0 past either end of it (image[0] is 0): the fine tower stacks copies
    of the coarse towers that stack names, bottom first."""
    image = [0]
    for u in stack:
        t = towers[u]
        image.extend(map(add, range(len(image), len(image) + t.h), t.disp))
    return [t if 0 < t <= h else 0 for t in image]


def _first_collision(stack, towers, h: int) -> int:
    """The image of the lowest floor of a fine tower whose image a lower
    floor already has, 0 if s is injective there.  Without a floor sent
    out of its copy, the first copy holding a collision holds it."""
    if not any(towers[u].leaves for u in stack):
        base = 0
        for u in stack:
            t = towers[u]
            if t.collision:
                return base + t.collision[1]
            base += t.h
        return 0
    taken = bytearray(h + 1)
    for t in _flat_images(stack, towers, h):
        if t:
            if taken[t]:
                return t
            taken[t] = 1
    return 0


def _flat_walk(stack, towers, h: int, tally):
    """The walk of one fine tower floor by floor, on which s is injective:
    add its checked and unresolved cells to tally, floors upwards, and
    stop at the first cell whose walk leaves its block's image, returning
    (floor, block)."""
    image = _flat_images(stack, towers, h)
    lab = (None, *chain.from_iterable(towers[u].lab[1:] for u in stack))
    img = (None, *chain.from_iterable(towers[u].img[1:] for u in stack))
    pre = [0] * (h + 1)
    for y in range(h, 0, -1):
        pre[image[y]] = y
    for j in range(1, h + 1):
        y = pre[j]
        t = image[y + 1] if 0 < y < h else 0
        if not t:
            tally[1] += 1
        elif img[t] == lab[j]:
            tally[0] += 1
        else:
            return j, lab[j]
    return None


def verify_conjugator(s: FullGroupElement, blocks, images, block_level: int) -> ConjugacyReport:
    """Replay s at level s.level + AUDIT_LOOKAHEAD and test that it
    conjugates the successor map into the block bijection between blocks
    and images, partitions of the cells of block_level.

    For every fine cell c the walk computes t = s(alpha(s^-1(c))) and checks
    that t lies in the image of the block containing c.  Cells whose walk
    crosses a fine roof (where the successor is not a cell) stay unresolved;
    a correct conjugator leaves exactly one such cell per fine tower.  Three
    passes, in this order, decide the report: s is injective, each block
    covers as many fine cells as its image, and every resolvable cell lands
    in its block's image.  The first failure in tower-then-floor order of
    the fine cells is the one reported.

    Each fine tower stacks whole towers of level c = max(s.level,
    block_level) (bratteli.tower_stacks), and both s and the block labels
    are constant on their fibers.  A c-tower is closed when s sends every
    floor inside it and no two onto one; s then permutes its floors alike
    in every copy, so its walk and labels are worked out once.  A fine
    tower that stacks only closed c-towers is answered copy by copy: each
    copy's walk, then each seam, the floor whose walk crosses into the next
    copy, against the next copy's image of its floor 1.  That costs
    O(copies), as does injectivity of a fine tower none of whose c-towers
    sends a floor out of itself: the first copy holding a collision holds
    the first one.  Every other fine tower (one stacking a c-tower that
    sends a floor out, or one whose copy summary fails) is replayed floor
    by floor on flat arrays of its floors' images, preimages and labels
    (_flat_images, _flat_walk), at O(its floors).  Block counts are
    block-level counts times copy multiplicities.  A c-tower's
    displacements and labels are those of the towers of s.level and of
    block_level it stacks, concatenated, so no level's cells are listed.
    The labels of the block-level floors are read off blocks and images
    once (_floor_labels); when some floor has none, KeyError names the
    first block cell without both labels, in fine-cell order
    (tower_stacks(d, block_level, mf)).  The cost grows with the cells of
    level c, the number of copies and the floors replayed one by one, and
    CELL_CAP binds on level c only.
    """
    d = s.diagram
    mf = d.check_level(s.level + AUDIT_LOOKAHEAD)
    # the order of cells inside a block plays no part here
    blocks = tuple(map(tuple, blocks))
    images = tuple(map(tuple, images))
    c = max(s.level, block_level)
    stacks = tower_stacks(d, c, mf)
    hf = heights(d, mf)
    towers = [
        _CoarseTower(h, chain.from_iterable(map(s.tables.__getitem__, stack)))
        for h, stack in zip(capped_heights(d, c), tower_stacks(d, s.level, c))
    ]
    suspect = not all(t.closed for t in towers)

    for v, (stack, h) in enumerate(zip(stacks, hf)):
        hit = _first_collision(stack, towers, h) if suspect else 0
        if hit:
            return ConjugacyReport(
                "counterexample",
                mf,
                0,
                0,
                reason="two cells map to %r; not injective" % ((v, hit),),
            )

    # labels per block-level floor, read up each c-tower's stack; a floor
    # without both raises, as listing the fine cells would, at the first
    # fine cell whose block cell is unknown
    hb = heights(d, block_level)
    lab = _floor_labels(hb, blocks)
    img = _floor_labels(hb, images)
    if any(None in row for row in chain(lab, img)):
        for w in chain.from_iterable(tower_stacks(d, block_level, mf)):
            for j, (b, i) in enumerate(zip(lab[w], img[w]), 1):
                if b is None or i is None:
                    raise KeyError((w, j))
    for t, stack in zip(towers, tower_stacks(d, block_level, c)):
        t.label(
            chain.from_iterable(map(lab.__getitem__, stack)),
            chain.from_iterable(map(img.__getitem__, stack)),
        )
    # block counts: each block-level floor's labels times its copies in mf
    copies = [sum(col) for col in zip(*composed_incidence(d, block_level, mf))]
    fine_count = [0] * len(blocks)
    fine_image_count = [0] * len(blocks)
    for n, bs, js in zip(copies, lab, img):
        for b, i in zip(bs, js) if n else ():
            fine_count[b] += n
            fine_image_count[i] += n
    for bi, (x, y) in enumerate(zip(fine_count, fine_image_count)):
        if x != y:
            return ConjugacyReport(
                "counterexample",
                mf,
                0,
                0,
                block=bi,
                reason="block %d covers %d fine cells, its image %d" % (bi, x, y),
            )

    tally = [0, 0]  # checked, unresolved
    for v, (stack, h) in enumerate(zip(stacks, hf)):
        ts = list(map(towers.__getitem__, stack))
        if all(t.clean for t in ts) and all(t.seam == n.entry for t, n in zip(ts, ts[1:])):
            # every cell checks out but the top copy's seam, which is unresolved
            tally[0] += h - 1
            tally[1] += 1
            continue
        failed = _flat_walk(stack, towers, h, tally)
        if failed:
            j, b = failed
            return ConjugacyReport(
                "counterexample",
                mf,
                tally[0],
                tally[1],
                block=b,
                reason="cell %r of block %d conjugates into the wrong image"
                % ((v, j), b),
            )
    checked, unresolved = tally
    if unresolved > len(hf):
        return ConjugacyReport("inconclusive", mf, checked, unresolved)
    return ConjugacyReport("ok", mf, checked, unresolved)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str = ""


def diagram_digest(d: OrderedBratteliDiagram) -> str:
    """Content hash of the canonical serialization, kept per diagram."""
    return derived(d, "digest", _sha256_of, d)


def _sha256_of(d):
    # imported here, not at the top: hashlib loads OpenSSL, a few MB
    # that the subcommands and deciders which take no digest never need
    import hashlib

    return hashlib.sha256(serialize_diagram(d).encode("utf-8")).hexdigest()


_VERIFIER = {
    "k-conjugate": "verify_ladder",
    "weak": "unit_preservation",
    "tau": "invariant_recomputation",
    "conjugator": "verify_conjugator",
}


def _certificate(claim, systems, witness) -> dict:
    return {
        "claim": claim,
        "systems": [diagram_digest(d) for d in systems],
        "witness": witness,
        "verifier": _VERIFIER[claim],
    }


def _weak_witness(forward, backward) -> dict:
    return {
        "forward": [t.to_json() for t in forward],
        "backward": [t.to_json() for t in backward],
    }


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


def _tau_witness(spectra, dgA, dgB) -> dict:
    return {
        "spectra": spectra.certificate,
        "trace": {
            "a": _trace_group_json(trace_image_group(dgA)),
            "b": _trace_group_json(trace_image_group(dgB)),
        },
    }


def _conjugator_witness(elem: FullGroupElement, block_level: int, blocks, images) -> dict:
    return {
        "element": elem.to_json(),
        "block_level": block_level,
        "blocks": [[list(c) for c in u] for u in blocks],
        "images": [[list(c) for c in v] for v in images],
        "lookahead": AUDIT_LOOKAHEAD,
    }


def _canonical(value) -> Optional[str]:
    """value in CANONICAL_JSON text, the form serialize_diagram writes and
    diagram_digest hashes, or None when value holds something JSON cannot.

    A tuple reads as a list; a deep or cyclic value reads as None, so it
    differs from every witness and is never an error.
    """
    try:
        return CANONICAL_JSON.encode(value)
    except (TypeError, ValueError, RecursionError):
        return None


def _recomputed_weak(dgA, dgB):
    """The weak witness recomputed on (dgA, dgB), or the rejection."""
    schedules = None
    if spectra_equal(dgA, dgB).verdict == "equal":
        schedules = weak_schedules(dgA, dgB)
    if schedules is None:
        return CertificateCheck(False, "spectra no longer verify as equal")
    return _weak_witness(*schedules)


def _recomputed_tau(dgA, dgB):
    """The tau witness recomputed on (dgA, dgB), or the rejection."""
    comp = spectra_equal(dgA, dgB)
    if comp.verdict != "equal" or trace_images_isomorphic(
        trace_image_group(dgA), trace_image_group(dgB)
    ).value is not True:
        return CertificateCheck(False, "invariants no longer verify")
    return _tau_witness(comp, dgA, dgB)


_RECOMPUTED = {"weak": _recomputed_weak, "tau": _recomputed_tau}


def verify_certificate(cert: dict, systems) -> CertificateCheck:
    """Re-verify a certificate against the actual systems it claims to bind.

    The systems' digests must match in order, the verifier must be the
    claim's, the systems must number two (one for a conjugator), and the
    witness must pass the named independent check; any malformation is a
    rejection, not an error, while a fault inside a check (an
    AssertionError, say) propagates.
    Witness payloads are pinned down to the byte: schedules must equal their
    canonical recomputation and free parameters are fixed constants (a weak
    witness has WEAK_ROUNDS morphisms each way, a conjugator audits at
    AUDIT_LOOKAHEAD), so any tampering fails even when the mutated payload
    would still be true.  A weak or tau witness is accepted exactly when its
    canonical text (see _canonical) equals that of its recomputation,
    whether it was loaded from JSON or built in this process: a tuple reads
    as a list, and a leaf of another JSON type (true or 1.0 for 1) differs.
    The recomputation runs once per ordered pair and claim: the witness it
    gives, or the rejection, is kept on the first system under the second's
    digest (bratteli.derived), while an exception there is not kept, so it
    is raised, or rejected as malformed, again on every call.  The
    recomputed witness's canonical text is kept as well, in a second entry
    encoded outside the malformed-input guard, so an error there (an
    integer too long for str(), say) propagates and is not kept; the
    submitted witness's own text is compared on every replay.  A weak
    witness is never parsed or walked to its own levels: the recomputation
    is nonnegative and unit-preserving by construction, so a witness equal
    to it is too.
    Every integer of a ladder or conjugator witness (levels, entries,
    displacements, cell coordinates, the lookahead) must be a plain JSON
    integer; anything else is malformed, and the first such entry in
    reading order is named.  Each integer sequence (a ladder's levels, a
    rung row, a tower's displacements, a cell) is read in one pass (see
    _json_ints).  No level either names may lie past MAX_LEVEL.  A
    conjugator's levels must also lie at or below the diagram's first
    level with more than CELL_CAP cells (bratteli.first_level_over_cap,
    walked once per diagram), and its blocks and images must each
    partition the cells of its block level (bratteli.cell_set, kept per
    diagram and level), before the conjugator is replayed.  Only these
    facts about the diagram are kept: every call parses the witness,
    checks both partitions and runs verify_conjugator again.
    """
    systems = tuple(systems)
    try:
        digests = list(cert["systems"])
        if digests != [diagram_digest(d) for d in systems]:
            return CertificateCheck(False, "system digests do not match the inputs")
        claim = cert["claim"]
        witness = cert["witness"]
        if cert["verifier"] != _VERIFIER.get(claim):
            return CertificateCheck(False, "verifier does not match the claim")
        if claim not in _VERIFIER:
            return CertificateCheck(False, "unknown claim %r" % claim)
        one = claim == "conjugator"
        if len(systems) != (1 if one else 2):
            return CertificateCheck(
                False, "claim needs exactly " + ("one system" if one else "two systems")
            )
        if claim == "k-conjugate":
            ladder = IntertwiningLadder.from_json(witness)
            rep = verify_ladder(ladder, systems[0], systems[1])
            if not rep.ok:
                where = "rejected" if rep.index is None else "broken at rung %d" % rep.index
                return CertificateCheck(False, "ladder %s: %s" % (where, rep.reason))
            return CertificateCheck(True)
        if claim == "weak" and any(
            len(witness[side]) != WEAK_ROUNDS for side in ("forward", "backward")
        ):
            return CertificateCheck(False, "schedules must hold %d morphisms" % WEAK_ROUNDS)
        if claim in _RECOMPUTED:
            key = (claim + "_witness", diagram_digest(systems[1]))
            recomputed = derived(systems[0], key, _RECOMPUTED[claim], *systems)
            if isinstance(recomputed, CertificateCheck):
                return recomputed
        else:  # conjugator
            if _json_int(witness["lookahead"]) != AUDIT_LOOKAHEAD:
                return CertificateCheck(False, "audit lookahead must be %d" % AUDIT_LOOKAHEAD)
            blob = witness["element"]
            block_level = _json_int(witness["block_level"])
            for level in (_json_int(blob["level"]), block_level):
                capped = first_level_over_cap(systems[0], min(level, MAX_LEVEL))
                if capped is not None:
                    return CertificateCheck(
                        False,
                        "level %d lies past level %d, the first with more than "
                        "CELL_CAP = %d cells" % (level, capped, CELL_CAP),
                    )
                if level > MAX_LEVEL:
                    return CertificateCheck(
                        False, "level %d lies past MAX_LEVEL = %d" % (level, MAX_LEVEL)
                    )
            towers = sorted(blob["towers"], key=lambda t: _json_int(t["w"]))
            if [t["w"] for t in towers] != list(range(len(towers))):
                return CertificateCheck(False, "tower indices must be 0..k-1")
            elem = FullGroupElement(
                systems[0], blob["level"], tuple(_json_ints(tower["r"]) for tower in towers)
            )
            blocks = tuple(tuple(map(_json_ints, u)) for u in witness["blocks"])
            images = tuple(tuple(map(_json_ints, v)) for v in witness["images"])
            universe = cell_set(systems[0], block_level)
            try:
                _validate_partition(blocks, universe, "block")
                _validate_partition(images, universe, "image block")
            except ValueError as e:
                return CertificateCheck(False, "conjugator witness is not a partition: %s" % e)
            rep = verify_conjugator(elem, blocks, images, block_level)
            if rep.verdict != "ok":
                return CertificateCheck(False, "conjugator fails verification: %s" % rep.verdict)
            return CertificateCheck(True)
    # what a malformed payload raises; a fault inside a check propagates
    except (KeyError, TypeError, ValueError, IndexError, CapabilityError) as e:
        return CertificateCheck(False, "malformed certificate: %s" % e)
    text = derived(systems[0], (claim + "_text", key[1]), CANONICAL_JSON.encode, recomputed)
    if _canonical(witness) != text:
        return CertificateCheck(False, "witness differs from recomputation")
    return CertificateCheck(True)
