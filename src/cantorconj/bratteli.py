"""Ordered Bratteli diagrams and their finite-level Vershik combinatorics.

Conventions, which everything downstream depends on:

* Level 0 is the root and has exactly one vertex, index 0.  Vertices at each
  level are indexed 0..k-1.
* An edge table for the transition level n -> n+1 is a list with one entry
  per *target* vertex v of level n+1; the entry is the ordered list of source
  vertex indices at level n.  Repeating a source index means parallel edges;
  the position inside the list is the edge's order rank (0 = minimal).
* Two diagram kinds share one type.  A "stationary" diagram stores two
  tables, the root table (transition 0 -> 1, all sources 0) and the repeating
  table used for every transition n -> n+1 with n >= 1; levels are unbounded.
  An "explicit" diagram stores one table per transition and raises
  LevelRangeError past its last level.
* A path from the root to level m is a tuple of m pairs (target_vertex,
  position), listed root-first.  Pair n describes the edge crossing the
  transition n -> n+1, so its source must be the target of pair n-1 (the
  root for n=0).
* Paths to a common end vertex are ordered lexicographically with the most
  significant edge LAST (nearest the end vertex).  The successor therefore
  increments the lowest incrementable edge and resets every edge below it to
  the minimal path, which on the dyadic diagram is literally binary
  increment of the root-first digit string.
* Kakutani-Rohlin bookkeeping: tower v at level m has height h_m(v) = number
  of paths from the root to v, and its floors are 1-indexed.  Floor k is the
  path of rank k-1 in the order above, so the Vershik successor restricted
  to non-maximal paths is exactly floor increment inside each tower.

The JSON interchange format "obd-v1"::

    {"format": "obd-v1", "kind": "stationary", "vertices": 2,
     "edges": [ROOT_TABLE, REPEATING_TABLE]}
    {"format": "obd-v1", "kind": "explicit", "vertices": [1, 2, 2],
     "edges": [TABLE_0, TABLE_1]}

with each table encoded as an array of arrays of 0-based source indices.
Serialization is canonical (sorted keys, no whitespace) and parse/serialize
round-trips bit-exactly on canonical input.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable

from .fieldpoly import CapabilityError, _mat_apply, _mat_mul  # CapabilityError re-exported

FORMAT_NAME = "obd-v1"

# The canonical JSON text: sorted keys, no whitespace, no NaN, a tuple
# written as a list.  serialize_diagram writes it, check.diagram_digest
# hashes it, and check compares weak and tau witnesses in it.  A cyclic
# value raises RecursionError, as a too deep one does.
CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
)

# Enumeration guard: operations that materialize every cell of a level stay
# below this many cells and raise CapabilityError beyond (see cells and
# capped_heights).  It binds where cells are listed, not on levels that are
# only read tower by tower, such as the audit level of a conjugator.
CELL_CAP = 2 ** 12

# Default depth bound: how many levels a bounded scan reads before it gives up.
DEFAULT_DEPTH = 40

# The deepest level a ladder or conjugator may name.  check refuses a level
# past it before any heights are read, and first_level_over_cap walks no
# further, so no replay walks further up a diagram; the deciders' ladders
# and conjugators stay far below it.
MAX_LEVEL = 1024


class DiagramSyntaxError(ValueError):
    """Diagram text is not valid JSON (message has the position) or too deep."""


class DiagramStructureError(ValueError):
    """Parsed JSON is not a well-formed ordered Bratteli diagram."""


class LevelRangeError(ValueError):
    """An explicit diagram was asked about a level past its last table."""


EdgeTable = tuple[tuple[int, ...], ...]
Path = tuple[tuple[int, int], ...]
Cell = tuple[int, int]  # (vertex, floor), floors 1-indexed


class MaxPath:
    """Sentinel returned by vershik_successor on a maximal path.

    The successor of the maximal path to a vertex is not determined at a
    finite level (it is the roof-to-base transition), so the map signals it
    explicitly instead of guessing.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MaxPath()"


MAX_PATH = MaxPath()


@dataclass(frozen=True)
class DgElement:
    """A K0 element presented at a level: an integer vector over the towers.

    Lives here rather than in dimgroup because counting vectors of clopen
    cell sets are produced by the diagram layer; dimgroup re-exports it.
    """

    level: int
    vector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(map(int, self.vector)))


@dataclass(frozen=True)
class OrderedBratteliDiagram:
    kind: str
    vertex_counts: tuple[int, ...]
    tables: tuple[EdgeTable, ...]
    # data derived from the fields above, filled by derived(); it lives as
    # long as the diagram and takes no part in equality, hashing or repr
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def num_vertices(self, level: int) -> int:
        if level < 0:
            raise ValueError("negative level")
        if self.kind == "stationary":
            return 1 if level == 0 else self.vertex_counts[1]
        if level >= len(self.vertex_counts):
            raise LevelRangeError(
                "explicit diagram has no level %d (last is %d)"
                % (level, len(self.vertex_counts) - 1)
            )
        return self.vertex_counts[level]

    def table(self, n: int) -> EdgeTable:
        """Edge table of the transition n -> n+1."""
        if n < 0:
            raise ValueError("negative transition index")
        if self.kind == "stationary":
            return self.tables[0] if n == 0 else self.tables[1]
        if n >= len(self.tables):
            raise LevelRangeError(
                "explicit diagram has no transition %d -> %d" % (n, n + 1)
            )
        return self.tables[n]

    def max_level(self):
        """Deepest available level; None when levels are unbounded."""
        return None if self.kind == "stationary" else len(self.vertex_counts) - 1

    def scan_end(self, start: int, depth: int) -> int:
        """Last level of a depth-level scan from start, within the diagram."""
        top = self.max_level()
        return start + depth if top is None else min(start + depth, top)

    def settled_level(self, start: int) -> int:
        """Last level of a scan from start that no deeper level can change:
        start + (k - 1)^2 + 2 on a stationary diagram with k vertices, the
        last level of an explicit one.

        A primitive incidence A has A^j > 0 for every j >= (k - 1)^2 + 1
        (Wielandt), and the kernels of A^j stop growing by j = k, as do the
        images of any map of the k vertices into themselves.
        """
        top = self.max_level()
        return start + (self.vertex_counts[1] - 1) ** 2 + 2 if top is None else top

    def check_level(self, m: int) -> int:
        if m < 0:
            raise ValueError("negative level")
        if self.kind != "stationary" and m >= len(self.vertex_counts):
            raise LevelRangeError(
                "explicit diagram has no level %d (last is %d)"
                % (m, len(self.vertex_counts) - 1)
            )
        return m


def _plain_int(x) -> bool:
    """An int but not a bool: what obd-v1 and certificate fields hold."""
    return isinstance(x, int) and not isinstance(x, bool)


def _as_table(obj, n_targets, n_sources, where) -> EdgeTable:
    if not isinstance(obj, list):
        raise DiagramStructureError("%s: edge table must be an array" % where)
    if len(obj) != n_targets:
        raise DiagramStructureError(
            "%s: expected %d target rows, got %d" % (where, n_targets, len(obj))
        )
    rows = []
    for v, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise DiagramStructureError(
                "%s: target %d has an empty or non-array edge list" % (where, v)
            )
        for s in row:
            if not _plain_int(s) or not (0 <= s < n_sources):
                raise DiagramStructureError(
                    "%s: target %d has dangling source index %r "
                    "(valid range 0..%d)" % (where, v, s, n_sources - 1)
                )
        rows.append(tuple(row))
    return tuple(rows)


def parse_diagram(text: str) -> OrderedBratteliDiagram:
    """Parse obd-v1 JSON text into a diagram.

    Raises DiagramSyntaxError on malformed or too deeply nested JSON and
    DiagramStructureError on well-formed JSON that is not a valid diagram.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DiagramSyntaxError(
            "invalid JSON at line %d column %d: %s" % (e.lineno, e.colno, e.msg)
        ) from e
    except RecursionError as e:
        raise DiagramSyntaxError("JSON nests too deeply to parse") from e
    if not isinstance(raw, dict):
        raise DiagramStructureError("top level must be an object")
    if raw.get("format") != FORMAT_NAME:
        raise DiagramStructureError(
            "unsupported format %r (expected %r)" % (raw.get("format"), FORMAT_NAME)
        )
    kind = raw.get("kind")
    if kind not in ("stationary", "explicit"):
        raise DiagramStructureError("kind must be 'stationary' or 'explicit'")
    vertices = raw.get("vertices")
    edges = raw.get("edges")
    extra = set(raw) - {"format", "kind", "vertices", "edges"}
    if extra:
        raise DiagramStructureError("unknown keys: %s" % sorted(extra))
    if kind == "stationary":
        if not _plain_int(vertices) or vertices < 1:
            raise DiagramStructureError("stationary vertices must be a positive integer")
        if not isinstance(edges, list) or len(edges) != 2:
            raise DiagramStructureError(
                "stationary edges must be [root_table, repeating_table]"
            )
        root = _as_table(edges[0], vertices, 1, "root table")
        rep = _as_table(edges[1], vertices, vertices, "repeating table")
        return OrderedBratteliDiagram("stationary", (1, vertices), (root, rep))
    if not isinstance(vertices, list) or not vertices:
        raise DiagramStructureError("explicit vertices must be a non-empty array")
    for k in vertices:
        if not _plain_int(k) or k < 1:
            raise DiagramStructureError("vertex counts must be positive integers")
    if vertices[0] != 1:
        raise DiagramStructureError("level 0 must have exactly one vertex (the root)")
    if not isinstance(edges, list) or len(edges) != len(vertices) - 1:
        raise DiagramStructureError(
            "explicit edges must hold %d tables, got %r"
            % (len(vertices) - 1, len(edges) if isinstance(edges, list) else edges)
        )
    tables = tuple(
        _as_table(edges[n], vertices[n + 1], vertices[n], "table %d" % n)
        for n in range(len(edges))
    )
    return OrderedBratteliDiagram("explicit", tuple(vertices), tables)


def _to_jsonable(d: OrderedBratteliDiagram) -> dict:
    if d.kind == "stationary":
        vertices = d.vertex_counts[1]
    else:
        vertices = list(d.vertex_counts)
    return {
        "format": FORMAT_NAME,
        "kind": d.kind,
        "vertices": vertices,
        "edges": [[list(row) for row in tab] for tab in d.tables],
    }


def serialize_diagram(d: OrderedBratteliDiagram) -> str:
    """The diagram in CANONICAL_JSON text, the text its digest hashes; a
    bit-exact round trip."""
    return CANONICAL_JSON.encode(_to_jsonable(d))


def load_diagram(path: str) -> OrderedBratteliDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_diagram(fh.read())


def dump_diagram(d: OrderedBratteliDiagram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_diagram(d) + "\n")


# ---------------------------------------------------------------------------
# Heights and incidence


def derived(d: OrderedBratteliDiagram, key, fn, *args):
    """The value fn(*args) for diagram d, computed once per diagram object.

    Diagrams are immutable, so anything computed from one alone holds for
    its whole life: one value is kept per key (any hashable) per diagram
    object, and a hit costs one dict probe; fn is called only on a miss.
    An exception from fn is not kept, so the next call computes again and
    a key present means fn's own argument checks passed.  Values are
    shared, so callers must not mutate them.  Data of an ordered pair is
    kept on its first diagram, keyed with the second's digest
    (check.diagram_digest), or with the fields the digest hashes where no
    digest is taken otherwise (check.pair_weak_schedules).
    """
    memo = d._memo
    try:
        return memo[key]
    except KeyError:
        pass
    value = memo[key] = fn(*args)
    return value


class _KeptHeights(dict):
    """Heights by level, with the kept levels also listed in increasing
    order, so the deepest one below a new level is found by bisection."""

    def __init__(self):
        super().__init__({0: (1,)})
        self.levels = [0]


def heights(d: OrderedBratteliDiagram, m: int) -> tuple[int, ...]:
    """Tower heights at level m; h_0 = (1,), h_{n+1}(v) = sum over v's sources.

    Only the levels asked for are kept: a missing level is computed from the
    deepest kept level below it, and the levels in between are not stored.
    A walk up the levels thus costs one transition per level, a step
    through the kept incidence, so a source index outside the level below
    raises the IndexError of incidence.  A kept level is returned without
    checking m again: it was stored only after check_level passed.
    """
    try:
        return d._memo["heights"][m]
    except KeyError:
        pass
    d.check_level(m)
    hs = derived(d, "heights", _KeptHeights)
    i = bisect_left(hs.levels, m)
    start = hs.levels[i - 1]
    h = hs[start]
    for n in range(start, m):
        h = _mat_apply(incidence(d, n), h)
    hs[m] = h
    hs.levels.insert(i, m)
    return h


def incidence(d: OrderedBratteliDiagram, n: int) -> tuple[tuple[int, ...], ...]:
    """Multiplicity matrix of transition n -> n+1; rows = targets, cols = sources.

    Kept per transition; a stationary diagram repeats one table past the
    root, so every n >= 1 shares one matrix.
    """
    if d.kind == "stationary" and n >= 1:
        n = 1
    return derived(d, ("incidence", n), _incidence, d, n)


def _incidence(d, n):
    """IndexError naming the first source index outside 0..cols-1: a
    negative one would otherwise count as a vertex from the end."""
    cols = d.num_vertices(n)
    out = []
    for row in d.table(n):
        counts = [0] * cols
        for s in row:
            if not 0 <= s < cols:
                raise IndexError(
                    "transition %d: source index %r outside 0..%d" % (n, s, cols - 1)
                )
            counts[s] += 1
        out.append(tuple(counts))
    return tuple(out)


def composed_incidence(d: OrderedBratteliDiagram, m: int, m2: int) -> tuple[tuple[int, ...], ...]:
    """Product of the incidence matrices from level m up to level m2.

    Kept per level pair; on a stationary diagram every pair with m >= 1 is
    a power of the one repeating incidence, so pairs of the same span share
    one matrix.
    """
    if d.kind == "stationary" and m >= 1:
        m, m2 = 1, 1 + m2 - m
    return derived(d, ("composed_incidence", m, m2), _composed_incidence, d, m, m2)


def _composed_incidence(d, m, m2):
    if m2 < m:
        raise ValueError("m2 must be >= m")
    d.check_level(m2)
    size = d.num_vertices(m)
    acc = tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    for n in range(m, m2):
        acc = _mat_mul(incidence(d, n), acc)
    return acc


# ---------------------------------------------------------------------------
# Paths


def validate_path(d: OrderedBratteliDiagram, path: Path) -> None:
    """ValueError unless path runs from the root; the empty path is the one
    path to level 0, whose tower is the root alone."""
    d.check_level(len(path))
    prev = 0
    for n, (v, t) in enumerate(path):
        tab = d.table(n)
        if not (0 <= v < len(tab)):
            raise ValueError("path leaves vertex range at transition %d" % n)
        if not (0 <= t < len(tab[v])):
            raise ValueError("path edge position out of range at transition %d" % n)
        if tab[v][t] != prev:
            raise ValueError(
                "path is disconnected at transition %d: edge source %d, expected %d"
                % (n, tab[v][t], prev)
            )
        prev = v


def min_path(d: OrderedBratteliDiagram, v: int, m: int) -> Path:
    """The all-minimal-edge path from the root to vertex v at level m."""
    d.check_level(m)
    rev = []
    cur = v
    for n in range(m, 0, -1):
        rev.append((cur, 0))
        cur = d.table(n - 1)[cur][0]
    return tuple(reversed(rev))


def max_path(d: OrderedBratteliDiagram, v: int, m: int) -> Path:
    """The all-maximal-edge path from the root to vertex v at level m."""
    d.check_level(m)
    rev = []
    cur = v
    for n in range(m, 0, -1):
        row = d.table(n - 1)[cur]
        rev.append((cur, len(row) - 1))
        cur = row[-1]
    return tuple(reversed(rev))


def vershik_successor(d: OrderedBratteliDiagram, path: Path):
    """Lexicographic successor among paths to the same end vertex.

    Increments the lowest (nearest the root) incrementable edge and resets
    every edge below it to the minimal path into the new source.  Returns
    MAX_PATH when every edge already sits at its maximal position.
    """
    path = tuple(path)
    validate_path(d, path)
    for n, (v, t) in enumerate(path):
        row = d.table(n)[v]
        if t + 1 < len(row):
            prefix = min_path(d, row[t + 1], n)
            return prefix + ((v, t + 1),) + path[n + 1:]
    return MAX_PATH


# ---------------------------------------------------------------------------
# Cells and towers


def capped_heights(d: OrderedBratteliDiagram, m: int) -> tuple[int, ...]:
    """heights(d, m) for a level whose cells are about to be enumerated;
    CapabilityError when they number more than CELL_CAP."""
    h = heights(d, m)
    if sum(h) > CELL_CAP:
        raise CapabilityError(
            "level %d has more than CELL_CAP = %d cells" % (m, CELL_CAP)
        )
    return h


def first_level_over_cap(d: OrderedBratteliDiagram, m: int) -> int | None:
    """The first level below m with more than CELL_CAP cells, or None; m is
    at most MAX_LEVEL.

    The diagram's first such level is found once and kept: the heights are
    walked up from the root to MAX_LEVEL, or to an explicit diagram's last
    level, and not kept, so no level past that one is computed, and a
    diagram whose cells never pass the cap is walked once.  Past an
    explicit diagram's last level, with no level over the cap below it,
    LevelRangeError names the missing transition, as a walk up to m would.
    """
    over = derived(d, "cap_level", _first_level_over_cap, d)
    if over is not None and over < m:
        return over
    top = d.max_level()
    if top is not None and m > top:
        raise LevelRangeError(
            "explicit diagram has no transition %d -> %d" % (top, top + 1)
        )
    return None


def _first_level_over_cap(d):
    top = d.max_level()
    top = MAX_LEVEL if top is None else min(top, MAX_LEVEL)
    h = (1,)
    for n in range(top):
        if sum(h) > CELL_CAP:
            return n
        h = _mat_apply(incidence(d, n), h)
    return top if sum(h) > CELL_CAP else None


def cells(d: OrderedBratteliDiagram, m: int) -> list[Cell]:
    """All Kakutani-Rohlin cells (vertex, floor) at level m, capped at CELL_CAP.

    The cap binds wherever a level's cells are enumerated, by this function
    or by capped_heights: a replay that works per coarse tower (as
    check.verify_conjugator does) is not bound by the size of the
    finer level it audits.
    """
    h = capped_heights(d, m)
    return [(v, k) for v in range(len(h)) for k in range(1, h[v] + 1)]


def cell_set(d: OrderedBratteliDiagram, m: int) -> frozenset:
    """cells(d, m) as a frozenset, kept per diagram and level: the cells a
    partition of level m must cover."""
    return derived(d, ("cell_set", m), _cell_set, d, m)


def _cell_set(d, m):
    return frozenset(cells(d, m))


def tower_map(d: OrderedBratteliDiagram, m: int, m_fine: int) -> dict:
    """Dict sending each level-m_fine cell to the level-m cell its paths
    refine, built once per level pair and shared: callers must not mutate it.
    Its keys run over cells(d, m_fine) in order, tower by tower and floors
    upwards.

    Each fine tower stacks whole level-m towers (see tower_stacks), so the
    coarse cells under its floors are their floors in stacking order.
    """
    return derived(d, ("tower_map", m, m_fine), _tower_map, d, m, m_fine)


def _tower_map(d, m, m_fine):
    if m_fine < m:
        raise ValueError("fine level must be >= coarse level")
    fine_cells = cells(d, m_fine)
    coarse = [[(v, j) for j in range(1, h + 1)] for v, h in enumerate(heights(d, m))]
    under = (c for stack in tower_stacks(d, m, m_fine) for u in stack for c in coarse[u])
    return dict(zip(fine_cells, under))


def tower_stacks(d: OrderedBratteliDiagram, m: int, m_fine: int) -> tuple:
    """For each level-m_fine tower, the level-m towers it stacks, bottom
    first, as a tuple of vertex indices; kept per level pair and shared.

    Tower w at level n+1 stacks the floors of its sources in the order of
    its edge list, so its stack is the concatenation of its sources'
    stacks; starting from the level-m towers themselves, m_fine - m such
    steps give every fine tower its stack.  The fine floors are the coarse
    floors of the stack in order, so nothing here grows with the cells.
    """
    return derived(d, ("tower_stacks", m, m_fine), _tower_stacks, d, m, m_fine)


def _tower_stacks(d, m, m_fine):
    if m_fine < m:
        raise ValueError("fine level must be >= coarse level")
    d.check_level(m_fine)
    stacks = [(v,) for v in range(d.num_vertices(m))]
    for n in range(m, m_fine):
        stacks = [tuple(u for s in row for u in stacks[s]) for row in d.table(n)]
    return tuple(stacks)


def class_of_clopen(d: OrderedBratteliDiagram, level: int, cell_set: Iterable[Cell]) -> DgElement:
    """Counting vector of a union of level cells, as a DgElement.

    The class only sees how many floors of each tower the set uses; which
    floors they are is invisible to K0, which is the point.
    """
    h = heights(d, level)
    counts = [0] * len(h)
    seen = set()
    for (v, k) in cell_set:
        if not (0 <= v < len(h)) or not (1 <= k <= h[v]):
            raise ValueError("cell (%d, %d) does not exist at level %d" % (v, k, level))
        if (v, k) in seen:
            raise ValueError("cell (%d, %d) listed twice" % (v, k))
        seen.add((v, k))
        counts[v] += 1
    return DgElement(level, tuple(counts))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationReport:
    primitive: bool | None
    primitivity_level: int | None
    properly_ordered: bool | None
    min_chain_witness: tuple
    max_chain_witness: tuple
    issues: tuple[str, ...] = field(default=())
    # a primitive stationary diagram with incidence [1] has one path per
    # root edge: a finite space, not a Cantor set
    finite_path_space: bool = False

    @property
    def ok(self) -> bool:
        """Primitivity and an infinite path space are the hard requirements;
        ordering defects are reported."""
        return self.primitive is True and not self.finite_path_space


def validate(d: OrderedBratteliDiagram, depth: int = DEFAULT_DEPTH) -> ValidationReport:
    """Primitivity and proper-orderedness report with explicit witnesses.

    One pass up the edge tables from level 1 carries, for each vertex, its
    reach set (the level-1 vertices with a path to it, as a bitmask) and
    the level-1 ends of its minimal-edge and maximal-edge chains.
    primitivity_level is the least level m at which every reach set is
    full, that is the least m with composed_incidence(d, 1, m) strictly
    positive.  The diagram is properly ordered when the chain ends of
    each kind are a single vertex; the witnesses are the ends at the last
    level scanned.

    A stationary diagram is scanned to its settled_level(0) and depth is
    not read: the chain ends there are the eventual images of the minimal
    and maximal source maps, so both answers are exact.  An explicit
    diagram is scanned to scan_end(0, depth), and what its levels leave
    open is None.  A stationary diagram with one vertex and one edge per
    level is flagged as a finite path space.
    """
    stationary = d.kind == "stationary"
    top = d.settled_level(0) if stationary else d.scan_end(0, depth)
    k = d.num_vertices(1) if top else 0
    full = (1 << k) - 1
    reach = [1 << v for v in range(k)]
    mins = maxs = range(k)
    # level 1's composed incidence is the identity
    level = 1 if k == 1 else None
    for n in range(1, top):
        tab = d.table(n)
        reach = [reduce(or_, map(reach.__getitem__, row)) for row in tab]
        mins = [mins[row[0]] for row in tab]
        maxs = [maxs[row[-1]] for row in tab]
        if level is None and all(r == full for r in reach):
            level = n + 1
    mins, maxs = tuple(sorted(set(mins))), tuple(sorted(set(maxs)))
    open_answer = False if stationary else None
    primitive = True if level else open_answer
    properly = True if len(mins) == len(maxs) == 1 else open_answer
    finite = stationary and d.table(1) == ((0,),)
    issues = []
    if not primitive:
        issues.append(
            "no strictly positive composed incidence from level 1 to level %d: %s"
            % (top, "not primitive" if stationary else "primitivity undetermined")
        )
    if finite:
        issues.append(
            "one edge per level past the root: the path space has %d points, "
            "not a Cantor set" % heights(d, 1)[0]
        )
    if not properly:
        issues.append(
            "minimal/maximal edge chains from level %d end at level 1 in %s and %s: %s"
            % (top, list(mins), list(maxs), "not properly ordered" if stationary else "undetermined")
        )
    return ValidationReport(primitive, level, properly, mins, maxs, tuple(issues), finite)
