"""Shared oracles and generators.

The oracles here are deliberately independent of the package internals:
heights by raw matrix iteration, path order by exhaustive enumeration and
sorting, positivity by pushing and reading signs.  Derived expectations in
the test modules are frozen against these, not against the implementation.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import signal

import pytest

from cantorconj.bratteli import OrderedBratteliDiagram, composed_incidence
from cantorconj.systems import stationary_from_rows


# -- independent oracles -----------------------------------------------------


def oracle_incidence(diagram, n):
    tab = diagram.table(n)
    cols = diagram.num_vertices(n)
    out = []
    for row in tab:
        counts = [0] * cols
        for s in row:
            counts[s] += 1
        out.append(counts)
    return out


def oracle_heights(diagram, m):
    h = [1]
    for n in range(m):
        mat = oracle_incidence(diagram, n)
        h = [sum(mat[v][u] * h[u] for u in range(len(h))) for v in range(len(mat))]
    return tuple(h)


def oracle_all_paths(diagram, m):
    """Every root-to-level-m path, grown transition by transition."""
    paths = [()]
    ends = [0]
    for n in range(m):
        tab = diagram.table(n)
        nxt, nxt_ends = [], []
        for p, e in zip(paths, ends):
            for v, row in enumerate(tab):
                for t, src in enumerate(row):
                    if src == e:
                        nxt.append(p + ((v, t),))
                        nxt_ends.append(v)
        paths, ends = nxt, nxt_ends
    return paths


def oracle_sorted_tower(diagram, m, v):
    """Paths to vertex v, sorted by the documented order (top edge most
    significant): compare position tuples read end-first."""
    paths = [p for p in oracle_all_paths(diagram, m) if p[-1][0] == v]
    paths.sort(key=lambda p: tuple(t for (_, t) in reversed(p)))
    return paths


def oracle_positivity(diagram, level, vector, depth=20):
    """Push and read signs; returns one of the five verdict strings or None
    when the scan stays mixed-sign (undetermined)."""
    vec = list(vector)
    top = diagram.max_level()
    limit = level + depth if top is None else min(level + depth, top)
    lvl = level
    while True:
        if all(x == 0 for x in vec):
            return "Zero"
        if all(x > 0 for x in vec):
            return "Positive"
        if all(x < 0 for x in vec):
            return "Negative"
        if lvl >= limit:
            return None
        mat = oracle_incidence(diagram, lvl)
        vec = [sum(mat[v][u] * vec[u] for u in range(len(vec))) for v in range(len(mat))]
        lvl += 1


# -- time ceilings -------------------------------------------------------------


class CeilingExceeded(Exception):
    pass


@contextlib.contextmanager
def time_ceiling(seconds):
    """Fail instead of hanging: raise CeilingExceeded after `seconds` of wall time."""

    def expire(signum, frame):
        raise CeilingExceeded("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- generators ---------------------------------------------------------------


def random_stationary(rng: random.Random, max_vertices=3, max_edges=3, primitive=False):
    k = rng.randint(1, max_vertices)
    while True:
        rows = []
        for _ in range(k):
            n_edges = rng.randint(1, max_edges)
            rows.append(tuple(rng.randrange(k) for _ in range(n_edges)))
        # make sure every vertex occurs as a source somewhere; otherwise its
        # tower dies and primitivity is hopeless
        used = {s for row in rows for s in row}
        if len(used) != k:
            continue
        if primitive:
            if not _is_primitive(rows, k):
                continue
        root = tuple((0,) * rng.randint(1, 2) for _ in range(k))
        return OrderedBratteliDiagram("stationary", (1, k), (root, tuple(rows)))


def rows_of(mat):
    """Ordered source rows of an incidence matrix, sources in increasing order."""
    return tuple(tuple(s for s in range(len(r)) for _ in range(r[s])) for r in mat)


def power_of(d, e):
    """The same system read every e levels: its root edges, then A^e."""
    return stationary_from_rows(rows_of(composed_incidence(d, 1, 1 + e)), root=d.table(0))


def hierarchy_pool():
    """Seeded primitive systems of 1-3 vertices, each with its square and
    cube (24 systems); no draw is dropped, a failing one is a finding."""
    rng = random.Random(5)
    pool = []
    for _ in range(8):
        d = random_stationary(rng, primitive=True)
        pool += [d, power_of(d, 2), power_of(d, 3)]
    return pool


def primitive_2x2_diagrams():
    """The 32 primitive 2x2 incidences with entries <= 2, in order."""
    for entries in itertools.product(range(3), repeat=4):
        mat = (entries[:2], entries[2:])
        # a 2x2 incidence is primitive when its square is positive (Wielandt)
        if all(mat[i][0] * mat[0][j] + mat[i][1] * mat[1][j] for i in (0, 1) for j in (0, 1)):
            yield stationary_from_rows(rows_of(mat))


def _is_primitive(rows, k):
    mat = [[0] * k for _ in range(k)]
    for v, row in enumerate(rows):
        for s in row:
            mat[v][s] += 1
    acc = [row[:] for row in mat]
    for _ in range((k - 1) ** 2 + 1):
        if all(all(x > 0 for x in row) for row in acc):
            return True
        acc = [
            [sum(mat[i][t] * acc[t][j] for t in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return all(all(x > 0 for x in row) for row in acc)


def random_explicit(rng: random.Random, levels=4, max_vertices=3, max_edges=2):
    counts = [1] + [rng.randint(1, max_vertices) for _ in range(levels)]
    tables = []
    for n in range(levels):
        rows = [
            [rng.randrange(counts[n]) for _ in range(rng.randint(1, max_edges))]
            for _ in range(counts[n + 1])
        ]
        # every source vertex must feed some edge; patch strays into a random row
        used = {s for row in rows for s in row}
        for missing in range(counts[n]):
            if missing not in used:
                rows[rng.randrange(counts[n + 1])].append(missing)
        tables.append(tuple(tuple(row) for row in rows))
    return OrderedBratteliDiagram("explicit", tuple(counts), tuple(tables))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
