"""Stock diagrams used throughout tests, demos, and documentation.

The odometer family feeds the root with the same edge bundle as every other
transition, so the single tower doubles (triples, ...) from level 0 on and
heights at level m are q^m.  The golden-mean diagram keeps single root edges,
giving heights (1, 1) at level 1 and Fibonacci numbers afterwards.

Note: the golden-mean incidence [[1,1],[1,0]] admits no properly ordered
edge assignment (whichever source is listed last for the two-edge vertex,
either the minimal or the maximal source chains form a 2-cycle), and
validate() reports that honestly.  Every finite-level operation here works
with any fixed order; only statements about the infinite dynamics need
proper ordering.
"""

from __future__ import annotations

from .bratteli import OrderedBratteliDiagram, _plain_int


def odometer(q: int) -> OrderedBratteliDiagram:
    """Single-vertex stationary diagram with q parallel edges per transition.

    q must be a plain int (not a bool) of at least 2, as a source is in
    stationary_from_rows; anything else raises ValueError.
    """
    if not _plain_int(q):
        raise ValueError("odometer needs a plain int number of edges, not %r" % (q,))
    if q < 2:
        raise ValueError("odometer needs at least 2 edges per level")
    bundle = ((0,) * q,)
    return OrderedBratteliDiagram("stationary", (1, 1), (bundle, bundle))


def dyadic() -> OrderedBratteliDiagram:
    return odometer(2)


def triadic() -> OrderedBratteliDiagram:
    return odometer(3)


def quaternary() -> OrderedBratteliDiagram:
    return odometer(4)


def fibonacci() -> OrderedBratteliDiagram:
    """Two-vertex stationary diagram with incidence [[1,1],[1,0]]."""
    root = ((0,), (0,))
    table = ((0, 1), (0,))
    return OrderedBratteliDiagram("stationary", (1, 2), (root, table))


def stationary_from_rows(rows, root=None) -> OrderedBratteliDiagram:
    """Stationary diagram from ordered source rows; root defaults to one edge
    per level-1 vertex.

    The rules are obd-v1's (bratteli.parse_diagram), so the diagram's text
    parses back to it: at least one row, each nonempty, with plain int
    sources in 0..k-1 for k rows, and a root of exactly k nonempty rows of
    0.  Anything else raises ValueError naming the row.
    """
    table = tuple(tuple(row) for row in rows)
    k = len(table)
    if not k:
        raise ValueError("need at least one source row")
    root_table = ((0,),) * k if root is None else tuple(tuple(r) for r in root)
    if len(root_table) != k:
        raise ValueError("root has %d rows, not one per vertex (%d)" % (len(root_table), k))
    for what, tab, sources in (("source row", table, k), ("root row", root_table, 1)):
        for v, row in enumerate(tab):
            if not row or not all(_plain_int(s) and 0 <= s < sources for s in row):
                raise ValueError("bad %s %d: %r" % (what, v, row))
    return OrderedBratteliDiagram("stationary", (1, k), (root_table, table))


NAMED = {
    "dyadic": dyadic,
    "triadic": triadic,
    "quaternary": quaternary,
    "fibonacci": fibonacci,
}
