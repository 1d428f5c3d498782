"""Independent oracles for the benchmark's answer checks.

Nothing here imports cantorconj.  Diagrams are read only through their
public data fields (kind, tables), and every quantity is recomputed from
scratch with plain integer arithmetic: heights and connecting matrices by
integer matrix products and powers, divisor valuations from gcds of
heights, ladders by replaying their squares, the block condition as strong
connectivity of a block graph, cycles by walking them.
"""

from __future__ import annotations

import math
from itertools import combinations

INF = "inf"

PRIMES_TO_97 = tuple(
    p for p in range(2, 98) if all(p % q for q in range(2, int(p ** 0.5) + 1))
)

# Valuations are read at two depths; growth between them means "infinite".
_SHALLOW, _DEEP = 24, 48


# -- integer matrices ----------------------------------------------------------


def mat_mul(a, b):
    n = len(b)
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(n)) for j in range(len(b[0])))
        for row in a
    )


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_pow(a, e):
    out, base = identity(len(a)), a
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def counts(table, n_sources):
    """Multiplicity matrix of an edge table: rows are targets, columns sources."""
    return tuple(
        tuple(sum(1 for s in row if s == j) for j in range(n_sources)) for row in table
    )


def is_primitive(a):
    """Some power of a is entrywise positive (Wielandt: (n-1)^2 + 1 suffices)."""
    n = len(a)
    p = mat_pow(a, (n - 1) ** 2 + 1)
    return all(x > 0 for row in p for x in row)


def char_discriminant(a):
    """Discriminant of the characteristic polynomial of a 2x2 or 3x3 matrix;
    0 exactly when an eigenvalue is repeated."""
    if len(a) == 2:
        (p, q), (r, s) = a
        return (p + s) ** 2 - 4 * (p * s - q * r)
    tr = a[0][0] + a[1][1] + a[2][2]
    minors = sum(
        a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in ((0, 1), (0, 2), (1, 2))
    )
    det = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    b, c, d = -tr, minors, -det  # t^3 + b t^2 + c t + d
    return 18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3 - 27 * d * d


def rows_of(mat):
    """Ordered source rows of an incidence matrix, sources in increasing order."""
    return tuple(tuple(s for s in range(len(r)) for _ in range(r[s])) for r in mat)


def composed_rows(rows):
    """Rows of the two-step transition: paths ordered by their upper edge first."""
    return tuple(tuple(x for s in row for x in rows[s]) for row in rows)


# -- stationary diagrams -------------------------------------------------------


def _stationary(d):
    if d.kind != "stationary":
        raise ValueError("oracle handles stationary diagrams only")
    root = counts(d.tables[0], 1)
    n = len(d.tables[1])
    return tuple(r[0] for r in root), counts(d.tables[1], n)


def heights(d, m):
    """Tower heights at level m >= 1: A^(m-1) applied to the root counts."""
    h1, a = _stationary(d)
    return mat_vec(mat_pow(a, m - 1), h1)


def connecting(d, m, m2):
    """Connecting matrix from level m >= 1 to level m2."""
    return mat_pow(_stationary(d)[1], m2 - m)


def incidence(d):
    return _stationary(d)[1]


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisor_valuations(d):
    """p -> valuation of the divisor set of the unit, for primes up to 97.

    The divisor set is the set of n dividing every height at some level;
    its p-part is the supremum of v_p(gcd of the heights), a nondecreasing
    sequence in the level.  A valuation still growing between the shallow
    and the deep level is reported as INF.
    """
    out = {}
    g_shallow = math.gcd(*heights(d, _SHALLOW))
    g_deep = math.gcd(*heights(d, _DEEP))
    for p in PRIMES_TO_97:
        lo, hi = _valuation(g_shallow, p), _valuation(g_deep, p)
        out[p] = INF if hi > lo else hi
    return out


# -- ladders -------------------------------------------------------------------


def replay_ladder(a_levels, b_levels, forwards, backwards, da, db):
    """None when every rung preserves the units and every square closes;
    otherwise a reason string."""
    if not (len(forwards) == len(backwards) == len(b_levels) == len(a_levels) - 1):
        return "rung counts do not line up"
    for i, h in enumerate(forwards):
        if any(x < 0 for row in h for x in row):
            return "negative forward entry"
        if mat_vec(h, heights(da, a_levels[i])) != heights(db, b_levels[i]):
            return "forward %d does not carry u_A to u_B" % i
    for i, bm in enumerate(backwards):
        if any(x < 0 for row in bm for x in row):
            return "negative backward entry"
        if mat_vec(bm, heights(db, b_levels[i])) != heights(da, a_levels[i + 1]):
            return "backward %d does not carry u_B to u_A" % i
        if mat_mul(bm, forwards[i]) != connecting(da, a_levels[i], a_levels[i + 1]):
            return "A-side square %d does not close" % i
        if i + 1 < len(forwards):
            if mat_mul(forwards[i + 1], bm) != connecting(db, b_levels[i], b_levels[i + 1]):
                return "B-side square %d does not close" % i
    return None


def replay_ladder_json(blob, da, db):
    freeze = lambda m: tuple(tuple(int(x) for x in row) for row in m)
    return replay_ladder(
        tuple(blob["a_levels"]),
        tuple(blob["b_levels"]),
        tuple(freeze(m) for m in blob["forwards"]),
        tuple(freeze(m) for m in blob["backwards"]),
        da,
        db,
    )


# -- block bijections ----------------------------------------------------------


def block_graph(blocks, images):
    """i -> j when the image of block i meets block j."""
    where = {x: j for j, u in enumerate(blocks) for x in u}
    return [sorted({where[x] for x in v}) for v in images]


def _reach(adj, start):
    seen, stack = {start}, [start]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def block_condition(blocks, images):
    """True iff the block graph is strongly connected.

    A family F has union(F) = union(images of F) exactly when F is closed
    under i -> j (blocks and images pair up with equal sizes), so no
    nonempty proper family is preserved iff every vertex reaches every
    other.
    """
    adj = block_graph(blocks, images)
    k = len(adj)
    rev = [[] for _ in range(k)]
    for i, js in enumerate(adj):
        for j in js:
            rev[j].append(i)
    return len(_reach(adj, 0)) == k and len(_reach(rev, 0)) == k


def is_preserved_family(family, blocks, images):
    """family (block indices) is nonempty, proper, and its union is preserved."""
    f = set(family)
    if not f or len(f) == len(blocks):
        return False
    left = {x for i in f for x in blocks[i]}
    right = {x for i in f for x in images[i]}
    return left == right


def brute_force_least_family(blocks, images):
    """Least (as a sorted index tuple) preserved family, or None; k <= 8."""
    k = len(blocks)
    best = None
    for r in range(1, k):
        for fam in combinations(range(k), r):
            if is_preserved_family(fam, blocks, images) and (best is None or fam < best):
                best = fam
    return best


def cycle_respects_blocks(sigma, blocks, images):
    """None when sigma (sigma[i-1] = image of i) is one cycle through all of
    1..n that sends each block onto its image; otherwise a reason string."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        return "not a permutation of 1..%d" % n
    for u, v in zip(blocks, images):
        if sorted(sigma[x - 1] for x in u) != sorted(v):
            return "block %r is not sent onto %r" % (tuple(u), tuple(v))
    x, length = sigma[0], 1
    while x != 1:
        x = sigma[x - 1]
        length += 1
    if length != n:
        return "cycle through 1 has length %d, not %d" % (length, n)
    return None


# -- numerical semigroups ------------------------------------------------------


def frobenius_threshold(gens):
    """Least N with every integer >= N a nonnegative combination of gens."""
    g = min(gens)
    if g == 1:
        return 1
    reach = [True]
    run, n = 0, 0
    while run < g:
        n += 1
        ok = any(n >= x and reach[n - x] for x in gens)
        reach.append(ok)
        run = run + 1 if ok else 0
    return n - g + 1


# -- verdict tables ------------------------------------------------------------


def asymmetric_pairs(verdicts):
    """Ordered pairs (a, b), a < b, whose verdict differs from that of (b, a)."""
    return sorted(
        (a, b) for (a, b), v in verdicts.items() if a < b and verdicts.get((b, a), v) != v
    )


def irreflexive(verdicts, positive):
    """Names whose self-pair verdict is not the positive one."""
    return sorted(a for (a, b), v in verdicts.items() if a == b and v != positive)
