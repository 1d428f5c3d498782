"""The ladder search: equation-based enumeration against the row enumeration.

The reference below is the earlier search: every row of h solving
h . u_A = u_B, the product of those row lists in lexicographic order, the
rows of H filtered by H . h = C_A, and the product of the survivors checked
against h . H = C_B.  Its row lists solve the last coordinate instead of
trying every value (the same rows in the same order); nothing else bounds
its work, so it only runs on pairs that have a ladder, under a time ceiling.

`unpruned_ladder_search` is the search without its spectral test: every
cell of the window is visited.  It is the reference for the pruned search,
which must return the same ladder wherever it returns one.
`kronecker_ladder_search` is the search as it was before any rung was
forced: every h solves the Kronecker system of `_forward_system` and every
H that of `_backward_system`.  It is the reference for ladders, counts and
nodes spent.

The enumerator reduces its system over Z; `fraction_lex_solutions` keeps
the same walk over a reduction in Fraction as the reference for it.  That
reduction, `row_reduce` (Gauss-Jordan over a field), is also the reference
for `_solve_lin`, which scales rational systems to integers and reduces
them fraction-free.  `generator_row_reduce_int` is the integer kernel as it
was first written, the reference for the one in use.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from cantorconj import check, classify
from cantorconj.bratteli import OrderedBratteliDiagram, composed_incidence, heights
from cantorconj.check import MAX_LEVEL, LadderReport, _progression
from cantorconj.classify import (
    IntertwiningLadder,
    SearchExhausted,
    _backward_system,
    _RANK_SHORT,
    _forced_solution,
    _forward_system,
    _ladder_search,
    _lex_solutions,
    _NodeBudget,
    _nonzero_charpoly,
    _unflatten,
    decide_k_conjugacy,
    ladder_certificate,
    verify_ladder,
)
from cantorconj.fieldpoly import (
    _mat_apply,
    _mat_mul,
    _row_reduce_int,
    _solve_lin,
    charpoly,
)
from cantorconj.systems import dyadic, fibonacci, odometer, quaternary, stationary_from_rows, triadic

from conftest import _is_primitive, hierarchy_pool, rows_of, time_ceiling
from test_telescoping import composed_rows, p40_rows, telescoping_pairs

NAMED = {"dyadic": dyadic(), "triadic": triadic(), "quaternary": quaternary(), "fibonacci": fibonacci()}


def reference_rows(weights, total):
    """Nonnegative integer rows r with r . weights = total, lexicographic."""
    out = []

    def rec(i, rem, acc):
        if i == len(weights) - 1:
            if rem % weights[i] == 0:
                out.append(tuple(acc + [rem // weights[i]]))
            return
        for v in range(rem // weights[i] + 1):
            rec(i + 1, rem - v * weights[i], acc + [v])

    rec(0, total, [])
    return out


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def reference_ladder(dgA, dgB, max_span=12, max_base=3):
    for span in range(2, max_span + 1):
        for ga in range(1, span):
            gb = span - ga
            for a0 in range(1, max_base + 1):
                for b0 in range(1, max_base + 1):
                    ua0, ub0 = heights(dgA, a0), heights(dgB, b0)
                    ua1 = heights(dgA, a0 + ga)
                    conn_a = composed_incidence(dgA, a0, a0 + ga)
                    conn_b = composed_incidence(dgB, b0, b0 + gb)
                    hrows = [reference_rows(ua0, ub0[i]) for i in range(len(ub0))]
                    pool = [reference_rows(ub0, ua1[w]) for w in range(len(ua1))]
                    for h in itertools.product(*hrows):
                        brows = [
                            [
                                row
                                for row in pool[w]
                                if all(
                                    sum(row[i] * h[i][j] for i in range(len(row)))
                                    == conn_a[w][j]
                                    for j in range(len(ua0))
                                )
                            ]
                            for w in range(len(ua1))
                        ]
                        for bm in itertools.product(*brows):
                            if mat_mul(h, bm) == conn_b:
                                return IntertwiningLadder(
                                    (a0, a0 + ga, a0 + 2 * ga), (b0, b0 + gb), (h, h), (bm, bm)
                                )
    return None


def unpruned_ladder_search(dgA, dgB, max_span, max_base, budget):
    """`classify._ladder_search` without the spectral test: every cell of the
    window is searched; no period pair is skipped."""
    visited = 0
    for span in range(2, max_span + 1):
        for ga in range(1, span):
            gb = span - ga
            visited += 1
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
                                (a0, a0 + ga, a0 + 2 * ga), (b0, b0 + gb), (h, h), (bm, bm)
                            )
                            return ladder, 0, visited
    return None, 0, visited


def kronecker_ladder_search(dgA, dgB, max_span, max_base, budget):
    """`classify._ladder_search` with every forward rung taken from the
    Kronecker system of `_forward_system` and every backward rung from that
    of `_backward_system`, as it was before rungs were forced."""
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


def power_rows(rows, k):
    """Rows of k transitions composed, paths ordered by their upper edge first."""
    out = rows
    for _ in range(k - 1):
        out = tuple(tuple(x for s in row for x in out[s]) for row in rows)
    return out


def is_primitive(mat):
    n = len(mat)
    acc = mat
    for _ in range((n - 1) ** 2):
        acc = mat_mul(acc, mat)
    return all(x > 0 for row in acc for x in row)


def primitive_2x2(top):
    out = []
    for entries in itertools.product(range(top + 1), repeat=4):
        mat = (entries[:2], entries[2:])
        if is_primitive(mat):
            out.append(mat)
    return out


def telescope_style_pairs():
    out = []
    for mat in primitive_2x2(2):
        rows = rows_of(mat)
        a, sq = stationary_from_rows(rows), stationary_from_rows(power_rows(rows, 2))
        out += [(mat, a, sq), ("%s^2" % (mat,), sq, a)]
    for q in (2, 3, 5):
        out.append(("odometer %d/%d" % (q, q * q), odometer(q), odometer(q * q)))
        out.append(("odometer %d/%d" % (q * q, q), odometer(q * q), odometer(q)))
        out.append(("odometer %d/%d" % (q, q ** 3), odometer(q), odometer(q ** 3)))
    return out


def named_pairs():
    return [
        ("%s/%s" % (na, nb), a, b)
        for (na, a), (nb, b) in itertools.product(NAMED.items(), repeat=2)
        if na != nb
    ]


def relabeled_pairs(count, seed):
    """Seeded primitive 2x2 incidences (entries <= 3) against the same
    system with its two vertices swapped, both orders; a swap that gives the
    same incidence back is not drawn."""
    swap = lambda m: ((m[1][1], m[1][0]), (m[0][1], m[0][0]))
    pool = [m for m in primitive_2x2(3) if swap(m) != m]
    out = []
    for mat in random.Random(seed).sample(pool, count):
        swapped = swap(mat)
        a, b = stationary_from_rows(rows_of(mat)), stationary_from_rows(rows_of(swapped))
        out += [("%s/%s" % (mat, swapped), a, b), ("%s/%s" % (swapped, mat), b, a)]
    return out


# ---------------------------------------------------------------------------
# the enumerator


def row_reduce(aug, columns):
    """Gauss-Jordan elimination of the rows `aug` over a field, in place.

    Entries are exact (Fraction).  Pivots are sought in the
    order of `columns`; the pivot columns are returned, row r of aug being
    the reduced pivot row of pivots[r] (pivot entry 1, zero in every other
    pivot column).  Rows past the pivots are zero in every column of
    `columns`.
    """
    m = len(aug)
    pivots = []
    row = 0
    for col in columns:
        if row == m:
            break
        sel = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        # the rows are sparse: only the pivot row's nonzero entries move
        support = [j for j, x in enumerate(aug[row]) if x != 0]
        prow = aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                target = aug[r]
                for j in support:
                    target[j] -= f * prow[j]
        pivots.append(col)
        row += 1
    return pivots


def brute_solutions(rows, rhs, bounds):
    return [
        x
        for x in itertools.product(*[range(b + 1) for b in bounds])
        if all(sum(c * v for c, v in zip(row, x)) == t for row, t in zip(rows, rhs))
    ]


def fraction_lex_solutions(rows, rhs, bounds, budget):
    """`_lex_solutions` with its system reduced over Fraction, each pivot
    row brought back to integers by the lcm of its denominators."""
    n = len(bounds)
    budget.charge()
    aug = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = row_reduce(aug, range(n - 1, -1, -1))
    if any(aug[r][n] != 0 for r in range(len(pivots), len(aug))):
        return
    free = [k for k in range(n) if k not in pivots]
    slot = {k: t for t, k in enumerate(free)}
    checks = [[] for _ in free]
    x = [0] * n
    for r, p in enumerate(pivots):
        row = aug[r]
        terms = [k for k in free if row[k] != 0]
        den = math.lcm(*(row[k].denominator for k in terms), row[n].denominator)
        const = int(row[n] * den)
        if not terms:
            if const % den or not 0 <= const // den <= bounds[p]:
                return
            x[p] = const // den
            continue
        last = max(terms)
        others = tuple((k, int(row[k] * den)) for k in terms if k != last)
        checks[slot[last]].append((p, const, den, int(row[last] * den), others))

    def walk(t):
        if t == len(free):
            yield tuple(x)
            return
        k = free[t]
        lo, hi = 0, bounds[k]
        pending = []
        for p, const, den, coef, others in checks[t]:
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


def seeded_systems():
    """300 small systems, most of them solvable, with bounds up to 4."""
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 5)
        bounds = [rng.randint(0, 4) for _ in range(n)]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        # right-hand sides from a random point, so most systems are solvable
        point = [rng.randint(0, b) for b in bounds]
        rhs = [sum(c * v for c, v in zip(row, point)) for row in rows]
        if rows and rng.random() < 0.2:
            rhs[0] += 1
        yield rows, rhs, bounds


def rung_systems(count, seed):
    """Forward systems of seeded primitive 2x2 and 3x3 incidences (entries
    <= 2) against themselves, their squares or another draw, at base levels
    1..3 and gaps 1..3, and the backward systems of the first four
    solutions h of each; the lists of forward and of backward systems."""
    rng = random.Random(seed)
    pool = primitive_2x2(2) + [
        m
        for m in (
            tuple(tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(3))
            for _ in range(60)
        )
        if is_primitive(m)
    ]
    forwards, backwards = [], []
    while len(forwards) < count:
        mat = rng.choice(pool)
        rows = rows_of(mat)
        a = stationary_from_rows(rows)
        b = rng.choice(
            [a, stationary_from_rows(power_rows(rows, 2)), stationary_from_rows(rows_of(rng.choice(pool)))]
        )
        if rng.random() < 0.5:
            a, b = b, a
        a0, b0, ga, gb = (rng.randint(1, 3) for _ in range(4))
        ua0, ub0, ua1 = heights(a, a0), heights(b, b0), heights(a, a0 + ga)
        conn_a, conn_b = composed_incidence(a, a0, a0 + ga), composed_incidence(b, b0, b0 + gb)
        forward = _forward_system(ua0, ub0, conn_a, conn_b)
        forwards.append(forward)
        for flat in itertools.islice(fraction_lex_solutions(*forward, _NodeBudget(10 ** 6)), 4):
            backwards.append(_backward_system(_unflatten(flat, len(ua0)), ub0, ua1, conn_a, conn_b))
    return forwards, backwards


def assert_same_reduction(rows, rhs, columns):
    """Same pivots as the Fraction reduction, each pivot row primitive with a
    positive pivot and equal to the Fraction row once divided by it, and the
    rows past the pivots zero in `columns`, with the same constants zero."""
    exact = [[Fraction(c) for c in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    integral = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = row_reduce(exact, columns)
    assert _row_reduce_int(integral, columns) == pivots
    for r, p in enumerate(pivots):
        row = integral[r]
        assert row[p] > 0 and math.gcd(*row) == 1
        assert [Fraction(x, row[p]) for x in row] == exact[r]
    for r in range(len(pivots), len(rows)):
        assert all(integral[r][k] == 0 for k in columns)
        assert (integral[r][-1] == 0) == (exact[r][-1] == 0)


def assert_same_search(rows, rhs, bounds, most=None):
    """The integer enumerator yields the Fraction one's first `most`
    solutions, in the same order, for the same nodes of budget."""
    got_budget, want_budget = _NodeBudget(10 ** 6), _NodeBudget(10 ** 6)
    got = list(itertools.islice(_lex_solutions(rows, rhs, bounds, got_budget), most))
    want = list(itertools.islice(fraction_lex_solutions(rows, rhs, bounds, want_budget), most))
    assert got == want, (rows, rhs, bounds)
    assert got_budget.spent == want_budget.spent, (rows, rhs, bounds)
    assert_same_reduction(rows, rhs, range(len(bounds) - 1, -1, -1))
    return got


def test_lex_solutions_match_brute_force():
    nonempty = 0
    for rows, rhs, bounds in seeded_systems():
        got = list(_lex_solutions(rows, rhs, bounds, _NodeBudget(10 ** 6)))
        want = brute_solutions(rows, rhs, bounds)
        assert got == want, (rows, rhs, bounds)
        nonempty += bool(want)
    assert nonempty > 150


def test_lex_solutions_solve_pivots_instead_of_trying_them():
    # one equation x0 + x1 + x2 = 256: the pivot x2 is solved, so the walk
    # visits the root and the values of x0 and x1 only
    budget = _NodeBudget(10 ** 6)
    sols = list(_lex_solutions([[1, 1, 1]], [256], [256] * 3, budget))
    assert len(sols) == 257 * 258 // 2
    assert sols[0] == (0, 0, 256) and sols[-1] == (256, 0, 0)
    assert budget.spent == 1 + 257 + len(sols)


def test_integer_reduction_matches_fraction_reduction():
    for rows, rhs, bounds in seeded_systems():
        assert_same_search(rows, rhs, bounds)


def test_integer_reduction_matches_fraction_reduction_on_rungs():
    forwards, backwards = rung_systems(200, 8)
    solvable = [
        sum(bool(assert_same_search(*system, most=40)) for system in systems)
        for systems in (forwards, backwards)
    ]
    assert len(forwards) == 200 and len(backwards) >= 25
    assert min(solvable) >= 20


def generator_row_reduce_int(aug, columns):
    """`fieldpoly._row_reduce_int` as it was first written: the pivot found
    by a generator, every pivot row divided by its gcd."""
    m = len(aug)
    pivots = []
    row = 0
    for col in columns:
        if row == m:
            break
        sel = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        g = math.gcd(*aug[row])
        if aug[row][col] < 0:
            g = -g
        prow = aug[row] = [x // g for x in aug[row]]
        pv = prow[col]
        for r in range(m):
            f = aug[r][col]
            if r != row and f != 0:
                new = [pv * x - f * y for x, y in zip(aug[r], prow)]
                g = math.gcd(*new)
                aug[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    return pivots


def test_row_reduce_int_matches_the_first_kernel():
    # seeded integer systems of 1..8 rows and columns, over random column
    # subsets in random orders, with negative pivots, zero rows and rows
    # whose gcd is 1 or not
    rng = random.Random(22)
    seen = {"negative pivot": 0, "zero row": 0, "scaled row": 0}
    for _ in range(3000):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        top = rng.choice((1, 3, 9))
        rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(m)]
        for row in rows:
            pick = rng.random()
            if pick < 0.1:
                row[:] = [0] * n
            elif pick < 0.3:
                row[:] = [rng.choice((2, 3, -2)) * x for x in row]
        if m > 1 and rng.random() < 0.3:
            # one row a combination of two others: a rank-deficient system
            c = rng.randint(-2, 2)
            rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1 % (m - 1)])]
        columns = rng.sample(range(n), rng.randint(1, n))
        seen["negative pivot"] += any(row[columns[0]] < 0 for row in rows)
        seen["zero row"] += any(not any(row) for row in rows)
        seen["scaled row"] += any(math.gcd(*row) > 1 for row in rows)
        got, want = [list(row) for row in rows], [list(row) for row in rows]
        assert _row_reduce_int(got, columns) == generator_row_reduce_int(want, columns), rows
        assert got == want, (rows, columns)
    assert min(seen.values()) >= 300, seen


def fraction_solve_lin(vectors, target):
    """`_solve_lin` over Fraction: x[pivot] is the reduced row's constant."""
    ncols = len(vectors)
    aug = [[Fraction(v[i]) for v in vectors] + [Fraction(t)] for i, t in enumerate(target)]
    pivots = row_reduce(aug, range(ncols))
    if any(aug[r][ncols] != 0 for r in range(len(pivots), len(aug))):
        return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return x


def test_solve_lin_matches_fraction_reduction():
    rng = random.Random(10)
    entry = lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))
    kinds = {"solved": 0, "deficient": 0, "inconsistent": 0}
    for _ in range(600):
        unknowns, equations = rng.randint(1, 4), rng.randint(1, 4)
        vectors = [[entry() for _ in range(equations)] for _ in range(unknowns)]
        if unknowns > 1 and rng.random() < 0.3:
            # a rank-deficient system: one vector a combination of the others
            c = entry()
            vectors[-1] = [c * x + y for x, y in zip(vectors[0], vectors[-2])]
        if rng.random() < 0.5:
            weights = [entry() for _ in range(unknowns)]
            target = [sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(equations)]
        else:
            target = [entry() for _ in range(equations)]
        want = fraction_solve_lin(vectors, target)
        assert _solve_lin(vectors, target) == want, (vectors, target)
        if want is None:
            kinds["inconsistent"] += 1
        else:
            matrix = [[Fraction(v[i]) for v in vectors] for i in range(equations)]
            rank = len(row_reduce(matrix, range(unknowns)))
            kinds["solved" if rank == unknowns else "deficient"] += 1
    assert min(kinds.values()) >= 50, kinds


# ---------------------------------------------------------------------------
# the search against the row enumeration


def test_ladder_matches_reference_enumeration():
    compared = 0
    for label, a, b in telescope_style_pairs() + named_pairs() + relabeled_pairs(15, 5):
        with time_ceiling(10):
            res = decide_k_conjugacy(a, b)
        if res.verdict == "not":
            continue  # an obstruction: the search is never entered
        assert res.verdict == "k-conjugate", (label, res.note)
        assert verify_ladder(res.ladder, a, b).ok, label
        with time_ceiling(10):
            want = reference_ladder(a, b)
        assert res.ladder == want, label
        compared += 1
    assert compared == 73 + 2 + 30


def cube_pairs():
    """Every primitive 2x2 incidence with entries <= 2 against its cube, and
    odometer 5 against 125, both orders."""
    pairs = []
    for mat in primitive_2x2(2):
        rows = rows_of(mat)
        a, cube = stationary_from_rows(rows), stationary_from_rows(power_rows(rows, 3))
        pairs += [(mat, a, cube), ("%s^3" % (mat,), cube, a)]
    pairs += [("odometer 125/5", odometer(125), odometer(5)), ("odometer 5/125", odometer(5), odometer(125))]
    return pairs


def test_system_against_its_cube_both_orders():
    pairs = cube_pairs()
    assert len(pairs) == 66
    for label, a, b in pairs:
        start = time.perf_counter()
        with time_ceiling(10):
            res = decide_k_conjugacy(a, b)
        assert time.perf_counter() - start < 2, label
        assert res.verdict == "k-conjugate", (label, res.note)
        assert verify_ladder(res.ladder, a, b).ok, label


def test_distinct_quadratic_fields_end_unknown():
    # trace fields Q(sqrt 2) and Q(sqrt 5): no ladder exists, and the trace
    # comparison gives up, so only the bounded search can end the call
    a = stationary_from_rows(rows_of(((1, 1), (2, 1))))
    b = stationary_from_rows(rows_of(((1, 1), (1, 0))))
    for x, y in ((a, b), (b, a)):
        start = time.perf_counter()
        with time_ceiling(10):
            res = decide_k_conjugacy(x, y)
        assert time.perf_counter() - start < 5
        assert res.verdict == "unknown" and res.ladder is None
        assert res.note == (
            "no ladder with span <= 12 from base levels <= 3 in either order "
            "(0 nodes; spectral test skipped 132 of 132 period pairs)"
        )


def test_exhausted_budget_is_named_in_the_note(monkeypatch):
    monkeypatch.setattr(classify, "LADDER_NODE_BUDGET", 1)
    res = decide_k_conjugacy(dyadic(), quaternary())
    assert res.verdict == "unknown" and res.ladder is None
    assert res.note == "ladder search ran out of LADDER_NODE_BUDGET = 1 nodes after 1 nodes"
    monkeypatch.undo()
    res = decide_k_conjugacy(dyadic(), quaternary())
    assert res.verdict == "k-conjugate"
    assert (res.ladder.a_levels, res.ladder.b_levels) == ((1, 3, 5), (1, 2))


def test_window_without_ladder_names_the_nodes_spent():
    # the note counts the search in both orders
    res = decide_k_conjugacy(dyadic(), quaternary(), max_span=2, max_base=1)
    assert res.verdict == "unknown"
    assert res.note == (
        "no ladder with span <= 2 from base levels <= 1 in either order "
        "(0 nodes; spectral test skipped 2 of 2 period pairs)"
    )
    # transposed incidences, one characteristic polynomial t^2 - t - 3: the
    # period pairs with ga = gb pass the test and are searched in vain,
    # since each order's ladder starts above base level 1
    a = stationary_from_rows(rows_of(((0, 3), (1, 1))))
    b = stationary_from_rows(rows_of(((0, 1), (3, 1))))
    for x, y in ((a, b), (b, a)):
        res = decide_k_conjugacy(x, y, max_base=1)
        assert res.verdict == "unknown"
        assert res.note == (
            "no ladder with span <= 12 from base levels <= 1 in either order "
            "(12 nodes; spectral test skipped 120 of 132 period pairs)"
        )


def test_empty_window_visits_no_period_pair():
    # no base level (max_base < 1) or no span of two levels: no cell, so
    # the spectral test has nothing to skip
    empty = "(0 nodes; spectral test skipped 0 of 0 period pairs)"
    for max_span, max_base in ((12, 0), (12, -1), (12, -5), (1, 3)):
        res = decide_k_conjugacy(dyadic(), quaternary(), max_span, max_base)
        assert res.verdict == "unknown" and res.ladder is None
        assert res.note.endswith(empty), res.note
        budget = _NodeBudget(1)
        assert _ladder_search(dyadic(), quaternary(), max_span, max_base, budget) == (None, 0, 0)
        assert budget.spent == 0


def test_ladder_found_in_one_order_answers_both():
    # b against a has a ladder from base levels (1, 2); a against b would
    # need base level 5 on b's side, past max_base, and is answered by the
    # search from b read backwards
    a = stationary_from_rows(rows_of(((0, 3), (1, 1))))
    b = stationary_from_rows(rows_of(((0, 1), (3, 1))))
    direct = decide_k_conjugacy(b, a)
    assert (direct.ladder.a_levels, direct.ladder.b_levels) == ((1, 5, 9), (2, 6))
    res = decide_k_conjugacy(a, b)
    assert res.verdict == "k-conjugate"
    assert res.ladder == IntertwiningLadder(
        (2, 6, 10), (5, 9), direct.ladder.backwards, direct.ladder.forwards
    )
    assert verify_ladder(res.ladder, a, b).ok
    # the split pair of the old asymmetry: k-conjugate with ladder
    # (1, 7, 13)/(3, 9) in one order, so in the other as well
    big = stationary_from_rows(rows_of(((0, 0, 1), (0, 0, 1), (2, 2, 1))))
    small = stationary_from_rows(rows_of(((0, 2), (2, 1))))
    forward = decide_k_conjugacy(big, small)
    assert (forward.ladder.a_levels, forward.ladder.b_levels) == ((1, 7, 13), (3, 9))
    res = decide_k_conjugacy(small, big)
    assert res.verdict == "k-conjugate"
    assert (res.ladder.a_levels, res.ladder.b_levels) == ((3, 9, 15), (7, 13))
    assert (res.ladder.forwards, res.ladder.backwards) == (
        forward.ladder.backwards, forward.ladder.forwards
    )
    assert verify_ladder(res.ladder, small, big).ok


def singular_incidences(count, seed):
    """Seeded distinct primitive 3x3 incidences with entries 0..2 and
    determinant 0: the only inputs where a forward rung can lack full
    column rank."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        m = tuple(tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(3))
        if m in seen:
            continue
        seen.add(m)
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det == 0 and _is_primitive(rows_of(m), 3):
            out.append(m)
    return out


def rung_pool():
    """Every ordered pair of distinct P40' systems and their squares, the
    telescoping pairs, every ordered pair of the hierarchy pool, and 333
    singular incidences against their squares, both orders."""
    rows = p40_rows()
    systems = [stationary_from_rows(r) for r in rows]
    systems += [stationary_from_rows(composed_rows(r)) for r in rows]
    pairs = list(itertools.permutations(systems, 2)) + telescoping_pairs()
    pairs += list(itertools.product(hierarchy_pool(), repeat=2))
    for mat in singular_incidences(333, 3):
        rows = rows_of(mat)
        a, sq = stationary_from_rows(rows), stationary_from_rows(composed_rows(rows))
        pairs += [(a, sq), (sq, a)]
    return pairs


def test_backward_rung_matches_the_kronecker_system():
    # seeded planted rungs: H and h drawn, C_A = H.h and C_B = h.H, the
    # units from u_A, then one entry of C_A or C_B bumped in some draws;
    # some planted H have a negative entry
    rng = random.Random(23)
    kinds = {"forced": 0, "deficient": 0, "found": 0, "none": 0}
    for _ in range(1500):
        na, nb = rng.randint(1, 3), rng.randint(1, 4)
        h = tuple(tuple(rng.randint(0, 2) for _ in range(na)) for _ in range(nb))
        low = -1 if rng.random() < 0.2 else 0
        bm = tuple(tuple(rng.randint(low, 2) for _ in range(nb)) for _ in range(na))
        ua0 = tuple(rng.randint(1, 4) for _ in range(na))
        ub0 = _mat_apply(h, ua0)
        if 0 in ub0:
            continue
        conn_a = [list(row) for row in _mat_mul(bm, h)]
        conn_b = [list(row) for row in _mat_mul(h, bm)]
        if rng.random() < 0.4:
            bumped = rng.choice((conn_a, conn_b))
            bumped[rng.randrange(len(bumped))][rng.randrange(len(bumped[0]))] += rng.choice((1, 2))
        conn_a, conn_b = tuple(map(tuple, conn_a)), tuple(map(tuple, conn_b))
        ua1 = _mat_apply(conn_a, ua0)
        got_budget, want_budget = _NodeBudget(10 ** 6), _NodeBudget(10 ** 6)
        got = classify._backward_rung(h, ub0, ua1, conn_a, conn_b, got_budget)
        backward = _backward_system(h, ub0, ua1, conn_a, conn_b)
        flat = next(_lex_solutions(*backward, want_budget), None)
        assert got == (None if flat is None else _unflatten(flat, nb)), (h, conn_a, conn_b)
        assert got_budget.spent == want_budget.spent
        rank = len(_row_reduce_int([list(row) for row in h], range(na)))
        kinds["forced" if rank == na else "deficient"] += 1
        kinds["none" if got is None else "found"] += 1
    assert min(kinds.values()) >= 200, kinds


def search_outcome(search, a, b, limit):
    budget = _NodeBudget(limit)
    try:
        return search(a, b, 12, 3, budget), budget.spent
    except SearchExhausted as e:
        return ("exhausted", str(e)), budget.spent


def test_forced_backward_rungs_match_the_kronecker_system(monkeypatch):
    pairs = rung_pool()
    assert len(pairs) == 80 * 79 + 73 + 576 + 2 * 333
    wants = [search_outcome(kronecker_ladder_search, a, b, 20_000) for a, b in pairs]
    calls = {"_backward_rung": 0, "_backward_system": 0, "_forward_rungs": 0, "_forward_system": 0}

    def counted(name):
        inner = getattr(classify, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for name in calls:
        monkeypatch.setattr(classify, name, counted(name))
    found = []
    for (a, b), want in zip(pairs, wants):
        assert search_outcome(_ladder_search, a, b, 20_000) == want
        if isinstance(want[0][0], IntertwiningLadder):
            found.append((a, b, want[1]))
    # both paths run for each rung: forced forward rungs, and the Kronecker
    # system where K_A is singular (equal row sums, singular incidences);
    # forced backward rungs, and the Kronecker system for rank-deficient h
    # on the singular incidences.  Each _forward_rungs call not forced
    # calls _forward_system once.
    assert 0 < calls["_backward_system"] < calls["_backward_rung"], calls
    assert 0 < calls["_forward_system"] < calls["_forward_rungs"], calls
    assert len(found) > 500
    # a budget that runs out midway, or at the last node, runs out at the
    # same node with the same message
    for a, b, spent in found[::8]:
        for limit in (spent // 2, spent - 1):
            want = search_outcome(kronecker_ladder_search, a, b, limit)
            assert want[0][0] == "exhausted"
            assert search_outcome(_ladder_search, a, b, limit) == want


def height_columns(d, a0, g, count):
    """heights(d, a0 + j*g) for j below count."""
    return [heights(d, a0 + j * g) for j in range(count)]


def test_krylov_rung_matches_the_forward_system():
    # every cell of a small window over named and seeded systems, without
    # the spectral test: where K_A is invertible the product K_B.K_A^-1 is
    # a rung, or fails for a fraction, a negative entry or the commutation
    # at the tail column, exactly where the Kronecker system of the cell
    # has that one solution or none, at one node either way
    rng = random.Random(31)
    pool = list(NAMED.values()) + [odometer(3), odometer(9)]
    while len(pool) < 14:
        n = rng.choice((2, 3))
        mat = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n))
        if _is_primitive(rows_of(mat), n):
            pool.append(stationary_from_rows(rows_of(mat)))
    kinds = {"rung": 0, "fraction": 0, "negative": 0, "tail": 0}
    for a, b in itertools.product(pool, repeat=2):
        for a0, ga, b0, gb in itertools.product((1, 2), (1, 2, 3), (1, 2), (1, 2, 3)):
            na = a.num_vertices(a0)
            cols_a, cols_b = height_columns(a, a0, ga, na + 1), height_columns(b, b0, gb, na + 1)
            # [K_A^T | K_B^T] reduced over Q: its right side is (K_B.K_A^-1)^T
            exact = [[Fraction(x) for x in cols_a[j] + cols_b[j]] for j in range(na)]
            if len(row_reduce(exact, range(na))) < na:
                continue
            conn_a, conn_b = composed_incidence(a, a0, a0 + ga), composed_incidence(b, b0, b0 + gb)
            got_budget, want_budget = _NodeBudget(10 ** 6), _NodeBudget(10 ** 6)
            got = tuple(classify._forward_rungs(cols_a, cols_b, conn_a, conn_b, got_budget))
            forward = _forward_system(cols_a[0], cols_b[0], conn_a, conn_b)
            want = tuple(_unflatten(f, na) for f in _lex_solutions(*forward, want_budget))
            assert got == want, (a, b, a0, ga, b0, gb)
            assert got_budget.spent == want_budget.spent == 1
            prod = [x for row in exact for x in row[na:]]
            if got:
                kinds["rung"] += 1
            elif any(x.denominator != 1 for x in prod):
                kinds["fraction"] += 1
            elif any(x < 0 for x in prod):
                kinds["negative"] += 1
            else:
                kinds["tail"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_equal_row_sums_take_the_kronecker_system():
    # heights (1, 1) at level 1 are an eigenvector of an incidence with
    # equal row sums, so its K_A is singular at every cell: those 16
    # telescope ladders come from the fallback, the other 57 are forced
    fallback = []
    for label, a, b in telescope_style_pairs():
        ladder, _, _ = _ladder_search(a, b, 12, 3, _NodeBudget(20_000))
        (a0, a1, _), (b0, b1) = ladder.a_levels, ladder.b_levels
        na = a.num_vertices(a0)
        cols_a, cols_b = height_columns(a, a0, a1 - a0, na), height_columns(b, b0, b1 - b0, na)
        if _forced_solution(cols_a, cols_b) is _RANK_SHORT:
            fallback.append(label)
            mat = composed_incidence(a, 1, 2)
            assert len({sum(row) for row in mat}) == 1, label
    assert len(fallback) == 16
    # a singular A with unequal row sums: heights past level 1 lie in the
    # image of A, so no K_A is invertible, and the split pair's ladder
    # (1, 7, 13)/(3, 9) comes from the Kronecker system
    big = stationary_from_rows(rows_of(((0, 0, 1), (0, 0, 1), (2, 2, 1))))
    small = stationary_from_rows(rows_of(((0, 2), (2, 1))))
    assert all(
        _forced_solution(cols, cols) is _RANK_SHORT
        for cols in (height_columns(big, a0, g, 3) for a0 in (1, 2, 3) for g in range(1, 12))
    )
    want = search_outcome(kronecker_ladder_search, big, small, 20_000)
    assert (want[0][0].a_levels, want[0][0].b_levels) == ((1, 7, 13), (3, 9))
    assert search_outcome(_ladder_search, big, small, 20_000) == want


def test_forced_solution_matches_the_fraction_reduction():
    # seeded M (r x k) and N (r x c), N mostly M.X for a planted X with
    # entries -1..3, sometimes bumped: rank short exactly when M's rank
    # over Q is below k, and otherwise the unique solution over Q exactly
    # when it is a nonnegative integer matrix, else None
    rng = random.Random(29)
    kinds = {"rank short": 0, "solution": 0, "none": 0}
    for _ in range(600):
        r, k, c = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        m = tuple(tuple(rng.randint(-2, 3) for _ in range(k)) for _ in range(r))
        low = -1 if rng.random() < 0.2 else 0
        x = tuple(tuple(rng.randint(low, 3) for _ in range(c)) for _ in range(k))
        n = [list(row) for row in _mat_mul(m, x)]
        if rng.random() < 0.3:
            n[rng.randrange(r)][rng.randrange(c)] += rng.choice((-1, 1, 2))
        exact = [[Fraction(v) for v in mrow + tuple(nrow)] for mrow, nrow in zip(m, n)]
        got = _forced_solution(m, n)
        if len(row_reduce(exact, range(k))) < k:
            assert got is _RANK_SHORT, (m, n)
            kinds["rank short"] += 1
            continue
        want = None
        if not any(v for row in exact[k:] for v in row[k:]):
            sol = [row[k:] for row in exact[:k]]
            if all(v.denominator == 1 and v >= 0 for row in sol for v in row):
                want = tuple(tuple(int(v) for v in row) for row in sol)
        assert got == want, (m, n)
        kinds["none" if got is None else "solution"] += 1
    assert min(kinds.values()) >= 20, kinds


# ---------------------------------------------------------------------------
# the spectral test


def nonzero_part(p):
    """A constant-first polynomial with its factors of t dropped."""
    return p[next(i for i, c in enumerate(p) if c) :]


def test_sylvester_identity_on_seeded_products():
    # t^nb det(tI - H.h) = t^na det(tI - h.H): the two products share their
    # characteristic polynomial once factors of t are dropped
    rng = random.Random(12)
    nilpotent = 0
    for _ in range(400):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        h = tuple(tuple(rng.randint(-3, 3) for _ in range(na)) for _ in range(nb))
        big = tuple(tuple(rng.randint(-3, 3) for _ in range(nb)) for _ in range(na))
        left, right = charpoly(_mat_mul(big, h)), charpoly(_mat_mul(h, big))
        assert len(left) == na + 1 and len(right) == nb + 1
        assert nonzero_part(left) == nonzero_part(right), (h, big)
        nilpotent += nonzero_part(left) == (1,)
    assert nilpotent < 100


def generator_mat_apply(mat, vec):
    """The matrix kernel as it was first written, one generator per row."""
    return tuple(sum(r * x for r, x in zip(row, vec)) for row in mat)


def generator_mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def test_matrix_kernel_matches_the_generator_formulas():
    rng = random.Random(21)
    entries = (
        lambda: rng.randint(-5, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
    )
    # (rows, inner, cols): 1x1, an empty inner dimension (b == ()), no rows,
    # a zero-column b, then seeded shapes
    shapes = [(1, 1, 1), (2, 0, 3), (0, 2, 2), (3, 2, 0), (1, 3, 1)]
    shapes += [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(40)]
    for entry in entries:
        for rows, inner, cols in shapes:
            a = tuple(tuple(entry() for _ in range(inner)) for _ in range(rows))
            b = tuple(tuple(entry() for _ in range(cols)) for _ in range(inner))
            vec = tuple(entry() for _ in range(inner))
            assert _mat_apply(a, vec) == generator_mat_apply(a, vec)
            # callers compare products with tuples, so rows must be tuples too
            product = _mat_mul(a, b)
            assert product == generator_mat_mul(a, b)
            assert type(product) is tuple and all(type(row) is tuple for row in product)


def split_pairs():
    """Singular 3x3 incidences against 2x2 ones whose characteristic
    polynomial is theirs without its factor t, both orders: the spectral
    test must drop that factor to let their ladders through."""
    pairs = []
    for big, small in (
        (((0, 0, 1), (1, 1, 0), (1, 1, 0)), ((1, 1), (1, 0))),
        (((0, 0, 1), (0, 0, 1), (1, 1, 1)), ((0, 1), (2, 1))),
        (((0, 0, 1), (0, 0, 1), (2, 2, 1)), ((0, 2), (2, 1))),
    ):
        a, b = stationary_from_rows(rows_of(big)), stationary_from_rows(rows_of(small))
        pairs += [("%s/%s" % (big, small), a, b), ("%s/%s" % (small, big), b, a)]
    return pairs


def pruning_pools():
    """The telescope pairs, the cube pairs, the split pairs and every ordered
    pair of the hierarchy pool."""
    pool = hierarchy_pool()
    return (
        telescope_style_pairs()
        + cube_pairs()
        + split_pairs()
        + [("pool %d/%d" % (i, j), a, b) for (i, a), (j, b) in itertools.product(enumerate(pool), repeat=2)]
    )


def test_pruned_search_matches_the_unpruned_one(monkeypatch):
    pairs = pruning_pools()
    assert len(pairs) == 73 + 66 + 6 + 576
    with monkeypatch.context() as patch:
        patch.setattr(classify, "_ladder_search", unpruned_ladder_search)
        wants = []
        for label, a, b in pairs:
            with time_ceiling(10):
                wants.append(decide_k_conjugacy(a, b))
    # fresh objects: the first sweep's outcomes are kept on its diagrams
    positive = 0
    for (label, a, b), want in zip(pruning_pools(), wants):
        with time_ceiling(10):
            got = decide_k_conjugacy(a, b)
        assert (got.verdict, got.obstructions) == (want.verdict, want.obstructions), label
        if got.ladder is None:
            continue
        got_cert, want_cert = (
            json.dumps(ladder_certificate(res.ladder, a, b), sort_keys=True) for res in (got, want)
        )
        assert got_cert == want_cert, label
        positive += 1
    # every split pair has a ladder in one order or the other
    assert positive == 73 + 66 + 6 + 72


# ---------------------------------------------------------------------------
# the ladder audit against the one that checked every rung and square


def reference_verify_ladder(ladder, dgA, dgB):
    """The scan verify_ladder runs on any ladder its first period does not
    accept, kept here as the oracle: every rung's shape, sign and unit,
    every level's heights and every square's product, in order."""
    la, lb = ladder.a_levels, ladder.b_levels
    fs, bs = ladder.forwards, ladder.backwards
    if not (len(fs) == len(bs) == len(lb) == len(la) - 1):
        return LadderReport(False, None, "rung counts do not line up")
    if any(x > y for x, y in zip(la, la[1:])) or any(
        x > y for x, y in zip(lb, lb[1:])
    ):
        return LadderReport(False, None, "levels must be nondecreasing")
    if max(itertools.chain(la, lb)) > MAX_LEVEL:
        return LadderReport(False, None, "a level lies past MAX_LEVEL = %d" % MAX_LEVEL)
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
    if not fs:
        return LadderReport(False, None, "ladder has no rungs")
    if la[0] == la[-1] and lb[0] == lb[-1]:
        if dgA != dgB:
            return LadderReport(False, None, "ladder of period zero between different diagrams")
        # only the identity ladder: level 1 on both sides, identity rungs
        if la[0] == 1:
            k = len(heights(dgA, 1))
            eye = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
            if ladder == IntertwiningLadder((1, 1), (1,), (eye,), (eye,)):
                return LadderReport(True)
        return LadderReport(False, None, "ladder of period zero is not the identity ladder")
    if not (
        len(fs) >= 2
        and dgA.kind == dgB.kind == "stationary"
        and fs.count(fs[0]) == len(fs)
        and bs.count(bs[0]) == len(bs)
        and _progression(la)
        and _progression(lb)
    ):
        return LadderReport(False, None, "ladder is not periodic on stationary diagrams")
    return LadderReport(True)


def audit_outcome(audit, ladder, a, b):
    try:
        rep = audit(ladder, a, b)
    except ValueError as e:  # LevelRangeError among them
        return type(e), str(e)
    return rep.ok, rep.index, rep.reason


def found_ladders():
    """(A, B, ladder) for every ladder decide_k_conjugacy returns on the
    telescoping pairs, P40' against its squares both orders, and every
    ordered pair of the hierarchy pool."""
    pairs = telescoping_pairs()
    for rows in p40_rows():
        a, sq = stationary_from_rows(rows), stationary_from_rows(composed_rows(rows))
        pairs += [(a, sq), (sq, a)]
    pairs += list(itertools.product(hierarchy_pool(), repeat=2))
    out = []
    for a, b in pairs:
        with time_ceiling(10):
            res = decide_k_conjugacy(a, b)
        if res.ladder is not None:
            out.append((a, b, res.ladder))
    return out


def moved_integers(ladder):
    """The ladder's JSON with one integer moved by -5, -1, +1 or +2, read
    back, for each integer in turn."""
    blob = ladder.to_json()
    slots = [(key, j) for key in ("a_levels", "b_levels") for j in range(len(blob[key]))]
    slots += [
        (key, m, r, c)
        for key in ("forwards", "backwards")
        for m, mat in enumerate(blob[key])
        for r, row in enumerate(mat)
        for c in range(len(row))
    ]
    for slot in slots:
        for delta in (-5, -1, 1, 2):
            moved = json.loads(json.dumps(blob))
            target = moved[slot[0]]
            for step in slot[1:-1]:
                target = target[step]
            target[slot[-1]] += delta
            yield IntertwiningLadder.from_json(moved)


def reshaped(ladder):
    """The ladder with one rung pair dropped or repeated, one forward rung
    dropped, one rung's last row dropped, one unit moved between two
    entries of a rung's row (which keeps the unit where the heights are
    equal), and with its forwards and backwards swapped."""
    la, lb, fs, bs = ladder.a_levels, ladder.b_levels, ladder.forwards, ladder.backwards
    for i in range(len(fs)):
        yield IntertwiningLadder(
            la[: i + 1] + la[i + 2 :], lb[:i] + lb[i + 1 :], fs[:i] + fs[i + 1 :], bs[:i] + bs[i + 1 :]
        )
        yield IntertwiningLadder(
            la[: i + 1] + la[i:], lb[: i + 1] + lb[i:], fs[: i + 1] + fs[i:], bs[: i + 1] + bs[i:]
        )
        yield IntertwiningLadder(la, lb, fs[:i] + fs[i + 1 :], bs)
    for forward, rungs in ((True, fs), (False, bs)):
        for i, m in enumerate(rungs):
            changed = [m[:-1]]
            for r, row in enumerate(m):
                for c, c2 in itertools.permutations(range(len(row)), 2):
                    if row[c] > 0:
                        moved = list(row)
                        moved[c] -= 1
                        moved[c2] += 1
                        changed.append(m[:r] + (tuple(moved),) + m[r + 1 :])
            for new in changed:
                swapped = rungs[:i] + (new,) + rungs[i + 1 :]
                yield IntertwiningLadder(la, lb, *((swapped, bs) if forward else (fs, swapped)))
    yield IntertwiningLadder(la, lb, bs, fs)


def test_ladder_audit_matches_the_reference():
    found = found_ladders()
    assert len(found) == 73 + 80 + 72
    compared = 0
    reasons = set()
    for k, (a, b, ladder) in enumerate(found):
        wrong = found[(k + 1) % len(found)][1]
        variants = [(ladder, a, b), (ladder, a, wrong), (ladder, b, a)]
        variants += [(v, a, b) for v in itertools.chain(moved_integers(ladder), reshaped(ladder))]
        for v, x, y in variants:
            want = audit_outcome(reference_verify_ladder, v, x, y)
            assert audit_outcome(verify_ladder, v, x, y) == want, (v, want)
            reasons.add(want[-1])
            compared += 1
    assert compared > 30_000
    # every report verify_ladder gives below MAX_LEVEL, and the error of a
    # level moved below the root
    assert reasons == {
        None,
        "rung counts do not line up",
        "levels must be nondecreasing",
        "forward rung has the wrong shape",
        "backward rung has the wrong shape",
        "negative entry",
        "unit not preserved",
        "source-side square does not commute",
        "target-side square does not commute",
        "ladder has no rungs",
        "ladder of period zero between different diagrams",
        "ladder of period zero is not the identity ladder",
        "ladder is not periodic on stationary diagrams",
        "negative level",
    }


def test_periodic_ladder_forms_two_products(monkeypatch):
    a = fibonacci()
    b = stationary_from_rows(composed_rows(a.table(1)))
    ladder = decide_k_conjugacy(a, b).ladder
    (a0, a1, _), (b0, b1) = ladder.a_levels, ladder.b_levels
    calls = {"_mat_mul": [], "_mat_apply": []}
    for name, kept in calls.items():
        monkeypatch.setattr(check, name, counted(getattr(check, name), kept))
    for rungs in (2, 200):
        long = IntertwiningLadder(
            tuple(a0 + j * (a1 - a0) for j in range(rungs + 1)),
            tuple(b0 + j * (b1 - b0) for j in range(rungs)),
            ladder.forwards[:1] * rungs,
            ladder.backwards[:1] * rungs,
        )
        for kept in calls.values():
            kept.clear()
        assert verify_ladder(long, a, b).ok
        # two products and two unit checks, the first period's
        assert {name: len(kept) for name, kept in calls.items()} == {
            "_mat_mul": 2,
            "_mat_apply": 2,
        }, rungs


def counted(inner, kept):
    """inner, noting each call in kept."""

    def call(*args):
        kept.append(1)
        return inner(*args)

    return call


def test_first_period_reads_only_tuples_of_exact_ints():
    # fibonacci against its square; anything but tuples of exact ints is
    # left to the scan, which gives the report it always gave
    a, b = fibonacci(), stationary_from_rows(((0, 1, 0), (0, 1)))
    la, lb = (1, 3, 5), (1, 2)
    holed = ((None, 1), (1, 1))
    # the swap holds the unit at level 1 only, so the scan stops at rung 2
    # before it reads the backward rung, and the first period must too
    for h, index in ((((1, 0), (0, 2)), 0), (((0, 1), (1, 0)), 2)):
        unit_off = IntertwiningLadder(la, lb, (h,) * 2, (holed,) * 2)
        want = LadderReport(False, index, "unit not preserved")
        assert reference_verify_ladder(unit_off, a, b) == want
        assert verify_ladder(unit_off, a, b) == want
    lists = IntertwiningLadder(la, lb, ([[1, 0], [0, 1]],) * 2, ([[2, 1], [1, 1]],) * 2)
    assert verify_ladder(lists, a, b) == reference_verify_ladder(lists, a, b) == LadderReport(True)
    bools = IntertwiningLadder(
        la, lb, (((True, False), (False, True)),) * 2, (((2, 1), (1, 1)),) * 2
    )
    assert reference_verify_ladder(bools, a, b) == LadderReport(True)
    assert verify_ladder(bools, a, b) == LadderReport(True)


def test_first_period_reads_only_regular_stationary_diagrams():
    # one vertex, but two rows in the repeating table: heights have length 1
    # at level 1 and 2 past it, so the first period alone would hold, while
    # the forward rung no longer fits at level 2
    a = OrderedBratteliDiagram("stationary", (1, 1), (((0,),), ((0,), (0,))))
    b = stationary_from_rows(((0,),))
    ladder = IntertwiningLadder((1, 2, 3), (1, 2), (((1,),),) * 2, (((1,), (1,)),) * 2)
    want = LadderReport(False, 2, "forward rung has the wrong shape")
    assert reference_verify_ladder(ladder, a, b) == want
    assert verify_ladder(ladder, a, b) == want
    # a source past the vertices raises in the scan, as it always did
    stray = OrderedBratteliDiagram("stationary", (1, 1), (((0,),), ((0, 1),)))
    for audit in (reference_verify_ladder, verify_ladder):
        with pytest.raises(IndexError):
            audit(IntertwiningLadder((1, 2, 3), (1, 2), (((1,),),) * 2, (((1,),),) * 2), stray, b)
    # no vertex past the root: each forward rung is one empty row, which
    # sends the empty heights to (0,), not (1,)
    empty = OrderedBratteliDiagram("stationary", (1, 0), ((), ()))
    ladder = IntertwiningLadder((1, 2, 3), (1, 2), (((),),) * 2, ((),) * 2)
    want = LadderReport(False, 0, "unit not preserved")
    assert reference_verify_ladder(ladder, empty, b) == want
    assert verify_ladder(ladder, empty, b) == want


def test_first_period_rejects_a_negative_rung():
    # h = A^-1 and H = A^2 on fibonacci hold every unit and square over Z,
    # so only the sign check rejects them
    a = fibonacci()
    ladder = IntertwiningLadder(
        (2, 3, 4), (1, 2), (((0, 1), (1, -1)),) * 2, (((2, 1), (1, 1)),) * 2
    )
    want = LadderReport(False, 0, "negative entry")
    assert reference_verify_ladder(ladder, a, a) == want
    assert verify_ladder(ladder, a, a) == want


def test_ladder_audit_rechecks_a_rung_at_a_new_shape():
    # the backward rung (1) passes at 1 x 1, then comes back where B has two
    # vertices; unchecked there, its unit and square would pass, as the
    # matrix kernels zip rows of unequal length
    d = OrderedBratteliDiagram("explicit", (1, 1, 2), (((0,),), ((0,), (0,))))
    one, column = ((1,),), ((1,), (1,))
    ladder = IntertwiningLadder((1, 1, 1), (1, 2), (one, column), (one, one))
    want = LadderReport(False, 3, "backward rung has the wrong shape")
    assert reference_verify_ladder(ladder, d, d) == want
    assert verify_ladder(ladder, d, d) == want


def test_period_zero_ladders_certify_only_as_the_identity_ladder():
    # members 12-14 of the pool are one vertex with incidence [1] and two
    # root edges, whose heights are 2 at every level, and the all-ones
    # incidence has equal heights at level 1; every ladder below closes
    # its squares, but of period zero only the identity ladder certifies
    pool = hierarchy_pool()
    flat = pool[12]
    assert pool[12] == pool[13] == pool[14] == stationary_from_rows(((0,),), root=((0, 0),))
    ones = stationary_from_rows(((0, 1), (0, 1)))
    one, swap = ((1,),), ((0, 1), (1, 0))
    rejected = LadderReport(False, None, "ladder of period zero is not the identity ladder")
    for d, la, lb, rung in (
        (flat, (1, 1), (2,), one),
        (flat, (2, 2), (2,), one),
        (flat, (1, 1, 1), (1, 1), one),
        (ones, (1, 1), (1,), swap),
    ):
        identity = decide_k_conjugacy(d, d).ladder
        assert identity == check.identity_ladder(d)
        cert = ladder_certificate(identity, d, d)
        assert check.verify_certificate(cert, (d, d)).ok
        ladder = IntertwiningLadder(la, lb, (rung,) * len(lb), (rung,) * len(lb))
        assert reference_verify_ladder(ladder, d, d) == rejected
        assert verify_ladder(ladder, d, d) == rejected
        forged = dict(cert, witness=json.loads(json.dumps(ladder.to_json())))
        assert check.verify_certificate(forged, (d, d)).reason == (
            "ladder rejected: ladder of period zero is not the identity ladder"
        )
