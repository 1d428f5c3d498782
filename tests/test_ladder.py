"""The ladder search: equation-based enumeration against the row enumeration.

The reference below is the earlier search: every row of h solving
h . u_A = u_B, the product of those row lists in lexicographic order, the
rows of H filtered by H . h = C_A, and the product of the survivors checked
against h . H = C_B.  Its row lists solve the last coordinate instead of
trying every value (the same rows in the same order); nothing else bounds
its work, so it only runs on pairs that have a ladder, under a time ceiling.
"""

import itertools
import random
import time

from cantorconj import classify
from cantorconj.bratteli import composed_incidence, heights
from cantorconj.classify import (
    IntertwiningLadder,
    _lex_solutions,
    _NodeBudget,
    decide_k_conjugacy,
    verify_ladder,
)
from cantorconj.systems import dyadic, fibonacci, odometer, quaternary, stationary_from_rows, triadic

from conftest import time_ceiling

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


def rows_of(mat):
    return tuple(tuple(s for s in range(len(r)) for _ in range(r[s])) for r in mat)


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


def brute_solutions(rows, rhs, bounds):
    return [
        x
        for x in itertools.product(*[range(b + 1) for b in bounds])
        if all(sum(c * v for c, v in zip(row, x)) == t for row, t in zip(rows, rhs))
    ]


def test_lex_solutions_match_brute_force():
    rng = random.Random(20)
    nonempty = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        bounds = [rng.randint(0, 4) for _ in range(n)]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        # right-hand sides from a random point, so most systems are solvable
        point = [rng.randint(0, b) for b in bounds]
        rhs = [sum(c * v for c, v in zip(row, point)) for row in rows]
        if rows and rng.random() < 0.2:
            rhs[0] += 1
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


def test_system_against_its_cube_both_orders():
    pairs = []
    for mat in primitive_2x2(2):
        rows = rows_of(mat)
        a, cube = stationary_from_rows(rows), stationary_from_rows(power_rows(rows, 3))
        pairs += [(mat, a, cube), ("%s^3" % (mat,), cube, a)]
    pairs += [("odometer 125/5", odometer(125), odometer(5)), ("odometer 5/125", odometer(5), odometer(125))]
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


def test_exhausted_budget_is_named_in_the_note(monkeypatch):
    monkeypatch.setattr(classify, "LADDER_NODE_BUDGET", 3)
    res = decide_k_conjugacy(dyadic(), quaternary())
    assert res.verdict == "unknown" and res.ladder is None
    assert res.note == "ladder search ran out of LADDER_NODE_BUDGET = 3 nodes after 3 nodes"
    monkeypatch.undo()
    res = decide_k_conjugacy(dyadic(), quaternary())
    assert res.verdict == "k-conjugate"
    assert (res.ladder.a_levels, res.ladder.b_levels) == ((1, 3, 5), (1, 2))


def test_window_without_ladder_names_the_nodes_spent():
    res = decide_k_conjugacy(dyadic(), quaternary(), max_span=2, max_base=1)
    assert res.verdict == "unknown"
    assert res.note.startswith("no ladder with span <= 2 from base levels <= 1 (")
    assert res.note.endswith(" nodes)")
