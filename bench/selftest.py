"""Hand-computed cases for the benchmark's oracles (oracles.py).

    python3 bench/selftest.py

Plain asserts, no test framework; exits non-zero on the first failure.
The diagrams are built here from their edge tables, so the oracles are
checked without cantorconj.
"""

from __future__ import annotations

import random
from collections import namedtuple

import oracles
from oracles import INF

Diagram = namedtuple("Diagram", "kind tables")


def stationary(rows, root=None):
    root = root or tuple((0,) for _ in rows)
    return Diagram("stationary", (tuple(root), tuple(rows)))


def odometer(q):
    return stationary(((0,) * q,), root=((0,) * q,))


def only(vals):
    return {p: v for p, v in vals.items() if v != 0}


def test_heights_and_matrices():
    fib = stationary(((0, 1), (0,)))  # incidence [[1,1],[1,0]]
    assert oracles.heights(fib, 1) == (1, 1)
    assert oracles.heights(fib, 2) == (2, 1)
    assert oracles.heights(fib, 5) == (8, 5)
    assert oracles.heights(odometer(3), 4) == (81,)
    assert oracles.mat_pow(((1, 1), (1, 0)), 10) == ((89, 55), (55, 34))
    assert oracles.connecting(fib, 2, 4) == ((2, 1), (1, 1))
    assert oracles.is_primitive(((0, 1), (1, 1)))
    assert not oracles.is_primitive(((0, 1), (1, 0)))  # a permutation: period 2
    assert not oracles.is_primitive(((1, 0), (1, 1)))  # reducible
    assert oracles.char_discriminant(((1, 1), (1, 0))) == 5  # t^2 - t - 1
    assert oracles.char_discriminant(((2, 0), (0, 2))) == 0
    assert oracles.char_discriminant(((1, 2, 0), (1, 0, 1), (2, 0, 2))) == 0  # t^2 (t - 3)
    assert oracles.char_discriminant(((1, 1, 0), (0, 1, 1), (1, 0, 1))) == -27  # t^3 - 3t^2 + 3t - 2
    assert oracles.rows_of(((1, 1, 0), (0, 1, 1), (2, 2, 2))) == (
        (0, 1), (1, 2), (0, 0, 1, 1, 2, 2))
    # upper edge first: target 0 of the square runs through sources 0 then 1
    assert oracles.composed_rows(((0, 1), (0,))) == ((0, 1, 0), (0, 1))


def test_divisor_valuations():
    assert only(oracles.divisor_valuations(odometer(2))) == {2: INF}
    assert only(oracles.divisor_valuations(odometer(6))) == {2: INF, 3: INF}
    assert only(oracles.divisor_valuations(stationary(((0, 1), (0,))))) == {}
    # heights 3 * 2^m: 3 divides the unit exactly once, 2 without bound
    three_dyadic = stationary(((0, 0),), root=((0, 0, 0),))
    assert only(oracles.divisor_valuations(three_dyadic)) == {2: INF, 3: 1}
    # [[2,2],[1,1]]: heights (1,1), (4,2), (12,6), (36,18): gcds 1, 2, 6, 18
    rank_one = stationary(((0, 0, 1, 1), (0, 1)))
    assert only(oracles.divisor_valuations(rank_one)) == {2: 1, 3: INF}
    assert oracles.divisor_valuations(odometer(2)) == oracles.divisor_valuations(odometer(4))
    assert oracles.divisor_valuations(odometer(2)) != oracles.divisor_valuations(odometer(3))


def test_ladder_replay():
    dy, qu = odometer(2), odometer(4)
    # heights 2, 8 and 4: 2*2 = 4, 2*4 = 8, squares 2*2 = 4 = 2^2 and 4 = 4^1
    good = ((1, 3, 5), (1, 2), (((2,),), ((2,),)), (((2,),), ((2,),)))
    assert oracles.replay_ladder(*good, dy, qu) is None
    bad_unit = ((1, 3, 5), (1, 2), (((3,),), ((2,),)), (((2,),), ((2,),)))
    assert "forward 0" in oracles.replay_ladder(*bad_unit, dy, qu)
    bad_square = ((1, 2, 3), (1, 2), (((2,),), ((2,),)), (((2,),), ((2,),)))
    assert oracles.replay_ladder(*bad_square, dy, qu) is not None
    blob = {"a_levels": [1, 3, 5], "b_levels": [1, 2],
            "forwards": [[[2]], [[2]]], "backwards": [[[2]], [[2]]]}
    assert oracles.replay_ladder_json(blob, dy, qu) is None
    fib = stationary(((0, 1), (0,)))
    eye = ((1, 0), (0, 1))
    assert oracles.replay_ladder((1, 1), (1,), (eye,), (eye,), fib, fib) is None
    swap = ((0, 1), (1, 0))
    assert oracles.replay_ladder((1, 1), (1,), (swap,), (swap,), fib, fib) is None
    assert oracles.replay_ladder((1, 2), (1,), (eye,), (eye,), fib, fib) is not None


def test_block_condition():
    assert oracles.block_condition(((1,), (2,)), ((2,), (1,)))
    assert not oracles.block_condition(((1,), (2,)), ((1,), (2,)))
    assert oracles.brute_force_least_family(((1,), (2,)), ((1,), (2,))) == (0,)
    # blocks {1,2},{3}: images {2,3},{1}; graph 0 -> {0,1}, 1 -> {0}
    assert oracles.block_condition(((1, 2), (3,)), ((2, 3), (1,)))
    # {1},{2},{3,4} with images {2},{1},{3,4}: family {0,1} and {2} are preserved
    blocks, images = ((1,), (2,), (3, 4)), ((2,), (1,), (3, 4))
    assert not oracles.block_condition(blocks, images)
    assert oracles.brute_force_least_family(blocks, images) == (0, 1)
    assert oracles.is_preserved_family((2,), blocks, images)
    assert not oracles.is_preserved_family((0,), blocks, images)
    assert not oracles.is_preserved_family((0, 1, 2), blocks, images)


def test_block_condition_against_subsets():
    rng = random.Random(7)
    checked = 0
    for _ in range(3000):
        k = rng.randint(1, 8)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        n = sum(sizes)
        a, b = list(range(1, n + 1)), list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        blocks, images, pos = [], [], 0
        for s in sizes:
            blocks.append(tuple(sorted(a[pos:pos + s])))
            images.append(tuple(sorted(b[pos:pos + s])))
            pos += s
        brute = oracles.brute_force_least_family(blocks, images) is None
        assert oracles.block_condition(blocks, images) == brute, (blocks, images)
        checked += 1
    assert checked == 3000


def test_cycle_check():
    blocks, images = ((1, 2), (3,)), ((2, 3), (1,))
    assert oracles.cycle_respects_blocks((2, 3, 1), blocks, images) is None
    assert oracles.cycle_respects_blocks((3, 2, 1), blocks, images) is not None  # two cycles
    assert "not sent onto" in oracles.cycle_respects_blocks((2, 1, 3), blocks, images)
    assert "permutation" in oracles.cycle_respects_blocks((2, 2, 1), blocks, images)


def test_frobenius_threshold():
    assert oracles.frobenius_threshold((3, 5)) == 8
    assert oracles.frobenius_threshold((2, 3)) == 2
    assert oracles.frobenius_threshold((6, 10, 15)) == 30
    assert oracles.frobenius_threshold((1, 7)) == 1


def test_verdict_tables():
    v = {("a", "a"): "tau", ("a", "b"): "not", ("b", "a"): "not", ("b", "b"): "tau"}
    assert oracles.asymmetric_pairs(v) == []
    assert oracles.irreflexive(v, "tau") == []
    v["b", "a"] = "unknown"
    v["b", "b"] = "unknown"
    assert oracles.asymmetric_pairs(v) == [("a", "b")]
    assert oracles.irreflexive(v, "tau") == ["b"]


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for f in tests:
        f()
        print("ok", f.__name__)
    print("%d oracle checks passed" % len(tests))
