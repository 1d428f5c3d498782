"""Diagram layer: format, heights, paths, towers, validation."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorconj.bratteli import (
    CELL_CAP,
    MAX_PATH,
    CapabilityError,
    DiagramStructureError,
    DiagramSyntaxError,
    LevelRangeError,
    OrderedBratteliDiagram,
    cells,
    class_of_clopen,
    composed_incidence,
    heights,
    incidence,
    max_path,
    min_path,
    parse_diagram,
    serialize_diagram,
    tower_map,
    tower_stacks,
    validate,
    validate_path,
    vershik_successor,
)
from cantorconj.systems import (
    dyadic,
    fibonacci,
    odometer,
    quaternary,
    stationary_from_rows,
    triadic,
)

from conftest import (
    hierarchy_pool,
    oracle_all_paths,
    oracle_heights,
    oracle_incidence,
    oracle_sorted_tower,
    primitive_2x2_diagrams,
    random_explicit,
    random_stationary,
    time_ceiling,
)

def path_rank(d, path):
    """Number of paths to the same end vertex strictly below, in path
    order: floor minus one, read edge by edge from the heights below."""
    validate_path(d, path)
    rank = 0
    for n, (v, t) in enumerate(path):
        h = heights(d, n)
        rank += sum(h[s] for s in d.table(n)[v][:t])
    return rank


def path_for_floor(d, v, m, floor):
    """The path of tower v at level m whose 1-indexed floor is given: the
    unranking of path_rank, the reference the tower_map test reads fine
    cells through."""
    h_v = heights(d, m)[v]
    if not (1 <= floor <= h_v):
        raise ValueError("floor %d out of range 1..%d" % (floor, h_v))
    rank = floor - 1
    rev = []
    cur = v
    for n in range(m, 0, -1):
        row = d.table(n - 1)[cur]
        h = heights(d, n - 1)
        for t, src in enumerate(row):
            if rank < h[src]:
                rev.append((cur, t))
                cur = src
                break
            rank -= h[src]
    return tuple(reversed(rev))


EXAMPLES = {
    "dyadic": dyadic(),
    "triadic": triadic(),
    "quaternary": quaternary(),
    "fibonacci": fibonacci(),
}


# -- format -------------------------------------------------------------------


def test_round_trip_examples():
    for d in EXAMPLES.values():
        text = serialize_diagram(d)
        again = parse_diagram(text)
        assert again == d
        assert serialize_diagram(again) == text  # bit-exact on canonical form


def test_round_trip_explicit(rng):
    for _ in range(25):
        d = random_explicit(rng)
        assert parse_diagram(serialize_diagram(d)) == d


def test_stationary_from_rows_builds_only_what_obd_v1_parses(rng):
    # each input breaks one rule of parse_diagram: the same rows and root
    # put straight into a diagram serialize to text it rejects, and
    # stationary_from_rows refuses them, naming the row
    rows = ((0, 1), (0,))
    refused = [
        (rows, ((0, 1), (0,)), "root row 0"),  # a root source out of range
        (rows, ((), (0,)), "root row 0"),  # an empty root row
        (rows, ((0,),), "root has 1 rows"),
        (rows, ((0,), (0,), (0,)), "root has 3 rows"),
        (rows, ((True,), (0,)), "root row 0"),
        ((), ((),), "at least one source row"),
        (((0, True), (False,)), ((0,), (0,)), "source row 0"),
        (((0, 1), (False,)), None, "source row 1"),
        (((0, 1), ()), None, "source row 1"),
        (((0, 2), (0,)), None, "source row 0"),
    ]
    for bad_rows, root, named in refused:
        raw = OrderedBratteliDiagram("stationary", (1, len(bad_rows)), (root or ((0,),) * 2, bad_rows))
        with pytest.raises(DiagramStructureError):
            parse_diagram(serialize_diagram(raw))
        with pytest.raises(ValueError, match=named):
            stationary_from_rows(bad_rows, root)
    for _ in range(40):
        drawn = random_stationary(rng)
        d = stationary_from_rows(drawn.tables[1], root=drawn.tables[0])
        assert d == drawn
        assert parse_diagram(serialize_diagram(d)) == d
        plain = stationary_from_rows(drawn.tables[1])
        assert parse_diagram(serialize_diagram(plain)) == plain


def test_odometer_refuses_a_q_that_is_not_a_plain_int():
    # as stationary_from_rows refuses a source that is not a plain int
    for q in (3.0, 2.5, "3", None, True):
        with pytest.raises(ValueError, match="plain int"):
            odometer(q)
    for q in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            odometer(q)
    for q in (2, 3, 7):
        d = odometer(q)
        assert d == stationary_from_rows(((0,) * q,), root=((0,) * q,))
        assert parse_diagram(serialize_diagram(d)) == d


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(DiagramSyntaxError) as err:
        parse_diagram("{not json")
    assert "line 1" in str(err.value)


def test_parse_rejects_structural_defects():
    good = json.loads(serialize_diagram(dyadic()))
    empty = dict(good)
    empty["edges"] = [[[0, 0]], [[]]]
    with pytest.raises(DiagramStructureError, match="empty"):
        parse_diagram(json.dumps(empty))
    dangling = dict(good)
    dangling["edges"] = [[[0, 0]], [[0, 3]]]
    with pytest.raises(DiagramStructureError, match="dangling"):
        parse_diagram(json.dumps(dangling))
    wrong_format = dict(good)
    wrong_format["format"] = "obd-v2"
    with pytest.raises(DiagramStructureError, match="format"):
        parse_diagram(json.dumps(wrong_format))
    bad_root = dict(good)
    bad_root["edges"] = [[[0, 1]], [[0, 0]]]
    with pytest.raises(DiagramStructureError, match="dangling"):
        parse_diagram(json.dumps(bad_root))


def test_explicit_hard_fails_past_last_level(rng):
    d = random_explicit(rng, levels=3)
    with pytest.raises(LevelRangeError):
        heights(d, 4)
    with pytest.raises(LevelRangeError):
        d.table(3)


def test_scan_end_reads_depth_levels_but_not_past_the_last(rng):
    assert dyadic().scan_end(3, 5) == 8
    d = random_explicit(rng, levels=6)
    assert d.max_level() == 6
    assert d.scan_end(1, 2) == 3
    assert d.scan_end(0, 6) == 6
    assert d.scan_end(2, 40) == 6


# -- heights ------------------------------------------------------------------


def test_heights_root_convention():
    for d in EXAMPLES.values():
        assert heights(d, 0) == (1,)


def test_heights_dyadic_doubles():
    assert heights(dyadic(), 5) == (32,)
    assert [heights(dyadic(), m)[0] for m in range(7)] == [2 ** m for m in range(7)]


def test_heights_fibonacci_values():
    want = [(1, 1), (2, 1), (3, 2), (5, 3)]
    got = [heights(fibonacci(), m) for m in range(1, 5)]
    assert got == want
    assert [oracle_heights(fibonacci(), m) for m in range(1, 5)] == want


def test_heights_match_oracle(rng):
    for _ in range(30):
        d = random_stationary(rng)
        for m in range(0, 6):
            assert heights(d, m) == oracle_heights(d, m)
    for _ in range(30):
        d = random_explicit(rng)
        for m in range(0, d.max_level() + 1):
            assert heights(d, m) == oracle_heights(d, m)


def test_heights_keep_only_the_levels_asked_for(rng):
    d = dyadic()
    assert heights(d, 20000) == (2 ** 20000,)
    assert set(d._memo["heights"]) <= {0, 20000}
    for _ in range(10):
        d = random_stationary(rng)
        got = {m: heights(d, m) for m in (12, 3, 7)}
        assert got == {m: oracle_heights(d, m) for m in (12, 3, 7)}
        assert set(d._memo["heights"]) <= {0, 3, 7, 12}


def test_heights_walk_up_the_levels_in_linear_time(rng):
    # each new level extends the deepest kept level below it, found by
    # bisection: an ascending walk costs one transition per level
    d = stationary_from_rows(((0,),))
    with time_ceiling(1):
        for m in range(20001):
            assert heights(d, m) == (1,)
    for _ in range(6):
        d = random_stationary(rng)
        levels = list(range(40))
        rng.shuffle(levels)
        got = {m: heights(d, m) for m in levels}
        fresh = OrderedBratteliDiagram(d.kind, d.vertex_counts, d.tables)
        assert got == {m: heights(fresh, m) for m in range(40)}


def test_heights_refuse_a_negative_source_index():
    # a source index outside the level below is no vertex: heights raise the
    # IndexError of incidence, where a negative one counted from the end
    d = OrderedBratteliDiagram("stationary", (1, 2), (((0,), (0,)), ((0, -1), (0,))))
    assert heights(d, 1) == (1, 1)
    for m in (2, 3, 7):
        with pytest.raises(IndexError, match=r"^transition 1: source index -1 outside 0\.\.1$"):
            heights(d, m)
        assert set(d._memo["heights"]) == {0, 1}
    e = OrderedBratteliDiagram("explicit", (1, 2, 1), (((0,), (0,)), ((1, -2),)))
    with pytest.raises(IndexError, match=r"^transition 1: source index -2 outside 0\.\.1$"):
        heights(e, 2)


def test_heights_of_named_and_pool_systems_are_unchanged(rng):
    # the walk through the kept incidence gives the sums over each edge row
    def row_sums(d, m):
        h = (1,)
        for n in range(m):
            h = tuple(sum(h[s] for s in row) for row in d.table(n))
        return h

    diagrams = [make() for make in (dyadic, triadic, quaternary, fibonacci)]
    diagrams += hierarchy_pool() + list(primitive_2x2_diagrams())
    diagrams += [odometer(q) for q in range(2, 13)]
    for d in diagrams:
        assert [heights(d, m) for m in range(9)] == [row_sums(d, m) for m in range(9)]
    for _ in range(30):
        e = random_explicit(rng, levels=5)
        assert [heights(e, m) for m in range(6)] == [row_sums(e, m) for m in range(6)]


def test_incidence_fibonacci():
    assert incidence(fibonacci(), 1) == ((1, 1), (1, 0))
    assert incidence(fibonacci(), 0) == ((1,), (1,))


def test_composed_incidence_counts_paths(rng):
    d = random_stationary(rng)
    m = composed_incidence(d, 0, 4)
    paths = oracle_all_paths(d, 4)
    for v in range(d.num_vertices(4)):
        assert m[v][0] == sum(1 for p in paths if p[-1][0] == v)


def test_level_pair_data_kept_per_diagram_object(rng):
    # a fresh, equal diagram recomputes; the warm one answers from its memo
    for _ in range(6):
        d = random_stationary(rng, primitive=True)
        fresh = OrderedBratteliDiagram(d.kind, d.vertex_counts, d.tables)
        for m, m2 in ((0, 3), (1, 4), (2, 2)):
            warm = composed_incidence(d, m, m2)
            assert composed_incidence(d, m, m2) is warm
            assert composed_incidence(fresh, m, m2) == warm
            k = d.num_vertices(m)
            ref = [[int(i == j) for j in range(k)] for i in range(k)]
            for n in range(m, m2):
                ref = [[sum(row[t] * ref[t][j] for t in range(len(ref))) for j in range(k)]
                       for row in oracle_incidence(d, n)]
            assert warm == tuple(map(tuple, ref))
        for m, m_fine in ((0, 2), (1, 3), (2, 2)):
            warm = tower_map(d, m, m_fine)
            assert tower_map(d, m, m_fine) is warm
            assert tower_map(fresh, m, m_fine) == warm
            assert tower_map(fresh, m, m_fine) is not warm


def test_equal_diagrams_do_not_share_a_memo():
    a, b = fibonacci(), fibonacci()
    assert a == b and a is not b
    tower_map(a, 1, 3)
    composed_incidence(a, 1, 3)
    assert a._memo and not b._memo
    assert tower_map(b, 1, 3) is not tower_map(a, 1, 3)


def test_tower_map_past_the_cell_cap_raises_every_time():
    d = dyadic()
    top = CELL_CAP.bit_length()  # 2**top > CELL_CAP cells
    for _ in range(2):
        with pytest.raises(CapabilityError):
            tower_map(d, 1, top)


def test_tower_stacks_count_paths_and_pass_the_cell_cap(rng):
    # tower v at the fine level stacks each coarse tower u as many times as
    # there are paths from u to v, and its height is the sum of theirs
    for d in (dyadic(), fibonacci(), random_explicit(rng, levels=5)):
        top = d.max_level() or 5
        for m in range(top + 1):
            for m_fine in range(m, top + 1):
                stacks = tower_stacks(d, m, m_fine)
                comp = composed_incidence(d, m, m_fine)
                h = heights(d, m)
                assert [sum(h[u] for u in stack) for stack in stacks] == list(heights(d, m_fine))
                for v, stack in enumerate(stacks):
                    assert [stack.count(u) for u in range(len(h))] == list(comp[v])
    d = dyadic()
    top = CELL_CAP.bit_length()
    assert tower_stacks(d, top - 2, top) == ((0, 0, 0, 0),)
    with pytest.raises(ValueError):
        tower_stacks(d, 2, 1)


# -- paths and the successor ---------------------------------------------------


def test_dyadic_successor_is_binary_increment():
    d = dyadic()
    p = min_path(d, 0, 3)
    assert p == ((0, 0), (0, 0), (0, 0))
    s = vershik_successor(d, p)
    assert s == ((0, 1), (0, 0), (0, 0))  # least significant digit first
    # full orbit: 2^3 - 1 steps from min to max, then the sentinel
    cur = p
    for _ in range(7):
        cur = vershik_successor(d, cur)
        assert cur is not MAX_PATH
    assert cur == max_path(d, 0, 3)
    assert vershik_successor(d, cur) is MAX_PATH
    # level 0 is one tower of height 1: its one path, the empty one, is maximal
    assert min_path(d, 0, 0) == max_path(d, 0, 0) == ()
    assert vershik_successor(d, ()) is MAX_PATH


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_successor_matches_sorted_enumeration(name):
    d = EXAMPLES[name]
    m = 5 if name != "quaternary" else 3
    for v in range(d.num_vertices(m)):
        tower = oracle_sorted_tower(d, m, v)
        for i, p in enumerate(tower):
            assert path_rank(d, p) == i
            assert path_for_floor(d, v, m, i + 1) == p
            nxt = vershik_successor(d, p)
            if i + 1 < len(tower):
                assert nxt == tower[i + 1]
            else:
                assert nxt is MAX_PATH


def test_successor_matches_sorted_enumeration_random(rng):
    for _ in range(12):
        d = random_stationary(rng)
        m = 4
        for v in range(d.num_vertices(m)):
            tower = oracle_sorted_tower(d, m, v)
            for i, p in enumerate(tower):
                nxt = vershik_successor(d, p)
                assert nxt == (tower[i + 1] if i + 1 < len(tower) else MAX_PATH) or (
                    nxt is MAX_PATH and i + 1 == len(tower)
                )
    for _ in range(12):
        d = random_explicit(rng)
        m = d.max_level()
        for v in range(d.num_vertices(m)):
            tower = oracle_sorted_tower(d, m, v)
            for i, p in enumerate(tower):
                nxt = vershik_successor(d, p)
                if i + 1 < len(tower):
                    assert nxt == tower[i + 1]
                else:
                    assert nxt is MAX_PATH


def test_successor_bijection_nonmax_to_nonmin(rng):
    for d in list(EXAMPLES.values()) + [random_stationary(rng) for _ in range(5)]:
        m = 4
        paths = oracle_all_paths(d, m)
        maxes = {max_path(d, v, m) for v in range(d.num_vertices(m))}
        mins = {min_path(d, v, m) for v in range(d.num_vertices(m))}
        images = [vershik_successor(d, p) for p in paths if p not in maxes]
        assert all(img is not MAX_PATH for img in images)
        assert len(set(images)) == len(images)
        assert set(images) == set(paths) - mins


# -- towers and cells -----------------------------------------------------------


def test_cells_enumeration_and_classes():
    d = dyadic()
    cs = cells(d, 2)
    assert cs == [(0, 1), (0, 2), (0, 3), (0, 4)]
    e = class_of_clopen(d, 2, [(0, 1), (0, 3)])
    assert e.level == 2 and e.vector == (2,)
    with pytest.raises(ValueError):
        class_of_clopen(d, 2, [(0, 5)])
    with pytest.raises(ValueError):
        class_of_clopen(d, 2, [(0, 1), (0, 1)])


def test_tower_map_projection_tracks_floor_increment(rng):
    diagrams = list(EXAMPLES.values()) + [random_stationary(rng) for _ in range(6)]
    for d in diagrams:
        m, m_fine = 2, 4
        proj = tower_map(d, m, m_fine)
        h_coarse = heights(d, m)
        h_fine = heights(d, m_fine)
        bases = {(v, 1) for v in range(len(h_coarse))}
        for (w, j) in proj:
            if j == h_fine[w]:
                continue
            v, k = proj[(w, j)]
            v2, k2 = proj[(w, j + 1)]
            if k < h_coarse[v]:
                # inside the coarse tower: plain floor increment
                assert (v2, k2) == (v, k + 1)
            else:
                # coarse roof resolved to some coarse base
                assert (v2, k2) in bases


def test_tower_map_keys_run_over_the_fine_cells_in_order(rng):
    # verify_conjugator reads the projections tower by tower in this order
    for d in list(EXAMPLES.values()) + [random_explicit(rng, levels=4) for _ in range(4)]:
        for m, m_fine in ((0, 3), (1, 3), (2, 4), (3, 3)):
            if m_fine <= (d.max_level() or m_fine):
                assert list(tower_map(d, m, m_fine)) == cells(d, m_fine)


def test_incidence_is_kept_and_shared_past_the_root(rng):
    for _ in range(4):
        d = random_stationary(rng)
        first = incidence(d, 1)
        assert all(incidence(d, n) is first for n in (2, 3, 17))
        assert incidence(d, 0) is incidence(d, 0) and incidence(d, 0) is not first
        assert [list(r) for r in first] == [list(r) for r in oracle_incidence(d, 5)]
        e = random_explicit(rng, levels=4)
        for n in range(4):
            assert incidence(e, n) is incidence(e, n)
            assert [list(r) for r in incidence(e, n)] == [list(r) for r in oracle_incidence(e, n)]
        with pytest.raises(LevelRangeError):
            incidence(e, 4)


def test_tower_map_fibers_have_path_count_sizes():
    d = fibonacci()
    fiber = {}
    for fine, coarse in tower_map(d, 1, 3).items():
        fiber.setdefault(coarse, 0)
        fiber[coarse] += 1
    m = composed_incidence(d, 1, 3)
    for (v, k), size in fiber.items():
        # every floor of tower v appears once per path from v to some level-3 tower
        assert size == sum(m[w][v] for w in range(len(m)))


def test_tower_map_matches_path_unranking():
    # reference: unrank every fine floor to its path and rank the prefix
    rng = random.Random(41)
    diagrams = dict.fromkeys(
        list(EXAMPLES.values())
        + [odometer(q) for q in range(2, 7)]
        + [random_stationary(rng, primitive=True) for _ in range(4)]
    )
    for d in diagrams:
        ranked = {}  # prefix path -> its cell, shared by every fine level
        m_fine = 0
        while m_fine <= 12 and sum(heights(d, m_fine)) <= CELL_CAP:
            h_fine = heights(d, m_fine)
            paths = {c: path_for_floor(d, c[0], m_fine, c[1]) for c in cells(d, m_fine)}
            for m in range(m_fine + 1):
                proj = tower_map(d, m, m_fine)
                assert list(proj) == cells(d, m_fine)
                for p in paths.values():
                    q = p[:m]
                    if q not in ranked:
                        ranked[q] = (q[-1][0], path_rank(d, q) + 1) if m else (0, 1)
                assert proj == {c: ranked[p[:m]] for c, p in paths.items()}
            m_fine += 1
        if m_fine <= 12:
            # the first level past the cell cap still refuses to enumerate
            with pytest.raises(CapabilityError):
                tower_map(d, 0, m_fine)
            with pytest.raises(CapabilityError):
                tower_map(d, m_fine, m_fine)


# -- validation -----------------------------------------------------------------


def test_validate_dyadic():
    rep = validate(dyadic())
    assert rep.primitive is True and rep.primitivity_level == 1
    assert rep.properly_ordered is True
    assert rep.ok


def test_validate_fibonacci_order_defect():
    rep = validate(fibonacci())
    assert rep.primitive is True
    # no order on this incidence has unique min and max chains at once
    assert rep.properly_ordered is False
    assert rep.ok  # primitivity is the hard requirement


def test_validate_reducible_rejected():
    d = OrderedBratteliDiagram(
        "stationary", (1, 2), (((0,), (0,)), ((0,), (1,)))
    )
    rep = validate(d)
    assert rep.primitive is False
    assert not rep.ok
    assert any("primitive" in s for s in rep.issues)


def test_validate_flags_a_finite_path_space():
    for roots in (1, 2, 3):
        d = OrderedBratteliDiagram("stationary", (1, 1), (((0,) * roots,), ((0,),)))
        rep = validate(d)
        assert rep.primitive is True and rep.finite_path_space
        assert not rep.ok
        assert any("%d points" % roots in s for s in rep.issues)
    # any other primitive incidence has Perron root above 1
    for d in (dyadic(), fibonacci(), odometer(5)):
        rep = validate(d)
        assert rep.ok and not rep.finite_path_space


def test_validate_explicit_reports_positivity_level(rng):
    d = random_explicit(rng, levels=5)
    rep = validate(d)
    if rep.primitive:
        acc = composed_incidence(d, 1, rep.primitivity_level)
        assert all(all(x > 0 for x in row) for row in acc)


def _unrolled(d, levels):
    """The stationary diagram d written out as an explicit one to a level."""
    k = d.num_vertices(1)
    return OrderedBratteliDiagram(
        "explicit", (1,) + (k,) * levels, tuple(d.table(n) for n in range(levels))
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_validate_agrees_with_the_explicit_unrolling(seed):
    d = random_stationary(random.Random(seed), max_vertices=5)
    k = d.num_vertices(1)
    rep = validate(d)
    # one level past the Wielandt bound: the unrolling decides primitivity
    # where it holds, and its chain ends are the eventual images; finitely
    # many levels cannot refute either property, so "not" reads None there
    unrolled = validate(_unrolled(d, (k - 1) ** 2 + 3))
    assert unrolled.primitive is (rep.primitive or None)
    assert unrolled.primitivity_level == rep.primitivity_level
    assert unrolled.properly_ordered is (rep.properly_ordered or None)
    assert unrolled.min_chain_witness == rep.min_chain_witness
    assert unrolled.max_chain_witness == rep.max_chain_witness
    if rep.primitive:
        for m, positive in ((rep.primitivity_level, True), (rep.primitivity_level - 1, False)):
            if m >= 1:
                acc = composed_incidence(d, 1, m)
                assert all(x > 0 for row in acc for x in row) is positive


def test_validate_reaches_the_wielandt_bound():
    # a k-cycle with one chord: primitive, with A^j > 0 first at
    # j = (k - 1)^2 + 1, so composed_incidence(d, 1, m) > 0 first at m = 51
    k = 8
    d = stationary_from_rows(((k - 1,), (0, k - 1)) + tuple((v - 1,) for v in range(2, k)))
    rep = validate(d, depth=1)  # depth bounds explicit diagrams only
    assert rep.primitive is True and rep.primitivity_level == 51
    assert rep.ok


def test_validate_refutes_a_large_period_two_diagram_quickly():
    # a 40-cycle with a 2-cycle on it: irreducible, of period 2, so the
    # scan runs all the way to level 39^2 + 2
    k = 40
    d = stationary_from_rows(((k - 1, 1),) + tuple((v - 1,) for v in range(1, k)))
    with time_ceiling(1):
        rep = validate(d)
    assert rep.primitive is False and rep.primitivity_level is None
    assert any("not primitive" in s for s in rep.issues)


# -- property tests ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 30))
def test_heights_additive_under_cell_split(seed):
    r = random.Random(seed)
    d = random_stationary(r)
    m = 3
    h = heights(d, m)
    full = class_of_clopen(d, m, cells(d, m))
    assert full.vector == h  # the whole space is the order unit


def _outcome(fn, d, *levels):
    try:
        return fn(d, *levels)
    except ValueError as e:  # LevelRangeError among them
        return type(e), str(e)


def test_warm_memo_still_validates_and_matches_fresh_copies():
    # a memo hit skips the level checks: a key is stored only after they
    # passed, so a warm diagram raises what a cold one raises
    rng = random.Random(17)
    row = lambda k: tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
    diagrams = [stationary_from_rows(tuple(row(k) for _ in range(k))) for k in (2, 2, 2, 3, 3, 3)]
    diagrams.append(_unrolled(diagrams[-1], 6))
    good = [(heights, m) for m in range(7)] + [(incidence, n) for n in range(6)]
    good += [(composed_incidence, m, m2) for m in range(7) for m2 in range(m, 7)]
    good += [(tower_stacks, m, m2) for m in range(4) for m2 in range(m, 4)]
    bad = [(heights, -1), (heights, 7), (composed_incidence, 3, 2), (composed_incidence, 2, 7)]
    bad += [(incidence, -1), (tower_stacks, 3, 2), (tower_stacks, 0, 7), (tower_map, 3, 2)]
    for d in diagrams:
        fresh = lambda: OrderedBratteliDiagram(d.kind, d.vertex_counts, d.tables)
        cold = [_outcome(fn, fresh(), *levels) for fn, *levels in bad]
        warm = [fn(d, *levels) for fn, *levels in good]
        assert warm == [fn(fresh(), *levels) for fn, *levels in good]
        assert [_outcome(fn, d, *levels) for fn, *levels in bad] == cold
        assert [fn(d, *levels) for fn, *levels in good] == warm
        assert cold[:3] == [
            (ValueError, "negative level"),
            (
                (LevelRangeError, "explicit diagram has no level 7 (last is 6)")
                if d.kind == "explicit"
                else heights(fresh(), 7)
            ),
            (ValueError, "m2 must be >= m"),
        ]
