"""Block-cycle combinatorics and full-group conjugator synthesis."""

import hashlib
import itertools
import json
import random

import pytest

from cantorconj import classify, dimgroup, fullgroup
from cantorconj.bratteli import OrderedBratteliDiagram, cells, heights, tower_map, tower_stacks
from cantorconj.check import (
    AUDIT_LOOKAHEAD,
    ConjugacyReport,
    FullGroupElement,
    verify_certificate,
    verify_conjugator,
)
from cantorconj.classify import (
    StageError,
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    ladder_certificate,
)
from cantorconj.fullgroup import (
    BlockBijection,
    BlockConditionResult,
    BlockConditionViolation,
    ConjugatorError,
    check_block_condition,
    conjugator_from_partition,
    cyclic_from_blocks,
)
from cantorconj.systems import dyadic, fibonacci, quaternary, stationary_from_rows

from conftest import primitive_2x2_diagrams, rows_of, time_ceiling

DYADIC = dyadic()
QUATERNARY = quaternary()
FIB = fibonacci()


# ---------------------------------------------------------------------------
# oracles


def lifted(s, level):
    """s read at a finer level: each tower's displacements are those of the
    towers of s.level it stacks, concatenated.  It acts as s does, so its
    audit is the audit of s that looks level - s.level further ahead."""
    rows = (itertools.chain.from_iterable(map(s.tables.__getitem__, stack))
            for stack in tower_stacks(s.diagram, s.level, level))
    return FullGroupElement(s.diagram, level, tuple(map(tuple, rows)))


def is_single_cycle(sigma):
    n = len(sigma)
    seen = 1
    x = sigma[0]
    while x != 1:
        x = sigma[x - 1]
        seen += 1
        if seen > n:
            return False
    return seen == n


def respects(sigma, b):
    for U, V in zip(b.blocks, b.images):
        for i in U:
            if sigma[i - 1] not in V:
                return False
    return True


def brute_force_has_cycle(b):
    # enumerate every block-respecting permutation and look for an N-cycle
    choices = [
        [list(zip(sorted(U), perm)) for perm in itertools.permutations(sorted(V))]
        for U, V in zip(b.blocks, b.images)
    ]
    for combo in itertools.product(*choices):
        sigma = [0] * b.size
        for pairs in combo:
            for i, j in pairs:
                sigma[i - 1] = j
        if is_single_cycle(tuple(sigma)):
            return True
    return False


def subset_enumeration_reference(b):
    # every nonempty proper subfamily whose union the bijection preserves,
    # as index tuples
    k = len(b.blocks)
    return [
        fam
        for r in range(1, k)
        for fam in itertools.combinations(range(k), r)
        if {x for i in fam for x in b.blocks[i]} == {x for i in fam for x in b.images[i]}
    ]


def closure_of_first_block(b):
    # the blocks reached from the block holding element 1 along "the image
    # of block i meets block j", by a plain graph search, as an index tuple
    block_of = {x: i for i, u in enumerate(b.blocks) for x in u}
    seen = {block_of[1]}
    stack = list(seen)
    while stack:
        for x in b.images[stack.pop()]:
            if block_of[x] not in seen:
                seen.add(block_of[x])
                stack.append(block_of[x])
    return tuple(sorted(seen))


def grouped_block_bijection(rng, n, k):
    # blocks of random sizes; images reshuffle the elements of random groups
    # of blocks among themselves, so each group's union is preserved
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    blocks = [tuple(elems[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    group = [rng.randrange(rng.randint(1, 3)) for _ in range(k)]
    images = [None] * k
    for g in set(group):
        members = [i for i in range(k) if group[i] == g]
        pool = [x for i in members for x in blocks[i]]
        rng.shuffle(pool)
        for i in members:
            images[i], pool = tuple(pool[: len(blocks[i])]), pool[len(blocks[i]):]
    return BlockBijection(n, tuple(blocks), tuple(images))


def random_block_bijection(rng, n):
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    nblocks = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), nblocks - 1)) if nblocks > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    blocks = []
    pos = 0
    for s in sizes:
        blocks.append(tuple(sorted(elems[pos:pos + s])))
        pos += s
    rng.shuffle(elems)
    images = []
    pos = 0
    for s in sizes:
        images.append(tuple(sorted(elems[pos:pos + s])))
        pos += s
    return BlockBijection(n, tuple(blocks), tuple(images))


def simulate_conjugation(elem, block_level, blocks, images, lookahead):
    # independent replay of the induced cell maps, written from scratch
    d = elem.diagram
    mf = elem.level + lookahead
    hf = heights(d, mf)
    fine = cells(d, mf)
    proj_s = tower_map(d, elem.level, mf)
    proj_p = tower_map(d, block_level, mf)
    where = {}
    for bi, U in enumerate(blocks):
        for c in U:
            where[c] = bi
    img_where = {}
    for bi, V in enumerate(images):
        for c in V:
            img_where[c] = bi
    sig = {}
    for (v, j) in fine:
        w, k = proj_s[(v, j)]
        t = j + elem.tables[w][k - 1]
        sig[(v, j)] = (v, t) if 1 <= t <= hf[v] else None
    inv = {}
    for c, t in sig.items():
        if t is not None:
            if t in inv:
                return "collision"
            inv[t] = c
    bad = 0
    unresolved = 0
    for c in fine:
        y = inv.get(c)
        z = None if y is None else ((y[0], y[1] + 1) if y[1] < hf[y[0]] else None)
        t = None if z is None else sig.get(z)
        if t is None:
            unresolved += 1
            continue
        if img_where[proj_p[t]] != where[proj_p[c]]:
            bad += 1
    if bad:
        return "violation"
    return "ok" if unresolved <= len(hf) else "inconclusive"


# ---------------------------------------------------------------------------
# block condition


def test_block_condition_swap_ok():
    b = BlockBijection(4, ((1, 2), (3, 4)), ((3, 4), (1, 2)))
    assert check_block_condition(b).ok


def test_block_condition_identity_violates():
    b = BlockBijection(4, ((1, 2), (3, 4)), ((1, 2), (3, 4)))
    res = check_block_condition(b)
    assert not res.ok
    assert res.violation == ((1, 2),)


def test_block_condition_single_block_vacuous():
    b = BlockBijection(3, ((1, 2, 3),), ((1, 2, 3),))
    assert check_block_condition(b).ok


def test_block_condition_accepts_wide_partitions():
    # the 21-cycle on singletons: one block graph cycle through every block
    n = 21
    blocks = tuple((i,) for i in range(1, n + 1))
    images = tuple((i % n + 1,) for i in range(1, n + 1))
    assert check_block_condition(BlockBijection(n, blocks, images)).ok


def wide_planted_bijection(components):
    # block i holds two consecutive elements; inside each component the
    # images shift the concatenated elements by one, which links every block
    # of the component to the next one and the last back to the first
    k = sum(len(c) for c in components)
    blocks = [(2 * i + 1, 2 * i + 2) for i in range(k)]
    images = [None] * k
    for comp in components:
        flat = [x for i in comp for x in blocks[i]]
        flat = flat[1:] + flat[:1]
        for t, i in enumerate(comp):
            images[i] = tuple(flat[2 * t: 2 * t + 2])
    return BlockBijection(2 * k, tuple(blocks), tuple(images))


def assert_planted_family(k):
    # components (0, k - 50), (1, 2, 3) and the rest; the violation is the
    # component holding element 1, that is, blocks 0 and k - 50
    c0 = [0, k - 50]
    c1 = [1, 2, 3]
    c2 = [i for i in range(k) if i not in c0 + c1]
    b = wide_planted_bijection([c0, c1, c2])
    res = check_block_condition(b)
    assert not res.ok
    assert res.violation == tuple(b.blocks[i] for i in c0)
    with pytest.raises(BlockConditionViolation) as e:
        cyclic_from_blocks(b)
    assert e.value.violation == res.violation
    joined = wide_planted_bijection([list(range(k))])
    assert check_block_condition(joined).ok
    sigma = cyclic_from_blocks(joined)
    assert is_single_cycle(sigma) and respects(sigma, joined)
    return str(e.value)


def test_block_condition_wide_planted_family():
    assert_planted_family(200)


def test_block_condition_wide_planted_family_at_width_2000():
    # the splices are bounded work: width 20,000 is decided at once
    with time_ceiling(5):
        text = assert_planted_family(2000)
        assert_planted_family(20000)
    assert text == "block condition fails on the subfamily {(1, 2), (3901, 3902)}"


def enumerated_bijections():
    # 400 seeded bijections of 1..10 blocks, small enough to enumerate
    rng = random.Random(2024)
    for t in range(400):
        k = rng.randint(1, 10)
        n = rng.randint(k, 14)
        if t % 2:
            yield random_block_bijection(rng, n)
        else:
            yield grouped_block_bijection(rng, n, k)


def test_block_condition_matches_subset_enumeration():
    violated = 0
    for b in enumerated_bijections():
        res = check_block_condition(b)
        preserved = subset_enumeration_reference(b)
        assert res.ok == (not preserved)
        if preserved:
            closure = closure_of_first_block(b)
            assert closure in preserved
            assert res.violation == tuple(b.blocks[i] for i in closure)
        violated += not res.ok
    assert violated > 100


def test_block_condition_names_the_family_holding_element_1():
    # two independent fixed unions; the one holding element 1 is named
    b = BlockBijection(4, ((1,), (2,), (3, 4)), ((2,), (1,), (3, 4)))
    res = check_block_condition(b)
    assert res.violation == ((1,), (2,))


def test_block_bijection_validation():
    cases = [
        ((3, ((1, 2), (2, 3)), ((1, 2), (3,))), "blocks do not partition 1..3"),  # overlap
        ((3, ((1, 2),), ((1, 2, 3),)), "blocks do not partition 1..3"),  # 3 missing
        ((3, ((1, 2), (4,)), ((1, 2), (3,))), "blocks do not partition 1..3"),  # 4 out of range
        ((3, ((1,), (2, 3)), ((1, 2), (2,))), "images do not partition 1..3"),  # overlap
        ((3, ((1, 2), (3,)), ((0, 1, 2),)), "images do not partition 1..3"),  # 0 out of range
        ((3, ((1, 2), (3,)), ((1, 2, 3),)), "partitions have different block counts"),
        ((3, ((1, 2), (3,)), ((1,), (2, 3))), "block (1, 2) and its image (1,) have different sizes"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as e:
            BlockBijection(*args)
        assert str(e.value) == message, args
    # the blocks are checked before the images, the images before the counts
    with pytest.raises(ValueError, match="^blocks do not"):
        BlockBijection(2, ((1,), (1,)), ((3,),))


def test_block_bijection_rejects_empty_blocks_and_sizes_below_one():
    # each passes the partition checks, which run first
    cases = [
        ((0, (), ()), "size 0 is not positive"),
        ((-2, (), ()), "size -2 is not positive"),
        ((3, ((1, 2), (), (3,)), ((2, 3), (), (1,))), "block 1 is empty"),
        ((1, ((), (1,)), ((), (1,))), "block 0 is empty"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as e:
            BlockBijection(*args)
        assert str(e.value) == message, args
    with pytest.raises(ValueError, match="^blocks do not"):
        BlockBijection(0, ((1,),), ((1,),))
    with pytest.raises(ValueError, match="^partitions have different"):
        BlockBijection(1, ((1,), ()), ((1,),))


def test_block_condition_matches_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 6)
        b = random_block_bijection(rng, n)
        ok = check_block_condition(b).ok
        assert ok == brute_force_has_cycle(b)


# ---------------------------------------------------------------------------
# cyclic_from_blocks


def test_cyclic_swap_blocks():
    b = BlockBijection(4, ((1, 2), (3, 4)), ((3, 4), (1, 2)))
    sigma = cyclic_from_blocks(b)
    assert sigma == (4, 3, 1, 2)
    assert is_single_cycle(sigma) and respects(sigma, b)


def test_cyclic_two_singletons():
    b = BlockBijection(2, ((1,), (2,)), ((2,), (1,)))
    assert cyclic_from_blocks(b) == (2, 1)


def test_cyclic_trivial():
    b = BlockBijection(1, ((1,),), ((1,),))
    assert cyclic_from_blocks(b) == (1,)


def test_cyclic_raises_with_witness():
    b = BlockBijection(4, ((1, 2), (3, 4)), ((1, 2), (3, 4)))
    with pytest.raises(BlockConditionViolation) as e:
        cyclic_from_blocks(b)
    assert e.value.violation == ((1, 2),)


def test_cyclic_valid_on_random_instances():
    rng = random.Random(7)
    produced = violated = 0
    while min(produced, violated) < 80:
        b = random_block_bijection(rng, rng.randint(1, 7))
        cond = check_block_condition(b)
        if not cond.ok:
            with pytest.raises(BlockConditionViolation) as e:
                cyclic_from_blocks(b)
            assert e.value.violation == cond.violation
            violated += 1
            continue
        sigma = cyclic_from_blocks(b)
        assert is_single_cycle(sigma) and respects(sigma, b)
        produced += 1


# ---------------------------------------------------------------------------
# the block layer pinned to an earlier implementation
#
# reference_check_block_condition and reference_cyclic_from_blocks are the
# block layer as it stood before reach sets were shared and before
# cyclic_from_blocks decided the condition ahead of splicing (renamed, bodies
# unchanged but for the witness, which is now the closure of the block
# holding element 1).  Their results feed the synthesis tables and
# certificate bytes, so the current functions must agree with them exactly.


def reference_check_block_condition(b: BlockBijection) -> BlockConditionResult:
    """Does some block-respecting permutation act as a single cycle?

    Equivalent criterion: no nonempty proper subfamily F of the blocks
    satisfies union(F) = union(images of F).  Sufficiency is witnessed
    constructively by cyclic_from_blocks; necessity is immediate, since a
    preserved union confines every respecting permutation.

    Since each block and its image have the same size, union(F) equals
    union(images of F) exactly when F is closed under the relation
    i -> j, "images[i] meets blocks[j]": closure puts the images of F inside
    union(F), and equal sizes make the inclusion an equality.  So the
    condition holds iff this block graph is strongly connected, which one
    forward and one reverse search from block 0 decide.

    On failure the witness is the closure of the block holding element 1,
    listed as blocks.
    """
    k = len(b.blocks)
    if k <= 1:
        return BlockConditionResult(True)
    block_of = [0] * (b.size + 1)
    for i, u in enumerate(b.blocks):
        for x in u:
            block_of[x] = i
    adj = [0] * k
    radj = [0] * k
    for i, v in enumerate(b.images):
        for x in v:
            j = block_of[x]
            adj[i] |= 1 << j
            radj[j] |= 1 << i
    full = (1 << k) - 1
    if _reference_reach(adj, 1) == full and _reference_reach(radj, 1) == full:
        return BlockConditionResult(True)
    offending = tuple(b.blocks[i] for i in closure_of_first_block(b))
    return BlockConditionResult(False, offending)


def _reference_reach(adj, start: int) -> int:
    """Bitmask of the vertices reachable from the bitmask start along adj."""
    seen = frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def reference_cyclic_from_blocks(b: BlockBijection) -> tuple:
    """A single size-cycle sending each block onto its image, as a tuple
    sigma with sigma[i-1] the image of i.

    Start from the order-respecting assignment inside each block, then merge
    cycles: as long as the element 1 does not exhaust its cycle C, swapping
    the images of the earliest pair a block splits between C and the rest
    splices two cycles into one.  Deterministic: blocks are scanned in index
    order and the smallest straddling elements are used.  The merging
    stalls, with no block straddling C, exactly when the block condition
    fails: C is then a preserved union of blocks, and a preserved union
    confines every splice.  The violation raised is check_block_condition's.
    """
    n = b.size
    sigma = [0] * (n + 1)
    for u, v in zip(b.blocks, b.images):
        for i, j in zip(u, v):
            sigma[i] = j
    cyc, x = set(), 1
    while x not in cyc:
        cyc.add(x)
        x = sigma[x]
    while len(cyc) < n:
        for u in b.blocks:
            # blocks are sorted, so these are the least straddling elements
            inner = [x for x in u if x in cyc]
            if 0 < len(inner) < len(u):
                i = inner[0]
                j = next(x for x in u if x not in cyc)
                break
        else:
            raise BlockConditionViolation(reference_check_block_condition(b).violation)
        # the splice merges the cycle D through j into C, so the cycle of 1
        # becomes C | D and strictly grows
        x = j
        while x not in cyc:
            cyc.add(x)
            x = sigma[x]
        sigma[i], sigma[j] = sigma[j], sigma[i]
    return tuple(sigma[1:])


def block_layer_outcome(check, cyclic, b):
    res = check(b)
    try:
        built = ("cycle", cyclic(b))
    except BlockConditionViolation as e:
        built = ("raised", e.violation)
    return res.ok, res.violation, built


def bench_style_bijection(rng, k):
    # k blocks of sizes 1..3; the images reshuffle either all elements or
    # those of two complementary groups of blocks among themselves
    sizes = [rng.randint(1, 3) for _ in range(k)]
    n = sum(sizes)
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    cuts = list(itertools.accumulate(sizes))
    blocks = [tuple(elems[a:b]) for a, b in zip([0] + cuts, cuts)]
    order = list(range(k))
    rng.shuffle(order)
    cut = rng.choice([0, rng.randint(1, k - 1)])
    images = [None] * k
    for g in (order[:cut], order[cut:]):
        pool = [x for i in g for x in blocks[i]]
        rng.shuffle(pool)
        for i in g:
            images[i], pool = tuple(pool[: sizes[i]]), pool[sizes[i]:]
    return BlockBijection(n, tuple(blocks), tuple(images))


def near_identity_bijection(rng, n):
    # a random partition of 1..n; the images apply a few transpositions
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    blocks = [tuple(elems[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    pi = list(range(n + 1))
    for _ in range(rng.randint(0, n // 2)):
        x, y = rng.randint(1, n), rng.randint(1, n)
        pi[x], pi[y] = pi[y], pi[x]
    images = [tuple(pi[x] for x in u) for u in blocks]
    return BlockBijection(n, tuple(blocks), tuple(images))


def planted_components(rng, k):
    order = list(range(k))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, k), rng.randint(0, 3)))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [k])]


def test_block_layer_matches_the_pinned_reference():
    rng = random.Random(20)
    instances = [bench_style_bijection(rng, rng.randint(10, 20)) for _ in range(600)]
    instances += [near_identity_bijection(rng, rng.randint(1, 60)) for _ in range(400)]
    for k in (50, 300):
        instances += [wide_planted_bijection(planted_components(rng, k)) for _ in range(6)]
    kinds = set()
    for b in instances:
        expected = block_layer_outcome(
            reference_check_block_condition, reference_cyclic_from_blocks, b
        )
        assert block_layer_outcome(check_block_condition, cyclic_from_blocks, b) == expected, b
        kinds.add((len(b.blocks) >= 50, expected[0]))
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


def seeded_block_bijection(rng, k, planted):
    """The construction of the resolution workload's block bijections: k
    blocks of sizes 1..3 over 1..n, each sorted; the images reshuffle all
    elements, or, when planted, those of a random nonempty proper family
    and of its complement among themselves (not redrawn either way)."""
    sizes = [rng.randint(1, 3) for _ in range(k)]
    n = sum(sizes)
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(tuple(sorted(elems[pos:pos + s])))
        pos += s
    groups = [list(range(k))]
    if planted:
        order = list(range(k))
        rng.shuffle(order)
        cut = rng.randint(1, k - 1)
        groups = [order[:cut], order[cut:]]
    images = [None] * k
    for g in groups:
        pool = [x for i in g for x in blocks[i]]
        rng.shuffle(pool)
        pos = 0
        for i in g:
            images[i] = tuple(sorted(pool[pos:pos + sizes[i]]))
            pos += sizes[i]
    return BlockBijection(n, tuple(blocks), tuple(images))


def pinned_bijections():
    # 400 seeded bijections of 1..20 blocks, half of them with a planted
    # preserved family
    rng = random.Random(40)
    for i in range(400):
        k = rng.randint(1, 20)
        yield seeded_block_bijection(rng, k, planted=i % 2 == 1 and k >= 2)


def test_block_layer_and_certificate_arity_are_pinned():
    # check_block_condition and cyclic_from_blocks (the cycle or the
    # violation raised) on the pinned bijections, hashed in order
    records = []
    for b in pinned_bijections():
        records.append([b.size, b.blocks, b.images, block_layer_outcome(
            check_block_condition, cyclic_from_blocks, b
        )])
    assert sum(not r[3][0] for r in records) == 236
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "e44185ccbaeeee94bb517da576c95c40b3eaa514ee33f2d71a2af5275ef22c77"
    # the number of systems a certificate binds, checked once per known claim
    ladder = ladder_certificate(decide_k_conjugacy(DYADIC, QUATERNARY).ladder, DYADIC, QUATERNARY)
    ladder["systems"] = ladder["systems"][:1]
    assert verify_certificate(ladder, (DYADIC,)).reason == "claim needs exactly two systems"
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    cert = conjugator_certificate(
        bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
    )
    doubled = dict(cert, systems=cert["systems"] * 2)
    assert verify_certificate(doubled, (QUATERNARY, QUATERNARY)).reason == (
        "claim needs exactly one system"
    )
    orbit = dict(cert, claim="orbit", verifier=None)
    assert verify_certificate(orbit, (QUATERNARY,)).reason == "unknown claim 'orbit'"


def has_preserved_family(b):
    """Subset enumeration, met in the middle: is some nonempty proper family
    of blocks preserved?  A family is preserved when the sum over it of
    (indicator of the block) - (indicator of its image) vanishes; indicators
    are read in base 4, where such a sum has digits -1, 0 and 1 and so is
    zero only when every digit is.  Every family is a family of the first
    half joined with one of the second."""
    diffs = [sum(4 ** x for x in u) - sum(4 ** x for x in v) for u, v in zip(b.blocks, b.images)]
    half = len(diffs) // 2

    def subset_sums(part):
        sums = [0]  # sums[mask], mask over part
        for y in part:
            sums += [s + y for s in sums]
        return sums

    low = {}
    for mask, s in enumerate(subset_sums(diffs[:half])):
        low.setdefault(s, []).append(mask)
    full = (1 << len(diffs)) - 1
    return any(
        0 < lo | hi << half < full
        for hi, s in enumerate(subset_sums(diffs[half:]))
        for lo in low.get(-s, ())
    )


def assert_preserved_violation(b, violation):
    # a nonempty proper family of blocks whose union equals that of its images
    family = [b.blocks.index(tuple(u)) for u in violation]
    assert 0 < len(set(family)) == len(family) < len(b.blocks)
    assert {x for u in violation for x in u} == {x for i in family for x in b.images[i]}


def tower_bijection(d, m, blocks, images, level, w):
    # the block bijection the synthesis builds on tower w of level: floor j
    # lies in the block (image block) holding the level-m cell under it
    proj = tower_map(d, m, level)
    h = heights(d, level)[w]
    parts = []
    for part in (blocks, images):
        label = {c: i for i, u in enumerate(part) for c in u}
        parts.append(tuple(
            tuple(j for j in range(1, h + 1) if label[proj[(w, j)]] == i) for i in range(len(part))
        ))
    return BlockBijection(h, *parts)


def test_block_layer_keeps_its_verdicts_cycles_and_preserved_violations(monkeypatch):
    # on the enumerated and pinned bijections: the verdict of the subset
    # enumeration, a preserved violation named alike by both functions, and
    # the cycles built on satisfying inputs, hashed in order
    cycles = []
    violated = 0
    verdicts = []
    for b in itertools.chain(enumerated_bijections(), pinned_bijections()):
        res = check_block_condition(b)
        verdicts.append(res)
        assert res.ok == (not has_preserved_family(b)), b
        try:
            sigma = cyclic_from_blocks(b)
        except BlockConditionViolation as e:
            assert not res.ok and e.violation == res.violation, b
            assert_preserved_violation(b, res.violation)
            violated += 1
        else:
            assert res.ok, b
            cycles.append(sigma)
    assert (violated, len(cycles)) == (459, 341)
    digest = hashlib.sha256(json.dumps(cycles).encode()).hexdigest()
    assert digest == "cb5f197c7b43d0476b844f29706995d9aa9a33a3a4b24ee2280310d46040dfe5"
    # the towers on which the resolution pipeline's synthesis stalls
    stalls = []

    def recording(d, m, blocks, images):
        try:
            return conjugator_from_partition(d, m, blocks, images)
        except ConjugatorError as e:
            stalls.append((d, m, blocks, images, e))
            raise

    monkeypatch.setattr(classify, "conjugator_from_partition", recording)
    for d in primitive_2x2_diagrams():
        try:
            conjugate_at_resolution(d, d, 2)
        except StageError:
            pass
    assert len(stalls) == 14
    for d, m, blocks, images, e in stalls:
        assert e.kind == "blocks"
        level = int(str(e).split(" at level ")[1].split()[0])
        b = tower_bijection(d, m, blocks, images, level, e.detail["tower"])
        assert has_preserved_family(b)
        res = check_block_condition(b)
        assert not res.ok and res.violation == e.detail["violation"]
        with pytest.raises(BlockConditionViolation) as raised:
            cyclic_from_blocks(b)
        assert raised.value.violation == res.violation
        assert_preserved_violation(b, res.violation)
    # with no BlockConditionViolation to be built, the verdicts and the
    # synthesis stalls come out the same: only cyclic_from_blocks raises one
    def unbuildable(violation):
        raise AssertionError("BlockConditionViolation built for %r" % (violation,))

    monkeypatch.setattr(fullgroup, "BlockConditionViolation", unbuildable)
    bijections = itertools.chain(enumerated_bijections(), pinned_bijections())
    assert [check_block_condition(b) for b in bijections] == verdicts
    for d, m, blocks, images, e in stalls:
        with pytest.raises(ConjugatorError) as again:
            conjugator_from_partition(d, m, blocks, images)
        assert again.value.kind == "blocks"
        assert str(again.value) == str(e)
        assert again.value.detail == e.detail


def test_each_bijection_is_decided_once(monkeypatch):
    # check_block_condition and cyclic_from_blocks read one construction per
    # bijection, in either order and on repeats; a fresh equal bijection
    # builds its own, with the same results, and compares and hashes equal
    # to a decided one
    runs = []

    def counting(*args):
        runs.append(args[0])
        return cycle(*args)

    cycle = fullgroup._cycle
    monkeypatch.setattr(fullgroup, "_cycle", counting)

    def outcome(b, cyclic_first=False):
        calls = [check_block_condition, cyclic_from_blocks]
        out = []
        for call in calls[::-1] if cyclic_first else calls:
            try:
                out.append(call(b))
            except BlockConditionViolation as e:
                out.append(("raised", e.violation, str(e)))
        return out[::-1] if cyclic_first else out

    for i, b in enumerate(pinned_bijections()):
        fresh = BlockBijection(b.size, b.blocks, b.images)
        assert fresh == b and hash(fresh) == hash(b) and repr(fresh) == repr(b)
        del runs[:]
        first = outcome(b, cyclic_first=i % 2 == 1)
        assert outcome(b) == outcome(b, cyclic_first=True) == first
        assert runs == [b.size]
        assert fresh == b and hash(fresh) == hash(b) and repr(fresh) == repr(b)
        assert outcome(fresh) == first and runs == [b.size] * 2
        assert {b: 1}[BlockBijection(b.size, b.blocks, b.images)] == 1


# ---------------------------------------------------------------------------
# conjugator synthesis


def shifted_blocks():
    # level-2 dyadic floors {1,2} and {3,4}, with their forward-shifted images
    blocks = (((0, 1), (0, 2)), ((0, 3), (0, 4)))
    images = (((0, 2), (0, 3)), ((0, 4), (0, 1)))
    return blocks, images


def test_identity_table_verifies_on_shifted_blocks():
    blocks, images = shifted_blocks()
    elem = FullGroupElement(DYADIC, 3, ((0,) * 8,))
    rep = verify_conjugator(elem, blocks, images, 2)
    assert rep.verdict == "ok" and rep.level == 5
    assert rep.unresolved > 0  # the roof band is never resolvable


def test_synthesis_on_shifted_blocks():
    blocks, images = shifted_blocks()
    elem = conjugator_from_partition(DYADIC, 2, blocks, images)
    rep = verify_conjugator(lifted(elem, elem.level + 1), blocks, images, 2)
    assert rep.verdict == "ok"


def test_synthesis_on_swapped_singletons():
    blocks = (((0, 1),), ((0, 2),))
    images = (((0, 2),), ((0, 1),))
    elem = conjugator_from_partition(DYADIC, 1, blocks, images)
    assert elem.level == 2
    assert elem.tables == ((3, 1, -1, -3),)
    rep = verify_conjugator(elem, blocks, images, 1)
    assert rep.verdict == "ok" and rep.level == 4
    rep6 = verify_conjugator(lifted(elem, 4), blocks, images, 1)
    assert rep6.verdict == "ok" and rep6.level == 6


def test_synthesis_on_blocks_equal_only_in_k0():
    # the two singletons have counting vectors (1, 0) and (0, 1) at level 1,
    # which the all-ones incidence carries to the same vector at level 2
    d = stationary_from_rows(((0, 1), (0, 1)))
    blocks = (((0, 1),), ((1, 1),))
    images = (((1, 1),), ((0, 1),))
    elem = conjugator_from_partition(d, 1, blocks, images)
    assert elem.level == 2
    rep = verify_conjugator(elem, blocks, images, 1)
    assert rep.verdict == "ok"


def test_synthesis_decides_k0_agreement_by_its_level_push(monkeypatch):
    # the K0 check is read off the push that finds the level, so the
    # dimension group's equality test is never reached
    def unreachable(*args, **kwargs):
        raise AssertionError("DimGroup.equal called")

    monkeypatch.setattr(dimgroup.DimGroup, "equal", unreachable)
    # singular incidence: (1, 0) and (0, 1) differ at level 1 but not in K0
    ones = stationary_from_rows(((0, 1), (0, 1)))
    blocks = (((0, 1),), ((1, 1),))
    images = (((1, 1),), ((0, 1),))
    elem = conjugator_from_partition(ones, 1, blocks, images)
    assert (elem.level, elem.tables) == (2, ((1, -1), (1, -1)))
    # invertible incidence: the same swap differs in K0, first at block 0
    with pytest.raises(ConjugatorError) as e:
        conjugator_from_partition(FIB, 1, blocks, images)
    assert (e.value.kind, str(e.value), e.value.detail) == (
        "class", "block 0 and its image are not equivalent in K0", {"block": 0}
    )
    # block 0 agrees with its image; blocks 1 and 2 do not, and 1 is named
    blocks = (((0, 1),), ((0, 2),), ((1, 1),))
    images = (((0, 2),), ((1, 1),), ((0, 1),))
    with pytest.raises(ConjugatorError) as e:
        conjugator_from_partition(FIB, 2, blocks, images)
    assert (e.value.kind, str(e.value), e.value.detail) == (
        "class", "block 1 and its image are not equivalent in K0", {"block": 1}
    )


def test_synthesis_reads_an_explicit_difference_at_the_last_level():
    # two towers kept apart for 41 transitions, then joined: the swapped
    # singletons differ until level 43, past a 40-level scan from level 1,
    # and agree there, so the conjugator is built at level 43 (two levels
    # more let the replay audit it)
    apart, joined = ((0,), (1,)), ((0, 1), (0, 1))
    d = OrderedBratteliDiagram(
        "explicit", (1,) + (2,) * 45, (((0,), (0,)),) + (apart,) * 41 + (joined,) * 3
    )
    blocks = (((0, 1),), ((1, 1),))
    images = (((1, 1),), ((0, 1),))
    elem = conjugator_from_partition(d, 1, blocks, images)
    assert elem.level == 43
    assert verify_conjugator(elem, blocks, images, 1).verdict == "ok"


def test_synthesis_rejects_class_mismatch():
    blocks = (((0, 1),), ((0, 2), (0, 3), (0, 4)))
    images = (((0, 2), (0, 3), (0, 4)), ((0, 1),))
    with pytest.raises(ConjugatorError) as e:
        conjugator_from_partition(DYADIC, 2, blocks, images)
    assert e.value.kind == "class"
    assert e.value.detail["block"] == 0


def test_synthesis_reports_per_tower_violation():
    blocks, _ = shifted_blocks()
    with pytest.raises(ConjugatorError) as e:
        conjugator_from_partition(DYADIC, 2, blocks, blocks)
    assert e.value.kind == "blocks"
    assert "tower" in e.value.detail


def test_synthesis_stalls_keep_their_messages_and_violations():
    # A against A at m = 2 for the 32 primitive 2x2 incidences with entries
    # <= 2: the pipeline's error, with the violation of the tower that
    # fails the block condition, hashed in order
    records = []
    for entries in itertools.product(range(3), repeat=4):
        mat = (entries[:2], entries[2:])
        # a 2x2 incidence is primitive when its square is positive (Wielandt)
        if not all(mat[i][0] * mat[0][j] + mat[i][1] * mat[1][j] for i in (0, 1) for j in (0, 1)):
            continue
        d = stationary_from_rows(rows_of(mat))
        try:
            b = conjugate_at_resolution(d, d, 2)
        except StageError as e:
            cause = e.__context__
            violation = cause.detail.get("violation") if isinstance(cause, ConjugatorError) else None
            records.append([mat, e.stage, str(e), violation])
        else:
            records.append([mat, b.corrector.to_json(), b.report.verdict, None])
    assert len(records) == 32
    stalls = [r for r in records if r[3] is not None]
    assert len(stalls) == 14
    assert {r[2].split(" at ")[1] for r in stalls} == {
        "level 3 fails the block condition", "level 4 fails the block condition"
    }
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "9976780d6d60d04e6c351f8739aab979c17e64f86047feda24762f0f9cfd1e8c"


def test_synthesis_needs_connecting_positivity():
    d = stationary_from_rows(((0,), (1, 1)))  # reducible: towers never mix
    blocks = (((0, 1),), ((1, 1),))
    with pytest.raises(ConjugatorError) as e:
        conjugator_from_partition(d, 1, blocks, blocks)
    assert e.value.kind in ("level", "blocks")
    if e.value.kind == "level":
        # two vertices: the scan ends at 1 + (2 - 1)^2 + 2
        assert e.value.detail == {"bound": 4}
        assert str(e.value).startswith("no level in (1, 4] ")
        assert str(e.value).endswith("; the diagram is not primitive")


def test_synthesis_searches_to_the_wielandt_bound():
    # Wielandt's 4-vertex matrix: A^j > 0 from j = 10 = (4 - 1)^2 + 1 on,
    # so the one block of all level-1 cells is realized at level 11
    w4 = stationary_from_rows(((3,), (0, 3), (1,), (2,)))
    assert w4.settled_level(1) == 12
    blocks = (tuple(cells(w4, 1)),)
    elem = conjugator_from_partition(w4, 1, blocks, blocks)
    assert elem.level == 11
    rep = verify_conjugator(elem, blocks, blocks, 1)
    assert rep.verdict == "ok" and rep.level == 13
    # an explicit diagram is searched to its last level, and no further
    for top, found in ((11, 11), (10, None)):
        d = OrderedBratteliDiagram(
            "explicit", (1,) + (4,) * top, (w4.table(0),) + (w4.table(1),) * (top - 1)
        )
        if found:
            assert conjugator_from_partition(d, 1, blocks, blocks).level == found
            continue
        with pytest.raises(ConjugatorError) as e:
            conjugator_from_partition(d, 1, blocks, blocks)
        assert e.value.kind == "level" and e.value.detail == {"bound": top}
        assert str(e.value).endswith("matching counting vectors")
    # a 40-cycle with a 2-cycle on it has period 2: the search reads every
    # level up to the bound, one reach set per tower and level
    k = 40
    d = stationary_from_rows(((k - 1, 1),) + tuple((v - 1,) for v in range(1, k)))
    everything = (tuple(cells(d, 1)),)
    with time_ceiling(1), pytest.raises(ConjugatorError) as e:
        conjugator_from_partition(d, 1, everything, everything)
    assert e.value.detail == {"bound": 1 + (k - 1) ** 2 + 2}


def test_verification_detects_corruption():
    blocks = (((0, 1),), ((0, 2),))
    images = (((0, 2),), ((0, 1),))
    elem = conjugator_from_partition(DYADIC, 1, blocks, images)
    r = list(elem.tables[0])
    r[1] += 1
    bad = FullGroupElement(DYADIC, elem.level, (tuple(r),))
    rep = verify_conjugator(bad, blocks, images, 1)
    assert rep.verdict != "ok"


def test_verification_inconclusive_when_walks_escape():
    # two-floor jumps keep hitting roof bands at every finite resolution
    elem = FullGroupElement(DYADIC, 1, ((2, -2),))
    blocks = (((0, 1),), ((0, 2),))
    images = (((0, 2),), ((0, 1),))
    rep = verify_conjugator(elem, blocks, images, 1)
    assert rep.verdict == "inconclusive"
    assert rep.unresolved > 1


def test_element_serialization_shape():
    elem = FullGroupElement(DYADIC, 2, ((1, 0, -1, 0),))
    blob = elem.to_json()
    assert blob == {"level": 2, "towers": [{"w": 0, "r": [1, 0, -1, 0]}]}


def random_matched_partition(rng, d, m, nblocks):
    # random block labels per tower, image labels drawn with equal counts
    h = heights(d, m)
    blocks = [[] for _ in range(nblocks)]
    images = [[] for _ in range(nblocks)]
    for v in range(len(h)):
        if h[v] < nblocks:
            return None
        labels = [i % nblocks for i in range(h[v])]
        rng.shuffle(labels)
        relabel = labels[:]
        rng.shuffle(relabel)
        for k in range(1, h[v] + 1):
            blocks[labels[k - 1]].append((v, k))
            images[relabel[k - 1]].append((v, k))
    return tuple(tuple(sorted(b)) for b in blocks), tuple(tuple(sorted(i)) for i in images)


def test_synthesized_conjugators_verify_on_random_partitions():
    rng = random.Random(12)
    attempts = 0
    verified = 0
    while verified < 25 and attempts < 400:
        attempts += 1
        d, m = rng.choice([(DYADIC, 1), (DYADIC, 2), (DYADIC, 3), (FIB, 2), (FIB, 3)])
        made = random_matched_partition(rng, d, m, rng.randint(2, 3))
        if made is None:
            continue
        blocks, images = made
        try:
            elem = conjugator_from_partition(d, m, blocks, images)
        except ConjugatorError:
            continue
        rep = verify_conjugator(elem, blocks, images, m)
        assert rep.verdict == "ok"
        sim = simulate_conjugation(elem, m, blocks, images, lookahead=2)
        assert sim == "ok"
        verified += 1
    assert verified == 25


# ---------------------------------------------------------------------------
# verification against the dict-based replay


def reference_verify_conjugator(s, blocks, images, block_level, lookahead=AUDIT_LOOKAHEAD):
    """The replay with fine cells as (tower, floor) dict keys throughout:
    injectivity, then block counts, then the image of every resolvable cell."""
    d = s.diagram
    mf = d.check_level(s.level + lookahead)
    blocks = tuple(tuple(sorted(u)) for u in blocks)
    images = tuple(tuple(sorted(v)) for v in images)
    fine = cells(d, mf)
    hf = heights(d, mf)
    proj_s = tower_map(d, s.level, mf)
    proj_b = tower_map(d, block_level, mf)
    where = {c: bi for bi, u in enumerate(blocks) for c in u}
    img_where = {c: bi for bi, v in enumerate(images) for c in v}
    sig, inv = {}, {}
    for v, j in fine:
        w, k = proj_s[(v, j)]
        t = j + s.tables[w][k - 1]
        if 1 <= t <= hf[v]:
            if (v, t) in inv:
                return ConjugacyReport(
                    "counterexample", mf, 0, 0,
                    reason="two cells map to %r; not injective" % ((v, t),),
                )
            sig[(v, j)] = (v, t)
            inv[(v, t)] = (v, j)
    count = [0] * len(blocks)
    image_count = [0] * len(blocks)
    for c in fine:
        count[where[proj_b[c]]] += 1
        image_count[img_where[proj_b[c]]] += 1
    for bi, (x, y) in enumerate(zip(count, image_count)):
        if x != y:
            return ConjugacyReport(
                "counterexample", mf, 0, 0, block=bi,
                reason="block %d covers %d fine cells, its image %d" % (bi, x, y),
            )
    checked = unresolved = 0
    for c in fine:
        y = inv.get(c)
        z = (y[0], y[1] + 1) if y is not None and y[1] < hf[y[0]] else None
        t = sig.get(z) if z is not None else None
        if t is None:
            unresolved += 1
            continue
        bi = where[proj_b[c]]
        if img_where[proj_b[t]] != bi:
            return ConjugacyReport(
                "counterexample", mf, checked, unresolved, block=bi,
                reason="cell %r of block %d conjugates into the wrong image" % (c, bi),
            )
        checked += 1
    if unresolved > len(hf):
        return ConjugacyReport("inconclusive", mf, checked, unresolved)
    return ConjugacyReport("ok", mf, checked, unresolved)


def _branch(rep):
    if rep.verdict != "counterexample":
        return rep.verdict
    for key in ("not injective", "covers", "wrong image"):
        if key in rep.reason:
            return key
    raise AssertionError(rep)


def resolution_bundles():
    """Odometer conjugators at every level with at most 20 source cells."""
    from cantorconj.classify import conjugate_at_resolution
    from cantorconj.systems import odometer

    out = []
    for qa, qb in ((2, 2), (2, 4), (4, 2), (3, 3), (4, 4)):
        m = 1
        while qa ** m <= 20:
            out.append(conjugate_at_resolution(odometer(qa), odometer(qb), m))
            m += 1
    return out


def tampered(rng, bundle, count):
    """(tables, images) pairs: the bundle's own, perturbed table entries,
    swapped image blocks, an image block that gained a cell, and jumps."""
    return tampers(rng, bundle.corrector.tables, bundle.images, count)


def tampers(rng, tables, images, count):
    out = [(tables, images)]
    for _ in range(count):
        rows = [list(r) for r in tables]
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(rows)
            i = rng.randrange(len(row))
            row[i] += rng.choice((-2, -1, 1, 2, len(row), -len(row)))
        out.append((tuple(map(tuple, rows)), images))
        swapped = list(images)
        i, j = rng.sample(range(len(swapped)), 2)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append((tables, tuple(swapped)))
        out.append((jumped(rng, tables), images))
    moved = [list(v) for v in images]
    i, j = rng.sample(range(len(moved)), 2)
    moved[j].append(moved[i].pop())
    out.append((tables, tuple(tuple(v) for v in moved)))
    return out


def jumped(rng, tables):
    """tables with one floor sent past the top (or below the bottom) of its
    tower at the tables' level, by less than one tower height: in a fine
    tower it lands in the next (or previous) copy of a coarse tower."""
    rows = [list(r) for r in tables]
    row = rng.choice(rows)
    i = rng.randrange(len(row))
    x = rng.randrange(len(row))
    row[i] = len(row) - i + x if rng.random() < 0.5 else -(i + 1) - x
    return tuple(map(tuple, rows))


def leaves_its_tower(s):
    return any(not 1 <= j + r <= len(row) for row in s.tables for j, r in enumerate(row, 1))


def refined_partition(d, part, level, fine):
    proj = tower_map(d, level, fine)
    return tuple(tuple(c for c in proj if proj[c] in set(u)) for u in part)


def synthesized_on(rng, d, m, want):
    """Conjugators synthesized on random matched partitions of d at level m:
    (element, blocks, images) triples."""
    out = []
    for _ in range(100 * want):
        if len(out) == want:
            break
        made = random_matched_partition(rng, d, m, rng.randint(2, 3))
        if made is None:
            continue
        try:
            out.append((conjugator_from_partition(d, m, *made),) + made)
        except ConjugatorError:
            continue
    assert len(out) == want
    return out


def assert_matches_reference(s, blocks, images, lookahead, block_level, seen):
    """The audit of s lifted lookahead - AUDIT_LOOKAHEAD levels against the
    reference replay of s itself, lookahead levels ahead: one fine level."""
    up = lifted(s, s.level + lookahead - AUDIT_LOOKAHEAD)
    got = verify_conjugator(up, blocks, images, block_level)
    ref = reference_verify_conjugator(s, blocks, images, block_level, lookahead)
    assert got == ref, (s.tables, blocks, images, lookahead, block_level)
    seen.add(_branch(got))


def test_verification_matches_dict_reference_on_resolution_conjugators():
    rng = random.Random(31)
    seen = set()
    escaped = 0
    for bundle in resolution_bundles():
        elem = bundle.corrector
        lvl = bundle.sigma.target_level
        for tables, images in tampered(rng, bundle, 6):
            s = FullGroupElement(elem.diagram, elem.level, tables)
            escaped += leaves_its_tower(s)
            for lookahead in (2, 3):
                assert_matches_reference(s, bundle.blocks, images, lookahead, lvl, seen)
    assert seen == {"ok", "not injective", "covers", "wrong image", "inconclusive"}
    assert escaped > 50


def test_verification_matches_dict_reference_above_the_element_level():
    # blocks given one or two levels finer than the element: the coarse
    # towers of the replay are the blocks' towers, each stacking element
    # towers, and two levels finer they are the towers of the audit level
    rng = random.Random(32)
    seen = set()
    for bundle in resolution_bundles()[:8]:
        elem = bundle.corrector
        d, lvl = elem.diagram, bundle.sigma.target_level
        for tables, images in tampers(rng, elem.tables, bundle.images, 3):
            s = FullGroupElement(d, elem.level, tables)
            for fine in (elem.level + 1, elem.level + 2):
                parts = [refined_partition(d, p, lvl, fine) for p in (bundle.blocks, images)]
                for lookahead in (2, 3):
                    assert_matches_reference(s, *parts, lookahead, fine, seen)
    assert {"ok", "not injective", "wrong image"} <= seen


def test_verification_matches_dict_reference_on_multi_tower_conjugators(monkeypatch):
    # the reference lists the cells of levels up to 8 of tri3
    from cantorconj import bratteli

    monkeypatch.setattr(bratteli, "CELL_CAP", 2 ** 14)
    rng = random.Random(33)
    tri3 = stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2)))
    seen = set()
    for d, m in ((FIB, 3), (FIB, 4), (tri3, 2), (tri3, 3)):
        for elem, blocks, images in synthesized_on(rng, d, m, 3):
            for tables, imgs in tampers(rng, elem.tables, images, 3):
                s = FullGroupElement(d, elem.level, tables)
                for lookahead in (2, 3):
                    assert_matches_reference(s, blocks, imgs, lookahead, m, seen)
        # the identity against the rotation of each tower: right on every
        # floor but the seams where a copy of one tower meets another's; it
        # is the identity one level down lifted, so the audit reaches m + 1
        h = heights(d, m - 1)
        identity = FullGroupElement(d, m - 1, tuple((0,) * x for x in h))
        level_cells = cells(d, m)
        blocks = tuple((c,) for c in level_cells)
        h = heights(d, m)
        images = tuple(((v, j % h[v] + 1),) for v, j in level_cells)
        for lookahead in (2, 3):
            assert_matches_reference(identity, blocks, images, lookahead, m, seen)
            rep = verify_conjugator(lifted(identity, m + lookahead - 3), blocks, images, m)
            assert _branch(rep) == "wrong image" and rep.checked > 0
    # odometer(5) against the rotation of its tower by one floor: the
    # identity, the identity with its top floor sent one floor up (into the
    # next copy, onto its floor 1) and the shift, which jumps on every top
    # floor and so is replayed floor by floor
    from cantorconj.systems import odometer

    o5 = odometer(5)
    blocks = tuple((c,) for c in cells(o5, 1))
    images = tuple(((0, j % 5 + 1),) for _, j in cells(o5, 1))
    for r in ((0,) * 5, (0,) * 4 + (1,), (1,) * 5):
        for lookahead in (2, 3):
            assert_matches_reference(FullGroupElement(o5, 1, (r,)), blocks, images, lookahead, 1, seen)
    # a closed element on tri3 whose first wrong cell is floor 1 of the top
    # copy in fine tower 0, the floor whose preimage lies just under that
    # copy's top floor; every seam of that fine tower holds
    s = FullGroupElement(tri3, 2, ((0, 0), (1, -1), (5, 1, 1, 1, -4, -4)))
    blocks = (((0, 1), (2, 2), (2, 3), (2, 5), (2, 6)), ((0, 2), (1, 1), (1, 2), (2, 1), (2, 4)))
    images = (((0, 2), (2, 1), (2, 2), (2, 3), (2, 4)), ((0, 1), (1, 1), (1, 2), (2, 5), (2, 6)))
    assert_matches_reference(s, blocks, images, 2, 2, seen)
    assert seen == {"ok", "not injective", "covers", "wrong image", "inconclusive"}


def test_verification_past_the_cell_cap_matches_the_reference(monkeypatch):
    # audits whose level lists more than CELL_CAP cells: answered per coarse
    # tower, and equal to the dict replay run with the cap raised
    from cantorconj import bratteli
    from cantorconj.classify import conjugate_at_resolution
    from cantorconj.systems import odometer

    from conftest import hierarchy_pool

    pool = hierarchy_pool()
    inputs = [(odometer(2), odometer(6), 2), (odometer(4), odometer(6), 1)]
    inputs += [(pool[9], pool[2], 1), (pool[10], pool[4], 1)]
    bundles = []
    for a, b, m in inputs:
        bundle = conjugate_at_resolution(a, b, m)
        assert sum(heights(b, bundle.report.level)) > bratteli.CELL_CAP
        assert bundle.report.verdict == "ok"
        bundles.append(bundle)
    monkeypatch.setattr(bratteli, "CELL_CAP", 2 ** 15)
    for bundle in bundles:
        elem = bundle.corrector
        args = (bundle.blocks, bundle.images, bundle.sigma.target_level)
        assert verify_conjugator(elem, *args) == reference_verify_conjugator(elem, *args)
        assert verify_conjugator(elem, *args) == bundle.report


def test_verification_fails_malformed_blocks_like_the_reference():
    # a block naming a cell that does not exist: the label lookup raises
    # the same KeyError, after the injectivity pass
    bundle = resolution_bundles()[1]
    elem = bundle.corrector
    images = bundle.images[:-1] + (bundle.images[-1][:-1] + ((0, 10 ** 6),),)
    errors = []
    for replay in (verify_conjugator, reference_verify_conjugator):
        with pytest.raises(KeyError) as e:
            replay(elem, bundle.blocks, images, bundle.sigma.target_level)
        errors.append(e.value.args)
    assert errors[0] == errors[1]
    # a table that is not injective is reported before any label is read
    r = (1,) + (0,) * (len(elem.tables[0]) - 1)
    bad = FullGroupElement(elem.diagram, elem.level, (r,))
    got = verify_conjugator(bad, bundle.blocks, images, bundle.sigma.target_level)
    assert _branch(got) == "not injective"
    assert got == reference_verify_conjugator(bad, bundle.blocks, images, bundle.sigma.target_level)


def test_closed_conjugators_are_answered_copy_by_copy(monkeypatch):
    # every conjugator the synthesis builds sends no floor out of its coarse
    # tower and no two floors onto one, so its audit never replays a fine
    # tower floor by floor; nor does a collision inside a tower
    from cantorconj import check
    from cantorconj.systems import odometer

    from conftest import hierarchy_pool

    pool = hierarchy_pool()
    inputs = [(odometer(2), odometer(6), 2), (odometer(4), odometer(6), 1)]
    inputs += [(pool[9], pool[2], 1), (pool[10], pool[4], 1)]
    bundles = resolution_bundles() + [conjugate_at_resolution(*x) for x in inputs]
    elem, blocks, images = synthesized_on(random.Random(34), FIB, 3, 1)[0]

    def flat(*args):
        raise AssertionError("replayed floor by floor")

    monkeypatch.setattr(check, "_flat_images", flat)
    monkeypatch.setattr(check, "_flat_walk", flat)
    for bundle in bundles:
        args = (bundle.blocks, bundle.images, bundle.sigma.target_level)
        assert verify_conjugator(bundle.corrector, *args) == bundle.report
    # floor 1 sent where floor 2 goes: a collision inside the tower
    tables = [list(r) for r in elem.tables]
    r = tables[0]
    assert len(r) >= 2
    r[0] = r[1] + 1
    bad = FullGroupElement(FIB, elem.level, tuple(map(tuple, tables)))
    assert _branch(verify_conjugator(bad, blocks, images, 3)) == "not injective"
