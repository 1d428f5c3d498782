"""Orbit-preserving conjugators built from block data.

A finite partition of the level-m cells together with a class-preserving
bijection onto a second partition is the combinatorial shadow of a clopen
conjugacy problem: we look for a homeomorphism in the topological full group
that carries each block onto its image block, up to the chosen resolution.

The synthesis runs per tower at a finer level m*.  Each tower of height N
inherits two labelled partitions of its floors (where the blocks and the
image blocks cut it), and a single N-cycle sending label fibers onto label
fibers exists exactly when the block condition holds: no nonempty proper
subfamily of blocks has its union fixed by the bijection.  One
construction (_cycle) decides the condition and builds the cycle, for
check_block_condition, cyclic_from_blocks and each tower of the synthesis.
It splices the cycles of the in-block assignment across the first block
that straddles the cycle C of 1, one splice at a time, and completes
exactly when the condition holds.  When it stalls, C is the closure of the
block holding 1 under "its image meets that block": nonempty, proper and
preserved, that family is the violation, which the construction returns
rather than raises; only cyclic_from_blocks raises it, as
BlockConditionViolation.  Reading off the cycle's
offsets against the floor index yields the return-time table r(w, j) of a
full-group element.

The element (FullGroupElement), its replay (verify_conjugator) and the
block label of each floor (_floor_labels), which the synthesis and the
replay both read, live in check, which imports nothing from here: the
synthesis cannot vouch for its own output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional

from .bratteli import (
    OrderedBratteliDiagram,
    capped_heights,
    cell_set,
    heights,
    incidence,
    tower_stacks,
)
from .check import FullGroupElement, _floor_labels, _validate_partition
from .check import verify_conjugator  # not called here; only bench/spans.py reads it from this module
from .fieldpoly import _mat_apply


class BlockConditionViolation(ValueError):
    """A subfamily of blocks has its union preserved; carries the witness.

    The witness is the exception's one argument, and the message naming
    its blocks is formatted only when it is read.
    """

    def __init__(self, violation):
        super().__init__(violation)
        self.violation = violation

    def __str__(self):
        names = ", ".join(map(repr, self.violation))
        return "block condition fails on the subfamily {%s}" % names


class ConjugatorError(ValueError):
    """Synthesis precondition failure; kind is 'class', 'level' or 'blocks'."""

    def __init__(self, kind: str, message: str, **detail):
        self.kind = kind
        self.detail = detail
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.kind, self.args[0]), self.__dict__


@dataclass(frozen=True)
class BlockBijection:
    """Aligned partitions of {1..size}: blocks[i] maps onto images[i]."""

    size: int
    blocks: tuple
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(map(tuple, map(sorted, self.blocks))))
        object.__setattr__(self, "images", tuple(map(tuple, map(sorted, self.images))))
        # size elements in all, and every one of 1..size among them
        full = set(range(1, self.size + 1))
        for name, part in (("blocks", self.blocks), ("images", self.images)):
            if sum(map(len, part)) != len(full) or set().union(*part) != full:
                raise ValueError("%s do not partition 1..%d" % (name, self.size))
        if len(self.blocks) != len(self.images):
            raise ValueError("partitions have different block counts")
        for u, v in zip(self.blocks, self.images):
            if len(u) != len(v):
                raise ValueError(
                    "block %r and its image %r have different sizes" % (u, v)
                )
        if self.size < 1:
            raise ValueError("size %d is not positive" % self.size)
        if not all(self.blocks):
            raise ValueError("block %d is empty" % self.blocks.index(()))


@dataclass(frozen=True)
class BlockConditionResult:
    ok: bool
    violation: Optional[tuple] = None  # the preserved family _cycle stalls on


def check_block_condition(b: BlockBijection) -> BlockConditionResult:
    """Does some block-respecting permutation act as a single cycle?

    Equivalent criterion: no nonempty proper subfamily F of the blocks
    satisfies union(F) = union(images of F).  Necessity is immediate, since
    a preserved union confines every respecting permutation; sufficiency
    holds because the splice construction of cyclic_from_blocks (_cycle)
    completes exactly when no family is preserved.  So the construction
    decides: on failure the witness is the family it stalls on, the
    closure of the block holding element 1, as the construction returns it.
    """
    _, violation = _cycle(b.size, b.blocks, b.images, _block_of(b))
    return BlockConditionResult(violation is None, violation)


def _block_of(b: BlockBijection) -> list:
    """The block of each element, as block_of[x] for 1-based x."""
    block_of = [0] * (b.size + 1)
    for i, u in enumerate(b.blocks):
        for x in u:
            block_of[x] = i
    return block_of


def cyclic_from_blocks(b: BlockBijection) -> tuple:
    """A single size-cycle sending each block onto its image, as a tuple
    sigma with sigma[i-1] the image of i; BlockConditionViolation, naming
    the family the construction stalls on, when none exists (see _cycle).
    """
    sigma, violation = _cycle(b.size, b.blocks, b.images, _block_of(b))
    if violation is not None:
        raise BlockConditionViolation(violation)
    return sigma


def _cycle(n: int, blocks, images, block_of) -> tuple:
    """The pair (sigma, None), sigma the cycle of cyclic_from_blocks, or
    (None, violation) at a stall, on a block bijection of 1..n given as its
    parts: nonempty increasing blocks and images, aligned and of equal
    sizes, and the block of each element.

    Start from the order-respecting assignment inside each block, then
    merge cycles: as long as the element 1 does not exhaust its cycle C,
    swapping the images of the earliest pair a block splits between C and
    the rest splices two cycles into one.  Deterministic: a count per block
    of its elements on C picks the first straddling block by index, and its
    smallest elements on and off C are used.

    The splices complete exactly when the block condition holds.  They
    stop short of a single cycle only when no block straddles C, and then
    C is a union of blocks that sigma, which sends each block onto its
    image, preserves: a nonempty proper preserved family, so the condition
    fails.  That family is the closure of the block holding 1 under "its
    image meets that block": it holds that block and is closed, and the
    closure, being preserved, holds the cycle of 1 under sigma.  It is
    returned as the violation, its blocks in index order.
    """
    sigma = [0] * (n + 1)
    for u, v in zip(blocks, images):
        for i, j in zip(u, v):
            sigma[i] = j
    sizes = [len(u) for u in blocks]
    count = [0] * len(sizes)
    on = [False] * (n + 1)
    straddling = 0  # bit t set while 0 < count[t] < sizes[t]
    x = 1
    while True:
        while not on[x]:
            on[x] = True
            t = block_of[x]
            c = count[t] = count[t] + 1
            if c == 1:
                straddling |= 1 << t
            if c == sizes[t]:
                straddling ^= 1 << t
            x = sigma[x]
        if not straddling:
            if not all(on[1:]):
                return None, tuple(tuple(u) for u in blocks if on[u[0]])
            return tuple(sigma[1:]), None
        # blocks are sorted, so the least straddling elements are the first
        # element of the block and the first to lie on the other side of C
        u = blocks[(straddling & -straddling).bit_length() - 1]
        i = u[0]
        side = on[i]
        for j in u:
            if on[j] != side:
                break
        if not side:
            i, j = j, i
        # the splice merges the cycle D through j into C, so the cycle of 1
        # becomes C | D and strictly grows; D is walked from its new entry
        sigma[i], sigma[j] = sigma[j], sigma[i]
        x = sigma[i]


def conjugator_from_partition(
    d: OrderedBratteliDiagram,
    m: int,
    blocks,
    images,
) -> FullGroupElement:
    """Synthesize a full-group element conjugating the transformation into
    the block bijection, resolved at a finer level.

    Preconditions, each with its own error kind: every block must agree with
    its image in K0 ('class'); some level m* must join every tower of m* to
    every tower of m and carry equal pushed counting vectors for every pair
    ('level'); and the per-tower partitions induced at m* must satisfy the
    block condition ('blocks').

    Once the partitions are checked, against the cell set of m kept once
    per diagram (bratteli.cell_set), each floor's block and image-block
    label at level m is read off them (check._floor_labels, as the replay
    reads them), and each block's counting vector minus its image's is
    counted off the labels.  m* is the least such level up to
    d.settled_level(m), read from the reach sets of the towers (as in
    bratteli.validate) and those differences, pushed level by level.  When
    none qualifies, the first block whose difference is nonzero at the
    bound fails 'class', and otherwise 'level' fails.  The bound is exact
    on a stationary diagram with k vertices: it lies k levels or more past
    m, where a difference that is zero in K0 has been pushed to zero, and
    past it a primitive incidence stays positive, so there a 'level'
    failure means the diagram is not primitive.  An explicit diagram is
    read to its last level.  A tower
    of m* stacks whole towers of m (bratteli.tower_stacks), so its labels
    are those of its stack, concatenated; the cells of m* are not listed,
    but CELL_CAP still binds on m*.  The labels split the tower's floors
    into blocks and image blocks, increasing and of equal sizes since the
    pushed counting vectors agree at m*, and nonempty since every tower of
    m* stacks every tower of m, so they go to the cycle construction as
    they are, without BlockBijection's checks.  The construction decides
    the block condition as it splices (see _cycle): a tower on which it
    stalls fails the condition, and the violation it returns, the family of
    blocks that the cycle of floor 1 covers, is named in the error.
    """
    universe = cell_set(d, m)
    blocks = tuple(tuple(sorted(u)) for u in blocks)
    images = tuple(tuple(sorted(v)) for v in images)
    if len(blocks) != len(images):
        raise ValueError("need one image per block")
    _validate_partition(blocks, universe, "block")
    _validate_partition(images, universe, "image block")
    hm = heights(d, m)
    lab = _floor_labels(hm, blocks)
    img = _floor_labels(hm, images)
    # each block's counting vector minus its image's, read off the labels;
    # the nonzero ones are kept, with their blocks, and pushed
    counts = [[0] * len(hm) for _ in blocks]
    for w, (bs, js) in enumerate(zip(lab, img)):
        for b, i in zip(bs, js):
            counts[b][w] += 1
            counts[i][w] -= 1
    diffs = [(bi, x) for bi, x in enumerate(counts) if any(x)]
    end = d.settled_level(m)
    full = (1 << len(hm)) - 1
    reach = [1 << v for v in range(len(hm))]
    mstar = None
    for n in range(m, end):
        reach = [reduce(or_, map(reach.__getitem__, row)) for row in d.table(n)]
        pushed = ((bi, _mat_apply(incidence(d, n), x)) for bi, x in diffs)
        diffs = [(bi, x) for bi, x in pushed if any(x)]
        if not diffs and all(r == full for r in reach):
            mstar = n + 1
            break
    if diffs:
        bi = diffs[0][0]
        raise ConjugatorError(
            "class", "block %d and its image are not equivalent in K0" % bi, block=bi
        )
    if mstar is None:
        raise ConjugatorError(
            "level",
            "no level in (%d, %d] joins every tower to every cell with "
            "matching counting vectors%s"
            % (m, end, "; the diagram is not primitive" if d.kind == "stationary" else ""),
            bound=end,
        )
    h = capped_heights(d, mstar)
    tables = []
    for w, stack in enumerate(tower_stacks(d, m, mstar)):
        # the block and image-block label of each floor, 1-based
        block_of = [0]
        image_of = [0]
        for u in stack:
            block_of += lab[u]
            image_of += img[u]
        tower_blocks = [[] for _ in blocks]
        tower_images = [[] for _ in blocks]
        for j in range(1, h[w] + 1):
            tower_blocks[block_of[j]].append(j)
            tower_images[image_of[j]].append(j)
        sigma, violation = _cycle(h[w], tower_blocks, tower_images, block_of)
        if violation is not None:
            raise ConjugatorError(
                "blocks",
                "tower %d at level %d fails the block condition" % (w, mstar),
                tower=w,
                violation=violation,
            )
        # anchor the cycle at the least floor of the first block; the walk
        # sigma^j then pairs floor j with its conjugated position
        row = []
        s = tower_blocks[0][0]
        for j in range(1, h[w] + 1):
            s = sigma[s - 1]
            row.append(s - j)
        tables.append(tuple(row))
    return FullGroupElement(d, mstar, tuple(tables))
