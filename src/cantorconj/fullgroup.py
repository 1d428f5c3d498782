"""Orbit-preserving conjugators built from block data.

A finite partition of the level-m cells together with a class-preserving
bijection onto a second partition is the combinatorial shadow of a clopen
conjugacy problem: we look for a homeomorphism in the topological full group
that carries each block onto its image block, up to the chosen resolution.

The synthesis runs per tower at a finer level m*.  Each tower of height N
inherits two labelled partitions of its floors (where the blocks and the
image blocks cut it), and the existence of a single N-cycle sending label
fibers onto label fibers is governed by a clean combinatorial criterion: no
nonempty proper subfamily of blocks may have its union fixed by the
bijection.  Splicing the cycles of the in-block assignment across the
first block that straddles the cycle of 1, one splice at a time, produces
such an N-cycle whenever the criterion holds; when the splicing stalls,
the criterion fails, and the block graph names the violation.  One
construction (_cycle) serves both cyclic_from_blocks and each tower of
the synthesis.  Reading off the cycle's offsets against the floor index
yields the return-time table r(w, j) of a full-group element.

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
    DgElement,
    OrderedBratteliDiagram,
    capped_heights,
    cell_set,
    heights,
    incidence,
    tower_stacks,
)
from .check import FullGroupElement, _floor_labels, _validate_partition
from .check import verify_conjugator  # not called here; only bench/spans.py reads it from this module
from .dimgroup import DimGroup
from .fieldpoly import _mat_apply


class BlockConditionViolation(ValueError):
    """A subfamily of blocks has its union preserved; carries the witness."""

    def __init__(self, violation):
        self.violation = violation
        names = ", ".join(repr(f) for f in violation)
        super().__init__("block condition fails on the subfamily {%s}" % names)


class ConjugatorError(ValueError):
    """Synthesis precondition failure; kind is 'class', 'level' or 'blocks'."""

    def __init__(self, kind: str, message: str, **detail):
        self.kind = kind
        self.detail = detail
        super().__init__(message)


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
    violation: Optional[tuple] = None  # offending blocks, earliest-indexed family


def check_block_condition(b: BlockBijection) -> BlockConditionResult:
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

    On failure the witness is the closed proper family whose sorted index
    tuple is lexicographically least, listed as blocks.  It is found
    greedily: its first index a is the least one whose reach is proper and
    has no member below a; each further index y is the least one, up to the
    least member of the closure not yet chosen, whose closure joined with
    the current one adds no unchosen index below y and stays proper; the
    family is complete once the closure adds nothing to the chosen indices.
    The reach sets are shared within the call: each is searched at most
    once, and a search that meets a block whose reach is known ORs that
    reach in instead of expanding the block.
    """
    violation = _decide(b.blocks, b.images, _block_of(b))
    return BlockConditionResult(violation is None, violation)


def _block_of(b: BlockBijection) -> list:
    """The block of each element, as block_of[x] for 1-based x."""
    block_of = [0] * (b.size + 1)
    for i, u in enumerate(b.blocks):
        for x in u:
            block_of[x] = i
    return block_of


def _decide(blocks, images, block_of):
    """The least violating family of check_block_condition, as a tuple of
    blocks, or None when none exists; block_of[x] is the block of x."""
    k = len(blocks)
    adj = [0] * k
    radj = [0] * k
    for i, v in enumerate(images):
        for x in v:
            j = block_of[x]
            adj[i] |= 1 << j
            radj[j] |= 1 << i
    full = (1 << k) - 1
    reach = [0] * k  # 0 until searched: a reach holds its own block
    reach[0] = _reach(adj, 0, reach)
    if reach[0] == full and _reach(radj, 0, [0] * k) == full:
        return None

    def closure_of(y):
        if not reach[y]:
            reach[y] = _reach(adj, y, reach)
        return reach[y]

    a = next(
        a for a in range(k)
        if closure_of(a) != full and not closure_of(a) & ((1 << a) - 1)
    )
    chosen = 1 << a
    closure = closure_of(a)
    last = a
    while closure != chosen:
        rest = closure & ~chosen
        z = (rest & -rest).bit_length() - 1
        # y = z always qualifies: z's reach lies inside the closed closure,
        # so it is not searched
        for y in range(last + 1, z + 1):
            grown = closure if y == z else closure | closure_of(y)
            if grown != full and not grown & ~chosen & ((1 << y) - 1):
                break
        chosen |= 1 << y
        closure = grown
        last = y
    return tuple(tuple(blocks[i]) for i in range(k) if chosen >> i & 1)


def _reach(adj, y: int, known) -> int:
    """Bitmask of the vertices reachable from vertex y along adj; a vertex v
    with known[v] nonzero contributes that (closed) reach unexpanded."""
    seen = frontier = 1 << y
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            if known[v]:
                seen |= known[v]
            else:
                step |= adj[v]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def cyclic_from_blocks(b: BlockBijection) -> tuple:
    """A single size-cycle sending each block onto its image, as a tuple
    sigma with sigma[i-1] the image of i; BlockConditionViolation, with the
    violation of check_block_condition, when none exists (see _cycle).
    """
    return _cycle(b.size, b.blocks, b.images, _block_of(b))


def _cycle(n: int, blocks, images, block_of) -> tuple:
    """The cycle of cyclic_from_blocks on a block bijection of 1..n given
    as its parts: nonempty increasing blocks and images, aligned and of
    equal sizes, and the block of each element.

    Start from the order-respecting assignment inside each block, then
    merge cycles: as long as the element 1 does not exhaust its cycle C,
    swapping the images of the earliest pair a block splits between C and
    the rest splices two cycles into one.  Deterministic: a count per block
    of its elements on C picks the first straddling block by index, and its
    smallest elements on and off C are used.

    Splices first and decides only on a stall: the splices stop short of
    a single cycle exactly when no block straddles C, and then C is a union
    of blocks that sigma, which sends each block onto its image, preserves.
    That union is nonempty and proper, so the block condition fails, and
    the violation raised is the one _decide finds.  When the condition
    holds the block graph is never built.
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
                raise BlockConditionViolation(_decide(blocks, images, block_of))
            break
        u = blocks[(straddling & -straddling).bit_length() - 1]
        # blocks are sorted, so these are the least straddling elements
        i = next(x for x in u if on[x])
        j = next(x for x in u if not on[x])
        # the splice merges the cycle D through j into C, so the cycle of 1
        # becomes C | D and strictly grows; D is walked from its new entry
        sigma[i], sigma[j] = sigma[j], sigma[i]
        x = sigma[i]
    return tuple(sigma[1:])


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

    m* is the least such level up to d.settled_level(m), read from the reach
    sets of the towers (as in bratteli.validate) and the pushed differences
    of the counting vectors.  The bound is exact on a stationary diagram:
    past it a primitive incidence stays positive and a difference that is
    zero in K0 stays zero, so there a 'level' failure means the diagram is
    not primitive.

    Once the partitions are checked, against the cell set of m kept once
    per diagram (bratteli.cell_set), each floor's block and image-block
    label at level m is read off them (check._floor_labels, as the replay
    reads them) and each block's class is counted.  A tower
    of m* stacks whole towers of m (bratteli.tower_stacks), so its labels
    are those of its stack, concatenated; the cells of m* are not listed,
    but CELL_CAP still binds on m*.  The labels split the tower's floors
    into blocks and image blocks, increasing and of equal sizes since the
    pushed counting vectors agree at m*, and nonempty since every tower of
    m* stacks every tower of m, so they go to the cycle construction as
    they are, without BlockBijection's checks.  It splices first and
    decides the block condition only when the splicing stalls (see
    _cycle), so a tower that satisfies it never builds its block graph.
    """
    universe = cell_set(d, m)
    blocks = tuple(tuple(sorted(u)) for u in blocks)
    images = tuple(tuple(sorted(v)) for v in images)
    if len(blocks) != len(images):
        raise ValueError("need one image per block")
    _validate_partition(blocks, universe, "block")
    _validate_partition(images, universe, "image block")
    grp = DimGroup(d)
    hm = heights(d, m)
    lab = _floor_labels(hm, blocks)
    img = _floor_labels(hm, images)
    diffs = []  # counting vector minus image counting vector, where they differ
    for bi, (u, v) in enumerate(zip(blocks, images)):
        cu = [0] * len(hm)
        cv = [0] * len(hm)
        for w, _ in u:
            cu[w] += 1
        for w, _ in v:
            cv[w] += 1
        if cu == cv:
            continue
        if grp.equal(DgElement(m, cu), DgElement(m, cv)).value is not True:
            raise ConjugatorError(
                "class",
                "block %d and its image are not equivalent in K0" % bi,
                block=bi,
            )
        diffs.append(tuple(a - b for a, b in zip(cu, cv)))
    end = d.settled_level(m)
    full = (1 << len(hm)) - 1
    reach = [1 << v for v in range(len(hm))]
    mstar = None
    for n in range(m, end):
        reach = [reduce(or_, map(reach.__getitem__, row)) for row in d.table(n)]
        diffs = [_mat_apply(incidence(d, n), x) for x in diffs]
        if all(r == full for r in reach) and not any(map(any, diffs)):
            mstar = n + 1
            break
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
        try:
            sigma = _cycle(h[w], tower_blocks, tower_images, block_of)
        except BlockConditionViolation as e:
            raise ConjugatorError(
                "blocks",
                "tower %d at level %d fails the block condition" % (w, mstar),
                tower=w,
                violation=e.violation,
            ) from e
        # anchor the cycle at the least floor of the first block; the walk
        # sigma^j then pairs floor j with its conjugated position
        row = []
        s = tower_blocks[0][0]
        for j in range(1, h[w] + 1):
            s = sigma[s - 1]
            row.append(s - j)
        tables.append(tuple(row))
    return FullGroupElement(d, mstar, tuple(tables))
