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
bijection.  The criterion is decided first, on the block graph; when it
holds, splicing the cycles of the in-block assignment across the first
block that straddles the cycle of 1, one splice at a time, produces such an
N-cycle; reading off its offsets against the floor index yields the
return-time table r(w, j) of a full-group element.

Verification replays the induced cell maps at a still finer level and checks
that conjugating the successor map transports every block onto its image on
all resolvable cells.  Roof bands are not resolvable at any finite level, so
a bounded number of unresolved cells is expected even for a correct answer;
anything beyond that bound is reported as inconclusive rather than silently
accepted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .bratteli import (
    DgElement,
    OrderedBratteliDiagram,
    capped_heights,
    cells,
    composed_incidence,
    heights,
    tower_stacks,
)
from .dimgroup import DimGroup
from .fieldpoly import _mat_apply

# Default synthesis searches this many levels past the partition level.
DEFAULT_LOOKAHEAD_LEVELS = 6


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
    violation = _decide(b)[1]
    return BlockConditionResult(violation is None, violation)


def _decide(b: BlockBijection):
    """The block of each element (block_of[x], 1-based x) and the least
    violating family of check_block_condition, or None when none exists."""
    k = len(b.blocks)
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
    reach = [0] * k  # 0 until searched: a reach holds its own block
    reach[0] = _reach(adj, 0, reach)
    if reach[0] == full and _reach(radj, 0, [0] * k) == full:
        return block_of, None

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
        # y = z always qualifies: z's reach lies inside the closed closure
        for y in range(last + 1, z + 1):
            grown = closure | closure_of(y)
            if grown != full and not grown & ~chosen & ((1 << y) - 1):
                break
        chosen |= 1 << y
        closure = grown
        last = y
    return block_of, tuple(b.blocks[i] for i in range(k) if chosen >> i & 1)


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
    sigma with sigma[i-1] the image of i.

    Decides first: when the block condition fails, the violation of
    check_block_condition is raised before any splicing.  Otherwise start
    from the order-respecting assignment inside each block, then merge
    cycles: as long as the element 1 does not exhaust its cycle C, swapping
    the images of the earliest pair a block splits between C and the rest
    splices two cycles into one.  Until C is everything some block
    straddles it, or C would be a preserved union of blocks.  Deterministic:
    a count per block of its elements on C picks the first straddling block
    by index, and its smallest elements on and off C are used.
    """
    block_of, violation = _decide(b)
    if violation is not None:
        raise BlockConditionViolation(violation)
    n = b.size
    sigma = [0] * (n + 1)
    for u, v in zip(b.blocks, b.images):
        for i, j in zip(u, v):
            sigma[i] = j
    sizes = [len(u) for u in b.blocks]
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
            break
        u = b.blocks[(straddling & -straddling).bit_length() - 1]
        # blocks are sorted, so these are the least straddling elements
        i = next(x for x in u if on[x])
        j = next(x for x in u if not on[x])
        # the splice merges the cycle D through j into C, so the cycle of 1
        # becomes C | D and strictly grows; D is walked from its new entry
        sigma[i], sigma[j] = sigma[j], sigma[i]
        x = sigma[i]
    return tuple(sigma[1:])


@dataclass(frozen=True)
class FullGroupElement:
    """An element of the topological full group in return-time form.

    tables[w][j-1] is the orbit displacement applied on floor j of tower w
    at the stated level: the element acts as the j -> j + r(w, j) power of
    the underlying transformation there.  Displacements may point past the
    tower at this resolution; verification treats those cells as unresolved
    instead of guessing how the roof continues.
    """

    diagram: OrderedBratteliDiagram = field(compare=False)
    level: int
    tables: tuple

    def __post_init__(self):
        h = heights(self.diagram, self.level)
        if len(self.tables) != len(h):
            raise ValueError("need one displacement row per tower")
        for w, row in enumerate(self.tables):
            if len(row) != h[w]:
                raise ValueError(
                    "tower %d has height %d but %d displacements" % (w, h[w], len(row))
                )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "towers": [
                {"w": w, "r": list(row)} for w, row in enumerate(self.tables)
            ],
        }


@dataclass(frozen=True)
class ConjugacyReport:
    """Outcome of replaying a candidate conjugator against block data.

    verdict "ok" means every resolvable cell conjugates the successor map
    into the block bijection and the unresolved remainder is no larger than
    the number of fine towers (their roof bands, which no finite level can
    resolve; the unique maximal path sits inside one of them and is counted
    there rather than reported separately).  "counterexample" pins a block
    or a failed bijection; "inconclusive" means too many cells stayed
    unresolved to certify anything at this lookahead.
    """

    verdict: str  # "ok" | "counterexample" | "inconclusive"
    level: int
    checked: int
    unresolved: int
    block: Optional[int] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def _validate_partition(part, universe, what):
    seen = set()
    for u in part:
        if not u:
            raise ValueError("empty %s" % what)
        for c in u:
            if c in seen:
                raise ValueError("%s overlap at cell %r" % (what, (c,)))
            seen.add(c)
    if seen != universe:
        raise ValueError("%ss do not partition the cells at this level" % what)


def _infer_block_level(d, blocks, top):
    found = {c for u in blocks for c in u}
    for lvl in range(0, top + 1):
        if found == set(cells(d, lvl)):
            return lvl
    raise ValueError("blocks are not the cells of any level up to %d" % top)


def conjugator_from_partition(
    d: OrderedBratteliDiagram,
    m: int,
    blocks,
    images,
    lookahead_bound: Optional[int] = None,
) -> FullGroupElement:
    """Synthesize a full-group element conjugating the transformation into
    the block bijection, resolved at a finer level.

    Preconditions, each with its own error kind: every block must agree with
    its image in K0 ('class'); some level m* <= lookahead_bound must have a
    strictly positive composed incidence below m and carry equal pushed
    counting vectors for every pair ('level'); and the per-tower partitions
    induced at m* must satisfy the block condition ('blocks').

    Once the partitions are checked, one pass over them reads each floor's
    block and image-block label at level m and counts the classes.  A tower
    of m* stacks whole towers of m (bratteli.tower_stacks), so its labels
    are those of its stack, concatenated; the cells of m* are not listed,
    but CELL_CAP still binds on m*.
    """
    if lookahead_bound is None:
        lookahead_bound = m + DEFAULT_LOOKAHEAD_LEVELS
    top = d.max_level()
    if top is not None:
        lookahead_bound = min(lookahead_bound, top)
    universe = set(cells(d, m))
    blocks = tuple(tuple(sorted(u)) for u in blocks)
    images = tuple(tuple(sorted(v)) for v in images)
    if len(blocks) != len(images):
        raise ValueError("need one image per block")
    _validate_partition(blocks, universe, "block")
    _validate_partition(images, universe, "image block")
    grp = DimGroup(d)
    hm = heights(d, m)
    lab = [[0] * h for h in hm]
    img = [[0] * h for h in hm]
    unequal = []
    for bi, (u, v) in enumerate(zip(blocks, images)):
        cu = [0] * len(hm)
        cv = [0] * len(hm)
        for w, j in u:
            cu[w] += 1
            lab[w][j - 1] = bi
        for w, j in v:
            cv[w] += 1
            img[w][j - 1] = bi
        if cu == cv:
            continue
        if grp.equal(DgElement(m, cu), DgElement(m, cv)).value is not True:
            raise ConjugatorError(
                "class",
                "block %d and its image are not equivalent in K0" % bi,
                block=bi,
            )
        unequal.append((cu, cv))
    mstar = None
    for cand in range(m + 1, lookahead_bound + 1):
        comp = composed_incidence(d, m, cand)
        if any(x == 0 for row in comp for x in row):
            continue
        if all(_mat_apply(comp, cu) == _mat_apply(comp, cv) for cu, cv in unequal):
            mstar = cand
            break
    if mstar is None:
        raise ConjugatorError(
            "level",
            "no level in (%d, %d] joins every tower to every cell with "
            "matching counting vectors" % (m, lookahead_bound),
            bound=lookahead_bound,
        )
    h = capped_heights(d, mstar)
    tables = []
    for w, stack in enumerate(tower_stacks(d, m, mstar)):
        tower_blocks = [[] for _ in blocks]
        tower_images = [[] for _ in blocks]
        j = 0
        for u in stack:
            for b, i in zip(lab[u], img[u]):
                j += 1
                tower_blocks[b].append(j)
                tower_images[i].append(j)
        try:
            sigma = cyclic_from_blocks(BlockBijection(h[w], tower_blocks, tower_images))
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


class _CoarseTower:
    """One tower of the audit's coarse level, replayed on its own floors.

    fwd[j] is the floor s sends floor j to while it stays in the tower, 0
    otherwise; back[t] is the lowest floor sent to t, 0 if none; jumps
    maps each floor s sends out of the tower to its displacement.
    collision is the first floor, upwards, whose image is already taken,
    with that image.  lab and img are the block and image-block labels of
    the floors, missing the first floor's block cell that has no label.
    """

    def __init__(self, h: int, disp):
        self.h = h
        fwd = [0] * (h + 1)
        back = [0] * (h + 1)
        jumps = {}
        collision = None
        for j, r in enumerate(disp, 1):
            t = j + r
            if not 1 <= t <= h:
                jumps[j] = r
                continue
            fwd[j] = t
            if not back[t]:
                back[t] = j
            elif collision is None:
                collision = (j, t)
        self.fwd, self.back, self.jumps, self.collision = fwd, back, jumps, collision

    def label(self, lab, img, missing):
        """Take the labels of the floors, bottom first, and the first block
        cell without both; for a tower without jumps or missing labels also
        walk one copy of it (see walk_inside)."""
        self.lab = [None, *lab]
        self.img = [None, *img]
        self.missing = missing
        if not self.jumps and missing is None:
            self.walk_inside()

    def walk_inside(self):
        """The walk inside one copy of a tower without jumps or collisions:
        s then permutes its floors, so every floor has one preimage.  seam
        is the floor whose preimage is the top floor (its walk enters the
        next copy); checked counts the other floors, and clean says that
        none of them leaves its block's image."""
        h, fwd, back, lab, img = self.h, self.fwd, self.back, self.lab, self.img
        self.checked = 0
        self.clean = True
        for j in range(1, h + 1):
            y = back[j]
            if y == h:
                self.seam = j
            elif img[fwd[y + 1]] == lab[j]:
                self.checked += 1
            else:
                self.clean = False


class _FineTower:
    """A tower of the audit level as the copies of coarse towers it stacks.

    starts[i] is the floor under copy i; landed maps every floor of this
    tower that a jump out of a copy reaches to the floors jumping there, in
    increasing order.  A coarse tower without jumps maps its floors onto
    themselves, so a jump that lands in a copy of one makes s fail to be
    injective: the walk meets landed floors only in copies of towers with
    jumps, and replays those floor by floor.
    """

    def __init__(self, stack, towers, h: int):
        self.stack, self.towers, self.h = stack, towers, h
        self.starts = starts = []
        top = 0
        for u in stack:
            starts.append(top)
            top += towers[u].h
        self.landed = landed = {}
        for i, u in enumerate(stack):
            for j, r in towers[u].jumps.items():
                t = starts[i] + j + r
                if 1 <= t <= h:
                    landed.setdefault(t, []).append(starts[i] + j)

    def locate(self, floor: int) -> tuple:
        """(copy, floor inside that copy) of a floor of this tower."""
        i = bisect_left(self.starts, floor) - 1
        return i, floor - self.starts[i]

    def image(self, floor: int) -> int:
        """The floor s sends floor to, 0 past either end of this tower."""
        i, j = self.locate(floor)
        t = self.towers[self.stack[i]]
        if t.fwd[j]:
            return self.starts[i] + t.fwd[j]
        floor += t.jumps[j]
        return floor if 1 <= floor <= self.h else 0

    def preimage(self, floor: int) -> int:
        i, j = self.locate(floor)
        y = self.towers[self.stack[i]].back[j]
        return self.starts[i] + y if y else self.landed.get(floor, (0,))[0]

    def first_collision(self) -> int:
        """The image of the lowest floor whose image an earlier floor
        already has, 0 if s is injective here.

        Inside a copy the coarse tower's collision holds; the copies that
        jumps land in also count the jumps.  A floor's image has a single
        lowest preimage, so comparing second preimages picks one floor.
        """
        found = []
        for i, u in enumerate(self.stack):
            hit = self.towers[u].collision
            if hit:
                found.append((self.starts[i] + hit[0], self.starts[i] + hit[1]))
                break
        for t, jumped in self.landed.items():
            i, j = self.locate(t)
            y = self.towers[self.stack[i]].back[j]
            pre = sorted(jumped + [self.starts[i] + y]) if y else jumped
            if len(pre) > 1:
                found.append((pre[1], t))
        return min(found)[1] if found else 0

    def walk(self, tally):
        """Add this tower's checked and unresolved cells to tally, floors
        upwards; stop at the first cell whose walk leaves its block's
        image and return (floor, block).  Runs after the injectivity pass,
        so no tower met here has a collision."""
        stack, towers = self.stack, self.towers
        for i, u in enumerate(stack):
            t = towers[u]
            if not t.jumps:
                # the walk from this copy's top floor enters the next copy
                # at the image of its floor 1, read there when s keeps that
                # floor inside the copy
                nxt = label = 0
                if i + 1 < len(stack):
                    n = towers[stack[i + 1]]
                    f = n.fwd[1]
                    nxt = self.starts[i + 1] + f if f else self.image(self.starts[i + 1] + 1)
                    label = n.img[f] if f else nxt and self.image_label(nxt)
                if t.clean and (not nxt or label == t.lab[t.seam]):
                    tally[0] += t.checked + bool(nxt)
                    tally[1] += not nxt
                    continue
            failed = self.replay(i, tally)
            if failed:
                return failed
        return None

    def image_label(self, floor: int):
        i, j = self.locate(floor)
        return self.towers[self.stack[i]].img[j]

    def replay(self, i: int, tally):
        """walk on copy i alone, floor by floor."""
        t = self.towers[self.stack[i]]
        for j in range(1, t.h + 1):
            y = self.preimage(self.starts[i] + j)
            nxt = self.image(y + 1) if 0 < y < self.h else 0
            if not nxt:
                tally[1] += 1
            elif self.image_label(nxt) == t.lab[j]:
                tally[0] += 1
            else:
                return self.starts[i] + j, t.lab[j]
        return None


def verify_conjugator(
    s: FullGroupElement,
    blocks,
    images,
    lookahead: int = 2,
    block_level: Optional[int] = None,
) -> ConjugacyReport:
    """Replay s at a finer level and test that it conjugates the successor
    map into the block bijection.

    For every fine cell c the walk computes t = s(alpha(s^-1(c))) and checks
    that t lies in the image of the block containing c.  Cells whose walk
    crosses a fine roof (where the successor is not a cell) stay unresolved;
    a correct conjugator leaves exactly one such cell per fine tower.  Three
    passes, in this order, decide the report: s is injective, each block
    covers as many fine cells as its image, and every resolvable cell lands
    in its block's image.  The first failure in tower-then-floor order of
    the fine cells is the one reported.

    The replay never lists the fine cells.  Each fine tower stacks whole
    towers of level c = max(s.level, block_level) (bratteli.tower_stacks),
    and both s and the block labels are constant on their fibers, so a
    displacement that keeps a floor inside its c-tower acts alike in every
    copy of that tower.  Injectivity, the walk and the labels are therefore
    worked out once per c-tower; a copy adds only its seam, the floor whose
    walk crosses into the next copy, and block counts are block-level
    counts times copy multiplicities.  Floors whose displacement leaves
    their c-tower, and the copies they land in, are replayed floor by
    floor.  A c-tower's displacements and labels are those of the towers
    of s.level and of block_level it stacks, concatenated, so no level's
    cells are listed either.  The cost grows with the cells of level c and
    the number of copies, and CELL_CAP binds on level c only.
    """
    d = s.diagram
    mf = d.check_level(s.level + lookahead)
    # the order of cells inside a block plays no part here
    blocks = tuple(map(tuple, blocks))
    images = tuple(map(tuple, images))
    if block_level is None:
        block_level = _infer_block_level(d, blocks, s.level)
    c = max(s.level, block_level)
    stacks = tower_stacks(d, c, mf)
    hf = heights(d, mf)
    towers = [
        _CoarseTower(h, chain.from_iterable(map(s.tables.__getitem__, stack)))
        for h, stack in zip(capped_heights(d, c), tower_stacks(d, s.level, c))
    ]
    views = [_FineTower(stack, towers, h) for stack, h in zip(stacks, hf)]
    suspect = any(t.collision or t.jumps for t in towers)

    for v, view in enumerate(views):
        hit = view.first_collision() if suspect else 0
        if hit:
            return ConjugacyReport(
                "counterexample",
                mf,
                0,
                0,
                reason="two cells map to %r; not injective" % ((v, hit),),
            )

    # labels per block-level floor, read up each c-tower's stack; a lookup
    # that fails raises, as listing the fine cells would, at the first fine
    # cell whose block cell is unknown
    where = {cell: bi for bi, u in enumerate(blocks) for cell in u}
    img_where = {cell: bi for bi, v in enumerate(images) for cell in v}
    lab, img, missing = [], [], []
    for w, h in enumerate(heights(d, block_level)):
        floor_cells = [(w, j) for j in range(1, h + 1)]
        lab.append(list(map(where.get, floor_cells)))
        img.append(list(map(img_where.get, floor_cells)))
        missing.append(
            next(cell for cell, b, i in zip(floor_cells, lab[w], img[w]) if b is None or i is None)
            if None in lab[w] or None in img[w]
            else None
        )
    for t, stack in zip(towers, tower_stacks(d, block_level, c)):
        t.label(
            chain.from_iterable(map(lab.__getitem__, stack)),
            chain.from_iterable(map(img.__getitem__, stack)),
            next((missing[w] for w in stack if missing[w] is not None), None),
        )
    for stack in stacks:
        for u in stack:
            if towers[u].missing is not None:
                raise KeyError(towers[u].missing)
    # block counts: each block-level floor's labels times its copies in mf
    copies = [sum(col) for col in zip(*composed_incidence(d, block_level, mf))]
    fine_count = [0] * len(blocks)
    fine_image_count = [0] * len(blocks)
    for n, bs, js in zip(copies, lab, img):
        for b, i in zip(bs, js) if n else ():
            fine_count[b] += n
            fine_image_count[i] += n
    for bi, (x, y) in enumerate(zip(fine_count, fine_image_count)):
        if x != y:
            return ConjugacyReport(
                "counterexample",
                mf,
                0,
                0,
                block=bi,
                reason="block %d covers %d fine cells, its image %d" % (bi, x, y),
            )

    tally = [0, 0]  # checked, unresolved
    for v, view in enumerate(views):
        failed = view.walk(tally)
        if failed:
            j, b = failed
            return ConjugacyReport(
                "counterexample",
                mf,
                tally[0],
                tally[1],
                block=b,
                reason="cell %r of block %d conjugates into the wrong image"
                % ((v, j), b),
            )
    checked, unresolved = tally
    if unresolved > len(hf):
        return ConjugacyReport("inconclusive", mf, checked, unresolved)
    return ConjugacyReport("ok", mf, checked, unresolved)
