"""The workloads: seeded inputs, one pass of operations, answer checks.

A pass is a fixed list of operations whose make-up does not depend on the
seed; the seed only draws the random systems and block bijections, and
the order of the pairs.  Every run repeats whole passes,
so the share of failed operations is the same in every run.

Each operation goes through `Runner.op`, which times the call alone.  The
check that follows it is not timed.  An operation ends in one of three
states: "decided" (a definite answer that passed its check), "open" (a
bounded search answered unknown, which no check contradicts) or "failed".
A failure is "known" when it is one of the faults the README lists, with
the symptom listed there; any other failure makes the run incorrect.
"""

from __future__ import annotations

import itertools
import random
import time

import oracles

DECIDED, OPEN, FAILED = "decided", "open", "failed"

# The 3-vertex system with incidence ((1,1,0),(0,1,1),(2,2,2)); its trace
# lattice hits IndexError in invariants._hnf_rows on every seed.
TRI3 = ((1, 1, 0), (0, 1, 1), (2, 2, 2))

# A 3-vertex system with divisor set 2^inf (incidence ((2,1,1),(0,0,1),
# (2,2,2))).  decide_weak against quaternary spends about 0.3 s in
# classify.represent, whose cost grows with the target height.  Random
# 3-vertex 2^inf systems take from milliseconds to 7 s there, depending on
# the seed, so the pool draws none and this one stands for them.
TWO_ADIC3 = ((0, 0, 2, 1), (2,), (0, 0, 1, 2, 1, 2))


class Op:
    __slots__ = ("name", "start", "wall", "state", "known", "note")

    def __init__(self, name, start, wall):
        self.name = name
        self.start = start
        self.wall = wall
        self.state = None
        self.known = False
        self.note = ""

    def decided(self):
        self.state = DECIDED

    def open(self):
        self.state = OPEN

    def fail(self, note, known=False):
        self.state = FAILED
        self.known = known
        self.note = note


class Runner:
    """Times operations and takes reference samples between them."""

    def __init__(self, calibrator):
        self.cal = calibrator
        self.ops = []

    def op(self, name, fn):
        self.cal.maybe_sample()
        t0 = time.perf_counter()
        try:
            result, exc = fn(), None
        except Exception as e:  # every exception is judged by the caller
            result, exc = None, e
        t1 = time.perf_counter()
        rec = Op(name, t0, t1 - t0 - self.cal.busy(t0, t1))
        self.ops.append(rec)
        self.cal.maybe_sample()
        return result, exc, rec


def _undocumented(rec, exc):
    rec.fail("%s: %s" % (type(exc).__name__, exc))


# -- seeded inputs -------------------------------------------------------------


def random_matrix(rng, n):
    while True:
        m = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n))
        if oracles.is_primitive(m):
            return m


def divisor_class(vals):
    """Coarse class of a divisor set: the cost of weak and tau depends on it."""
    primes = {p: v for p, v in vals.items() if v != 0}
    if not primes:
        return "trivial"
    if primes == {2: oracles.INF}:
        return "2^inf"
    if primes == {3: oracles.INF}:
        return "3^inf"
    return "other"


def random_pool(rng, slots):
    """Random primitive stationary systems with shuffled edge orders, one per
    slot (vertex count, divisor class).

    Fixing the class of every slot keeps the make-up of the pool, and with
    it the number of pairs with equal divisor sets, the same on every seed.
    Two kinds of candidate are left out, because their fault (listed in the
    README) shows on some seeds and not on others: one with a repeated
    eigenvalue, on which the Perron root isolation in fieldpoly does not
    end, and one whose trace lattice raises IndexError (the fixed TRI3
    system keeps that fault in the benchmark on every seed).
    """
    from cantorconj.invariants import trace_image_group
    from cantorconj.systems import stationary_from_rows

    pool, seen = [], set()
    for n, cls in slots:
        while True:
            mat = random_matrix(rng, n)
            if oracles.char_discriminant(mat) == 0:
                continue
            rows = []
            for r in oracles.rows_of(mat):
                r = list(r)
                rng.shuffle(r)
                rows.append(tuple(r))
            rows = tuple(rows)
            if rows in seen:
                continue
            d = stationary_from_rows(rows)
            if divisor_class(oracles.divisor_valuations(d)) != cls:
                continue
            try:
                trace_image_group(d)
            except IndexError:
                continue
            seen.add(rows)
            pool.append(("r%d" % len(pool), d))
            break
    return pool


def named_systems():
    from cantorconj import systems

    return [(name, f()) for name, f in systems.NAMED.items()]


# -- zoo -----------------------------------------------------------------------


class Zoo:
    """Named systems, TRI3, TWO_ADIC3 and a seeded pool; weak and tau on
    every ordered pair, kconj on self-pairs and on one pair per system with
    differing divisor sets."""

    # 2-vertex: 5 trivial, 3 with 2^inf, 1 with 3^inf, 2 other;
    # 3-vertex: 6 trivial, 1 with 3^inf, 4 other (see TWO_ADIC3)
    POOL = [
        (n, cls)
        for n, classes in (
            (2, (("trivial", 5), ("2^inf", 3), ("3^inf", 1), ("other", 2))),
            (3, (("trivial", 6), ("3^inf", 1), ("other", 4))),
        )
        for cls, count in classes
        for _ in range(count)
    ]

    def __init__(self, seed):
        from cantorconj.systems import stationary_from_rows

        rng = random.Random(seed)
        fixed = [
            ("tri3", stationary_from_rows(oracles.rows_of(TRI3))),
            ("two_adic3", stationary_from_rows(TWO_ADIC3)),
        ]
        self.systems = named_systems() + fixed + random_pool(rng, self.POOL)
        self.vals = {n: oracles.divisor_valuations(d) for n, d in self.systems}
        names = [n for n, _ in self.systems]
        self.pairs = list(itertools.product(names, repeat=2))
        rng.shuffle(self.pairs)
        self.by_name = dict(self.systems)
        partners = [n for n, _ in named_systems()]
        rng.shuffle(partners)
        self.kpairs = []
        for n in names:
            self.kpairs.append((n, n))
            other = next(p for p in partners if self.vals[p] != self.vals[n])
            self.kpairs.append((n, other))

    def warm_up(self):
        from cantorconj.classify import decide_tau

        decide_tau(self.by_name["fibonacci"], self.by_name["dyadic"])

    def run_pass(self, r):
        from cantorconj.classify import decide_k_conjugacy, decide_tau, decide_weak

        weak, tau, recs = {}, {}, {}
        for a, b in self.pairs:
            da, db = self.by_name[a], self.by_name[b]
            same = self.vals[a] == self.vals[b]
            res, exc, rec = r.op("decide_weak", lambda: decide_weak(da, db))
            recs["weak", a, b] = rec
            if exc is not None:
                _undocumented(rec, exc)
            elif res.verdict == "unknown":
                rec.open()
            elif res.verdict != ("weak" if same else "not"):
                rec.fail("weak says %s, divisor oracle says same=%s" % (res.verdict, same))
            else:
                rec.decided()
            weak[a, b] = None if exc else res.verdict

            res, exc, rec = r.op("decide_tau", lambda: decide_tau(da, db))
            recs["tau", a, b] = rec
            tau[a, b] = None if exc else res.verdict
            if exc is not None:
                if "tri3" in (a, b) and isinstance(exc, IndexError):
                    rec.fail("IndexError in the trace lattice", known=True)
                else:
                    _undocumented(rec, exc)
            elif not same and res.verdict != "not":
                rec.fail("tau says %s on differing divisor sets" % res.verdict)
            elif res.verdict == "unknown":
                rec.open()
            else:
                rec.decided()

        # hierarchy tau => weak, reflexivity and symmetry
        for a, b in self.pairs:
            if tau[a, b] == "tau" and weak[a, b] != "weak":
                recs["tau", a, b].fail("tau without weak")
        for kind, table in (("weak", weak), ("tau", tau)):
            for a in oracles.irreflexive(table, kind):
                if recs[kind, a, a].state != FAILED:
                    recs[kind, a, a].fail("%s is not reflexive" % kind)
            for a, b in oracles.asymmetric_pairs(table):
                if recs[kind, b, a].state != FAILED:
                    recs[kind, b, a].fail("%s is not symmetric" % kind)

        for a, b in self.kpairs:
            da, db = self.by_name[a], self.by_name[b]
            res, exc, rec = r.op("decide_k_conjugacy", lambda: decide_k_conjugacy(da, db))
            if exc is not None:
                if a == "tri3" and isinstance(exc, IndexError):
                    rec.fail("IndexError in the trace lattice", known=True)
                else:
                    _undocumented(rec, exc)
            elif a != b:
                if res.verdict == "not":
                    rec.decided()
                else:
                    rec.fail("kconj says %s on differing divisor sets" % res.verdict)
            elif res.verdict != "k-conjugate" or res.ladder is None:
                rec.fail("kconj is not reflexive: %s" % res.verdict)
            else:
                l = res.ladder
                why = oracles.replay_ladder(
                    l.a_levels, l.b_levels, l.forwards, l.backwards, da, db
                )
                rec.fail("ladder replay: " + why) if why else rec.decided()


# -- telescope -----------------------------------------------------------------


def telescope_pairs():
    """(label, A, B) for every primitive 2x2 incidence with entries <= 2
    against its square, both orders, and odometers 2, 3, 5 against their
    squares, both orders, and their cubes.

    A cube comes only second: with the cube first, the ladder search has no
    work bound (odometer 125 against 5 runs past 20 s, see CHANGES.md)."""
    from cantorconj.systems import odometer, stationary_from_rows

    out = []
    for entries in itertools.product(range(3), repeat=4):
        mat = (entries[:2], entries[2:])
        if not oracles.is_primitive(mat):
            continue
        rows = oracles.rows_of(mat)
        a = stationary_from_rows(rows)
        sq = stationary_from_rows(oracles.composed_rows(rows))
        out.append(("%s" % (mat,), a, sq))
        out.append(("%s^2" % (mat,), sq, a))
    for q in (2, 3, 5):
        out.append(("odometer %d vs %d" % (q, q * q), odometer(q), odometer(q * q)))
        out.append(("odometer %d vs %d" % (q * q, q), odometer(q * q), odometer(q)))
        out.append(("odometer %d vs %d" % (q, q ** 3), odometer(q), odometer(q ** 3)))
    return out


class Telescope:
    """Each system against its own telescoping: the known answer is yes for
    all three relations.  Every certificate a decider emits (weak, tau,
    ladder) is checked by verify_certificate as its own operation."""

    def __init__(self, seed):
        self.pairs = telescope_pairs()
        random.Random(seed).shuffle(self.pairs)

    def warm_up(self):
        from cantorconj import systems
        from cantorconj.classify import decide_k_conjugacy

        decide_k_conjugacy(systems.fibonacci(), systems.fibonacci())

    def run_pass(self, r):
        from cantorconj.classify import (
            decide_k_conjugacy,
            decide_tau,
            decide_weak,
            ladder_certificate,
            tau_certificate,
            verify_certificate,
            weak_certificate,
        )

        def verify(cert, kind):
            chk, exc, rec = r.op("verify_certificate", lambda: verify_certificate(cert, (da, db)))
            if exc is not None:
                _undocumented(rec, exc)
            elif chk.ok:
                rec.decided()
            else:
                rec.fail("%s certificate rejected: %s" % (kind, chk.reason))

        for _, da, db in self.pairs:
            res, exc, rec = r.op("decide_weak", lambda: decide_weak(da, db))
            if exc is not None:
                _undocumented(rec, exc)
            elif res.verdict == "weak":
                rec.decided()
                verify(weak_certificate(res, da, db), "weak")
            elif res.verdict == "unknown":
                rec.open()
            else:
                rec.fail("weak says %s on a telescoping" % res.verdict)

            res, exc, rec = r.op("decide_tau", lambda: decide_tau(da, db))
            if exc is not None:
                _undocumented(rec, exc)
            elif res.verdict == "tau":
                rec.decided()
                verify(tau_certificate(res, da, db), "tau")
            elif res.verdict == "unknown":
                rec.fail("tau unknown on one system and its telescoping", known=True)
            else:
                rec.fail("tau says %s on a telescoping" % res.verdict)

            res, exc, rec = r.op("decide_k_conjugacy", lambda: decide_k_conjugacy(da, db))
            if exc is not None:
                _undocumented(rec, exc)
                continue
            if res.verdict == "unknown":
                rec.open()
                continue
            if res.verdict != "k-conjugate" or res.ladder is None:
                rec.fail("kconj says %s on a telescoping" % res.verdict)
                continue
            l = res.ladder
            why = oracles.replay_ladder(l.a_levels, l.b_levels, l.forwards, l.backwards, da, db)
            if why:
                rec.fail("ladder replay: " + why)
                continue
            rec.decided()
            verify(ladder_certificate(l, da, db), "ladder")


# -- resolution ----------------------------------------------------------------


def block_bijection(rng, k, satisfying):
    """k blocks of sizes 1..3 over 1..n with aligned images.

    A violating instance keeps a random nonempty proper family of blocks
    inside its own union; a satisfying one is redrawn until the block graph
    is strongly connected.
    """
    sizes = [rng.randint(1, 3) for _ in range(k)]
    n = sum(sizes)
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(tuple(sorted(elems[pos:pos + s])))
        pos += s
    while True:
        if satisfying:
            groups = [list(range(k))]
        else:
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
        if oracles.block_condition(blocks, images) == satisfying:
            return n, tuple(blocks), tuple(images)


class Resolution:
    """Odometer conjugators at every level with at most 20 cells, their
    certificates, and seeded block bijections with 10 to 20 blocks."""

    ODOMETERS = ((2, 2), (2, 4), (4, 2), (3, 3), (4, 4))
    CELL_LIMIT = 20
    BLOCK_COUNTS = range(10, 21)

    def __init__(self, seed):
        from cantorconj import systems
        from cantorconj.fullgroup import BlockBijection

        self.levels = []
        for qa, qb in self.ODOMETERS:
            m = 1
            while qa ** m <= self.CELL_LIMIT:
                self.levels.append((qa, qb, m))
                m += 1
        self.odometer = {q: systems.odometer(q) for q in (2, 3, 4)}
        # Multi-vertex self-pairs: the identity conjugates each to itself.
        self.self_pairs = (
            ("fibonacci", systems.fibonacci()),
            ("rows ((0,1),(0,1,1))", systems.stationary_from_rows(((0, 1), (0, 1, 1)))),
        )
        rng = random.Random(seed)
        self.bijections = []
        for k in self.BLOCK_COUNTS:
            for satisfying in (True, False):
                n, blocks, images = block_bijection(rng, k, satisfying)
                self.bijections.append(
                    (satisfying, BlockBijection(n, blocks, images))
                )

    def warm_up(self):
        from cantorconj.classify import conjugate_at_resolution

        conjugate_at_resolution(self.odometer[2], self.odometer[2], 1)

    def _check_bundle(self, bundle, qa, qb, m):
        """Block-level facts every conjugator at resolution must have:
        blocks partition the target level, each carries the measure of one
        source cell (odometers are uniquely ergodic), images permute blocks."""
        if bundle.report.verdict != "ok":
            return "report says %s" % bundle.report.verdict
        lvl = bundle.sigma.target_level
        cells = [c for u in bundle.blocks for c in u]
        if sorted(cells) != [(0, j) for j in range(1, qb ** lvl + 1)]:
            return "blocks do not partition the cells at level %d" % lvl
        if any(len(u) * qa ** m != qb ** lvl for u in bundle.blocks):
            return "a block's measure differs from a source cell's"
        if sorted(bundle.images) != sorted(bundle.blocks):
            return "images are not a permutation of the blocks"
        return None

    def run_pass(self, r):
        from cantorconj.classify import (
            StageError,
            conjugate_at_resolution,
            conjugator_certificate,
            verify_certificate,
        )
        from cantorconj.fullgroup import (
            BlockConditionViolation,
            check_block_condition,
            cyclic_from_blocks,
        )

        for qa, qb, m in self.levels:
            da, db = self.odometer[qa], self.odometer[qb]
            bundle, exc, rec = r.op(
                "conjugate_at_resolution", lambda: conjugate_at_resolution(da, db, m)
            )
            if exc is not None:
                _undocumented(rec, exc)
                continue
            why = self._check_bundle(bundle, qa, qb, m)
            if why:
                rec.fail(why)
                continue
            rec.decided()
            chk, exc, rec = r.op(
                "verify_certificate",
                lambda: verify_certificate(
                    conjugator_certificate(
                        bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
                    ),
                    (db,),
                ),
            )
            if exc is not None:
                _undocumented(rec, exc)
            elif chk.ok:
                rec.decided()
            else:
                rec.fail("conjugator certificate rejected: " + chk.reason)

        for label, d in self.self_pairs:
            bundle, exc, rec = r.op(
                "conjugate_at_resolution", lambda: conjugate_at_resolution(d, d, 1)
            )
            if isinstance(exc, StageError) and exc.stage == "partition":
                rec.fail("%s at level 1: %s" % (label, exc), known=True)
            elif exc is not None:
                _undocumented(rec, exc)
            elif bundle.report.verdict == "ok":
                rec.decided()
            else:
                rec.fail("report says %s" % bundle.report.verdict)

        for satisfying, b in self.bijections:
            res, exc, rec = r.op("check_block_condition", lambda: check_block_condition(b))
            if exc is not None:
                _undocumented(rec, exc)
            elif res.ok != satisfying:
                rec.fail("block condition says %s, block graph says %s" % (res.ok, satisfying))
            elif not res.ok and not oracles.is_preserved_family(
                [b.blocks.index(u) for u in res.violation], b.blocks, b.images
            ):
                rec.fail("reported violation is not a preserved family")
            else:
                rec.decided()
            sigma, exc, rec = r.op("cyclic_from_blocks", lambda: cyclic_from_blocks(b))
            if isinstance(exc, BlockConditionViolation) and not satisfying:
                rec.decided()
            elif exc is not None:
                _undocumented(rec, exc)
            elif not satisfying:
                rec.fail("a cycle was built where the block condition fails")
            else:
                why = oracles.cycle_respects_blocks(sigma, b.blocks, b.images)
                rec.fail(why) if why else rec.decided()


WORKLOADS = {
    "zoo": Zoo,
    "telescope": Telescope,
    "resolution": Resolution,
}
