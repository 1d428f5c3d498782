"""Acceptance gates: ten end-to-end criteria, one test and one verdict each.

Every check is backed by an independent oracle: exhaustive brute force for
the cyclic permutation engine, randomized synthesis plus corruption sweeps
for conjugators, push-forward sign scans for the order structure,
reachability tables for the semigroup arithmetic, and byte-level tamper
sweeps for the certificate layer.  Randomized parts run on fixed seeds.
"""

import itertools
import json
import math
import random

from cantorconj import systems
from cantorconj.bratteli import (
    MAX_PATH,
    CapabilityError,
    cells,
    dump_diagram,
    heights,
    load_diagram,
    max_path,
    min_path,
    vershik_successor,
)
from cantorconj.classify import (
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    SearchExhausted,
    StageError,
    tau_certificate,
    verify_certificate,
    verify_ladder,
    weak_certificate,
)
from cantorconj.check import (
    FullGroupElement,
    check_divides_certificate,
    frobenius,
    represent,
    verify_conjugator,
)
from cantorconj.cli import run
from cantorconj.dimgroup import DimGroup, NEGATIVE, POSITIVE, ZERO
from cantorconj.fullgroup import (
    BlockBijection,
    check_block_condition,
    conjugator_from_partition,
    cyclic_from_blocks,
)
from cantorconj.invariants import divides_unit

from conftest import hierarchy_pool, oracle_heights, time_ceiling

DYADIC = systems.dyadic()
TRIADIC = systems.triadic()
QUATERNARY = systems.quaternary()
FIB = systems.fibonacci()
ODO5 = systems.odometer(5)

EXAMPLES = (DYADIC, TRIADIC, QUATERNARY, FIB, ODO5)


def _verdict(num, label, detail):
    print("criterion %02d (%s): PASS  [%s]" % (num, label, detail))


# ---------------------------------------------------------------------------
# criterion 1: the cyclic permutation engine, exhaustively to size 7


def _set_partitions(n):
    out = []

    def rec(i, blocks):
        if i > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def _size_matched_images(p, q):
    by_size_q = {}
    for b in q:
        by_size_q.setdefault(len(b), []).append(b)
    sizes = sorted(by_size_q)
    p_by_size = {s: [b for b in p if len(b) == s] for s in sizes}
    pools = [itertools.permutations(by_size_q[s]) for s in sizes]
    for choice in itertools.product(*pools):
        mapping = {}
        for s, perm in zip(sizes, choice):
            for pb, qb in zip(p_by_size[s], perm):
                mapping[pb] = qb
        yield tuple(mapping[b] for b in p)


def _is_single_cycle(sigma):
    n = len(sigma)
    x, steps = sigma[0], 1
    while x != 1:
        x = sigma[x - 1]
        steps += 1
    return steps == n


def _respects(sigma, bij):
    return all(
        {sigma[x - 1] for x in u} == set(v)
        for u, v in zip(bij.blocks, bij.images)
    )


def _brute_cycle_exists(n, blocks, images):
    pools = [list(itertools.permutations(v)) for v in images]
    for choice in itertools.product(*pools):
        perm = [0] * (n + 1)
        for u, img in zip(blocks, choice):
            for a, b in zip(u, img):
                perm[a] = b
        x, steps = perm[1], 1
        while x != 1:
            x = perm[x]
            steps += 1
        if steps == n:
            return True
    return False


def test_criterion_01_cyclic_permutations_exhaustive():
    checked = satisfied = violated = 0
    for n in range(1, 8):
        by_type = {}
        for p in _set_partitions(n):
            by_type.setdefault(tuple(sorted(map(len, p))), []).append(p)
        for group in by_type.values():
            for p in group:
                for q in group:
                    for images in _size_matched_images(p, q):
                        checked += 1
                        bij = BlockBijection(n, p, images)
                        res = check_block_condition(bij)
                        if res.ok:
                            satisfied += 1
                            # a valid construction is exactly a member of
                            # the brute-force solution set: a single
                            # n-cycle carrying each block onto its image
                            sigma = cyclic_from_blocks(bij)
                            assert _is_single_cycle(sigma), (bij, sigma)
                            assert _respects(sigma, bij), (bij, sigma)
                        else:
                            violated += 1
                            fam = res.violation
                            assert fam, bij
                            assert 0 < len(fam) < len(bij.blocks)
                            to_image = dict(zip(bij.blocks, bij.images))
                            union = {x for u in fam for x in u}
                            image_union = {x for u in fam for x in to_image[u]}
                            assert union == image_union, (bij, fam)
                            assert not _brute_cycle_exists(
                                n, bij.blocks, bij.images
                            ), bij
    assert checked > 400_000
    _verdict(
        1,
        "cyclic permutations",
        "%d instances, %d built, %d refuted" % (checked, satisfied, violated),
    )


# ---------------------------------------------------------------------------
# criterion 2: randomized conjugator synthesis with corruption sweep


def _random_matched_partition(d, m, rng, k):
    per_tower = {}
    for c in cells(d, m):
        per_tower.setdefault(c[0], []).append(c)
    blocks = [[] for _ in range(k)]
    images = [[] for _ in range(k)]
    for _, tcells in sorted(per_tower.items()):
        labels = [rng.randrange(k) for _ in tcells]
        src, img = labels[:], labels[:]
        rng.shuffle(src)
        rng.shuffle(img)
        for c, a in zip(tcells, src):
            blocks[a].append(c)
        for c, a in zip(tcells, img):
            images[a].append(c)
    keep = [i for i in range(k) if blocks[i]]
    return (
        tuple(tuple(blocks[i]) for i in keep),
        tuple(tuple(images[i]) for i in keep),
    )


def _has_invariant_subfamily(blocks, images):
    k = len(blocks)
    bs = [frozenset(u) for u in blocks]
    ims = [frozenset(v) for v in images]
    for mask in range(1, (1 << k) - 1):
        chosen = [i for i in range(k) if mask >> i & 1]
        if frozenset().union(*(bs[i] for i in chosen)) == frozenset().union(
            *(ims[i] for i in chosen)
        ):
            return True
    return False


def test_criterion_02_conjugator_synthesis_randomized():
    rng = random.Random(11807)
    # fibonacci at resolution 1 is one cell per tower, so the only family
    # with matching classes is the trivial one; start it at resolution 2
    targets = [(DYADIC, m) for m in (1, 2, 3)] + [(FIB, m) for m in (2, 3)]
    cases = []
    while len(cases) < 200:
        d, m = targets[len(cases) % len(targets)]
        blocks, images = _random_matched_partition(d, m, rng, rng.randint(2, 4))
        if len(blocks) < 2 or _has_invariant_subfamily(blocks, images):
            continue
        elem = conjugator_from_partition(d, m, blocks, images)
        rep = verify_conjugator(elem, blocks, images, m)
        assert rep.verdict == "ok", (d.kind, m, blocks, images, rep)
        cases.append((d, m, blocks, images, elem))
    corrupted = 0
    for d, m, blocks, images, elem in cases[:5]:
        for w, row in enumerate(elem.tables):
            for j in range(len(row)):
                rows = [list(r) for r in elem.tables]
                rows[w][j] += 1
                bad = FullGroupElement(d, elem.level, tuple(tuple(r) for r in rows))
                assert verify_conjugator(bad, blocks, images, m).verdict != "ok", (
                    d.kind,
                    elem,
                    (w, j),
                )
                corrupted += 1
    _verdict(
        2,
        "conjugator synthesis",
        "200 verified, %d corruptions caught" % corrupted,
    )


# ---------------------------------------------------------------------------
# criterion 3: weak conjugacy verdicts with verified schedules


def test_criterion_03_weak_verdicts():
    res = decide_weak(DYADIC, TRIADIC)
    assert (res.verdict, res.witness) == ("not", 2)
    res = decide_weak(DYADIC, FIB)
    assert (res.verdict, res.witness) == ("not", 2)
    res = decide_weak(DYADIC, QUATERNARY)
    assert res.verdict == "weak"
    for sched, src, dst in (
        (res.forward, DYADIC, QUATERNARY),
        (res.backward, QUATERNARY, DYADIC),
    ):
        assert len(sched) >= 2
        srcs = [t.source_level for t in sched]
        assert srcs == sorted(set(srcs)), srcs
        for t in sched:
            assert all(x >= 0 for row in t.matrix for x in row)
            hs = heights(src, t.source_level)
            assert t.apply(hs) == heights(dst, t.target_level)
    _verdict(3, "weak conjugacy", "2 refutations, 2x%d schedules" % len(res.forward))


# ---------------------------------------------------------------------------
# criterion 4: strong orbit equivalence verdicts with a verified ladder


def test_criterion_04_k_conjugacy_verdicts():
    res = decide_k_conjugacy(DYADIC, QUATERNARY)
    assert res.verdict == "k-conjugate"
    assert verify_ladder(res.ladder, DYADIC, QUATERNARY).ok
    assert decide_k_conjugacy(DYADIC, TRIADIC).verdict == "not"
    res = decide_k_conjugacy(FIB, DYADIC)
    assert res.verdict == "not"
    assert "trace" in {o.kind for o in res.obstructions}
    _verdict(4, "K-conjugacy", "ladder verified, 2 refutations")


# ---------------------------------------------------------------------------
# criterion 5: verdicts respect the hierarchy across the 4x4 matrix


def test_criterion_05_hierarchy_consistency():
    named = (DYADIC, TRIADIC, QUATERNARY, FIB)
    pairs = 0
    for a in named:
        for b in named:
            kc = decide_k_conjugacy(a, b).verdict == "k-conjugate"
            tau = decide_tau(a, b).verdict == "tau"
            weak = decide_weak(a, b).verdict == "weak"
            assert not (kc and not tau), (a, b)
            assert not (tau and not weak), (a, b)
            pairs += 1
    _verdict(5, "hierarchy", "%d ordered pairs, no violations" % pairs)


HIERARCHY = (
    ("weak", decide_weak, "weak"),
    ("tau", decide_tau, "tau"),
    ("kconj", decide_k_conjugacy, "k-conjugate"),
)


def test_criterion_05_hierarchy_on_seeded_powers():
    pool = hierarchy_pool()
    got = {}
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            for rel, decide, positive in HIERARCHY:
                try:
                    with time_ceiling(10):
                        res = decide(a, b)
                except (CapabilityError, SearchExhausted):  # the documented errors
                    got[rel, i, j] = None
                    continue
                if res.verdict == "not":
                    # every refutation names what refutes it
                    assert (res.witness if rel == "weak" else res.obstructions), (rel, i, j)
                got[rel, i, j] = "+" if res.verdict == positive else res.verdict
    n = len(pool)
    for i in range(n):
        assert all(got[rel, i, i] == "+" for rel, _, _ in HIERARCHY), i
        for j in range(n):
            # kconj => tau => weak, read as: a positive verdict is never
            # refuted further down; kconj may be positive where tau is
            # unknown (powers whose minimal polynomials differ)
            if got["kconj", i, j] == "+":
                assert got["tau", i, j] != "not" and got["weak", i, j] != "not", (i, j)
            if got["tau", i, j] == "+":
                assert got["weak", i, j] != "not", (i, j)
            for rel, _, _ in HIERARCHY:
                assert not (got[rel, i, j] == "+" and got[rel, j, i] == "not"), (rel, i, j)
            # a ladder found in one order is read backwards for the other
            assert not (got["kconj", i, j] == "+" and got["kconj", j, i] == "unknown"), (i, j)
    _verdict(5, "hierarchy", "%d seeded ordered pairs, no violations" % (n * n))


def test_criterion_05_hierarchy_through_the_cli(tmp_path, capsys):
    pool = hierarchy_pool()
    # a refuted weak pair, a tau pair left unknown, a k-conjugate pair
    for command, i, j in (("weak", 0, 4), ("tau", 1, 0), ("kconj", 3, 4)):
        paths = []
        for k in (i, j):
            paths.append(str(tmp_path / ("s%d.obd" % k)))
            dump_diagram(pool[k], paths[-1])
        with time_ceiling(30):
            rc = run([command] + paths)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (command, rc)
        assert "Traceback" not in err, err


def test_criterion_05_conjugators_at_resolution_on_seeded_powers():
    # every ordered pair of the hierarchy pool at m = 1: each call ends in a
    # bundle whose conjugator certificate replays, or in a documented error
    pool = hierarchy_pool()
    verified = 0
    for a in pool:
        for b in pool:
            try:
                with time_ceiling(10):
                    bundle = conjugate_at_resolution(a, b, 1)
            except (StageError, CapabilityError):  # the documented errors
                continue
            cert = conjugator_certificate(
                bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
            )
            check = verify_certificate(json.loads(json.dumps(cert)), (b,))
            assert check.ok, check.reason
            verified += 1
    assert verified > 0
    _verdict(5, "conjugators", "%d of 576 seeded pairs at m = 1, all replayed" % verified)


# ---------------------------------------------------------------------------
# criterion 6: order structure against the push-forward sign oracle


def _bool_primitive(counts):
    k = len(counts)
    m = [[1 if x else 0 for x in row] for row in counts]
    p = m
    for _ in range((k - 1) ** 2 + 1):
        if all(all(row) for row in p):
            return True
        p = [
            [1 if any(p[i][t] and m[t][j] for t in range(k)) else 0 for j in range(k)]
            for i in range(k)
        ]
    return False


def _random_primitive_system(rng):
    while True:
        k = rng.choice((2, 2, 3))
        counts = [[rng.randrange(0, 3) for _ in range(k)] for _ in range(k)]
        if any(sum(row) == 0 for row in counts):
            continue
        if any(all(counts[i][j] == 0 for i in range(k)) for j in range(k)):
            continue
        if not _bool_primitive(counts):
            continue
        rows = tuple(
            tuple(s for s in range(k) for _ in range(row[s])) for row in counts
        )
        return systems.stationary_from_rows(rows)


def _oracle_sign(d, e, depth=20):
    vec, lvl = list(e.vector), e.level
    for _ in range(depth + 1):
        if all(x > 0 for x in vec):
            return POSITIVE
        if all(x == 0 for x in vec):
            return ZERO
        if all(x < 0 for x in vec):
            return NEGATIVE
        vec = [sum(vec[s] for s in row) for row in d.table(lvl)]
        lvl += 1
    return None


def test_criterion_06_order_structure_oracle():
    rng = random.Random(40961)
    decided = skipped = 0
    for _ in range(5):
        d = _random_primitive_system(rng)
        grp = DimGroup(d)
        k = d.num_vertices(1)
        for _ in range(100):
            lvl = rng.randint(1, 3)
            e = grp.element(lvl, tuple(rng.randint(-4, 4) for _ in range(k)))
            want = _oracle_sign(d, e)
            if want is None:
                skipped += 1
                continue
            decided += 1
            got = grp.is_positive(e)
            assert got.verdict == want, (d.tables, e, got, want)
            zero = grp.is_zero(e)
            assert zero.value is (want == ZERO), (d.tables, e, zero, want)
    assert decided >= 400
    _verdict(6, "order structure", "%d decided, %d undecided skipped" % (decided, skipped))


# ---------------------------------------------------------------------------
# criterion 7: divisor set membership against the gcd chain oracle


def test_criterion_07_divisor_set_oracle():
    answers = certificates = 0
    for d in EXAMPLES:
        chain = [math.gcd(*oracle_heights(d, m)) for m in range(1, 31)]
        for n in range(1, 65):
            res = divides_unit(d, n)
            oracle = n == 1 or any(g % n == 0 for g in chain)
            assert res.verdict in ("yes", "no"), (d.tables, n, res)
            assert (res.verdict == "yes") == oracle, (d.tables, n, res)
            answers += 1
            if res.verdict == "no":
                assert res.certificate is not None
                assert check_divides_certificate(d, n, res), (d.tables, n)
                certificates += 1
    _verdict(7, "divisor sets", "%d answers, %d refutations re-verified" % (answers, certificates))


# ---------------------------------------------------------------------------
# criterion 8: the successor map is a binary odometer and a bijection


def _all_paths(d, m, v):
    if m == 0:
        return [()]
    out = []
    for t, s in enumerate(d.table(m - 1)[v]):
        for p in _all_paths(d, m - 1, s):
            out.append(p + ((v, t),))
    return out


def test_criterion_08_successor_map():
    for bits in itertools.product((0, 1), repeat=12):
        path = tuple((0, t) for t in bits)
        value = sum(b << i for i, b in enumerate(bits))
        nxt = vershik_successor(DYADIC, path)
        if value == 4095:
            assert nxt is MAX_PATH
        else:
            expected = tuple((0, (value + 1) >> i & 1) for i in range(12))
            assert nxt == expected, (bits, nxt)
    towers = 0
    for d in EXAMPLES:
        for m in range(1, 7):
            for v in range(d.num_vertices(m)):
                paths = _all_paths(d, m, v)
                assert len(paths) == heights(d, m)[v]
                mn, mx = min_path(d, v, m), max_path(d, v, m)
                image = [vershik_successor(d, p) for p in paths if p != mx]
                assert MAX_PATH not in image
                assert len(set(image)) == len(image)
                assert set(image) == set(paths) - {mn}
                towers += 1
    _verdict(8, "successor map", "4096 increments, %d towers bijective" % towers)


# ---------------------------------------------------------------------------
# criterion 9: semigroup thresholds against reachability tables


def _oracle_reach(ks, bound):
    reach = [False] * (bound + 1)
    reach[0] = True
    for t in range(1, bound + 1):
        reach[t] = any(t >= k and reach[t - k] for k in ks)
    n = bound
    while n > 1 and reach[n - 1]:
        n -= 1
    return max(n, 1), reach


def test_criterion_09_semigroup_thresholds():
    assert frobenius((3, 5)) == 8
    assert represent(7, (3, 5)) is None
    rng = random.Random(20359)
    tuples = []
    while len(tuples) < 100:
        size = 2 if len(tuples) < 60 else 3
        ks = tuple(rng.randint(2, 12) for _ in range(size))
        if math.gcd(*ks) == 1:
            tuples.append(ks)
    for ks in tuples:
        threshold, reach = _oracle_reach(ks, 200)
        assert threshold + max(ks) <= 200  # oracle window is wide enough
        assert frobenius(ks) == threshold, ks
        for d in range(151):
            got = represent(d, ks)
            assert (got is not None) == reach[d], (ks, d)
            if got is not None:
                assert sum(c * k for c, k in zip(got, ks)) == d
    _verdict(9, "semigroup thresholds", "100 tuples against reachability")


# ---------------------------------------------------------------------------
# criterion 10: certificates re-verify from disk and reject every tamper


def _verify_text(text, system_paths):
    # the command line pipeline on certificate text: parse, load the systems
    # from disk, re-verify; any failure rejects
    try:
        cert = json.loads(text)
        if not isinstance(cert, dict):
            return False
        loaded = [load_diagram(p) for p in system_paths]
    except Exception:
        return False
    return verify_certificate(cert, loaded).ok


def test_criterion_10_certificate_tamper_sweep(tmp_path, capsys):
    files = {}
    for name, d in (("dyadic", DYADIC), ("quaternary", QUATERNARY)):
        p = tmp_path / (name + ".obd")
        dump_diagram(d, str(p))
        files[name] = str(p)
    both = (files["dyadic"], files["quaternary"])
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    weak = decide_weak(DYADIC, QUATERNARY)
    kconj = decide_k_conjugacy(DYADIC, QUATERNARY)
    tau = decide_tau(DYADIC, QUATERNARY)
    emitted = (
        (
            "conjugator",
            conjugator_certificate(
                bundle.corrector,
                bundle.sigma.target_level,
                bundle.blocks,
                bundle.images,
            ),
            (files["quaternary"],),
        ),
        ("weak", weak_certificate(weak, DYADIC, QUATERNARY), both),
        ("ladder", ladder_certificate(kconj.ladder, DYADIC, QUATERNARY), both),
        ("tau", tau_certificate(tau, DYADIC, QUATERNARY), both),
    )
    mutations = 0
    survivors = []
    for label, cert, syspaths in emitted:
        text = json.dumps(cert)
        cp = tmp_path / (label + ".cert.json")
        cp.write_text(text)
        rc = run(["verify", str(cp), *syspaths, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0 and out["ok"] is True, (label, out)
        # the tampered texts are verified from memory: one file write per
        # character costs far more than the verification itself
        for pos, ch in enumerate(text):
            repl = str((int(ch) + 1) % 10) if ch.isdigit() else ("x" if ch != "x" else "y")
            mutations += 1
            if _verify_text(text[:pos] + repl + text[pos + 1 :], syspaths):
                survivors.append((label, pos, ch, repl))
    assert not survivors, survivors[:10]
    _verdict(10, "certificates", "4 round trips, %d tampers rejected" % mutations)
