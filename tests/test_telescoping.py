"""Verdicts and certificates on systems against their own telescopings.

Telescoping an ordered diagram (A to A^2, edges ordered as composed paths)
and renaming its vertices both give a conjugate Vershik system (Herman,
Putnam and Skau 1992), so a decided verdict must survive either one.

P40' is `random.Random(7).sample(all, 40)`, where `all` is the 11,200
primitive 2x2 and 3x3 incidences with entries 0..2 in itertools.product
order, row i listing source j m[i][j] times, one root edge per vertex.
"""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import pathlib
import random
from fractions import Fraction

from cantorconj.classify import (
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    tau_certificate,
    weak_certificate,
)
from cantorconj.check import verify_certificate
from cantorconj.fieldpoly import charpoly
from cantorconj.systems import NAMED, odometer, stationary_from_rows

from conftest import _is_primitive, hierarchy_pool, primitive_2x2_diagrams, rows_of, time_ceiling

POSITIVE = ("weak", "tau", "k-conjugate")
DECIDERS = (decide_weak, decide_tau, decide_k_conjugacy)


def composed_rows(rows):
    """Rows of the two-step transition: paths ordered by their upper edge first."""
    return tuple(tuple(x for s in row for x in rows[s]) for row in rows)


def reversed_rows(rows):
    """The same rows with vertex i renamed n - 1 - i."""
    n = len(rows)
    return tuple(tuple(n - 1 - s for s in rows[n - 1 - i]) for i in range(n))


def primitive_incidences(n):
    for entries in itertools.product(range(3), repeat=n * n):
        mat = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if _is_primitive(rows_of(mat), n):
            yield mat


@functools.cache
def p40_rows():
    """The P40' rows, enumerated once per session (the tests share them)."""
    every = [m for n in (2, 3) for m in primitive_incidences(n)]
    assert len(every) == 11200
    return tuple(rows_of(m) for m in random.Random(7).sample(every, 40))


def sc150_pairs():
    """SC150': `random.Random(11).sample(pairs, 150)`, where `pairs` is the
    254,416 `itertools.combinations` within each charpoly bucket, buckets in
    first-seen order, of primitive_incidences(2) then primitive_incidences(3);
    each pair as fresh diagrams."""
    buckets = {}
    for n in (2, 3):
        for mat in primitive_incidences(n):
            buckets.setdefault(charpoly(mat), []).append(mat)
    pairs = [pair for mats in buckets.values() for pair in itertools.combinations(mats, 2)]
    assert len(pairs) == 254_416
    return [
        (stationary_from_rows(rows_of(a)), stationary_from_rows(rows_of(b)))
        for a, b in random.Random(11).sample(pairs, 150)
    ]


def prime_support(q):
    return frozenset(p for p in range(2, q + 1) if q % p == 0 and all(p % f for f in range(2, p)))


def decisions(a, b):
    out = []
    for decide in DECIDERS:
        with time_ceiling(5):
            out.append(decide(a, b))
    return tuple(out)


def verdicts(a, b):
    return tuple(res.verdict for res in decisions(a, b))


def test_p40_verdicts_survive_squaring_and_relabelling():
    rows = p40_rows()
    plain = [stationary_from_rows(r) for r in rows]
    squared = [stationary_from_rows(composed_rows(r)) for r in rows]
    flipped = [stationary_from_rows(reversed_rows(r)) for r in rows]
    changed = {"squared": 0, "reversed": 0}
    for i, j in itertools.permutations(range(len(rows)), 2):
        base = verdicts(plain[i], plain[j])
        for way, pool in (("squared", squared), ("reversed", flipped)):
            got = verdicts(pool[i], plain[j])
            for positive, x, y in zip(POSITIVE, base, got):
                assert {x, y} != {positive, "not"}, (way, rows[i], rows[j], base, got)
            changed[way] += got != base
    # a ratchet: the squared count may fall, never rise (see ROADMAP item 1(b))
    assert changed == {"squared": 14, "reversed": 0}


def shuffled_rows(rng, rows):
    """The same rows with each row's edges in a random order."""
    return tuple(tuple(rng.sample(row, len(row))) for row in rows)


def test_p40_verdicts_ignore_the_edge_order():
    # scaled ordered K0 reads only the unordered diagram and its root, so
    # any two edge orders of one diagram are k-conjugate, proper or not
    rng = random.Random(3)
    against_self = collections.Counter()
    squared_tau = collections.Counter()
    for rows in p40_rows():
        a = stationary_from_rows(rows)
        for _ in range(5):
            against_self[verdicts(a, stationary_from_rows(shuffled_rows(rng, rows)))] += 1
        square = stationary_from_rows(shuffled_rows(rng, composed_rows(rows)))
        weak, tau, kconj = verdicts(a, square)
        assert (weak, kconj) == ("weak", "k-conjugate"), rows
        squared_tau[tau] += 1
    assert against_self == {POSITIVE: 200}
    # a ratchet: tau gives up on equal spectra that kconj decides (ROADMAP
    # item 1); the unknown count may fall, never rise
    assert squared_tau == {"tau": 7, "unknown": 33}


def telescoping_pairs():
    """Every primitive 2x2 incidence with entries <= 2 against its square,
    both orders, and odometers 2, 3, 5 against their squares, both orders,
    and their cubes."""
    out = []
    for mat in primitive_incidences(2):
        rows = rows_of(mat)
        a, sq = stationary_from_rows(rows), stationary_from_rows(composed_rows(rows))
        out += [(a, sq), (sq, a)]
    for q in (2, 3, 5):
        out += [(odometer(q), odometer(q * q)), (odometer(q * q), odometer(q))]
        out.append((odometer(q), odometer(q ** 3)))
    return out


def u22_rows():
    """The U22 rows: every primitive 2x2 incidence with entries 0..3 and
    determinant +-1, in itertools.product order."""
    return tuple(
        rows_of((m[:2], m[2:]))
        for m in itertools.product(range(4), repeat=4)
        if abs(m[0] * m[3] - m[1] * m[2]) == 1 and _is_primitive(rows_of((m[:2], m[2:])), 2)
    )


def u22_theta(rows):
    """theta of the trace image Z + theta Z of a U22 system, in closed form
    (Rieffel; Pimsner and Voiculescu), as (s, x, y) for x + y sqrt(s), s
    squarefree, x and y Fractions; nothing of cantorconj is used.

    For M = [[a, b], [c, d]] with det M = +-1, K0 = Z^2 (M is invertible
    over Z) with unit the heights (1, 1) of level 1, and the trace is the
    left Perron vector (c, lambda - a) normalised to 1 on the unit, so the
    image is Z + theta Z with theta = c / (c - a + lambda), lambda =
    (a + d + sqrt(D)) / 2 and D = (a - d)^2 + 4bc.
    """
    (a, b), (c, d) = ([row.count(s) for s in (0, 1)] for row in rows)
    disc = (a - d) ** 2 + 4 * b * c
    k = max(k for k in range(1, disc + 1) if disc % (k * k) == 0)
    s = disc // (k * k)
    assert s > 1  # lambda is irrational
    # c - a + lambda = p + q sqrt(s), and theta = c (p - q sqrt(s)) / (p^2 - q^2 s)
    p, q = Fraction(2 * c - a + d, 2), Fraction(k, 2)
    norm = p * p - q * q * s
    return s, c * p / norm, -c * q / norm


def u22_kconj_oracle(rows_a, rows_b):
    """kconj (and tau) of two U22 systems: theta_B in +-theta_A + Z, since an
    ordered isomorphism of dense subgroups of R fixing 1 is the identity."""
    (sa, xa, ya), (sb, xb, yb) = u22_theta(rows_a), u22_theta(rows_b)
    return sa == sb and any(
        yb == sign * ya and (xb - sign * xa).denominator == 1 for sign in (1, -1)
    )


def test_u22_verdicts_agree_with_the_closed_form():
    # the oracle splits the 231 U22 pairs 23 equal, 208 different; every
    # tau or k-conjugate verdict falls on an equal pair and every "not" on
    # a different one (weak holds on every pair)
    rows = u22_rows()
    systems = [stationary_from_rows(r) for r in rows]
    split = collections.Counter()
    for i, j in itertools.combinations(range(len(rows)), 2):
        equal = u22_kconj_oracle(rows[i], rows[j])
        split[equal] += 1
        weak, tau, kconj = verdicts(systems[i], systems[j])
        assert weak == "weak", (rows[i], rows[j])
        if tau == "tau" or kconj == "k-conjugate":
            assert equal, (rows[i], rows[j])
        if "not" in (tau, kconj):
            assert not equal, (rows[i], rows[j])
    assert split == {True: 23, False: 208}


def test_relations_are_symmetric_reflexive_and_never_refute_a_chain():
    # each relation on every ordered pair of U22, P40' and the hierarchy
    # pool: (A, B) and (B, A) get one verdict, every self-pair is
    # positive, and A ~ B, B ~ C never comes with A "not" C
    pools = {
        "U22": [stationary_from_rows(r) for r in u22_rows()],
        "P40'": [stationary_from_rows(r) for r in p40_rows()],
        "hierarchy pool": hierarchy_pool(),
    }
    for name, pool in pools.items():
        n = len(pool)
        with time_ceiling(30):
            got = {
                (i, j): [decide(pool[i], pool[j]).verdict for decide in DECIDERS]
                for i, j in itertools.product(range(n), repeat=2)
            }
        for r, positive in enumerate(POSITIVE):
            verdict = {pair: v[r] for pair, v in got.items()}
            for (i, j), v in verdict.items():
                assert v == verdict[j, i], (name, positive, i, j)
            assert all(verdict[i, i] == positive for i in range(n)), (name, positive)
            related = [[j for j in range(n) if verdict[i, j] == positive] for i in range(n)]
            for i in range(n):
                for j in related[i]:
                    for k in related[j]:
                        assert verdict[i, k] != "not", (name, positive, i, j, k)


def shift_equivalent_pairs():
    """300 pairs A = R.S, B = S.R drawn from random.Random(11): R of shape
    2x2, 2x3 or 3x2 and S of the transposed shape, entries 0..2, A and B
    both primitive and A != B.  A has one root edge per vertex and B has
    S.(1, ..., 1), so both telescope the diagram S, R, S, R, ... with the
    same unit and are k-conjugate (Williams; Lind and Marcus, ch. 7)."""
    rng = random.Random(11)
    out = []
    while len(out) < 300:
        n, m = rng.choice(((2, 2), (2, 3), (3, 2)))
        r = [[rng.randrange(3) for _ in range(m)] for _ in range(n)]
        s = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*s)] for row in r]
        b = [[sum(x * y for x, y in zip(row, col)) for col in zip(*r)] for row in s]
        if a == b or not (_is_primitive(rows_of(a), n) and _is_primitive(rows_of(b), m)):
            continue
        root = tuple((0,) * sum(row) for row in s)
        out.append((stationary_from_rows(rows_of(a)), stationary_from_rows(rows_of(b), root)))
    return out


def test_verdict_ledger():
    # the (weak, tau, kconj) histogram of each pool, at the deciders'
    # default bounds and ladder window (each call under decisions' ceiling),
    # equals tests/verdict_ledger.json: a change that moves a count edits
    # the ledger in the same change.  On every pair refutations are closed
    # (weak "not" => tau "not" <=> kconj "not", with tau's obstructions);
    # no shift-equivalent pair is refuted, and each of its ladders replays.
    # On odometers Glimm's oracle holds wherever a relation decides: a
    # positive verdict means the same prime support, "not" a different one
    p40 = [stationary_from_rows(r) for r in p40_rows()]
    u22 = [stationary_from_rows(r) for r in u22_rows()]
    assert len(u22) == 22
    hierarchy = hierarchy_pool()
    pools = {
        "P40'": itertools.combinations(p40, 2),
        "U22": itertools.combinations(u22, 2),
        "hierarchy pool": itertools.product(hierarchy, repeat=2),
        "telescoping pairs": telescoping_pairs(),
        "shift equivalence": shift_equivalent_pairs(),
        "SC150'": sc150_pairs(),
        "2x2 family": itertools.permutations(primitive_2x2_diagrams(), 2),
        "odometers 2..60": itertools.permutations(map(odometer, range(2, 61)), 2),
    }
    got = {}
    for name, pairs in pools.items():
        counts = collections.Counter()
        for a, b in pairs:
            weak, tau, kconj = results = decisions(a, b)
            assert weak.verdict != "not" or tau.verdict == "not", (name, a, b)
            assert (tau.verdict == "not") == (kconj.verdict == "not"), (name, a, b)
            assert kconj.obstructions == tau.obstructions, (name, a, b)
            if name == "shift equivalence":
                assert "not" not in (weak.verdict, tau.verdict, kconj.verdict), (a, b)
                if kconj.ladder is not None:
                    cert = ladder_certificate(kconj.ladder, a, b)
                    assert verify_certificate(cert, (a, b)).ok, (a, b)
            if name == "odometers 2..60":
                # an odometer's q is its number of edges per level
                same = prime_support(len(a.table(1)[0])) == prime_support(len(b.table(1)[0]))
                for positive, res in zip(POSITIVE, results):
                    assert res.verdict != positive or same, (a, b)
                    assert res.verdict != "not" or not same, (a, b)
            counts[",".join(res.verdict for res in results)] += 1
        got[name] = dict(counts)
    path = pathlib.Path(__file__).with_name("verdict_ledger.json")
    assert got == json.loads(path.read_text())


def test_weak_and_ladder_certificates_are_pinned():
    # weak certificates (or the verdict) on every ordered pair of P40' and
    # the named systems, then weak and ladder certificates (or the verdict)
    # on every telescoping pair, hashed in order
    pool = [stationary_from_rows(r) for r in p40_rows()]
    pool += [NAMED[name]() for name in sorted(NAMED)]
    digest = hashlib.sha256()

    def weak_record(a, b):
        res = decide_weak(a, b)
        return weak_certificate(res, a, b) if res.verdict == "weak" else res.verdict

    for a, b in itertools.product(pool, repeat=2):
        digest.update(json.dumps(weak_record(a, b), sort_keys=True).encode())
    for a, b in telescoping_pairs():
        weak = weak_record(a, b)
        assert weak != "not"
        kconj = decide_k_conjugacy(a, b)
        ladder = kconj.verdict if kconj.ladder is None else ladder_certificate(kconj.ladder, a, b)
        digest.update(json.dumps([weak, ladder], sort_keys=True).encode())
    assert digest.hexdigest() == (
        "c08f7787a2df32487938f5e9f0245031a5acd5a7f6d797f9d8f6efe0c81344fa"
    )


def witness_digit_tampers(cert, limit=6):
    """Up to limit copies of cert with one digit of its witness text bumped,
    at digit positions spread evenly over that text; a copy that no longer
    parses is None."""
    text = json.dumps(cert["witness"], sort_keys=True)
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    picks = sorted({digits[k * len(digits) // limit] for k in range(limit)}) if digits else []
    for pos in picks:
        bumped = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1 :]
        try:
            witness = json.loads(bumped)
        except ValueError:
            yield None
            continue
        yield dict(cert, witness=witness)


def test_pair_verdicts_certificates_and_replays_are_pinned():
    # on every telescoping pair and every ordered pair of the hierarchy
    # pool, twice on the same objects: kconj's verdict, note and
    # obstructions, the ladder, weak and tau certificates, and the replay of
    # each certificate and of up to six one-digit tampers of its witness,
    # hashed in order; the second round reads what the first one kept
    pool = hierarchy_pool()
    pairs = telescoping_pairs() + list(itertools.product(pool, repeat=2))
    assert len(pairs) == 73 + 576
    digest = hashlib.sha256()
    for _ in range(2):
        for a, b in pairs:
            with time_ceiling(10):
                kconj = decide_k_conjugacy(a, b)
                weak = decide_weak(a, b)
                tau = decide_tau(a, b)
            certs = []
            if kconj.ladder is not None:
                certs.append(ladder_certificate(kconj.ladder, a, b))
            if weak.verdict == "weak":
                certs.append(weak_certificate(weak, a, b))
            if tau.verdict == "tau":
                certs.append(tau_certificate(tau, a, b))
            replays = []
            for cert in certs:
                for sent in [cert, *witness_digit_tampers(cert)]:
                    if sent is None:
                        replays.append("unparsed")
                        continue
                    with time_ceiling(10):
                        result = verify_certificate(sent, (a, b))
                    replays.append([result.ok, result.reason])
            record = [
                kconj.verdict,
                kconj.note,
                [dataclasses.asdict(o) for o in kconj.obstructions],
                certs,
                replays,
            ]
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "46d05c3dc8dad65ce485ee379be672dcbc68e425837f2879fe9f2f508538244d"
    )
