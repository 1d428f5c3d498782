"""Certificate replay in cantorconj.check, apart from the deciders."""

import ast
import collections
import copy
import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

from cantorconj import check
from cantorconj.bratteli import CapabilityError, cells, serialize_diagram
from cantorconj.check import (
    WEAK_ROUNDS,
    CertificateCheck,
    IntertwiningLadder,
    SearchExhausted,
    _certificate,
    build_k0_morphism,
    diagram_digest,
    verify_certificate,
    verify_ladder,
)
from cantorconj.classify import (
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    tau_certificate,
    weak_certificate,
)
from cantorconj.fullgroup import conjugator_from_partition
from cantorconj.systems import NAMED, dyadic, fibonacci, quaternary, stationary_from_rows

from conftest import hierarchy_pool, power_of, time_ceiling

DYADIC = dyadic()
QUATERNARY = quaternary()
B21 = stationary_from_rows(((0, 0, 1), (0, 1, 1)))  # [[2,1],[1,2]]
PAIRS = ((DYADIC, QUATERNARY), (B21, power_of(B21, 2)))


def imported_modules(path):
    """Every module an import statement of the file names, nested ones too,
    with each name a `from` import binds."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add(node.module or "")
            out.update(alias.name for alias in node.names)
    return out


def test_check_imports_no_decider_front_end_or_sympy():
    names = imported_modules(pathlib.Path(check.__file__))
    assert "bratteli" in names and "invariants" in names
    for name in names:
        parts = set(name.split("."))
        assert not parts & {"classify", "fullgroup", "cli", "sympy"}, name


REPLAY_ALONE = """
import json, sys
import cantorconj.check
from cantorconj.bratteli import parse_diagram  # loaded by check already

UPPER = {"cantorconj.classify", "cantorconj.fullgroup", "cantorconj.cli", "sympy"}
# hashlib (OpenSSL) is loaded by the first digest, not by the import
before = sorted((UPPER | {"hashlib"}) & set(sys.modules))
out = []
for cert, texts in json.load(sys.stdin):
    chk = cantorconj.check.verify_certificate(cert, [parse_diagram(t) for t in texts])
    out.append([cert["claim"], chk.ok, chk.reason])
after = sorted(UPPER & set(sys.modules))
print(json.dumps({"before": before, "replays": out, "after": after}))
"""


def run_fresh(script, payload):
    """Run script in a fresh interpreter that imports cantorconj from this
    checkout, with payload as JSON on its standard input; its JSON output."""
    src = str(pathlib.Path(check.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_replay_alone_loads_no_decider_front_end_or_sympy():
    # a fresh interpreter imports cantorconj.check, not the package's upper
    # layers or the conjugator synthesis, and replays weak, tau, ladder and
    # conjugator certificates handed in as JSON; tau replays build trace
    # images, which factor
    fib = fibonacci()
    certs = [
        (weak_certificate(decide_weak(DYADIC, QUATERNARY), DYADIC, QUATERNARY), (DYADIC, QUATERNARY)),
        (tau_certificate(decide_tau(DYADIC, QUATERNARY), DYADIC, QUATERNARY), (DYADIC, QUATERNARY)),
        (tau_certificate(decide_tau(fib, fib), fib, fib), (fib, fib)),
        (
            ladder_certificate(decide_k_conjugacy(DYADIC, QUATERNARY).ladder, DYADIC, QUATERNARY),
            (DYADIC, QUATERNARY),
        ),
        (floor_cycle_certificate(B21, 2), (B21,)),
    ]
    payload = [[cert, [serialize_diagram(d) for d in ds]] for cert, ds in certs]
    out = run_fresh(REPLAY_ALONE, payload)
    assert (out["before"], out["after"]) == ([], []), out
    claims = [claim for claim, ok, reason in out["replays"] if ok]
    assert claims == ["weak", "tau", "tau", "k-conjugate", "conjugator"], out["replays"]


def hierarchy_grid(pool):
    """Each decider's verdict on each ordered pair of pool, None where it
    raises one of its documented errors."""
    grid = []
    for a in pool:
        for b in pool:
            for decide in (decide_weak, decide_tau, decide_k_conjugacy):
                try:
                    grid.append(decide(a, b).verdict)
                except (CapabilityError, SearchExhausted):
                    grid.append(None)
    return grid


def named_replays(named):
    """Every weak, tau and ladder certificate among the ordered pairs of
    named, and a conjugator certificate on the first, each replayed: the
    claim, the verdict of the replay and its reason."""
    certs = []
    for a in named:
        for b in named:
            weak, tau, kconj = decide_weak(a, b), decide_tau(a, b), decide_k_conjugacy(a, b)
            if weak.verdict == "weak":
                certs.append((weak_certificate(weak, a, b), (a, b)))
            if tau.verdict == "tau":
                certs.append((tau_certificate(tau, a, b), (a, b)))
            if kconj.verdict == "k-conjugate":
                certs.append((ladder_certificate(kconj.ladder, a, b), (a, b)))
    bundle = conjugate_at_resolution(named[0], named[2], 2)
    blocks = (bundle.sigma.target_level, bundle.blocks, bundle.images)
    certs.append((conjugator_certificate(bundle.corrector, *blocks), (named[2],)))
    out = []
    for cert, systems in certs:
        chk = verify_certificate(json.loads(json.dumps(cert)), systems)
        out.append([cert["claim"], chk.ok, chk.reason])
    return out


SYMPY_BLOCKED = """
import json, sys
sys.modules["sympy"] = None  # from here on, importing sympy raises ImportError
from cantorconj.bratteli import CapabilityError, parse_diagram
from cantorconj.check import SearchExhausted, verify_certificate
from cantorconj.classify import (
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    tau_certificate,
    weak_certificate,
)
%s
%s
pool, named = ([parse_diagram(t) for t in texts] for texts in json.load(sys.stdin))
print(json.dumps({"grid": hierarchy_grid(pool), "replays": named_replays(named)}))
"""


def test_deciders_and_replays_run_where_sympy_cannot_be_imported():
    # the seeded hierarchy pool decided, and every certificate of the named
    # systems replayed, in an interpreter where importing sympy fails
    pool = hierarchy_pool()
    named = [make() for make in NAMED.values()]
    script = SYMPY_BLOCKED % (inspect.getsource(hierarchy_grid), inspect.getsource(named_replays))
    out = run_fresh(script, [[serialize_diagram(d) for d in ds] for ds in (pool, named)])
    counts = [collections.Counter(out["grid"][i::3]) for i in range(3)]
    assert counts == [
        {"not": 468, "weak": 96, "unknown": 12},
        {"not": 504, "tau": 48, "unknown": 24},
        {"not": 504, "k-conjugate": 72},
    ]
    assert all(ok for _, ok, _ in out["replays"]), out["replays"]
    claims = collections.Counter(claim for claim, _, _ in out["replays"])
    assert claims == {"weak": 6, "tau": 6, "k-conjugate": 6, "conjugator": 1}


def test_no_module_of_the_package_imports_sympy():
    for path in pathlib.Path(check.__file__).parent.glob("*.py"):
        for name in imported_modules(path):
            assert "sympy" not in name.split("."), (path.name, name)


def floor_cycle_certificate(d, level):
    """A conjugator certificate whose blocks are the floors of level, each
    sent to the floor above it and the top floor to the bottom one."""
    cs = cells(d, level)
    floors = [tuple(c for c in cs if c[1] == j) for j in range(1, max(j for _, j in cs) + 1)]
    images = floors[1:] + floors[:1]
    elem = conjugator_from_partition(d, level, floors, images)
    return conjugator_certificate(elem, level, floors, images)


def test_replay_runs_with_every_decider_raising(monkeypatch):
    certs = []
    for a, b in PAIRS:
        certs.append((weak_certificate(decide_weak(a, b), a, b), (a, b)))
        certs.append((tau_certificate(decide_tau(a, b), a, b), (a, b)))
        certs.append((ladder_certificate(decide_k_conjugacy(a, b).ladder, a, b), (a, b)))
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    certs.append(
        (
            conjugator_certificate(
                bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
            ),
            (QUATERNARY,),
        )
    )
    certs.append((floor_cycle_certificate(B21, 2), (B21,)))

    def decider(*args, **kwargs):
        raise AssertionError("a replay reached a decider")

    for name in (
        "decide_weak",
        "decide_tau",
        "decide_k_conjugacy",
        "_ladder_search",
        "conjugate_at_resolution",
    ):
        monkeypatch.setattr("cantorconj.classify." + name, decider)
    for name in ("conjugator_from_partition", "cyclic_from_blocks", "check_block_condition"):
        monkeypatch.setattr("cantorconj.fullgroup." + name, decider)
    for cert, systems in certs:
        for given in (cert, json.loads(json.dumps(cert))):
            result = verify_certificate(given, systems)
            assert result.ok, (cert["claim"], result.reason)


def test_weak_schedules_of_another_length_are_rejected_before_any_work(monkeypatch):
    for a, b in PAIRS:
        cert = weak_certificate(decide_weak(a, b), a, b)
        assert len(cert["witness"]["forward"]) == WEAK_ROUNDS
        one = copy.deepcopy(cert)
        del one["witness"]["forward"][1:], one["witness"]["backward"][1:]
        three = copy.deepcopy(cert)
        for key, src, dst in (("forward", a, b), ("backward", b, a)):
            # the next canonical entry: true, unit-preserving, one round more
            three["witness"][key].append(build_k0_morphism(src, 3, dst, 1).to_json())
        lopsided = copy.deepcopy(cert)
        del lopsided["witness"]["backward"][1:]
        with monkeypatch.context() as patch:
            for name in ("heights", "spectra_equal", "build_k0_morphism"):
                patch.setattr("cantorconj.check." + name, None)
            for bad in (one, three, lopsided):
                result = verify_certificate(bad, (a, b))
                assert result.reason == "schedules must hold %d morphisms" % WEAK_ROUNDS


@pytest.mark.parametrize("where", ["block_level", "level"])
def test_conjugator_levels_past_the_cell_cap_are_rejected_at_once(where):
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    cert = conjugator_certificate(
        bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
    )
    q = quaternary()  # fresh: no heights kept from the pipeline
    for level in (10 ** 6, 20000, 8):
        bad = json.loads(json.dumps(cert))
        if where == "level":
            bad["witness"]["element"]["level"] = level
        else:
            bad["witness"]["block_level"] = level
        with time_ceiling(1):
            result = verify_certificate(bad, (q,))
        # quaternary's level 7 is the first with more than 4096 cells
        assert result.reason == (
            "level %d lies past level 7, the first with more than CELL_CAP = 4096 cells"
            % level
        )
        assert "heights" not in q._memo
    bad = json.loads(json.dumps(cert))
    bad["witness"]["block_level"] = 7
    assert verify_certificate(bad, (q,)).reason == (
        "malformed certificate: level 7 has more than CELL_CAP = 4096 cells"
    )


def test_level_bound_walks_a_diagram_that_never_passes_the_cap_once():
    d = stationary_from_rows(((0,),))  # incidence [1]: one cell at every level
    blocks = (((0, 1),),)
    cert = conjugator_certificate(conjugator_from_partition(d, 1, blocks, blocks), 1, blocks, blocks)
    assert verify_certificate(cert, (d,)).ok
    cert["witness"]["block_level"] = 10 ** 5
    with time_ceiling(1):
        result = verify_certificate(cert, (d,))
    assert not result.ok


def single_character_tampers(text):
    """The criterion-10 sweep: each character bumped (a digit) or replaced."""
    for pos, ch in enumerate(text):
        repl = str((int(ch) + 1) % 10) if ch.isdigit() else ("x" if ch != "x" else "y")
        yield text[:pos] + repl + text[pos + 1 :]


def test_ladder_tampers_keep_their_rejection_reasons():
    # every tamper of the criterion-10 ladder certificate, with the reason
    # it is rejected for ("unparsed" when it is no JSON object), hashed in
    # order; then every rung made ragged or cut short, on a 2x2 ladder too
    ladder = decide_k_conjugacy(DYADIC, QUATERNARY).ladder
    text = json.dumps(ladder_certificate(ladder, DYADIC, QUATERNARY))
    reasons = []
    for tampered in single_character_tampers(text):
        try:
            cert = json.loads(tampered)
        except ValueError:
            cert = None
        if not isinstance(cert, dict):
            reasons.append("unparsed")
            continue
        result = verify_certificate(cert, (DYADIC, QUATERNARY))
        assert not result.ok
        reasons.append(result.reason)
    digest = hashlib.sha256(json.dumps(reasons).encode()).hexdigest()
    assert digest == "b1807e0266fe4211b2b0e51dce0ce3b287e861b76fb9728fc17d61e016839405"
    for a, b in PAIRS:
        cert = ladder_certificate(decide_k_conjugacy(a, b).ladder, a, b)
        for key, rung in (("forwards", 0), ("backwards", 1)):
            for i, mat in enumerate(cert["witness"][key]):
                for bad in (mat[:-1], [mat[0][:-1]] + mat[1:], [mat[0] + [0]] + mat[1:]):
                    tampered = copy.deepcopy(cert)
                    tampered["witness"][key][i] = bad
                    assert verify_certificate(tampered, (a, b)).reason == (
                        "ladder broken at rung %d: %s rung has the wrong shape"
                        % (2 * i + rung, key[:-1])
                    )


def test_conjugator_tampers_keep_their_rejection_reasons():
    # every tamper of the criterion-10 conjugator certificate, with the
    # reason it is rejected for ("unparsed" when it is no JSON object), then
    # each coordinate of a tower table, a block cell and an image cell
    # retyped to true, 1.0 and "1", all hashed in order
    bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
    cert = conjugator_certificate(
        bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
    )
    text = json.dumps(cert)
    reasons = []
    for tampered in single_character_tampers(text):
        try:
            loaded = json.loads(tampered)
        except ValueError:
            loaded = None
        if not isinstance(loaded, dict):
            reasons.append("unparsed")
            continue
        result = verify_certificate(loaded, (QUATERNARY,))
        assert not result.ok
        reasons.append(result.reason)
    leaves = (
        ("element", "towers", 0, "r", 0),
        ("element", "towers", 0, "r", -1),
        ("blocks", 0, 0, 0),
        ("blocks", 0, 0, 1),
        ("images", -1, -1, 0),
        ("images", -1, -1, 1),
    )
    for where in leaves:
        for leaf in (True, 1.0, "1"):
            tampered = json.loads(text)
            parent = tampered["witness"]
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = leaf
            result = verify_certificate(tampered, (QUATERNARY,))
            assert result.reason == "malformed certificate: %r is not an integer" % (leaf,)
            reasons.append(result.reason)
    digest = hashlib.sha256(json.dumps(reasons).encode()).hexdigest()
    assert digest == "18f1f61c3b797e55ad939416ec1361e439ef2e4c6af12de1625c3ed2bcbf7a40"


def test_forged_ladders_that_prove_nothing_are_rejected():
    fib = fibonacci()
    b12 = stationary_from_rows(((0, 1, 1), (0, 0, 1)))  # [[1,2],[2,1]]
    # no rungs at all
    empty = _certificate(
        "k-conjugate",
        (fib, DYADIC),
        {"a_levels": [1], "b_levels": [], "forwards": [], "backwards": []},
    )
    # one rung, so no target-side square is ever checked
    one = _certificate(
        "k-conjugate",
        (DYADIC, fib),
        {"a_levels": [0, 1], "b_levels": [1], "forwards": [[[1], [1]]], "backwards": [[[2, 0]]]},
    )
    # fibonacci's identity ladder against another diagram
    swapped = ladder_certificate(decide_k_conjugacy(fib, fib).ladder, fib, fib)
    swapped["systems"][1] = diagram_digest(b12)
    for cert, systems, reason in (
        (empty, (fib, DYADIC), "ladder has no rungs"),
        (one, (DYADIC, fib), "ladder is not periodic on stationary diagrams"),
        (swapped, (fib, b12), "ladder of period zero between different diagrams"),
    ):
        assert verify_certificate(cert, systems).reason == "ladder rejected: " + reason
    for decide in (decide_weak, decide_tau, decide_k_conjugacy):
        assert decide(fib, b12).verdict == "not"
    # every square commutes from the root level on, but the diagrams are
    # stationary only from level 1, where the search's own ladder starts
    root = IntertwiningLadder((0, 2, 4), (0, 1), (((1,),),) * 2, (((4,),),) * 2)
    assert verify_ladder(root, DYADIC, QUATERNARY).reason == (
        "ladder is not periodic on stationary diagrams"
    )
    lifted = IntertwiningLadder((1, 3, 5), (1, 2), (((2,),),) * 2, (((2,),),) * 2)
    assert verify_ladder(lifted, DYADIC, QUATERNARY).ok
    # its first rung pair alone checks no target-side square
    half = IntertwiningLadder((1, 3), (1,), (((2,),),), (((2,),),))
    assert verify_ladder(half, DYADIC, QUATERNARY).reason == (
        "ladder is not periodic on stationary diagrams"
    )
    # incidence [[1,1],[1,1]] under two edge orders: every square commutes
    # with the forward rungs I then the swap, but the ladder only extends
    # when its rungs repeat
    a, b = stationary_from_rows(((0, 1), (0, 1))), stationary_from_rows(((0, 1), (1, 0)))
    eye, swap, ones = ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 1))
    mixed = IntertwiningLadder((1, 2, 3), (1, 2), (eye, swap), (ones, ones))
    assert verify_ladder(mixed, a, b).reason == "ladder is not periodic on stationary diagrams"
    assert verify_ladder(IntertwiningLadder((1, 2, 3), (1, 2), (eye, eye), (ones, ones)), a, b).ok


def test_forged_tau_certificate_on_a_non_primitive_pair_is_malformed_on_every_replay():
    # incidence [[1,0],[1,1]] has no Perron data, so recomputing the tau
    # witness raises inside the malformed-input guard; nothing is kept, and
    # the second replay rejects it for the same reason
    fib = fibonacci()
    witness = tau_certificate(decide_tau(fib, fib), fib, fib)["witness"]
    systems = (stationary_from_rows(((0,), (0, 1))), stationary_from_rows(((0,), (0, 1))))
    cert = _certificate("tau", systems, witness)
    for _ in range(2):
        assert verify_certificate(cert, systems) == CertificateCheck(
            False, "malformed certificate: Perron data requires a primitive incidence matrix"
        )
