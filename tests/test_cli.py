"""Command line round trips: each subcommand, both formats, all exit codes."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import cantorconj
from cantorconj.bratteli import CapabilityError, OrderedBratteliDiagram, dump_diagram, heights
from cantorconj.check import frobenius
from cantorconj.cli import FROBENIUS_TABLE_CAP, FROBENIUS_WORK_CAP, _walk_cost, run
from cantorconj.dimgroup import DimGroup
from cantorconj import cli, fieldpoly, systems

from conftest import random_explicit, random_stationary, time_ceiling


DYADIC = systems.dyadic()
QUATERNARY = systems.quaternary()
TRIADIC = systems.triadic()
FIB = systems.fibonacci()


@pytest.fixture
def corpus(tmp_path):
    paths = {}
    named = [
        ("dyadic", DYADIC),
        ("quaternary", QUATERNARY),
        ("triadic", TRIADIC),
        ("fib", FIB),
    ]
    for name, d in named:
        p = tmp_path / (name + ".obd")
        dump_diagram(d, str(p))
        paths[name] = str(p)
    finite = tmp_path / "finite.obd"
    finite.write_text(
        json.dumps(
            {
                "format": "obd-v1",
                "kind": "explicit",
                "vertices": [1, 1, 1],
                "edges": [[[0, 0]], [[0, 0]]],
            }
        )
    )
    paths["finite"] = str(finite)
    bad = tmp_path / "bad.obd"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    return paths


def run_json(capsys, argv):
    rc = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_validate_ok(corpus, capsys):
    rc, rep = run_json(capsys, ["validate", corpus["dyadic"]])
    assert rc == 0
    assert rep["ok"] is True
    assert rep["primitive"] is True


def test_validate_reports_broken_input(corpus, capsys):
    rc, rep = run_json(capsys, ["validate", corpus["bad"]])
    assert rc == 0
    assert rep["ok"] is False
    assert rep["issues"]


def test_validate_rejects_a_finite_path_space(tmp_path, capsys):
    # one edge per level past two root edges: two paths, not a Cantor set
    p = tmp_path / "two_points.obd"
    p.write_text('{"edges":[[[0,0]],[[0]]],"format":"obd-v1","kind":"stationary","vertices":1}')
    rc, rep = run_json(capsys, ["validate", str(p)])
    assert rc == 0
    assert rep["ok"] is False
    assert rep["primitive"] is True
    assert any("not a Cantor set" in s for s in rep["issues"])


def test_heights(corpus, capsys):
    rc, rep = run_json(capsys, ["heights", corpus["dyadic"], "3"])
    assert rc == 0
    assert rep["heights"] == [8]


def test_heights_bad_file_is_input_error(corpus):
    assert run(["heights", corpus["bad"], "1", "--format", "json"]) == 1


def test_heights_past_last_level_is_capability_error(corpus):
    assert run(["heights", corpus["finite"], "7", "--format", "json"]) == 2


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_heights_too_long_to_print_is_capability_error(corpus, capsys, fmt):
    # 2^20000 has 6021 digits, past str()'s default limit of 4300
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    assert run(["heights", corpus["dyadic"], "20000", "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "capability error: the report holds an integer of more than %d digits, "
        "the limit of integer string conversion\n" % sys.get_int_max_str_digits()
    )


def test_unwritable_out_is_input_error(corpus, tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    assert run(["heights", corpus["dyadic"], "3", "--out", str(missing)]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["heights", "dyadic", "-1"],
        ["conjugator", "dyadic", "quaternary", "-1"],
        ["positivity", "dyadic", "-1", "1"],
        ["vershik", "dyadic", "--level", "-2"],
    ],
)
def test_negative_level_is_input_error(corpus, capsys, argv):
    argv = [corpus.get(a, a) for a in argv]
    assert run(argv + ["--format", "json"]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["k0-class", "dyadic", "0", "0,0"], "cell '0,0' is not of the form V:J (two integers)"),
        (["k0-class", "dyadic", "1", "0:1", "0"], "cell '0' is not of the form V:J (two integers)"),
        (["k0-class", "dyadic", "1", "0:1:1"], "cell '0:1:1' is not of the form V:J (two integers)"),
        (["k0-class", "dyadic", "1", "a:1"], "cell 'a:1' is not of the form V:J (two integers)"),
        (["positivity", "dyadic", "1", "a,b"],
         "vector 'a,b' is not of the form C1,C2,... (integers)"),
        (["positivity", "dyadic", "1", "1,"], "vector '1,' is not of the form C1,C2,... (integers)"),
    ],
)
def test_malformed_cells_and_vectors_name_the_token_and_the_form(corpus, capsys, argv, message):
    argv = [corpus.get(a, a) for a in argv]
    assert run(argv + ["--format", "json"]) == 1
    assert capsys.readouterr() == ("", "input error: %s\n" % message)


def test_k0_class(corpus, capsys):
    rc, rep = run_json(capsys, ["k0-class", corpus["dyadic"], "2", "0:1", "0:2"])
    assert rc == 0
    assert rep["element"] == {"level": 2, "vector": [2]}


def test_positivity_verdicts(corpus, capsys):
    rc, rep = run_json(capsys, ["positivity", corpus["fib"], "1", "1,-1"])
    assert rc == 0
    assert rep["verdict"] == "Positive"
    rc, rep = run_json(capsys, ["positivity", corpus["dyadic"], "1", "0"])
    assert rep["verdict"] == "Zero"
    rc, rep = run_json(capsys, ["positivity", corpus["dyadic"], "2", "-3"])
    assert rep["verdict"] == "Negative"


def _fibonacci_pair(n):
    """F_n and F_(n+1)."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


def test_sign_refinement_past_its_cap_is_a_capability_error(corpus, capsys, monkeypatch):
    # F_n - F_(n+1) phi^-1 is about phi^-2n: the class (F_n, -F_(n+1)) of
    # fibonacci has a trace so close to 0 that its sign needs about n
    # bisections of the root's interval
    a, b = _fibonacci_pair(30)
    argv = ["positivity", corpus["fib"], "1", "%d,%d" % (a, -b)]
    rc, rep = run_json(capsys, argv)
    assert rc == 0 and rep["verdict"] == "Negative"
    monkeypatch.setattr(fieldpoly, "_REFINE_CAP", 30)
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "capability error: sign refinement exceeded _REFINE_CAP = 30 bisections; the "
        "element is too close to 0 for the supported precision, or zero without being "
        "reduced\n"
    )
    grp = DimGroup(systems.fibonacci())
    with pytest.raises(CapabilityError):
        grp.is_positive(grp.element(1, (a, -b)))
    # one class: bratteli re-exports the one fieldpoly raises
    assert CapabilityError is fieldpoly.CapabilityError


def test_spectrum_dyadic(corpus, capsys):
    rc, rep = run_json(capsys, ["spectrum", corpus["dyadic"]])
    assert rc == 0
    entries = {e["p"]: e["v"] for e in rep["spectrum"]["entries"]}
    assert entries == {2: "inf"}


def test_spectrum_triadic(corpus, capsys):
    rc, rep = run_json(capsys, ["spectrum", corpus["triadic"]])
    entries = {e["p"]: e["v"] for e in rep["spectrum"]["entries"]}
    assert entries == {3: "inf"}


def test_weak_with_certificate_roundtrip(corpus, tmp_path, capsys):
    rc, rep = run_json(capsys, ["weak", corpus["dyadic"], corpus["quaternary"]])
    assert rc == 0
    assert rep["verdict"] == "weak"
    cert = rep["certificate"]
    cp = tmp_path / "weak.cert.json"
    cp.write_text(json.dumps(cert))
    rc, chk = run_json(
        capsys, ["verify", str(cp), corpus["dyadic"], corpus["quaternary"]]
    )
    assert rc == 0
    assert chk["ok"] is True
    cert["witness"]["forward"][0]["matrix"][0][0] += 1
    cp.write_text(json.dumps(cert))
    rc, chk = run_json(
        capsys, ["verify", str(cp), corpus["dyadic"], corpus["quaternary"]]
    )
    assert rc == 0
    assert chk["ok"] is False


def test_weak_negative_witness(corpus, capsys):
    rc, rep = run_json(capsys, ["weak", corpus["dyadic"], corpus["triadic"]])
    assert rc == 0
    assert rep["verdict"] == "not"
    assert rep["witness"] == 2


def test_tau_verdicts(corpus, capsys):
    rc, rep = run_json(capsys, ["tau", corpus["dyadic"], corpus["quaternary"]])
    assert rc == 0
    assert rep["verdict"] == "tau"
    rc, rep = run_json(capsys, ["tau", corpus["fib"], corpus["dyadic"]])
    assert rep["verdict"] == "not"


def test_tau_three_vertex_trace_field(tmp_path, capsys):
    p = tmp_path / "tri3.obd"
    dump_diagram(systems.stationary_from_rows(((0, 1), (1, 2), (0, 0, 1, 1, 2, 2))), str(p))
    rc = run(["tau", str(p), str(p), "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert json.loads(out)["verdict"] == "tau"


def test_tau_certificate_roundtrip(corpus, tmp_path, capsys):
    rc, rep = run_json(capsys, ["tau", corpus["dyadic"], corpus["quaternary"]])
    cp = tmp_path / "tau.cert.json"
    cp.write_text(json.dumps(rep["certificate"]))
    rc, chk = run_json(
        capsys, ["verify", str(cp), corpus["dyadic"], corpus["quaternary"]]
    )
    assert chk["ok"] is True


@pytest.mark.parametrize(
    "argv, path, value",
    [
        (("weak", "dyadic", "quaternary"), ("forward", 0, "source_level"), True),
        (("weak", "dyadic", "quaternary"), ("forward", 0, "matrix"), [[2.0]]),
        (("tau", "fib", "fib"), ("trace", "a", "stabilized"), 1),
        (("tau", "fib", "fib"), ("trace", "a", "minpoly"), [-1.0, -1, 1]),
    ],
)
def test_verify_rejects_a_witness_leaf_of_another_json_type(
    corpus, tmp_path, capsys, argv, path, value
):
    command, *names = argv
    files = [corpus[name] for name in names]
    rc, rep = run_json(capsys, [command, *files])
    assert rc == 0 and rep["verdict"] == command
    cert = rep["certificate"]
    node = cert["witness"]
    for key in path[:-1]:
        node = node[key]
    # equal in Python to the emitted leaf, but another JSON value
    assert node[path[-1]] == value and json.dumps(node[path[-1]]) != json.dumps(value)
    node[path[-1]] = value
    cp = tmp_path / "retyped.cert.json"
    cp.write_text(json.dumps(cert))
    rc = run(["verify", str(cp), *files, "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 0 and "Traceback" not in err
    assert json.loads(out)["ok"] is False


def test_kconj_certificate_roundtrip(corpus, tmp_path, capsys):
    rc, rep = run_json(capsys, ["kconj", corpus["dyadic"], corpus["quaternary"]])
    assert rc == 0
    assert rep["verdict"] == "k-conjugate"
    assert rep["ladder"]["a_levels"] == [1, 3, 5]
    cp = tmp_path / "ladder.cert.json"
    cp.write_text(json.dumps(rep["certificate"]))
    rc, chk = run_json(
        capsys, ["verify", str(cp), corpus["dyadic"], corpus["quaternary"]]
    )
    assert chk["ok"] is True
    # binding: the same certificate against swapped systems must fail
    rc, chk = run_json(
        capsys, ["verify", str(cp), corpus["quaternary"], corpus["dyadic"]]
    )
    assert chk["ok"] is False


def test_kconj_obstructed(corpus, capsys):
    rc, rep = run_json(capsys, ["kconj", corpus["fib"], corpus["dyadic"]])
    assert rc == 0
    assert rep["verdict"] == "not"
    kinds = {o["kind"] for o in rep["obstructions"]}
    assert "trace" in kinds


def test_kconj_reports_bounds(corpus, capsys):
    rc, rep = run_json(capsys, ["kconj", corpus["dyadic"], corpus["quaternary"]])
    assert rep["bounds"]["depth"] == 40
    assert rep["bounds"]["primes"] == 97
    assert rep["bounds"]["span"] == 12


def test_kconj_empty_window_skips_no_period_pair(corpus, capsys):
    for window in (["--base", "0"], ["--base", "-1"], ["--base", "-5"], ["--span", "1"]):
        rc, rep = run_json(capsys, ["kconj", corpus["dyadic"], corpus["quaternary"], *window])
        assert rc == 0 and rep["verdict"] == "unknown"
        assert rep["note"].endswith("(0 nodes; spectral test skipped 0 of 0 period pairs)")


def test_each_subcommand_takes_and_echoes_only_its_own_bounds(corpus, tmp_path, capsys):
    d, q = corpus["dyadic"], corpus["quaternary"]
    rc, rep = run_json(capsys, ["kconj", d, q])
    cert = tmp_path / "kconj.cert.json"
    cert.write_text(json.dumps(rep["certificate"]))
    scan, divisors = {"depth": 40}, {"depth": 40, "primes": 97}
    cases = {
        "validate": ([d], scan),
        "heights": ([d, "3"], {}),
        "k0-class": ([d, "1", "0:1"], {}),
        "positivity": ([d, "1", "1"], scan),
        "spectrum": ([d], divisors),
        "weak": ([d, q], divisors),
        "tau": ([d, q], divisors),
        "kconj": ([d, q], dict(divisors, span=12, base=3)),
        "conjugator": ([d, q, "2"], scan),
        "verify": ([str(cert), d, q], {}),
        "vershik": ([d], {}),
        "frobenius": (["3", "5"], {}),
    }
    for command, (args, bounds) in cases.items():
        rc, rep = run_json(capsys, [command] + args)
        assert (rc, rep["bounds"]) == (0, bounds), command
        for flag in ("--depth", "--primes"):
            if flag[2:] not in bounds:
                assert run([command] + args + [flag, "5"]) == 1, (command, flag)
                err = capsys.readouterr().err
                assert err == "usage error: unrecognized arguments: %s 5\n" % flag, err


def test_conjugator_roundtrip(corpus, tmp_path, capsys):
    rc, rep = run_json(
        capsys, ["conjugator", corpus["dyadic"], corpus["quaternary"], "2"]
    )
    assert rc == 0
    assert rep["verdict"] == "ok"
    assert rep["element"]["level"] >= 1
    cp = tmp_path / "conj.cert.json"
    cp.write_text(json.dumps(rep["certificate"]))
    rc, chk = run_json(capsys, ["verify", str(cp), corpus["quaternary"]])
    assert chk["ok"] is True


def test_conjugator_obstructed(corpus, capsys):
    rc, rep = run_json(
        capsys, ["conjugator", corpus["dyadic"], corpus["triadic"], "2"]
    )
    assert rc == 0
    assert rep["verdict"] == "failed"
    assert rep["stage"] == "morphism"
    assert rep["obstruction"]["witness"] == 2


def test_conjugator_unresolved_morphism_fails_cleanly(corpus, tmp_path, capsys):
    target = tmp_path / "t.obd"
    target.write_text(
        json.dumps(
            {
                "format": "obd-v1",
                "kind": "explicit",
                "vertices": [1, 2, 2, 1],
                "edges": [[[0], [0]], [[0, 1], [1]], [[0, 1]]],
            }
        )
    )
    rc = run(["conjugator", corpus["dyadic"], str(target), "1", "--format", "json"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rc == 0 and captured.err == ""
    assert rep["verdict"] == "failed"
    assert rep["stage"] == "morphism"


def test_vershik_orbit(corpus, capsys):
    rc, rep = run_json(capsys, ["vershik", corpus["dyadic"], "--level", "2"])
    assert rc == 0
    assert rep["height"] == 4
    floors = [step["floor"] for step in rep["orbit"]]
    assert floors == [1, 2, 3, 4]
    assert rep["orbit"][0]["path"] == [[0, 0], [0, 0]]
    assert rep["orbit"][-1]["successor"] == "max"
    assert all(step["successor"] == "next" for step in rep["orbit"][:-1])


def test_vershik_level_0_is_one_floor(corpus, capsys):
    rc, rep = run_json(capsys, ["vershik", corpus["dyadic"], "--level", "0"])
    assert rc == 0
    assert rep["height"] == 1
    assert rep["orbit"] == [{"floor": 1, "path": [], "successor": "max"}]


def test_vershik_limit(corpus, capsys):
    rc, rep = run_json(
        capsys, ["vershik", corpus["dyadic"], "--level", "3", "--limit", "3"]
    )
    assert rc == 0
    assert [step["floor"] for step in rep["orbit"]] == [1, 2, 3]


def test_vershik_limit_past_the_tower_walks_the_tower(corpus, capsys):
    # a limit past CELL_CAP is clipped to the tower's 4 floors first
    rc, rep = run_json(
        capsys, ["vershik", corpus["dyadic"], "--level", "2", "--limit", "5000"]
    )
    assert rc == 0
    assert [step["floor"] for step in rep["orbit"]] == [1, 2, 3, 4]
    assert rep["orbit"][-1]["successor"] == "max"


def test_vershik_negative_limit_is_input_error(corpus, capsys):
    assert run(["vershik", corpus["dyadic"], "--level", "2", "--limit", "-3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: limit -3 is negative (0 walks the whole tower)\n"


def test_vershik_capability_bound(corpus, capsys):
    assert run(["vershik", corpus["dyadic"], "--level", "13", "--format", "json"]) == 2
    assert capsys.readouterr().err == (
        "capability error: orbit enumeration caps at 4096 floors, tower has 8192\n"
    )


def test_vershik_tower_too_tall_to_print_is_capability_error(corpus, capsys):
    # the message names a lower bound instead of 2^20000, whose 6021 digits
    # are past str()'s default limit of 4300
    assert run(["vershik", corpus["dyadic"], "--level", "20000", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "capability error: orbit enumeration caps at 4096 floors, tower has at least 2^20000\n"
    )


ONE = systems.stationary_from_rows(((0, 0, 0),))  # one vertex, three edges per level
TWO = systems.stationary_from_rows(((0, 1), (0,)))
OUT_OF_REACH = (
    "capability error: level %d is out of reach: walking its heights up from the root "
    "may take more than HEIGHTS_WORK_CAP = 2^30 bit operations\n"
)


@pytest.fixture
def far(tmp_path):
    paths = {}
    for name, d in (("one", ONE), ("two", TWO)):
        paths[name] = str(tmp_path / (name + ".obd"))
        dump_diagram(d, paths[name])
    return paths


@pytest.mark.parametrize(
    "argv, level",
    [
        (["heights", "one", "1000000"], 1000000),
        (["heights", "one", str(2 ** 63)], 2 ** 63),
        (["k0-class", "one", "1000000", "0:1"], 1000000),
        (["positivity", "one", "1000000", "1"], 1000000),
        (["conjugator", "one", "one", "1000000"], 1000000),
        (["vershik", "two", "--level", "1000000"], 1000000),
    ],
)
def test_out_of_reach_level_is_refused_before_any_heights(far, capsys, argv, level):
    argv = [far.get(a, a) for a in argv]
    with time_ceiling(1):
        assert run(argv + ["--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == OUT_OF_REACH % level


@pytest.mark.parametrize(
    "argv, message",
    [
        (["vershik", "two", "--level", "1000000", "--vertex", "-1"], "vertex -1 out of range"),
        (["vershik", "two", "--level", "1000000", "--vertex", "2"], "vertex 2 out of range"),
        (["k0-class", "one", "1000000", "1:1"], "cell (1, 1) does not exist at level 1000000"),
        (["k0-class", "one", "1000000", "0:0"], "cell (0, 0) does not exist at level 1000000"),
        (["positivity", "one", "1000000", "1,1"],
         "vector length 2 does not match 1 towers at level 1000000"),
    ],
)
def test_arguments_needing_no_heights_are_checked_first(far, capsys, argv, message):
    argv = [far.get(a, a) for a in argv]
    with time_ceiling(1):
        assert run(argv + ["--format", "json"]) == 1
    assert capsys.readouterr().err == "input error: %s\n" % message


ID2 = systems.stationary_from_rows(((0,), (1,)))  # reducible: (1, -1) never turns one-signed
FIB23 = systems.stationary_from_rows(((0, 1), (0,)), root=((0, 0), (0, 0, 0)))
TRI = systems.stationary_from_rows(((0,), (0, 1)))  # tower 0 stays at height 1
P40_A = systems.stationary_from_rows(((0, 1, 2), (0, 0, 1), (0, 1)))
P40_B = systems.stationary_from_rows(((0, 1, 1, 2), (1, 1, 2, 2), (0, 2, 2)))


@pytest.fixture
def deep(tmp_path):
    paths = {}
    for name, d in (
        ("id2", ID2), ("fib23", FIB23), ("tri", TRI), ("dyadic", DYADIC),
        ("pa", P40_A), ("pb", P40_B),
    ):
        paths[name] = str(tmp_path / (name + ".obd"))
        dump_diagram(d, paths[name])
    return paths


BIG = str(2 ** 63)
DEPTH_OUT_OF_REACH = (
    "capability error: --depth %s reaches too far: " % BIG
    + (OUT_OF_REACH % (2 ** 63 + 1))[len("capability error: "):]
)


@pytest.mark.parametrize(
    "argv",
    [
        ["positivity", "id2", "1", "1,-1", "--depth", BIG],
        ["weak", "fib23", "tri", "--depth", BIG],
        ["conjugator", "fib23", "tri", "1", "--depth", BIG],
        ["weak", "dyadic", "dyadic", "--depth", BIG],
        ["tau", "dyadic", "dyadic", "--depth", BIG],
        ["kconj", "dyadic", "dyadic", "--depth", BIG],
        ["spectrum", "dyadic", "--depth", BIG],
    ],
)
def test_out_of_reach_depth_is_refused_before_any_heights(deep, capsys, argv):
    argv = [deep.get(a, a) for a in argv]
    with time_ceiling(1):
        assert run(argv + ["--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == DEPTH_OUT_OF_REACH


def test_depth_past_an_explicit_diagram_scans_to_its_end(tmp_path, capsys):
    # scan_end stops at the last level, so a huge depth costs nothing there
    p = tmp_path / "explicit.obd"
    dump_diagram(random_explicit(random.Random(5), levels=4), str(p))
    rc, rep = run_json(capsys, ["weak", str(p), str(p), "--depth", BIG])
    assert rc == 0 and rep["bounds"]["depth"] == 2 ** 63


PRIMES_OUT_OF_REACH = (
    "capability error: --primes %d is out of reach: sieving up to it and reading its "
    "valuations at %d explicit levels may take more than PRIMES_WORK_CAP = 2^24 steps\n"
)


def test_primes_out_of_reach_on_explicit_input_is_refused(tmp_path, capsys, monkeypatch):
    ex = str(tmp_path / "explicit.obd")
    dump_diagram(random_explicit(random.Random(5), levels=3), ex)
    dy = str(tmp_path / "dyadic.obd")
    dump_diagram(DYADIC, dy)
    for argv, levels in (
        (["spectrum", ex], 3),
        (["weak", ex, dy], 3),
        (["tau", dy, ex], 3),
        (["kconj", ex, ex], 6),
    ):
        for cutoff in (10 ** 10, 2 ** 63):
            with time_ceiling(1):
                assert run(argv + ["--primes", str(cutoff)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == PRIMES_OUT_OF_REACH % (cutoff, levels)
    # the bound: the cutoff times the scanned levels plus the sieves, here
    # 3 + 1 + 1 for one explicit input; a negative depth scans no level
    monkeypatch.setattr(cli, "PRIMES_WORK_CAP", 500)
    assert run(["spectrum", ex, "--primes", "100", "--format", "json"]) == 0
    assert run(["spectrum", ex, "--primes", "101", "--format", "json"]) == 2
    assert run(["spectrum", ex, "--primes", "250", "--depth", "-1", "--format", "json"]) == 0
    assert run(["spectrum", ex, "--primes", "251", "--depth", "-1", "--format", "json"]) == 2
    capsys.readouterr()


def test_stationary_inputs_take_any_primes_cutoff(deep, capsys):
    # stationary diagrams read only their candidate primes and never sieve
    for argv in (
        ["spectrum", deep["dyadic"]],
        ["spectrum", deep["fib23"]],
        ["weak", deep["fib23"], deep["tri"]],
        ["tau", deep["dyadic"], deep["dyadic"]],
        ["kconj", deep["pa"], deep["pb"]],
    ):
        reports = []
        for cutoff in ("97", "10000000000", BIG):
            with time_ceiling(5):
                rc, rep = run_json(capsys, argv + ["--primes", cutoff])
            assert rc == 0 and rep.pop("bounds")["primes"] == int(cutoff)
            if "spectrum" in rep:
                rep["spectrum"].pop("prime_cutoff")
            reports.append(rep)
        assert reports[0] == reports[1] == reports[2], argv


@pytest.mark.parametrize(
    "window, top",
    [
        (["--span", "3000"], 6001),
        (["--span", "512"], 1025),
        (["--base", BIG], 2 ** 63 + 22),
    ],
)
def test_kconj_window_past_max_level_is_refused(deep, capsys, window, top):
    span, base = (window[1], "3") if window[0] == "--span" else ("12", window[1])
    with time_ceiling(1):
        assert run(["kconj", deep["pa"], deep["pb"], *window, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "capability error: a ladder with span <= %s from base levels <= %s may name "
        "level %d, past MAX_LEVEL = 1024\n" % (span, base, top)
    )


def test_deep_vershik_keeps_few_heights_levels(tmp_path, capsys, monkeypatch):
    # each floor is the walk's step count, so no level of the path is read
    # through heights; only the root and the tower's own level are kept
    loaded = []
    load = cli.load_diagram
    monkeypatch.setattr(cli, "load_diagram", lambda path: loaded.append(load(path)) or loaded[-1])
    p = tmp_path / "flat.obd"
    dump_diagram(systems.stationary_from_rows(((0,),)), str(p))
    rc, rep = run_json(capsys, ["vershik", str(p), "--level", "5000"])
    assert rc == 0 and rep["height"] == 1
    assert [step["floor"] for step in rep["orbit"]] == [1]
    assert len(rep["orbit"][0]["path"]) == 5000
    assert loaded[0]._memo["heights"].levels == [0, 5000]


def test_walk_cost_bounds_the_heights_walk():
    # the work the walk does, each edge charged 2^12 plus the bits of the
    # largest height it adds, never passes the bound read off the tables;
    # an explicit unrolling of a stationary diagram has the same bound
    rng = random.Random(3)
    pool = [ONE, TWO, DYADIC, FIB]
    pool += [random_stationary(rng, max_vertices=3, max_edges=4) for _ in range(6)]
    pool += [random_explicit(rng, levels=8, max_vertices=3, max_edges=4) for _ in range(6)]
    for d in pool:
        top = 30 if d.max_level() is None else d.max_level()
        work = 0
        for level in range(top + 1):
            assert work <= _walk_cost(d, level), (d, level)
            if d.kind == "stationary":
                unrolled = OrderedBratteliDiagram(
                    "explicit",
                    (1,) + (d.num_vertices(1),) * level,
                    tuple(d.table(n) for n in range(level)),
                )
                assert _walk_cost(unrolled, level) == _walk_cost(d, level), (d, level)
            if level < top:
                bits = max(heights(d, level)).bit_length()
                work += sum(map(len, d.table(level))) * (2 ** 12 + bits)


def test_frobenius(capsys):
    rc, rep = run_json(capsys, ["frobenius", "3", "5"])
    assert rc == 0
    assert rep["threshold"] == 8


def test_frobenius_of_two_large_generators_needs_no_table(capsys):
    # a residue table modulo 10^9 + 7 would hold a billion entries
    a, b = 1_000_000_007, 1_000_000_009
    with time_ceiling(10):
        rc, rep = run_json(capsys, ["frobenius", str(a), str(b)])
    assert rc == 0
    assert rep["threshold"] == a * b - a - b + 1


def test_frobenius_refuses_three_large_generators(capsys):
    least = FROBENIUS_TABLE_CAP + 1
    gens = [str(least), str(least + 1), str(least + 2)]
    with time_ceiling(10):
        assert run(["frobenius", *gens, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "capability error: frobenius of three or more generators caps the least one at "
        "FROBENIUS_TABLE_CAP = %d\n" % FROBENIUS_TABLE_CAP
    )
    # generators that are not coprime are an input error at any size
    assert run(["frobenius", *(str(2 * least + 2 * i) for i in range(3))]) == 1
    # at the cap the table is built
    with time_ceiling(10):
        rc, rep = run_json(capsys, ["frobenius", str(least - 1), str(least), str(least + 1)])
    assert rc == 0 and rep["threshold"] > 0


def test_frobenius_bounds_the_least_generator_times_their_number(capsys, monkeypatch):
    # the residue table tries every generator from each of its 99,991 entries
    gens = ["99991"] + [str(99992 + i) for i in range(2000)]
    with time_ceiling(5):
        assert run(["frobenius", *gens, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "capability error: frobenius of three or more generators caps the least one "
        "times the number of distinct ones at FROBENIUS_WORK_CAP = %d\n" % FROBENIUS_WORK_CAP
    )
    # distinct generators count, and two of them need no table
    monkeypatch.setattr(cli, "FROBENIUS_WORK_CAP", 3000)
    rc, rep = run_json(capsys, ["frobenius", "1000", "1001", "1002", *["1002"] * 500])
    assert rc == 0 and rep["threshold"] == frobenius((1000, 1001, 1002))
    assert run(["frobenius", "1000", "1001", "1002", "1003"]) == 2
    rc, rep = run_json(capsys, ["frobenius", "1000", "1001", "1001", "1001", "1001"])
    assert rc == 0 and rep["threshold"] == 1000 * 1001 - 1000 - 1001 + 1
    capsys.readouterr()


def test_frobenius_rejects_non_coprime():
    assert run(["frobenius", "2", "4", "--format", "json"]) == 1


def test_out_flag_writes_file(corpus, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = run(
        ["heights", corpus["dyadic"], "2", "--format", "json", "--out", str(target)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["heights"] == [4]


def test_table_format_is_default(capsys):
    rc = run(["frobenius", "3", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "threshold: 8" in out


def test_unknown_subcommand_is_usage_error():
    assert run(["no-such-command"]) == 1


def test_missing_argument_is_usage_error():
    assert run(["heights"]) == 1


def test_unknown_option_is_usage_error(corpus):
    assert run(["heights", corpus["dyadic"], "1", "--max-level", "3"]) == 1


def test_missing_file_is_input_error(tmp_path):
    assert run(["heights", str(tmp_path / "nope.obd"), "1"]) == 1


def test_deeply_nested_json_is_an_input_error_not_a_traceback(corpus, tmp_path):
    # json's decoder raises RecursionError on these, which is no ValueError
    deep = "[" * 200_000 + "]" * 200_000
    for name in ("deep.json", "deep.obd"):
        (tmp_path / name).write_text(deep)
    src = str(pathlib.Path(cantorconj.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for argv in (
        ["verify", str(tmp_path / "deep.json"), corpus["dyadic"]],
        ["heights", str(tmp_path / "deep.obd"), "2"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cantorconj.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1, (argv, proc.stderr)
        assert proc.stderr.startswith("input error: "), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
