"""Fuzz gate over cli.run: whatever the arguments, a call ends within a
wall-time bound with exit code 0, 1 or 2 and no exception escaping.

Hypothesis draws a subcommand, obd-v1 files (named, reducible and seeded
stationary and explicit diagrams, some with one JSON leaf replaced),
integer arguments and search bounds (--depth, --span, --base: negative,
zero, small, 10^6 and 2^63), prime cutoffs (--primes: negative, zero,
small, 10^5, 10^10 and 2^63, on stationary and explicit inputs alike),
frobenius generator lists of up to 2,001 consecutive integers from a
least one as large as 99,991, and, for verify, emitted certificates with
one leaf replaced.  The examples are derandomized, so every run draws
the same calls; which calls follows the test's source text, so an edit to
one_call can change them all.  What always runs, whatever the draws, are
the explicit examples (HEAVY), one per heavy refusal, each asserted to
exit 2:

- frobenius of the 2,001 consecutive generators from 99,991;
- spectrum of an explicit diagram with --primes 10^10;
- positivity on a reducible diagram with --depth 2^63;
- kconj with a window past MAX_LEVEL (--span 10^6).

A call past the wall-time bound fails as an ordinary assertion that names
its arguments.
"""

import contextlib
import io
import json
import os
import random
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorconj import systems
from cantorconj.bratteli import dump_diagram
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
from cantorconj.cli import run

from conftest import CeilingExceeded, random_explicit, random_stationary, time_ceiling

# wall-time bound of one call; every call of the gate takes well under it
CALL_SECONDS = 5

BIG = 2 ** 63
INTS = st.sampled_from((-1, 0, 1, 2, 3, BIG)) | st.integers(-2, 12)
# search bounds: small ones, and ones past every reach the CLI allows
BOUNDS = st.sampled_from((-1, 0, 1, 4, 10 ** 6, BIG))
# prime cutoffs: the default, and ones past the sieve an explicit input allows
PRIMES = st.sampled_from((-1, 0, 2, 97, 10 ** 5, 10 ** 10, BIG))
# what a mutated JSON leaf becomes
LEAVES = st.sampled_from((-1, 0, 1, BIG, 1.5, "x", None, True, [], {}))


def _diagrams():
    rng = random.Random(11)
    out = [systems.dyadic(), systems.fibonacci(), systems.quaternary()]
    # reducible: a vector of mixed signs stays mixed on the first, and the
    # second's first tower stays at height 1, so their scans run to the end
    out += [systems.stationary_from_rows(rows) for rows in (((0,), (1,)), ((0,), (0, 1)))]
    out += [random_stationary(rng, max_vertices=2, max_edges=2) for _ in range(3)]
    out += [random_explicit(rng, levels=3) for _ in range(2)]
    return out


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Diagram texts, and certificates with the indices of their systems."""
    base = tmp_path_factory.mktemp("fuzz")
    diagrams = _diagrams()
    texts = []
    for i, d in enumerate(diagrams):
        path = base / ("d%d.obd" % i)
        dump_diagram(d, str(path))
        texts.append(path.read_text())
    dyadic, quaternary = diagrams[0], diagrams[2]
    bundle = conjugate_at_resolution(dyadic, quaternary, 1)
    certs = [
        (weak_certificate(decide_weak(dyadic, quaternary), dyadic, quaternary), (0, 2)),
        (tau_certificate(decide_tau(dyadic, quaternary), dyadic, quaternary), (0, 2)),
        (
            ladder_certificate(decide_k_conjugacy(dyadic, quaternary).ladder, dyadic, quaternary),
            (0, 2),
        ),
        (
            conjugator_certificate(
                bundle.corrector, bundle.sigma.target_level, bundle.blocks, bundle.images
            ),
            (2,),
        ),
    ]
    return base, texts, certs


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaf_paths(val, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, val in enumerate(obj):
            yield from _leaf_paths(val, path + (i,))
    else:
        yield path


def _mutated(obj, draw):
    """obj with one drawn leaf replaced by a drawn value."""
    paths = list(_leaf_paths(obj))
    path = paths[draw(st.integers(0, len(paths) - 1))]
    if not path:
        return draw(LEAVES)
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(LEAVES)
    return obj


def _fresh_file(base, text):
    """text in a new file of its own: rewriting one file over and over
    costs far more than a new file on some file systems."""
    fd, path = tempfile.mkstemp(dir=base)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@st.composite
def calls(draw, corpus):
    base, texts, certs = corpus

    def diagram():
        i = draw(st.integers(0, len(texts) - 1))
        if draw(st.integers(0, 3)):
            return str(base / ("d%d.obd" % i))
        return _fresh_file(base, json.dumps(_mutated(json.loads(texts[i]), draw)))

    def num():
        return str(draw(INTS))

    command = draw(
        st.sampled_from(
            (
                "validate", "heights", "k0-class", "positivity", "spectrum", "weak", "tau",
                "kconj", "conjugator", "verify", "vershik", "frobenius",
            )
        )
    )
    if command in ("validate", "spectrum"):
        argv = [command, diagram()]
    elif command == "heights":
        argv = [command, diagram(), num()]
    elif command == "k0-class":
        cells = ["%s:%s" % (num(), num()) for _ in range(draw(st.integers(1, 3)))]
        argv = [command, diagram(), num(), *cells]
    elif command == "positivity":
        vector = ",".join(num() for _ in range(draw(st.integers(1, 3))))
        argv = [command, diagram(), num(), vector]
    elif command in ("weak", "tau"):
        argv = [command, diagram(), diagram()]
    elif command == "kconj":
        argv = [command, diagram(), diagram()]
        argv += ["--span", str(draw(BOUNDS)), "--base", str(draw(BOUNDS))]
    elif command == "conjugator":
        argv = [command, diagram(), diagram(), num()]
    elif command == "verify":
        cert, owners = certs[draw(st.integers(0, len(certs) - 1))]
        if draw(st.booleans()):
            cert = _mutated(cert, draw)
        path = _fresh_file(base, json.dumps(cert))
        if draw(st.booleans()):
            owners = [str(base / ("d%d.obd" % i)) for i in owners]
        else:
            owners = [diagram() for _ in owners]
        argv = [command, path, *owners]
    elif command == "vershik":
        argv = [command, diagram(), "--level", num(), "--vertex", num(), "--limit", num()]
    elif draw(st.booleans()):
        argv = [command, *(num() for _ in range(draw(st.integers(1, 3))))]
    else:
        # consecutive, so coprime: a residue table modulo the least one,
        # searched once per generator
        least = draw(st.sampled_from((1, 2, 97, 99991)))
        count = draw(st.sampled_from((2, 3, 30, 2001)))
        argv = [command, *(str(least + i) for i in range(count))]
    if command in ("spectrum", "weak", "tau", "kconj"):
        argv += ["--primes", str(draw(PRIMES))]
    if command in ("validate", "positivity", "spectrum", "weak", "tau", "kconj", "conjugator"):
        argv += ["--depth", str(draw(BOUNDS))]
    return argv + ["--format", draw(st.sampled_from(("json", "table")))]


def heavy_refusals(base):
    """The calls that always run, each refused with exit 2 (see the module
    docstring); d0, d2, d3 and d8 are dyadic, quaternary, a reducible
    diagram and an explicit one."""
    path = lambda i: str(base / ("d%d.obd" % i))
    return (
        ["frobenius", *(str(99991 + i) for i in range(2001))],
        ["spectrum", path(8), "--primes", str(10 ** 10)],
        ["positivity", path(3), "1", "1,-1", "--depth", str(BIG)],
        ["kconj", path(0), path(2), "--span", str(10 ** 6)],
    )


def test_cli_exits_0_1_or_2_in_bounded_time(corpus):
    seen = {}
    exits = {}
    heavy = [argv + ["--format", "json"] for argv in heavy_refusals(corpus[0])]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(calls(corpus))
    @example(heavy[0])
    @example(heavy[1])
    @example(heavy[2])
    @example(heavy[3])
    def one_call(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with time_ceiling(CALL_SECONDS), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = run(argv)
        except CeilingExceeded:
            # an ordinary failure, so hypothesis shrinks and reports the argv
            raise AssertionError(
                "cantorconj %s: still running after %s s" % (" ".join(argv), CALL_SECONDS)
            ) from None
        elapsed = time.perf_counter() - start
        assert rc in (0, 1, 2), (argv, rc)
        assert elapsed < CALL_SECONDS, (argv, elapsed)
        assert "Traceback" not in err.getvalue(), argv
        seen[rc] = seen.get(rc, 0) + 1
        exits[tuple(argv)] = rc

    one_call()
    # every heavy refusal ran and was refused
    assert [exits.get(tuple(argv)) for argv in heavy] == [2] * len(heavy)
    # the draws reach every outcome
    assert set(seen) == {0, 1, 2}, seen
