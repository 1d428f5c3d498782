"""The names bench/spans.py wraps exist in the package.

The traced bench run rebinds each listed function by name, so a renamed or
deleted one would only surface there; this keeps the lists honest."""

import importlib
import importlib.util
import pathlib

from cantorconj.dimgroup import DimGroup

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = load_spans()
    for modname, funcs in spans.FUNCTIONS.items():
        mod = importlib.import_module("cantorconj." + modname)
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), "%s.%s" % (modname, fname)
    for meth in spans.DIMGROUP_METHODS:
        assert callable(getattr(DimGroup, meth, None)), meth
