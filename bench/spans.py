"""Spans around calls into cantorconj's layers, recorded from outside.

`Tracer.install()` rebinds each listed public function in every cantorconj
namespace that binds it (the defining module, the package, and every
module that imported it by name), wraps the listed DimGroup methods on
the class, and wraps the sympy entry points the package calls.  Only the
traced run calls it; the untraced run never imports this module.

A span is (name, start, end, parent index).  Spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are synchronous and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import subprocess
import sys
import time

# (module, function) pairs that get spans; the per-layer metrics are read
# from these.  conjugate_at_resolution and the certificate builders are
# wrapped so that their own work is not charged to a caller's self time.
FUNCTIONS = {
    "bratteli": ("heights", "composed_incidence", "tower_map"),
    "fieldpoly": ("irreducible_factor_of_largest_root",),
    "invariants": (
        "spectra_equal",
        "divides_unit",
        "trace_image_group",
        "trace_images_isomorphic",
        "periodic_spectrum",
    ),
    "fullgroup": (
        "check_block_condition",
        "cyclic_from_blocks",
        "conjugator_from_partition",
        "verify_conjugator",
    ),
    "classify": (
        "decide_weak",
        "decide_tau",
        "decide_k_conjugacy",
        "verify_ladder",
        "verify_certificate",
        "build_k0_morphism",
        "lift_class_under",
        "partition_from_classes",
        "conjugate_at_resolution",
        "conjugator_certificate",
        "ladder_certificate",
    ),
}
DIMGROUP_METHODS = ("__init__", "push", "is_positive")
SYMPY_FUNCTIONS = ("factor_list", "factorint", "primerange")

# Per-layer metrics: name -> (kind, span name).  kind "calls" counts spans,
# "self_s" sums self time; "repeat_calls" is filled in from argument keys.
METRICS = {
    "bratteli.heights.calls": ("calls", "bratteli.heights"),
    "bratteli.heights.repeat_calls": ("repeat_calls", "bratteli.heights"),
    "bratteli.heights.self_s": ("self_s", "bratteli.heights"),
    "bratteli.composed_incidence.calls": ("calls", "bratteli.composed_incidence"),
    "bratteli.composed_incidence.self_s": ("self_s", "bratteli.composed_incidence"),
    "bratteli.tower_map.calls": ("calls", "bratteli.tower_map"),
    "bratteli.tower_map.self_s": ("self_s", "bratteli.tower_map"),
    "dimgroup.DimGroup.instances": ("calls", "dimgroup.DimGroup.__init__"),
    "dimgroup.push.calls": ("calls", "dimgroup.DimGroup.push"),
    "dimgroup.is_positive.calls": ("calls", "dimgroup.DimGroup.is_positive"),
    "dimgroup.is_positive.self_s": ("self_s", "dimgroup.DimGroup.is_positive"),
    "fieldpoly.irreducible_factor_of_largest_root.calls": (
        "calls",
        "fieldpoly.irreducible_factor_of_largest_root",
    ),
    "fieldpoly.irreducible_factor_of_largest_root.self_s": (
        "self_s",
        "fieldpoly.irreducible_factor_of_largest_root",
    ),
    "fieldpoly.sympy.calls": ("calls", "sympy.*"),
    "invariants.spectra_equal.calls": ("calls", "invariants.spectra_equal"),
    "invariants.spectra_equal.self_s": ("self_s", "invariants.spectra_equal"),
    "invariants.divides_unit.calls": ("calls", "invariants.divides_unit"),
    "invariants.trace_image_group.calls": ("calls", "invariants.trace_image_group"),
    "invariants.trace_image_group.self_s": ("self_s", "invariants.trace_image_group"),
    "invariants.trace_images_isomorphic.self_s": (
        "self_s",
        "invariants.trace_images_isomorphic",
    ),
    "fullgroup.check_block_condition.calls": ("calls", "fullgroup.check_block_condition"),
    "fullgroup.check_block_condition.self_s": ("self_s", "fullgroup.check_block_condition"),
    "fullgroup.cyclic_from_blocks.self_s": ("self_s", "fullgroup.cyclic_from_blocks"),
    "fullgroup.conjugator_from_partition.self_s": (
        "self_s",
        "fullgroup.conjugator_from_partition",
    ),
    "fullgroup.verify_conjugator.self_s": ("self_s", "fullgroup.verify_conjugator"),
    "classify.decide_k_conjugacy.self_s": ("self_s", "classify.decide_k_conjugacy"),
    "classify.decide_tau.self_s": ("self_s", "classify.decide_tau"),
    "classify.decide_weak.self_s": ("self_s", "classify.decide_weak"),
    "classify.verify_ladder.self_s": ("self_s", "classify.verify_ladder"),
    "classify.verify_certificate.self_s": ("self_s", "classify.verify_certificate"),
    "classify.build_k0_morphism.calls": ("calls", "classify.build_k0_morphism"),
    "classify.lift_class_under.calls": ("calls", "classify.lift_class_under"),
    "classify.partition_from_classes.self_s": ("self_s", "classify.partition_from_classes"),
}


class Tracer:
    def __init__(self):
        self.names = []  # span name per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.heights_keys = set()  # distinct (diagram, level) in the current pass
        self.heights_distinct = 0

    def wrap(self, name, fn, key_of=None):
        names, starts, ends, parents, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self.stack,
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                tracer.heights_keys.add(key_of(*args, **kwargs))
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(None)
            starts.append(clock())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def end_pass(self):
        self.heights_distinct += len(self.heights_keys)
        self.heights_keys = set()

    def install(self):
        import sympy
        from cantorconj import dimgroup

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cantorconj" or n.startswith("cantorconj."))
        ]

        def rebind(orig, wrapped):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

        for modname, funcs in FUNCTIONS.items():
            home = sys.modules["cantorconj." + modname]
            for fname in funcs:
                orig = getattr(home, fname)
                key_of = None
                if (modname, fname) == ("bratteli", "heights"):
                    key_of = lambda d, m, *rest, **kw: (d, m)
                rebind(orig, self.wrap("%s.%s" % (modname, fname), orig, key_of))
        for meth in DIMGROUP_METHODS:
            orig = getattr(dimgroup.DimGroup, meth)
            setattr(dimgroup.DimGroup, meth, self.wrap("dimgroup.DimGroup." + meth, orig))
        for fname in SYMPY_FUNCTIONS:
            orig = getattr(sympy, fname)
            wrapped = self.wrap("sympy.*", orig)
            setattr(sympy, fname, wrapped)
            rebind(orig, wrapped)

    def totals(self, cal):
        """span name -> (calls, calibrated self seconds), over every span.

        Durations leave out the reference samples taken inside a span."""
        n = len(self.names)
        child = [0.0] * n
        dur = [
            self.ends[i] - self.starts[i] - cal.busy(self.starts[i], self.ends[i])
            for i in range(n)
        ]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            calls, selfs = out.get(self.names[i], (0, 0.0))
            scale = cal.scale(self.starts[i], self.ends[i])
            out[self.names[i]] = (calls + 1, selfs + (dur[i] - child[i]) * scale)
        return out

    def metrics(self, passes, cal):
        """Per-pass per-layer metrics, times in calibrated seconds."""
        totals = self.totals(cal)
        out = {}
        for metric, (kind, span) in METRICS.items():
            calls, selfs = totals.get(span, (0, 0.0))
            if kind == "calls":
                out[metric] = (calls / passes, "count")
            elif kind == "repeat_calls":
                out[metric] = ((calls - self.heights_distinct) / passes, "count")
            else:
                out[metric] = (selfs / passes, "s")
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.names)):
                fh.write(
                    json.dumps(
                        [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
                    )
                    + "\n"
                )


# Cold CLI children whose imports the cli.* metrics report: heights loads
# no sympy, spectrum does (for the dyadic system, whose Perron root is 2).
CLI_PROBES = (("heights", "3"), ("spectrum",))


def cli_probe(src, workdir):
    """Run each CLI_PROBES command once as `python -X importtime -m
    cantorconj.cli ... dyadic.obd`; returns the summed cumulative import
    seconds of cantorconj and of sympy, and how many children imported
    sympy."""
    from cantorconj import systems
    from cantorconj.bratteli import dump_diagram

    os.makedirs(workdir, exist_ok=True)
    obd = os.path.join(workdir, "dyadic.obd")
    dump_diagram(systems.dyadic(), obd)
    env = dict(os.environ, PYTHONPATH=src)
    pkg = sym = 0.0
    loaded = 0
    for command in CLI_PROBES:
        cmd = [sys.executable, "-X", "importtime", "-m", "cantorconj.cli", command[0], obd]
        proc = subprocess.run(cmd + list(command[1:]), capture_output=True, text=True,
                              env=env, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("CLI probe failed: %s" % proc.stderr.strip()[-300:])
        times = _import_times(proc.stderr)
        pkg += times.get("cantorconj", 0.0)
        if "sympy" in times:
            sym += times["sympy"]
            loaded += 1
    return pkg, sym, loaded


def _import_times(stderr):
    """name -> cumulative seconds of its first top-level -X importtime line."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        name = parts[-1].strip()
        if len(parts) == 3 and name not in out and parts[1].strip().isdigit():
            out[name] = int(parts[1]) / 1e6
    return out

