"""Command line front end.

Subcommands map onto the library layers: diagram hygiene (validate,
heights, vershik), dimension group queries (k0-class, positivity),
invariants (spectrum), the equivalence deciders (weak, tau, kconj,
conjugator), numerical semigroup arithmetic (frobenius), and certificate
re-checking (verify).  A subcommand takes only the bounds it passes on,
and its report embeds them, so an Unknown verdict names the exact search
that was exhausted; --format picks json or a flat key:value table and
--out redirects the report to a file.
For kconj the ladder search solves the intertwining equation within the
--span and --base window under a fixed budget of search nodes, and the
note of an Unknown verdict says which ran out and how many nodes were spent.

Exit codes: 0 the command completed and the verdict (including No, Failed
or Unknown) is in the report; 1 input or usage error; 2 capability error,
i.e. a bound of the exact arithmetic was exceeded.
"""

import argparse
import json
import math
import sys

from .bratteli import (
    CELL_CAP,
    DEFAULT_DEPTH,
    CapabilityError,
    DiagramStructureError,
    DiagramSyntaxError,
    LevelRangeError,
    MAX_PATH,
    class_of_clopen,
    heights,
    load_diagram,
    min_path,
    validate,
    vershik_successor,
)
from .check import frobenius, verify_certificate
from .classify import (
    StageError,
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    tau_certificate,
    weak_certificate,
)
from .dimgroup import DimGroup
from .invariants import DEFAULT_PRIME_CUTOFF, periodic_spectrum


# frobenius with three or more distinct generators keeps one table entry
# per residue modulo the least generator and tries every distinct generator
# from each: past this many entries, or this much work, it is refused.
FROBENIUS_TABLE_CAP = 10 ** 5
FROBENIUS_WORK_CAP = 10 ** 7

# A level argument is refused when walking the heights up to it could take
# more than this many bit operations (see _walk_cost); the bound is read
# off the edge tables, before any heights are.
HEIGHTS_WORK_CAP = 2 ** 30

# --primes on an explicit diagram sieves up to the cutoff and reads every
# prime's valuation per scanned level; past this much work it is refused
# (see _check_primes).  Stationary diagrams never sieve.
PRIMES_WORK_CAP = 2 ** 24


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# The subcommands that pass each bound on to the library.
_DEPTH_TAKERS = {"validate", "positivity", "spectrum", "weak", "tau", "kconj", "conjugator"}
_PRIMES_TAKERS = {"spectrum", "weak", "tau", "kconj"}


def _common_flags(name, sub):
    if name in _DEPTH_TAKERS:
        sub.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="search depth bound")
    if name in _PRIMES_TAKERS:
        sub.add_argument("--primes", type=int, default=DEFAULT_PRIME_CUTOFF, help="prime cutoff")
    sub.add_argument("--format", choices=("table", "json"), default="table")
    sub.add_argument("--out", default=None, help="write the report to a file")


def _build_parser():
    parser = _Parser(prog="cantorconj", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    subs.required = True

    sub = subs.add_parser("validate", help="primitivity and ordering report")
    sub.add_argument("diagram")
    sub.set_defaults(handler=_cmd_validate)

    sub = subs.add_parser("heights", help="tower heights at a level")
    sub.add_argument("diagram")
    sub.add_argument("level", type=int)
    sub.set_defaults(handler=_cmd_heights)

    sub = subs.add_parser("k0-class", help="class of a union of cells")
    sub.add_argument("diagram")
    sub.add_argument("level", type=int)
    sub.add_argument("cells", nargs="+", metavar="V:J")
    sub.set_defaults(handler=_cmd_k0_class)

    sub = subs.add_parser("positivity", help="sign of a class")
    sub.add_argument("diagram")
    sub.add_argument("level", type=int)
    sub.add_argument("vector", metavar="C1,C2,...")
    sub.set_defaults(handler=_cmd_positivity)

    sub = subs.add_parser("spectrum", help="divisor set, prime by prime")
    sub.add_argument("diagram")
    sub.set_defaults(handler=_cmd_spectrum)

    sub = subs.add_parser("weak", help="weak approximate conjugacy")
    sub.add_argument("a")
    sub.add_argument("b")
    sub.set_defaults(handler=_cmd_weak)

    sub = subs.add_parser("tau", help="approximate tau-conjugacy")
    sub.add_argument("a")
    sub.add_argument("b")
    sub.set_defaults(handler=_cmd_tau)

    sub = subs.add_parser("kconj", help="approximate K-conjugacy")
    sub.add_argument("a")
    sub.add_argument("b")
    sub.add_argument("--span", type=int, default=12, help="ladder level span bound")
    sub.add_argument("--base", type=int, default=3, help="ladder base level bound")
    sub.set_defaults(handler=_cmd_kconj)

    sub = subs.add_parser("conjugator", help="conjugacy at a fixed resolution")
    sub.add_argument("a")
    sub.add_argument("b")
    sub.add_argument("level", type=int)
    sub.set_defaults(handler=_cmd_conjugator)

    sub = subs.add_parser("verify", help="re-check a certificate file")
    sub.add_argument("certificate")
    sub.add_argument("systems", nargs="+")
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("vershik", help="successor orbit of a tower")
    sub.add_argument("diagram")
    sub.add_argument("--level", type=int, default=1)
    sub.add_argument("--vertex", type=int, default=0)
    sub.add_argument("--limit", type=int, default=0, help="0 walks the whole tower")
    sub.set_defaults(handler=_cmd_vershik)

    sub = subs.add_parser("frobenius", help="representability threshold")
    sub.add_argument("generators", nargs="+", type=int)
    sub.set_defaults(handler=_cmd_frobenius)

    for name, sub in subs.choices.items():
        _common_flags(name, sub)
    return parser


def _cell(token):
    """The cell V:J (tower V, floor J) a k0-class argument names."""
    v, _, j = token.partition(":")
    try:
        return (int(v), int(j))
    except ValueError:
        raise ValueError("cell %r is not of the form V:J (two integers)" % token) from None


def _vector(token):
    """The coordinates C1,C2,... a positivity argument names."""
    try:
        return tuple(int(x) for x in token.split(","))
    except ValueError:
        raise ValueError("vector %r is not of the form C1,C2,... (integers)" % token) from None


def _element_json(e):
    return {"level": e.level, "vector": list(e.vector)}


def _obstruction_json(o):
    return {"kind": o.kind, "witness": o.witness}


def _walk_cost(d, level):
    """An upper bound on the bit operations of walking the heights from
    the root up to level, one addition per edge.

    The heights of level n have at most B_n bits: B_0 = 1, and a sum of r
    numbers below 2^B is below 2^(B + bits(r - 1)), so B_(n+1) = B_n +
    bits(r - 1) for r the longest row of table n.  An edge into level n + 1
    is charged 2^12, for the interpreter's work per addition, plus B_n.
    Past the root a stationary diagram repeats one table, so its sum has
    a closed form; an explicit one has as many tables as its data holds.
    """

    def table_cost(n):
        rows = d.table(n)
        return sum(map(len, rows)), (max(map(len, rows)) - 1).bit_length()

    if d.kind == "stationary" and level > 1:
        e0, c0 = table_cost(0)
        e, c = table_cost(1)
        k = level - 1  # transitions past the root, the first from B_1 bits
        return e0 * (2 ** 12 + 1) + e * (k * (2 ** 12 + 1 + c0) + c * k * (k - 1) // 2)
    cost = 0
    bits = 1
    for n in range(level):
        e, c = table_cost(n)
        cost += e * (2 ** 12 + bits)
        bits += c
    return cost


def _check_reach(d, level):
    """Refuse a negative level (input error), a level past an explicit
    diagram's end or one whose heights walk exceeds HEIGHTS_WORK_CAP
    (capability errors), before any heights are read."""
    d.check_level(level)
    if _walk_cost(d, level) > HEIGHTS_WORK_CAP:
        raise CapabilityError(
            "level %d is out of reach: walking its heights up from the root may take "
            "more than HEIGHTS_WORK_CAP = 2^%d bit operations"
            % (level, HEIGHTS_WORK_CAP.bit_length() - 1)
        )


def _check_depth(args, level, *diagrams):
    """Refuse a --depth whose scan from level, to d.scan_end(level, depth),
    is out of reach (_check_reach) on some input, before any heights are
    read; a negative depth scans nothing."""
    for d in diagrams:
        try:
            _check_reach(d, d.scan_end(level, max(args.depth, 0)))
        except CapabilityError as e:
            raise CapabilityError("--depth %d reaches too far: %s" % (args.depth, e)) from None


def _check_primes(args, *diagrams):
    """Refuse a --primes cutoff out of reach, before any heights are read:
    the cutoff times the levels the explicit inputs scan, plus a sieve for
    each of them and one for the comparison, may not pass PRIMES_WORK_CAP."""
    explicit = [d for d in diagrams if d.kind != "stationary"]
    levels = sum(d.scan_end(0, max(args.depth, 0)) for d in explicit)
    if explicit and max(args.primes, 0) * (levels + len(explicit) + 1) > PRIMES_WORK_CAP:
        raise CapabilityError(
            "--primes %d is out of reach: sieving up to it and reading its valuations at "
            "%d explicit levels may take more than PRIMES_WORK_CAP = 2^%d steps"
            % (args.primes, levels, PRIMES_WORK_CAP.bit_length() - 1)
        )


def _cmd_validate(args):
    try:
        d = load_diagram(args.diagram)
    except (DiagramSyntaxError, DiagramStructureError) as e:
        return {"ok": False, "primitive": None, "issues": [str(e)]}
    rep = validate(d, args.depth)
    return {
        "ok": rep.ok,
        "primitive": rep.primitive,
        "primitivity_level": rep.primitivity_level,
        "properly_ordered": rep.properly_ordered,
        "issues": list(rep.issues),
    }


def _cmd_heights(args):
    d = load_diagram(args.diagram)
    _check_reach(d, args.level)
    return {"level": args.level, "heights": list(heights(d, args.level))}


def _cmd_k0_class(args):
    d = load_diagram(args.diagram)
    cell_list = tuple(_cell(t) for t in args.cells)
    towers = d.num_vertices(args.level)
    for v, j in cell_list:
        # the floors' upper bounds are the heights, checked below
        if not 0 <= v < towers or j < 1:
            raise ValueError("cell (%d, %d) does not exist at level %d" % (v, j, args.level))
    _check_reach(d, args.level)
    e = class_of_clopen(d, args.level, cell_list)
    return {"element": _element_json(e)}


def _cmd_positivity(args):
    d = load_diagram(args.diagram)
    grp = DimGroup(d)
    e = grp.element(args.level, _vector(args.vector))
    _check_reach(d, args.level)
    _check_depth(args, args.level, d)
    res = grp.is_positive(e, args.depth)
    return {
        "element": _element_json(e),
        "verdict": res.verdict,
        "witness_level": res.witness_level,
    }


def _cmd_spectrum(args):
    d = load_diagram(args.diagram)
    _check_depth(args, 1, d)
    _check_primes(args, d)
    trunc = periodic_spectrum(d, args.primes, depth=args.depth)
    return {"spectrum": trunc.to_json()}


def _cmd_weak(args):
    a, b = load_diagram(args.a), load_diagram(args.b)
    _check_depth(args, 1, a, b)
    _check_primes(args, a, b)
    res = decide_weak(a, b, prime_cutoff=args.primes, depth=args.depth)
    out = {"verdict": res.verdict, "witness": res.witness}
    if res.verdict == "weak":
        out["certificate"] = weak_certificate(res, a, b)
        out.update(out["certificate"]["witness"])
    return out


def _cmd_tau(args):
    a, b = load_diagram(args.a), load_diagram(args.b)
    _check_depth(args, 1, a, b)
    _check_primes(args, a, b)
    res = decide_tau(a, b, prime_cutoff=args.primes, depth=args.depth)
    out = {
        "verdict": res.verdict,
        "obstructions": [_obstruction_json(o) for o in res.obstructions],
    }
    if res.verdict == "tau":
        out["certificate"] = tau_certificate(res, a, b)
    return out


def _cmd_kconj(args):
    a, b = load_diagram(args.a), load_diagram(args.b)
    _check_depth(args, 1, a, b)
    _check_primes(args, a, b)
    res = decide_k_conjugacy(
        a,
        b,
        max_span=args.span,
        max_base=args.base,
        prime_cutoff=args.primes,
        depth=args.depth,
    )
    out = {
        "verdict": res.verdict,
        "obstructions": [_obstruction_json(o) for o in res.obstructions],
        "note": res.note,
    }
    if res.ladder is not None:
        out["ladder"] = res.ladder.to_json()
        out["certificate"] = ladder_certificate(res.ladder, a, b)
    return out


def _cmd_conjugator(args):
    a, b = load_diagram(args.a), load_diagram(args.b)
    _check_reach(a, args.level)
    _check_depth(args, args.level, a, b)
    try:
        bundle = conjugate_at_resolution(a, b, args.level, args.depth)
    except StageError as e:
        out = {"verdict": "failed", "stage": e.stage, "message": str(e)}
        if e.obstruction is not None:
            out["obstruction"] = _obstruction_json(e.obstruction)
        return out
    return {
        "verdict": bundle.report.verdict,
        "checked": bundle.report.checked,
        "unresolved": bundle.report.unresolved,
        "morphism": bundle.morphism.to_json(),
        "element": bundle.corrector.to_json(),
        "certificate": conjugator_certificate(
            bundle.corrector,
            bundle.sigma.target_level,
            bundle.blocks,
            bundle.images,
        ),
    }


def _cmd_verify(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        try:
            cert = json.load(fh)
        except RecursionError as e:
            raise ValueError("certificate JSON nests too deeply to parse") from e
    if not isinstance(cert, dict):
        raise ValueError("certificate file must hold a JSON object")
    loaded = [load_diagram(p) for p in args.systems]
    chk = verify_certificate(cert, loaded)
    return {"claim": cert.get("claim"), "ok": chk.ok, "reason": chk.reason}


def _cmd_vershik(args):
    if args.limit < 0:
        raise ValueError("limit %d is negative (0 walks the whole tower)" % args.limit)
    d = load_diagram(args.diagram)
    if not 0 <= args.vertex < d.num_vertices(args.level):
        raise ValueError("vertex %d out of range" % args.vertex)
    _check_reach(d, args.level)
    height = heights(d, args.level)[args.vertex]
    # the walk stops at the tower's top floor, so no limit reaches past it
    limit = min(args.limit, height) if args.limit else height
    if limit > CELL_CAP:
        # a deep tower's height may have more digits than str() converts
        bits = height.bit_length()
        size = height if bits <= 64 else "at least 2^%d" % (bits - 1)
        raise CapabilityError("orbit enumeration caps at %d floors, tower has %s" % (CELL_CAP, size))
    path = min_path(d, args.vertex, args.level)
    orbit = []
    for _ in range(limit):
        # the successor moves one floor up the tower, so step i is floor i + 1
        entry = {"floor": len(orbit) + 1, "path": [list(edge) for edge in path]}
        nxt = vershik_successor(d, path)
        if nxt is MAX_PATH:
            entry["successor"] = "max"
            orbit.append(entry)
            break
        entry["successor"] = "next"
        orbit.append(entry)
        path = nxt
    return {
        "level": args.level,
        "vertex": args.vertex,
        "height": height,
        "orbit": orbit,
    }


def _cmd_frobenius(args):
    gens = set(args.generators)
    # generators that are not coprime stay an input error
    if len(gens) > 2 and math.gcd(*gens) == 1:
        if min(gens) > FROBENIUS_TABLE_CAP:
            raise CapabilityError(
                "frobenius of three or more generators caps the least one at "
                "FROBENIUS_TABLE_CAP = %d" % FROBENIUS_TABLE_CAP
            )
        if min(gens) * len(gens) > FROBENIUS_WORK_CAP:
            raise CapabilityError(
                "frobenius of three or more generators caps the least one times "
                "the number of distinct ones at FROBENIUS_WORK_CAP = %d" % FROBENIUS_WORK_CAP
            )
    return {
        "generators": list(args.generators),
        "threshold": frobenius(args.generators),
    }


def _table_lines(obj, prefix=""):
    lines = []
    for key in sorted(obj):
        val = obj[key]
        name = prefix + str(key)
        if isinstance(val, dict):
            lines.extend(_table_lines(val, name + "."))
        elif isinstance(val, (list, tuple)):
            lines.append("%s: %s\n" % (name, json.dumps(val)))
        else:
            lines.append("%s: %s\n" % (name, val))
    return lines


def _emit(report, fmt, out):
    try:
        if fmt == "json":
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            text = "".join(_table_lines(report))
    except ValueError as e:  # only an int too long for str() raises here
        raise CapabilityError(
            "the report holds an integer of more than %d digits, the limit of "
            "integer string conversion" % sys.get_int_max_str_digits()
        ) from e
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    keys = ("depth", "primes", "span", "base")
    bounds = {key: getattr(args, key) for key in keys if hasattr(args, key)}
    try:
        report = {"command": args.command, "bounds": bounds, **args.handler(args)}
        _emit(report, args.format, args.out)
    except (CapabilityError, LevelRangeError) as e:
        print("capability error: %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
