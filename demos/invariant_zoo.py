"""Tour of the invariants: ordered K0, divisor sets, spectra, trace images.

Run:  python3 demos/invariant_zoo.py
"""

from fractions import Fraction

from cantorconj import systems
from cantorconj.check import check_divides_certificate
from cantorconj.dimgroup import DimGroup
from cantorconj.invariants import (
    divides_unit,
    periodic_spectrum,
    spectra_equal,
    trace_image_group,
    trace_images_isomorphic,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


DYADIC = systems.dyadic()
TRIADIC = systems.triadic()
QUATERNARY = systems.quaternary()
FIB = systems.fibonacci()

banner("Group arithmetic with stabilization certificates")
grp = DimGroup(FIB)
a = grp.element(1, (1, 0))
b = grp.element(2, (0, 1))
# (1,0) at level 1 pushes to (1,1) at level 2; subtracting (0,1) leaves (1,0)
diff = grp.sub(a, b)
dec = grp.equal(diff, grp.element(2, (1, 0)))
print(f"[e0@1] - [e1@2] equals [e0@2]: {dec.value}")
pos = grp.is_positive(diff)
print(f"the difference is {pos.verdict} (witness level {pos.witness_level})")
neg = grp.is_positive(grp.scale(-1, diff))
print(f"its negative is {neg.verdict}")
mixed = grp.element(1, (1, -1))
print(f"[e0 - e1] at level 1 is {grp.is_positive(mixed).verdict} "
      "(everything dominated by the height growth is eventually positive)")

banner("Divisor sets: which n divide the class of the unit")
for name, d in (("dyadic", DYADIC), ("triadic", TRIADIC), ("fibonacci", FIB)):
    yes = [n for n in range(1, 20) if divides_unit(d, n).verdict == "yes"]
    print(f"{name:10s}: {yes}")
res = divides_unit(TRIADIC, 2)
print(f"triadic unit divisible by 2: {res.verdict}, certificate replays: "
      f"{check_divides_certificate(TRIADIC, 2, res)}")

banner("Periodic spectra (prime valuations of the divisor set)")
def _fmt_valuation(v):
    if v == "inf":
        return "inf"
    if isinstance(v, dict):
        return ">=" + str(v["at_least"])
    return str(v)


for name, d in (("dyadic", DYADIC), ("quaternary", QUATERNARY), ("fibonacci", FIB)):
    trunc = periodic_spectrum(d, prime_cutoff=13).to_json()
    shown = ", ".join(f"{e['p']}^{_fmt_valuation(e['v'])}" for e in trunc["entries"])
    print(f"{name:10s}: {shown or '(trivial)'}")

banner("Spectra comparisons separate systems exactly")
for aname, a, bname, b in (
    ("dyadic", DYADIC, "quaternary", QUATERNARY),
    ("dyadic", DYADIC, "triadic", TRIADIC),
):
    cmpres = spectra_equal(a, b)
    extra = f" (witness prime {cmpres.witness})" if cmpres.witness else ""
    print(f"{aname} vs {bname}: {cmpres.verdict}{extra}")

banner("Trace images: cyclic for odometers, a field lattice for fibonacci")
for name, d in (("dyadic", DYADIC), ("fibonacci", FIB)):
    g = trace_image_group(d)
    if g.kind == "cyclic":
        print(f"{name}: (1/{g.denominator}) Z[1/{g.ratio}]")
    else:
        print(f"{name}: lattice over Q[t]/{g.minpoly}, stabilized={g.stabilized}")
gd = trace_image_group(DYADIC)
for x in (Fraction(3, 8), Fraction(1, 3)):
    print(f"  {x} in the dyadic trace image: {gd.contains(x)}")
iso = trace_images_isomorphic(trace_image_group(FIB), gd)
print(f"fibonacci image isomorphic to dyadic image: {iso.value} ({iso.reason})")
