"""Tour of the conjugacy hierarchy: weak, trace-compatible, K-level.

The three deciders are nested: a K-level equivalence forces the
trace-compatible one, which forces the weak one.  Refutations always carry
an obstruction; positive answers carry replayable witnesses that round
trip through the certificate layer.

Run:  python3 demos/hierarchy_walkthrough.py
"""

import json

from cantorconj import systems
from cantorconj.classify import (
    StageError,
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    verify_certificate,
    verify_ladder,
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

banner("Weak equivalence: morphism schedules in both directions")
res = decide_weak(DYADIC, QUATERNARY)
print(f"dyadic ~ quaternary: {res.verdict}")
for label, sched in (("forward", res.forward), ("backward", res.backward)):
    hops = ", ".join(
        f"L{t.source_level}->L{t.target_level} via {t.matrix}" for t in sched
    )
    print(f"  {label}: {hops}")
res = decide_weak(DYADIC, TRIADIC)
print(f"dyadic ~ triadic: {res.verdict} (no unit-preserving morphism beyond level {res.witness})")

banner("Trace compatibility adds the spectrum and the trace image")
res = decide_tau(DYADIC, QUATERNARY)
print(f"dyadic ~ quaternary: {res.verdict}")
res = decide_tau(FIB, DYADIC)
kinds = sorted({o.kind for o in res.obstructions})
print(f"fibonacci ~ dyadic: {res.verdict} (obstructions: {', '.join(kinds)})")

banner("K-level equivalence: an intertwining ladder, then its audit")
res = decide_k_conjugacy(DYADIC, QUATERNARY)
print(f"dyadic ~ quaternary: {res.verdict}")
lad = res.ladder
print(f"  ladder levels: A={lad.a_levels} B={lad.b_levels}")
print(f"  forward maps: {list(lad.forwards)}")
print(f"  backward maps: {list(lad.backwards)}")
audit = verify_ladder(lad, DYADIC, QUATERNARY)
print(f"  independent audit: ok={audit.ok}")
res = decide_k_conjugacy(DYADIC, TRIADIC)
print(f"dyadic ~ triadic: {res.verdict} "
      f"(obstructions: {', '.join(sorted(o.kind for o in res.obstructions))})")

banner("From a ladder to a point map: conjugation at a resolution")
bundle = conjugate_at_resolution(DYADIC, QUATERNARY, 2)
sig = bundle.sigma
print(f"partition map: level {sig.source_level} of dyadic -> "
      f"level {sig.target_level} of quaternary, "
      f"{len(bundle.blocks)} blocks, none empty")
print(f"corrector element lives at level {bundle.corrector.level} "
      f"with tables {bundle.corrector.tables}")
print(f"audit verdict: {bundle.report.verdict}")
try:
    conjugate_at_resolution(DYADIC, TRIADIC, 2)
except StageError as err:
    print(f"dyadic -> triadic fails at stage '{err.stage}': "
          f"{err.obstruction.kind} witness {err.obstruction.witness}")

banner("Certificates round trip and any tamper is rejected")
cert = ladder_certificate(decide_k_conjugacy(DYADIC, QUATERNARY).ladder, DYADIC, QUATERNARY)
print(f"claim: {cert['claim']}, verifier: {cert['verifier']}")
print(f"fresh verification: {verify_certificate(cert, (DYADIC, QUATERNARY)).ok}")
tampered = json.loads(json.dumps(cert))
tampered["witness"]["a_levels"][2] += 2
check = verify_certificate(tampered, (DYADIC, QUATERNARY))
print(f"after nudging one ladder level: ok={check.ok} ({check.reason})")
ccert = conjugator_certificate(
    bundle.corrector, sig.target_level, bundle.blocks, bundle.images
)
print(f"conjugator certificate verifies: {verify_certificate(ccert, (QUATERNARY,)).ok}")
