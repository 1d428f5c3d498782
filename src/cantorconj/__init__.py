"""Toolkit for Cantor minimal systems presented as ordered Bratteli diagrams.

Layers, bottom up: diagrams and their Vershik combinatorics (bratteli),
the dimension group with exact spectral data (dimgroup), computable
conjugacy invariants (invariants), topological full group elements and
conjugator synthesis (fullgroup), witnesses and their replay, with the
unit-preserving morphisms a weak witness is made of (check), the
equivalence deciders and the resolution pipeline (classify), and a command
line front end (cli).
"""

from .bratteli import (
    CELL_CAP,
    CapabilityError,
    DgElement,
    DiagramStructureError,
    DiagramSyntaxError,
    LevelRangeError,
    MAX_PATH,
    MaxPath,
    OrderedBratteliDiagram,
    ValidationReport,
    cells,
    class_of_clopen,
    composed_incidence,
    dump_diagram,
    heights,
    incidence,
    load_diagram,
    max_path,
    min_path,
    parse_diagram,
    path_for_floor,
    path_rank,
    serialize_diagram,
    tower_map,
    validate,
    vershik_predecessor,
    vershik_successor,
)
from .dimgroup import (
    CertifiedReal,
    Decision,
    DimGroup,
    NEGATIVE,
    NOT_COMPARABLE,
    PerronData,
    POSITIVE,
    PositivityResult,
    UNKNOWN,
    ZERO,
)
from .invariants import (
    AtLeast,
    DividesUnitResult,
    InfiniteValuation,
    SpectraComparison,
    SupernaturalTruncation,
    TraceImageGroup,
    TraceIsoResult,
    check_divides_certificate,
    check_infinity_certificate,
    divides_unit,
    periodic_spectrum,
    spectra_equal,
    trace_image_group,
    trace_images_isomorphic,
)
from .fullgroup import (
    BlockBijection,
    BlockConditionViolation,
    ConjugacyReport,
    ConjugatorError,
    FullGroupElement,
    check_block_condition,
    conjugator_from_partition,
    cyclic_from_blocks,
    verify_conjugator,
)
from .check import (
    CertificateCheck,
    IntertwiningLadder,
    K0Morphism,
    LadderReport,
    Obstruction,
    SearchExhausted,
    build_k0_morphism,
    diagram_digest,
    frobenius,
    represent,
    verify_certificate,
    verify_ladder,
)
from .classify import (
    ClopenSet,
    KConjResult,
    PartitionHomeomorphism,
    ResolutionBundle,
    StageError,
    TauResult,
    WeakResult,
    conjugate_at_resolution,
    conjugator_certificate,
    decide_k_conjugacy,
    decide_tau,
    decide_weak,
    ladder_certificate,
    lift_class_under,
    partition_from_classes,
    tau_certificate,
    weak_certificate,
)
from . import systems

__version__ = "0.1.0"
