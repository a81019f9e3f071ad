"""pptgeo: Hilbert-Schmidt geometry of density matrices.

Partial transposes, Schmidt data, separable/PPT ball radii, Werner
thresholds, distillability witnesses, and a seeded Monte-Carlo harness that
verifies each radius claim where it holds and serializes counterexamples
where it does not.
"""

from .bipartite import (
    BipartiteSplit,
    SchmidtDecomposition,
    is_ppt,
    partial_transpose,
    pt_spectrum_analytic,
    schmidt,
)
from .bounds import (
    BoundsTable,
    Zone,
    ZoneClassification,
    ball_radius,
    bounds_table,
    classify,
    ppt_radius,
    separable_radius,
    werner_distance,
    werner_pm,
)
from .distill import WitnessResult, find_schmidt2_witness, witness_expectation
from .harness import (
    ClaimCheckReport,
    ShellReport,
    SweepReport,
    claim_check,
    shell_scan,
    spectrum_check,
    werner_sweep,
)
from .linalg import DimensionMismatch, NotHermitian, hs_distance
from .serialize import TOOL_VERSION as __version__
from .states import (
    DensityMatrix,
    NotNormalized,
    PureState,
    WernerParams,
    max_entangled,
    maximally_mixed,
    werner,
)

__all__ = [
    "__version__",
    "BipartiteSplit",
    "BoundsTable",
    "ClaimCheckReport",
    "DensityMatrix",
    "DimensionMismatch",
    "NotHermitian",
    "NotNormalized",
    "PureState",
    "SchmidtDecomposition",
    "ShellReport",
    "SweepReport",
    "WernerParams",
    "WitnessResult",
    "Zone",
    "ZoneClassification",
    "ball_radius",
    "bounds_table",
    "claim_check",
    "classify",
    "find_schmidt2_witness",
    "hs_distance",
    "is_ppt",
    "max_entangled",
    "maximally_mixed",
    "partial_transpose",
    "ppt_radius",
    "pt_spectrum_analytic",
    "schmidt",
    "separable_radius",
    "shell_scan",
    "spectrum_check",
    "werner",
    "werner_distance",
    "werner_pm",
    "werner_sweep",
    "witness_expectation",
]
