"""Geometric radii of the state-space ball and distance-zone classification.

Three radii around the maximally mixed state I/N are in play:

* the outer radius sqrt((N-1)/N) of the ball holding all states;
* the claimed separable radius (1/(1+d^(n-1))) sqrt((d^n-1)/d^n);
* the claimed PPT radius 1/sqrt(sqrt(N(N-1))+1) for N > 4, with the
  special value 1/sqrt(12) at N = 4.

The two inner radii are treated as claims under test, not facts: classify()
reports the distance zone and the numeric PPT verdict side by side and
raises a contradiction flag whenever they disagree.  The harness module
turns that flag into counterexample reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bipartite import BipartiteSplit, is_ppt
from .linalg import hs_distance
from .states import DensityMatrix


class UnsupportedDim(ValueError):
    """Dimension outside the domain of the requested radius formula."""


def ball_radius(dim: int) -> float:
    """Radius sqrt((N-1)/N) of the ball of unit-trace PSD matrices around I/N."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return math.sqrt((dim - 1) / dim)


def separable_radius(qudit_dim: int, parties: int) -> float:
    """Claimed separable-ball radius (1/(1+d^(n-1))) sqrt((d^n-1)/d^n) for n qudits."""
    if qudit_dim < 2:
        raise ValueError(f"qudit_dim must be >= 2, got {qudit_dim}")
    if parties < 2:
        raise ValueError(f"parties must be >= 2, got {parties}")
    total = qudit_dim**parties
    return math.sqrt((total - 1) / total) / (1 + qudit_dim ** (parties - 1))


def ppt_radius(dim: int) -> float:
    """Claimed radius within which every state has positive partial transpose.

    1/sqrt(12) at N = 4 (where the claim is analytically sound) and
    1/sqrt(sqrt(N(N-1))+1) for N > 4; the general formula is never applied
    at N = 4.
    """
    if dim < 4:
        raise UnsupportedDim(f"PPT radius needs a bipartite composite N >= 4, got {dim}")
    if dim == 4:
        return 1.0 / math.sqrt(12.0)
    return 1.0 / math.sqrt(math.sqrt(dim * (dim - 1)) + 1.0)


def werner_pm(dim: int) -> float:
    """Claimed largest Werner mixing p with positive partial transpose.

    1/3 at N = 4; sqrt(N/(N-1)) / sqrt(sqrt(N(N-1))+1) for N > 4.  Equals
    ppt_radius(N) / ball_radius(N) by construction.
    """
    if dim < 4:
        raise UnsupportedDim(f"Werner threshold needs N >= 4, got {dim}")
    if dim == 4:
        return 1.0 / 3.0
    return math.sqrt(dim / (dim - 1)) / math.sqrt(math.sqrt(dim * (dim - 1)) + 1.0)


def werner_distance(p: float, dim: int) -> float:
    """HS distance p sqrt((N-1)/N) of the Werner state at mixing p from I/N."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p * ball_radius(dim)


@dataclass(frozen=True)
class BoundsTable:
    """Per-dimension radii: outer ball, separable ball, claimed PPT ball, Werner threshold."""

    total_dim: int
    qudit_dim: int
    parties: int
    outer_radius: float
    separable_radius: float
    ppt_radius: float
    werner_pm: float

    def __post_init__(self):
        if not 0.0 < self.separable_radius <= self.outer_radius:
            raise ValueError("separable radius must lie in (0, outer radius]")
        if not 0.0 < self.ppt_radius <= self.outer_radius:
            raise ValueError("PPT radius must lie in (0, outer radius]")
        if not 0.0 < self.werner_pm <= 1.0:
            raise ValueError("Werner threshold must lie in (0, 1]")


def bounds_table(qudit_dim: int, parties: int = 2) -> BoundsTable:
    """Populate the radius table for N = d^n (bipartite focus: n = 2)."""
    if parties != 2:
        raise UnsupportedDim(f"bounds tables are bipartite (n = 2), got n = {parties}")
    total = qudit_dim**parties
    return BoundsTable(
        total_dim=total,
        qudit_dim=qudit_dim,
        parties=parties,
        outer_radius=ball_radius(total),
        separable_radius=separable_radius(qudit_dim, parties),
        ppt_radius=ppt_radius(total),
        werner_pm=werner_pm(total),
    )


class Zone(str, Enum):
    SEPARABLE_BALL = "SEPARABLE_BALL"
    PPT_BALL_CLAIM = "PPT_BALL_CLAIM"
    OUTSIDE_BALLS = "OUTSIDE_BALLS"


@dataclass(frozen=True)
class ZoneClassification:
    """Distance zone vs numeric PPT truth for one state.

    contradiction_flag is set exactly when the state sits inside a claimed
    ball (either zone) yet its partial transpose has a negative eigenvalue.
    """

    distance: float
    zone: Zone
    numeric_ppt: bool
    min_pt_eigenvalue: float
    contradiction_flag: bool


def classify(rho: DensityMatrix, split: BipartiteSplit, table: BoundsTable) -> ZoneClassification:
    """Place a state in its distance zone and compare with the PPT ground truth.

    Zone boundaries are half-open with ties resolving inward: distance <=
    r_sep is the separable ball, r_sep < distance <= r_ppt the claimed PPT
    ball, anything beyond is outside.
    """
    split.check_dim(rho.dim)
    if rho.dim != table.total_dim:
        raise UnsupportedDim(
            f"table is for N = {table.total_dim}, state has N = {rho.dim}"
        )
    dist = hs_distance(rho.matrix, np.eye(rho.dim) / rho.dim)
    if dist <= table.separable_radius:
        zone = Zone.SEPARABLE_BALL
    elif dist <= table.ppt_radius:
        zone = Zone.PPT_BALL_CLAIM
    else:
        zone = Zone.OUTSIDE_BALLS
    check = is_ppt(rho, split)
    return ZoneClassification(
        distance=dist,
        zone=zone,
        numeric_ppt=check.ppt,
        min_pt_eigenvalue=check.min_pt_eigenvalue,
        contradiction_flag=(zone is not Zone.OUTSIDE_BALLS) and not check.ppt,
    )
