"""Integer evaluators for multiplier-transfer criteria.

The section-count inequality, its Euler-characteristic form, the
conjugation-invariant length bound, and degree accounting for chained
multipliers.  Of these the del Pezzo layer calls ``chi_criterion_holds``;
the toric and ruled-surface layers evaluate their own margins in closed
form and call none of them.  All ceilings are computed with integer
division; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def ceil_half(n: int) -> int:
    """Exact ceiling of n/2 for any integer n."""
    return -((-n) // 2)


@dataclass(frozen=True)
class CohomologyInput:
    """Section dimensions entering the transfer inequality.

    Vanishing hypotheses on the underlying geometry (no sections of E - D,
    no first cohomology of D + E or of 2E) are the caller's obligation; the
    polygon and Picard-lattice front ends discharge them structurally.
    """

    h0_DplusE: int
    h0_2Dplus2E: int
    h0_2E: int
    h1_EminusD: int

    def __post_init__(self) -> None:
        for name in ("h0_DplusE", "h0_2Dplus2E", "h0_2E", "h1_EminusD"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def h0_criterion_holds(c: CohomologyInput) -> bool:
    """Section-count inequality implying that E supports multipliers for D.

    Tests h0(D+E) > 1 + ceil((h0(2D+2E) - h0(2E) - h0(D+E) - h1(E-D)) / 2).
    """
    numerator = c.h0_2Dplus2E - c.h0_2E - c.h0_DplusE - c.h1_EminusD
    return c.h0_DplusE > 1 + ceil_half(numerator)


def chi_criterion_holds(chi_2E: int, h1_EminusD: int, chi_minusDminusE: int) -> bool:
    """Euler-characteristic form of the transfer inequality.

    Strict test chi(2E) + h1(E-D) > chi(-D-E).  On a nonsingular surface the
    right-hand side may be passed as chi(K+D+E), which is equal by duality.
    """
    if h1_EminusD < 0:
        raise ValueError("h1_EminusD must be nonnegative")
    return chi_2E + h1_EminusD > chi_minusDminusE


def conjugation_invariant_length_bound(dim_r1: int, dim_r2: int) -> int:
    """Upper bound 1 + ceil((dim R2 - dim R1)/2) on the typical length of a
    functional as a conjugation-invariant combination of point evaluations."""
    if dim_r1 < 1 or dim_r2 < 1:
        raise ValueError("dimensions must be positive")
    if dim_r2 < dim_r1:
        raise ValueError("dim_r2 must be at least dim_r1")
    return 1 + ceil_half(dim_r2 - dim_r1)


def chain_total_degree(step_degrees: Iterable[int]) -> int:
    """Total degree of a chained multiplier, the sum of the per-step ones."""
    total = 0
    for deg in step_degrees:
        if deg < 0:
            raise ValueError("step degrees must be nonnegative")
        total += deg
    return total
