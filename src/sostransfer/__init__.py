"""Exact-arithmetic planning and verification of sum-of-squares multiplier
transfers on real algebraic surfaces: lattice-polygon criteria for toric
surfaces, Picard-lattice transfer sequences for totally-real del Pezzo
surfaces, and blow-up schedules for ruled surfaces."""

from .lattice import (
    ComponentCount,
    EmptyDifferenceError,
    EmptyPointSetError,
    DegeneratePolygonError,
    LatticeGeometryError,
    LatticePoint,
    LatticePolygon,
    TranslateContainmentError,
    contains_lattice_translate,
    difference_components,
    dilate,
    is_lawrence_prism,
    is_twice_unit_triangle,
    minkowski_lattice_point_count,
    minkowski_sum,
    rectangle,
    standard_prism,
    veronese_triangle,
    wide_prism,
)
from .numerics import (
    CohomologyInput,
    chain_total_degree,
    chi_criterion_holds,
    conjugation_invariant_length_bound,
    h0_criterion_holds,
)
from .toric import (
    NoPlanError,
    PipelineStepError,
    PlanStep,
    ToricTransferError,
    TransferPlan,
    TransferVerdict,
    hilbert_classic_bound,
    hilbert_classic_plan,
    improved_ternary_bound,
    plan_transfer,
    reduced_component_total,
    transfer_check,
    trapezoid,
    veronese_step_counts,
)
from .delpezzo import (
    DelPezzoError,
    DelPezzoTransfer,
    NotCataloguedError,
    NotContractibleError,
    NotConjugationFixedError,
    NotEffectiveError,
    SurfaceModel,
    ample_step,
    catalogue,
    chi,
    conic_bundles_real,
    contract_along,
    is_ample,
    is_nef,
    minus_one_curves,
    real_negative_curves,
    surface_from_name,
    transfer_sequence,
)
from .ruled import (
    DegreeBound,
    RuledData,
    RuledDataError,
    Schedule,
    ScheduleError,
    build_schedule,
    descent_margin,
    exceptional_margin,
    genus_example_data,
    minimal_d,
    multiplier_degree_bound,
    nef_threshold,
)

__version__ = "0.1.0"
