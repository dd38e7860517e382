"""Exact-arithmetic planning and verification of sum-of-squares multiplier
transfers on real algebraic surfaces: lattice-polygon criteria for toric
surfaces, Picard-lattice transfer sequences for totally-real del Pezzo
surfaces, and blow-up schedules for ruled surfaces."""

from .lattice import (
    EmptyPointSetError,
    DegeneratePolygonError,
    LatticeGeometryError,
    LatticePoint,
    LatticePolygon,
    TranslateContainmentError,
    contains_lattice_translate,
    is_lawrence_prism,
    is_twice_unit_triangle,
    minkowski_lattice_point_count,
    minkowski_sum,
    rectangle,
    veronese_triangle,
    wide_prism,
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
