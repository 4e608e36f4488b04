"""Exact heights, point counts, lattice slopes and freeness experiments
on simple rational varieties."""

__version__ = "0.1.0"

from .counting import (
    HeightWindow,
    bounded_window,
    count_blowup,
    count_classes_pn,
    count_p1n,
    count_pn,
    count_pn_sieved,
    count_points,
    count_window,
    enum_points,
    joint_class_box_counts,
    partition_leading_ranges,
    sup_box_measure,
)
from .exactnum import LogLin
from .freeness import (
    FreenessReport,
    TangentLattice,
    freeness,
    freeness_product,
    freeness_statistics,
    freeness_sweep,
    pn_freeness_data,
    tangent_lattice_pn,
    unimodular_completion,
)
from .geomcurve import (
    BranchData,
    ConstantMap,
    CurveMap,
    NotAMorphism,
    SplittingType,
    approx_exponent,
    curve_from_json,
    curve_to_json,
    expected_dim,
    geometric_freeness,
    is_very_free,
    limit_experiment,
    mckinnon_roth_alpha,
    splitting_type,
)
from .lattice import (
    EucLattice,
    NotPositiveDefinite,
    UnsupportedRank,
    degree,
    dual_lattice,
    is_semistable,
    lattice_from_basis,
    min_slope,
    newton_polygon,
    slopes,
    successive_minima,
    tau_invariant,
)
from .motivic import (
    LPoly,
    LSeries,
    class_homd,
    class_pn,
    class_wd,
    euler_product_inverse,
    filtration_level,
    geometric_double_inverse,
    kapranov_residue,
    normalized_symbol,
    verify_recurrence,
)
from .projpoint import (
    InvalidPoint,
    Metric,
    ModPoint,
    PrimPoint,
    VarietyId,
    anticanonical_height,
    blowup_from_plane,
    blowup_point,
    card_projective_mod,
    enum_projective_mod,
    height_o1,
    multiheight,
    normalize,
    reduce_mod,
    variety,
)
from .tamagawa import (
    CountConstant,
    assemble_constant,
    closed_form,
    cone_alpha,
    convergence_factor,
    density_inf,
    local_density,
    nu_window,
    uniform_class_share,
)
from .zoomlab import (
    ZoomCloud,
    ZoomConfig,
    critical_scan,
    fiber_share,
    zoom_cloud,
    zoom_freeness_overlay,
)
