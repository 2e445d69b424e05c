"""Exact-arithmetic workbench for the dynamics of plane polynomial maps.

Everything is computed over Q with exact rationals: orbits, degree
growth, heights and places, ruled-surface models of triangular maps,
local metrics and basins, curve periodicity and intersection
multiplicities, and a classifier for the visit-set dichotomy, proved by
escape certificates for Hénon-type maps and empirical elsewhere.
"""

__version__ = "0.1.0"

from .curves import (
    Curve,
    DecreasingChainReport,
    PeriodicityProbeReport,
    closure_meets_indeterminacy,
    closure_passes_through_Q,
    decreasing_intersection_experiment,
    factor_poly,
    fn_chart_equation,
    intersection_multiplicity,
    is_contracted_factor,
    is_fixed_curve,
    is_periodic_curve,
    multiplicity_at_origin,
    periodicity_probe_thm13,
    prop52_flag,
    pullback_curve,
    push_forward_curve,
    rational_intersection_points,
    strict_transform_inverse,
)
from .degrees import (
    DegreeEstimate,
    DegreeProfile,
    StabilityVerdict,
    degree_sequence,
    dynamical_degree_estimate,
    is_algebraically_stable_P2,
)
from .dml import (
    APSet,
    DmlReport,
    OrbitResult,
    ap_decompose,
    dml_classify,
    height_growth_probe,
    orbit,
    visit_set,
)
from .errors import (
    ChartDomainError,
    ContractionError,
    DegreeCapError,
    DmlwbError,
    ExcludedLocusError,
    IndeterminacyError,
    InverseVerificationError,
    MissingInverseError,
    NotTriangularError,
    PolyParseError,
    ResourceCapError,
    ZeroDenominatorError,
)
from .hirzebruch import (
    FnModel,
    FnPoint,
    apply_fn,
    chart_around_Q,
    contracted_image_check,
    embed_A2,
    fixed_point_Q,
    indeterminacy_fn,
    indeterminacy_point,
    stability_threshold,
    triangular_parts,
)
from .maps import (
    Point,
    PolyMap,
    RatFunc,
    RationalMap,
    compose_map,
    iterate_map,
    load_map,
    point,
    verify_inverse,
)
from .metrics import (
    BasinReport,
    LocalDmlReport,
    MetricSample,
    basin_on_orbit,
    basin_probe,
    local_dml_probe,
    metric_dv,
)
from .parsing import parse_point, parse_poly
from .places import (
    Place,
    ProjPoint,
    abs_value,
    embed_P2,
    height_affine,
    northcott_enumerate,
    ord_p,
    product_formula_check,
    relevant_places,
)
from .poly import (
    Poly2,
    as_fraction,
    get_degree_cap,
    poly_gcd,
    set_degree_cap,
    squarefree_part,
)

__all__ = [name for name in dir() if not name.startswith("_")]
