"""Exact-arithmetic basecondary functions and their polytope companions."""

from .errors import InputError, InternalError, ResourceError
from .exact_core import (
    CircuitData,
    Point,
    PointConfig,
    Polygon2,
    affine_rank,
    fiber_polygon,
    find_circuit,
    lattice_volume,
    make_config,
    minkowski_sum,
    oriented_volume,
    rat,
    rat_str,
)
from .setfun import (
    SetFunction,
    SubmodularityReport,
    base_polytope,
    circuit_condition_check,
    circuit_value,
    evaluate_f,
    greedy_vertex,
    is_submodular,
    is_submodular_above,
    lovasz_extension,
    matrix_rank_function,
    neg_card_ratio_function,
    neg_gcd_function,
    neg_indicator_function,
    table_function,
)
from .secondary import (
    Subdivision,
    Wall,
    area_N,
    cone_witness,
    discover_cones_random,
    enumerate_triangulations_1d,
    enumerate_walls_1d,
    gkz_vector,
    regular_subdivision,
    secondary_support,
)
from .core import (
    CircuitalSupport,
    MinConvexifier,
    OrderedSupport,
    PiecewiseLinearRep,
    SimplicialSupport,
    convexity_certificate,
    enumerate_circuital,
    enumerate_simplicial,
    eval_basecondary_general,
    eval_basecondary_generic,
    expansion_terms,
    gradient_on_cone,
    is_generic,
    min_convexifier,
    order_circuital,
    order_simplicial,
    reconstruct_polytope,
    wall_defect_numeric,
)
from .fiber_morse import (
    MorseConfig,
    area_P_bar,
    build_delta_bar,
    iterated_fiber_support,
    maxwell_support,
    morse_config,
    morse_polytope,
    morse_support,
)
from .tropical import (
    CriticalPoint,
    MorseReport,
    TropicalPolynomial,
    critical_points,
    is_morse,
    sample_morse_fraction,
    tropical_polynomial,
)

__version__ = "0.1.0"
