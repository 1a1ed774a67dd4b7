"""Exact computer algebra for minimal W-superalgebras of basic Lie superalgebras."""

from .cartanw import (
    CartanWAlgebra,
    CartanWElement,
    NotHomogeneousError,
    RestrictedRootData,
    VLambdaModule,
    build_cartan_w,
    center_basis,
    project_pi,
    restricted_roots,
    restricted_weight,
    simple_module,
)
from .envelope import PBWAlgebra
from .grading import MinimalGrading, grade
from .scalar import Scalar, scalar
from .superalgebra import LieSuperalgebra, build_algebra, validate
from .wgen import (
    RELATION_SUITE,
    WElement,
    casimir_C,
    compute_c0,
    compute_epsilon,
    evaluate_coordinates,
    kazhdan_weights,
    pbw_coordinates,
    theta_F,
    theta_v,
    theta_w,
    verify_relations,
    w_commutator,
    w_multiply,
    workspace,
)

__all__ = [
    "CartanWAlgebra",
    "CartanWElement",
    "LieSuperalgebra",
    "MinimalGrading",
    "NotHomogeneousError",
    "PBWAlgebra",
    "RELATION_SUITE",
    "RestrictedRootData",
    "Scalar",
    "VLambdaModule",
    "WElement",
    "build_algebra",
    "build_cartan_w",
    "casimir_C",
    "center_basis",
    "compute_c0",
    "compute_epsilon",
    "evaluate_coordinates",
    "grade",
    "kazhdan_weights",
    "pbw_coordinates",
    "project_pi",
    "restricted_roots",
    "restricted_weight",
    "scalar",
    "simple_module",
    "theta_F",
    "theta_v",
    "theta_w",
    "validate",
    "verify_relations",
    "w_commutator",
    "w_multiply",
    "workspace",
]

__version__ = "0.1.0"
