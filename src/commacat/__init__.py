"""Workbench for comma-style glued categories over finite fields.

Two gluing constructions over exact-arithmetic instances: triples
(a, b, alpha: F a -> G b) for covariant F, G, and the dual triples with
a contravariant right leg.  Kernels, cokernels, biproducts, subobject
enumeration, class vectors, stability filtrations, and composition
series all come with executable certificates instead of trusted
formulas.
"""

from .cocomma import CoCommaCategory, CoCommaObject
from .comma import (
    CommaCategory,
    CommaObject,
    GluedSubobject,
    component_sequences,
    verify_comma_abelian,
)
from .core import (
    CategoryInstance,
    Mor,
    ShortExactSequence,
    Subobject,
    hom_dim,
    image,
    random_hom,
    short_exact,
    subobject_ses,
    verify_category,
)
from .counterexample import product_equivalence_check, run_counterexample
from .errors import CapabilityError, SpecError
from .functors import (
    FunctorSpec,
    apply_on_morphism,
    apply_on_object,
    arrow_cokernel,
    arrow_kernel,
    check_functor,
    constant,
    eval_vertex,
    hom_from,
    hom_into,
    identity_functor,
    one_plus,
    tensor,
    zero_functor,
)
from .instances import Budget, FinVect, Quiver, Rep, RepObject, ToyGeometryConfig
from .jordanholder import comma_simples, is_simple, jh_filtration, length
from .kgroup import (
    AdditiveAssignment,
    cls,
    decompose,
    induced_hom,
    verify_additivity,
    verify_factorization,
)
from .linalg import BudgetExceeded, Matrix, Subspace
from .stability import (
    GaussianRational,
    Slope,
    StabilityFunction,
    SubobjectLattice,
    alpha_grid_probe,
    alpha_scan,
    exhaustive_hn_search,
    hn_filtration,
    hn_type,
    is_semistable,
    is_stable,
    make_comma_stability,
    restrict_comma_stability,
    slope,
    stability_from_geometry,
)
from .workspace import Workspace, load_workspace

__version__ = "0.1.0"

__all__ = [
    "AdditiveAssignment",
    "Budget",
    "BudgetExceeded",
    "CapabilityError",
    "CategoryInstance",
    "CoCommaCategory",
    "CoCommaObject",
    "CommaCategory",
    "CommaObject",
    "FinVect",
    "FunctorSpec",
    "GaussianRational",
    "GluedSubobject",
    "Matrix",
    "Mor",
    "Quiver",
    "Rep",
    "RepObject",
    "ShortExactSequence",
    "Slope",
    "SpecError",
    "StabilityFunction",
    "Subobject",
    "SubobjectLattice",
    "Subspace",
    "ToyGeometryConfig",
    "Workspace",
    "alpha_grid_probe",
    "alpha_scan",
    "apply_on_morphism",
    "apply_on_object",
    "arrow_cokernel",
    "arrow_kernel",
    "check_functor",
    "cls",
    "comma_simples",
    "component_sequences",
    "constant",
    "decompose",
    "eval_vertex",
    "exhaustive_hn_search",
    "hn_filtration",
    "hn_type",
    "hom_dim",
    "hom_from",
    "hom_into",
    "identity_functor",
    "image",
    "induced_hom",
    "is_semistable",
    "is_simple",
    "is_stable",
    "jh_filtration",
    "length",
    "load_workspace",
    "make_comma_stability",
    "one_plus",
    "product_equivalence_check",
    "random_hom",
    "restrict_comma_stability",
    "run_counterexample",
    "short_exact",
    "slope",
    "stability_from_geometry",
    "subobject_ses",
    "tensor",
    "verify_additivity",
    "verify_category",
    "verify_comma_abelian",
    "verify_factorization",
    "zero_functor",
]
