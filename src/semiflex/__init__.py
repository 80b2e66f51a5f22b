"""semiflex: exact computer algebra for graded Lie algebras with
semi-infinite structure — PBW arithmetic, Verma-type and Wakimoto modules,
Chevalley-Eilenberg and semi-infinite cohomology, all over exact rationals.
"""

from .liealg import (
    AlgebraError,
    GradedLieAlgebra,
    SubalgebraSpec,
    WindowError,
    bracket,
    build_affine_sl2,
    check_jacobi,
    dump_algebra,
    load_algebra,
    subalgebra,
)
from .pbw import (
    InfiniteEnumerationError,
    canonical_order,
    descending_order,
    dual_pair,
    enumerate_pbw_weights,
    multiply,
)
from .modules import (
    Character,
    WeightModule,
    ce_cohomology,
    ce_homology,
    character,
    character_module,
    check_commutators,
    coverma,
    direct_sum,
    product_formula_character,
    verma,
)
from .forms import (
    AnomalyError,
    CohomologyTable,
    contract,
    enumerate_forms,
    semiinf_cohomology,
    semiinvariants,
    wedge,
)
from .induction import (
    SemiregularModel,
    Verdict,
    check_shapiro,
    check_universal_property,
    check_us,
    s_ind,
    universal_semijective,
    wakimoto,
)

__version__ = "0.1.0"
