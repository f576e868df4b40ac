"""calabilab: a numerical laboratory for scalar-curvature functionals on
circle-symmetric Kahler metrics, reduced to one-dimensional momentum
profiles on Chebyshev collocation grids."""

from .config import RunConfig, load_config, parse_config
from .conventions import KAPPA_PHI, KAPPA_THETA, build_manifest, write_manifest
from .errors import (
    AdmissibilityError,
    CalabiLabError,
    ConfigError,
    ConvergenceError,
    DegenerateWeight,
    DomainError,
    NonFiniteError,
    PathExitsClass,
    RangeError,
    SingularPotential,
)
from .functions import (
    FunctionDescriptor,
    affine,
    composed_with_affine,
    constant,
    exponential,
    fsum,
    identity,
    log_guarded,
    parse_function,
    power,
    scaled,
)
from .geometry import (
    ClassConstants,
    MetricProfile,
    ProfileGeometry,
    Violation,
    class_constants,
    make_cp1_geometry,
    make_cpm_geometry,
    random_admissible_profile,
    require_admissible,
    round_profile,
    scalar_curvature,
)
from .potentials import (
    ELReport,
    HolomorphyPotential,
    el_potential,
    equivariant_integral,
    eval_S,
    futaki,
    holomorphy_defect,
    lichnerowicz,
    normalize_potential,
    quadratic_form,
    quadratic_form_matrix,
)
from .serialize import profile_from_csv, profile_to_csv, sampled_to_csv
from .solver import (
    CriticalSolveResult,
    IterationStep,
    IterationTrace,
    iterate,
    solve_critical,
)
from .spectral import AffineProjector, SampledFunction, SpectralGrid, get_grid
from .variation import (
    DeformationPath,
    convergence_order,
    delta_S_analytic,
    delta_S_numeric,
    transport,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
