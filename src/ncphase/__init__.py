"""Linear maps between commutative and noncommutative phase space.

The package covers five pieces: the deformed-bracket algebra of linear
maps (:mod:`ncphase.algebra`), closed-form completion of the 2D
consistency system (:mod:`ncphase.nc2d`), the 3D residual with its
auxiliary identities and a damped Newton solver (:mod:`ncphase.nc3d`),
magnetic-field matching plus dynamics cross-checks
(:mod:`ncphase.dynamics`), and a CLI (:mod:`ncphase.cli`).
"""
__version__ = "0.1.0"

from .algebra import (
    BracketTable,
    DeformationParams,
    DimensionMismatchError,
    NonAntisymmetricInputError,
    PhaseSpaceMap,
    ResidualReport,
    SingularMapError,
    antisymmetric_2d,
    antisymmetric_3d,
    bracket_table,
    compose,
    extended_map,
    invert_map,
    map_from_json,
    map_to_json,
    params_from_json,
    params_to_json,
    scaled_spatial_map,
    sw_map,
    sw_obstruction,
    symplectic_form,
    verify_deformation,
)
from .nc2d import (
    SINGULAR_KINDS,
    Completion2D,
    Params2D,
    SingularBranchError,
    SingularKind,
    classify_singular_batch,
    complete_2d,
    complete_2d_batch,
    complete_2d_imaginary,
    maps_2d,
    params2d_from_json,
    params2d_to_doc,
    params2d_to_json,
    residual_2d,
)
from .nc3d import (
    AuxQuantities3D,
    DegenerateDenominatorError,
    EliminationResult,
    Params3D,
    SolveResult,
    aux_quantities,
    eliminate_3d,
    generate_feasible_3d,
    pack,
    params3d_from_json,
    params3d_to_doc,
    params3d_to_json,
    residual_3d,
    residual_3d_from_aux,
    solve_3d,
    unpack,
)
from .dynamics import (
    ClosedFormCoeffs,
    DegenerateFieldError,
    EquivalenceReport,
    FieldConfig,
    MatchBatch,
    MatchResult,
    NonMatchableError,
    QuadraticForm,
    StabilityError,
    Trajectory,
    commutative_closed_form,
    equivalence_check,
    evolve_linear,
    extract_rotation_frequency,
    field_to_deformation,
    field_to_deformation_batch,
    free_hamiltonian,
    magnetic_hamiltonian,
    nc_closed_form,
    nc_free_hamiltonian,
    period,
    simulate_matched,
    time_dependent_ftheta,
    trajectory_to_csv,
    uv_momenta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
