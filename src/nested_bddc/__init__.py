"""Nested BDDC solver for 2D mixed-form Darcy problems on RT0 quad meshes."""

from .errors import NestedBddcError
from .mesh_fem import (
    CoefficientField,
    QuadMesh,
    Rt0System,
    assemble_rhs,
    assemble_rt0,
    build_mesh,
    check_compatibility,
    divergence_defect,
)
from .hierarchy import (
    LevelDecomposition,
    build_hierarchy,
    compute_weights,
)
from .saddle_core import Factorization, KktSystem
from .bddc import (
    MultilevelPreconditioner,
    assemble_coarse_problem,
    interior_correction,
)
from .krylov import PcgReport, lanczos_condition, pcg
from .nested_driver import (
    ExperimentSpec,
    NestedSolver,
    ResultRow,
    oracle_direct_solve,
    preset_specs,
)

__version__ = "0.1.0"
