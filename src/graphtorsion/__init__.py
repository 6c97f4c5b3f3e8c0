"""Torsion functions, torsional rigidity, and spectra of metric graphs.

A metric graph carries edge lengths and two kinds of vertex conditions:
Dirichlet (the function vanishes) and natural (continuity plus zero net
flux).  This package solves the torsion problem exactly edge by edge,
computes low eigenvalues by finite elements, audits a family of
isoperimetric inequalities, and optimizes edge lengths at fixed topology.
"""

from .bounds import BoundRecord, BoundsReport, audit, equality_witnesses
from .errors import (
    BadParameters,
    CrossCheckMismatch,
    DisconnectedGraph,
    DuplicateId,
    EmptyDirichletSet,
    GraphToolError,
    InconsistentInvariant,
    NoConvergence,
    NonPositiveLength,
    PreconditionViolated,
    SingularSystem,
    UnknownEdge,
    UnknownVertex,
    ValidationError,
    ZeroEnergy,
)
from .families import (
    caterpillar,
    family_examples,
    family_generator,
    flower,
    lasso,
    path_dd,
    path_dn,
    pumpkin_chain,
    random_graph,
    star,
    stower,
)
from .graph import (
    DistanceField,
    Edge,
    InradiusWitness,
    MetricGraph,
    Vertex,
    from_payload,
    load,
    loads,
    make_graph,
    reorient,
)
from .shape_opt import (
    OptimizationTrajectory,
    TrajectoryPoint,
    dT_dlength,
    grad_check,
    gradient,
    optimize,
    with_lengths,
)
from .spectral import (
    HeatContent,
    LandscapeRatio,
    Mesh,
    SpectralResult,
    build_mesh,
    ground_state,
    integrated_heat_content,
    landscape_check,
    lowest_eigenpairs,
)
from .surgery import (
    AddDirichlet,
    AddEdge,
    AttachPendant,
    Direction,
    Glue,
    Lengthen,
    Prediction,
    Scale,
    UnfoldParallel,
    apply,
    predicted_direction,
    reduce_to_pumpkin_chain,
)
from .torsion import (
    DiscreteSystem,
    DiscreteTorsion,
    EdgePoly,
    PiecewiseQuadratic,
    SupWitness,
    TorsionSolution,
    assemble_discrete_system,
    dirichlet_energy,
    polya_quotient,
    rigidity,
    solution_from_payload,
    solution_to_payload,
    solve_discrete_torsion,
    torsion_function,
)

__version__ = "0.1.0"
