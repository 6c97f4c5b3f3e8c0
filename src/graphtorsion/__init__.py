"""Torsion functions, torsional rigidity, and spectra of metric graphs.

A metric graph carries edge lengths and two kinds of vertex conditions:
Dirichlet (the function vanishes) and natural (continuity plus zero net
flux).  This package solves the torsion problem exactly edge by edge,
computes the exact lambda_1 and the lowest finite element eigenpairs from the
vertex-sized secular matrix, audits a family of isoperimetric inequalities,
and optimizes edge lengths at fixed topology.

The root exports each module's entry points, the graph type and its loaders,
the surgery operations and every error class; result types and the graph
families are imported from their modules.
"""

from .bounds import audit, equality_witnesses
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
from .graph import (
    Edge,
    MetricGraph,
    Vertex,
    from_payload,
    load,
    loads,
    make_graph,
    reorient,
)
from .shape_opt import (
    grad_check,
    gradient,
    optimize,
    with_lengths,
)
from .spectral import (
    integrated_heat_content,
    landscape_check,
    lowest_eigenpairs,
    secular_lambda1,
)
from .surgery import (
    AddDirichlet,
    AddEdge,
    AttachPendant,
    Direction,
    Glue,
    Lengthen,
    Scale,
    UnfoldParallel,
    apply,
    predicted_direction,
    reduce_to_pumpkin_chain,
)
from .torsion import (
    dirichlet_energy,
    polya_quotient,
    rigidity,
    solution_to_payload,
    solve_discrete_torsion,
    torsion_function,
)

__version__ = "0.1.0"
