"""Enriched floor-diagram counts over the universal coefficient ring.

The package computes quadratically enriched counts of rational plane
curves from marked floor diagrams, with double-point conditions encoded
by formal square-class parameters, and verifies that the counts are
independent of where the double points sit: wall-crossing differences
vanish in every field model, their universal coefficients are torsion,
and the mod-2 obstruction is certified nonzero over Laurent towers.
"""

from .diagrams import (
    FloorDiagram,
    MergedDiagram,
    dissolved_config,
    enumerate_diagrams,
    enumerate_merge_configs,
    enumerate_merged_diagrams,
    floor_count,
    floor_count_residual,
    graph_connected,
    kontsevich_nd,
    unit_shift_graph,
    unit_shifts,
    unsupported,
)
from .fields import (
    ClosedField,
    FiniteField,
    RealField,
    specialize_field,
)
from .local_factors import (
    TwinTreeDescriptor,
    elevator_square,
    factor_value,
    residual_factor,
    twin_tree_factor,
    type_a_factor,
    type_r_factor,
)
from .springer import (
    DiagonalForm,
    Verdict,
    is_anisotropic,
    pfister_concrete,
    springer_split,
)
from .univ import (
    ResidualElement,
    ResidualTilde,
    TildeElement,
    UnivElement,
    cascade_decompose,
    cascade_reconstruct,
    pfister_element,
    residual_reduce,
    top_coefficient,
)
from .wallcross import (
    ResidualReport,
    WallCrossReport,
    delta_count,
    extract_universal_coefficient,
    residual_report,
    wallcross_report,
)

__all__ = [
    "FloorDiagram",
    "MergedDiagram",
    "dissolved_config",
    "enumerate_diagrams",
    "enumerate_merge_configs",
    "enumerate_merged_diagrams",
    "floor_count",
    "floor_count_residual",
    "graph_connected",
    "kontsevich_nd",
    "unit_shift_graph",
    "unit_shifts",
    "unsupported",
    "ClosedField",
    "FiniteField",
    "RealField",
    "specialize_field",
    "TwinTreeDescriptor",
    "elevator_square",
    "factor_value",
    "residual_factor",
    "twin_tree_factor",
    "type_a_factor",
    "type_r_factor",
    "DiagonalForm",
    "Verdict",
    "is_anisotropic",
    "pfister_concrete",
    "springer_split",
    "ResidualElement",
    "ResidualTilde",
    "TildeElement",
    "UnivElement",
    "cascade_decompose",
    "cascade_reconstruct",
    "residual_reduce",
    "top_coefficient",
    "ResidualReport",
    "WallCrossReport",
    "delta_count",
    "extract_universal_coefficient",
    "pfister_element",
    "residual_report",
    "wallcross_report",
]
