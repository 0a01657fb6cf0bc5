"""Hamiltonian cycles in random geometric graphs at the connectivity threshold.

Sample n uniform points in the unit square, join pairs within l_p distance
r, and the resulting graph becomes Hamiltonian at the same radius scale at
which it becomes connected. This package samples such instances, runs a
linear-time tessellation-based cycle construction with typed failure
reporting, verifies cycles independently, and measures success rates across
the threshold.
"""

from .failures import ConstructionError, FailureReason
from .geometry import lp_distance, unit_disk_area
from .hamiltonian import (ConstructionOutcome, VerificationReport,
                          full_construction, verify_cycle)
from .instance import (EpsilonAbove, EpsilonBelow, ExplicitRadius,
                       InstanceConfig, ThresholdMultiple, VertexSet,
                       build_spatial_index, is_connected, resolve_radius,
                       sample_points, threshold_radius)

__version__ = "0.1.0"

__all__ = [
    "ConstructionError", "FailureReason",
    "lp_distance", "unit_disk_area",
    "ConstructionOutcome", "VerificationReport",
    "full_construction", "verify_cycle",
    "EpsilonAbove", "EpsilonBelow", "ExplicitRadius", "InstanceConfig",
    "ThresholdMultiple", "VertexSet", "build_spatial_index", "is_connected",
    "resolve_radius", "sample_points", "threshold_radius",
    "__version__",
]
