"""Topologically labeled synthetic binary voxel data in 2, 3, and 4 dimensions."""

from .grid import (
    BinaryGrid,
    Coord,
    UnsupportedDimensionError,
    count_ones,
    new_grid,
)
from .homology import BettiVector, betti_numbers, is_local_flip_safe
from .labels import (
    ConstructionDescriptor,
    InvalidDescriptorError,
    betti_cube_multi_complement,
    betti_disjoint_union,
)
from .noise import NoiseField, noise_field

__version__ = "0.1.0"

__all__ = [
    "BettiVector",
    "BinaryGrid",
    "ConstructionDescriptor",
    "Coord",
    "InvalidDescriptorError",
    "NoiseField",
    "UnsupportedDimensionError",
    "betti_cube_multi_complement",
    "betti_disjoint_union",
    "betti_numbers",
    "count_ones",
    "is_local_flip_safe",
    "new_grid",
    "noise_field",
]
