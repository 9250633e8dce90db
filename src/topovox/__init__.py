"""Topologically labeled synthetic binary voxel data in 2, 3, and 4 dimensions."""

from .grid import (
    Adjacency,
    BinaryGrid,
    Coord,
    UnsupportedDimensionError,
    boundary_voxels,
    connected_components,
    count_ones,
    extract_neighborhood,
    new_grid,
)
from .homology import (
    BettiVector,
    CubicalComplex,
    betti_numbers,
    build_cubical_complex,
    euler_from_cells,
    is_local_flip_safe,
)
from .labels import (
    ConstructionDescriptor,
    InvalidDescriptorError,
    betti_boundary_sum,
    betti_closed_sum,
    betti_cube_complement,
    betti_cube_multi_complement,
    betti_disjoint_union,
)
from .noise import NoiseField, noise_field, perlin_value

__version__ = "0.1.0"

__all__ = [
    "Adjacency",
    "BettiVector",
    "BinaryGrid",
    "ConstructionDescriptor",
    "Coord",
    "CubicalComplex",
    "InvalidDescriptorError",
    "NoiseField",
    "UnsupportedDimensionError",
    "betti_boundary_sum",
    "betti_closed_sum",
    "betti_cube_complement",
    "betti_cube_multi_complement",
    "betti_disjoint_union",
    "betti_numbers",
    "boundary_voxels",
    "build_cubical_complex",
    "connected_components",
    "count_ones",
    "euler_from_cells",
    "extract_neighborhood",
    "is_local_flip_safe",
    "new_grid",
    "noise_field",
    "perlin_value",
]
