"""Seeded gradient noise in 2, 3, and 4 dimensions (improved-style variant).

Quintic fade, hashed lattice gradients, values normalized into [-1, 1].
The permutation table is derived from the 64-bit seed with a counter-based
hash stream, so the full seed space yields distinct tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np

from .grid import UnsupportedDimensionError

_GRADS = {
    2: np.array(
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)],
        dtype=np.float64,
    ),
    3: np.array(
        [
            (1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0),
            (1, 0, 1), (-1, 0, 1), (1, 0, -1), (-1, 0, -1),
            (0, 1, 1), (0, -1, 1), (0, 1, -1), (0, -1, -1),
        ],
        dtype=np.float64,
    ),
    4: np.array(
        [
            (s0, s1, s2, 0) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
        ]
        + [
            (s0, s1, 0, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
        ]
        + [
            (s0, 0, s1, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
        ]
        + [
            (0, s0, s1, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
        ],
        dtype=np.float64,
    ),
}

# peak amplitude of the raw interpolant per dimension (1.0, 1.0, sqrt(5)/2,
# attained at cell centers with aligned gradients), padded 1% for float slack
_AMPLITUDE = {2: 1.01, 3: 1.01, 4: 1.01 * sqrt(5.0) / 2.0}

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=64)
def _perm_table(seed: int) -> np.ndarray:
    """256-entry permutation (doubled for overflow-free chaining)."""
    perm = np.arange(256, dtype=np.int64)
    state = seed & _MASK64
    for i in range(255, 0, -1):
        state = _splitmix64(state)
        k = state % (i + 1)
        perm[i], perm[k] = perm[k], perm[i]
    return np.concatenate([perm, perm])


def _fade(t: np.ndarray) -> np.ndarray:
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0)


def _along(v: np.ndarray, ax: int, n: int) -> np.ndarray:
    """A 1-D array of axis ``ax`` shaped to broadcast over an n-D grid."""
    return v.reshape((-1,) + (1,) * (n - 1 - ax))


def _perlin_grid(axes, seed: int) -> np.ndarray:
    """Noise on the product grid of per-axis coordinate arrays ``axes``,
    each in ascending order.

    Perlin noise is separable: floor, fraction and fade depend on one axis
    each and the gradient hash only on the lattice cell.  So those are
    computed once per axis and per cell and broadcast to the grid.  Every
    gradient component is -1, 0 or 1, so each product below is exact, and
    the value equals a point-by-point evaluation bit for bit as long as the
    sums and products keep the same order (``tests/oracles.py`` keeps that
    evaluation as the reference).
    """
    n = len(axes)
    if n not in _GRADS:
        raise UnsupportedDimensionError(f"noise supports 2-4 dimensions, got {n}")
    perm = _perm_table(seed)
    grads = _GRADS[n]
    offs, fades, cells, counts = [], [], [], []
    for ax, x in enumerate(axes):
        x = np.asarray(x, dtype=np.float64)
        base = np.floor(x).astype(np.int64)
        frac = x - base
        w = _fade(frac)
        # per corner bit: the offset from the corner and the fade factor
        offs.append((_along(frac, ax, n), _along(frac - 1.0, ax, n)))
        fades.append((_along(1.0 - w, ax, n), _along(w, ax, n)))
        cell, count = np.unique(base, return_counts=True)
        cells.append(_along(cell & 255, ax, n))
        counts.append(count)
    shape = tuple(int(c.sum()) for c in counts)

    def expand(a: np.ndarray, ax_off: int, off: np.ndarray) -> np.ndarray:
        # one entry per lattice cell -> one per grid point (the runs of equal
        # bases are consecutive), times ``off`` as soon as axis ``ax_off`` is
        # expanded, while the array is still smaller than the grid
        for ax in range(n - 1, -1, -1):
            a = np.repeat(a, counts[ax], axis=ax)
            if ax == ax_off:
                a *= off
        return a

    accum = np.zeros(shape, dtype=np.float64)
    for corner in range(1 << n):
        bits = [(corner >> ax) & 1 for ax in range(n)]
        h = perm[cells[0] + bits[0]]
        for ax in range(1, n):
            h = perm[h + cells[ax] + bits[ax]]
        g = grads[h % len(grads)]
        p = [expand(g[..., ax], ax, offs[ax][bits[ax]]) for ax in range(n)]
        # The row dot in the order numpy's einsum sums an (m, n) row, with
        # two accumulators taking the terms alternately: p0+p1 in 2D,
        # (p0+p2)+p1 in 3D, (p0+p2)+(p1+p3) in 4D.  Floating-point addition
        # is not associative, so this order is part of the output bytes.
        dot, odd = p[0], p[1]
        if n > 2:
            dot += p[2]
        if n > 3:
            odd += p[3]
        dot += odd
        # the corner weight, multiplied left to right over the axes
        weight = fades[0][bits[0]]
        for ax in range(1, n):
            weight = weight * fades[ax][bits[ax]]
        dot *= weight
        accum += dot
    return accum / _AMPLITUDE[n]


@dataclass(frozen=True)
class NoiseField:
    """A noise value per voxel of a grid, deterministic in (dims, scale, seed)."""

    dims: tuple[int, ...]
    scale: float
    seed: int
    values: np.ndarray


def noise_field(dims, scale: float, seed: int) -> NoiseField:
    """Sample noise at every voxel coordinate divided by ``scale``."""
    dims = tuple(int(d) for d in dims)
    if not (isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive finite number, got {scale}")
    if max(dims) / scale >= 2**63:  # a voxel's lattice cell index must fit an int64
        raise ValueError(f"scale {scale} is too small for dims {dims}")
    freq = 1.0 / scale
    values = _perlin_grid([np.arange(d, dtype=np.float64) * freq for d in dims], seed)
    return NoiseField(dims, float(scale), int(seed), values)
