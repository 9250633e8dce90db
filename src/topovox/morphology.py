"""Binary morphology in 2-4 dimensions.

Dilation follows the translate-and-union formulation; erosion is its dual.
Operations never wrap: anything outside the grid reads as background, so
erosion fails wherever the probe overhangs the border.

2D thickening thins the background: it combines classical hit-or-miss
candidate detection with a per-flip local homology gate, which makes
Betti-vector preservation a guarantee of the implementation rather than a
property of the element set.  The same gate drives the homology-checked
dilation used to grow seed skeletons in any supported dimension.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import BinaryGrid, Coord, UnsupportedDimensionError, _shifted
from . import homology
from .homology import block_window, keys_of
from .homology import is_local_flip_safe  # noqa: F401  (perfbench traces the gate at this name)
from .noise import NoiseField


class InvalidElementError(ValueError):
    """Raised for malformed structuring elements (e.g. overlapping pairs)."""


@dataclass(frozen=True)
class StructuringElement:
    """A small binary mask probed around an origin voxel."""

    mask: np.ndarray
    origin: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        if any(s > 9 for s in self.mask.shape):
            raise InvalidElementError(
                f"structuring elements are capped at 9 per axis, got {self.mask.shape}"
            )
        if len(self.origin) != self.mask.ndim or not all(
            0 <= o < s for o, s in zip(self.origin, self.mask.shape)
        ):
            raise InvalidElementError(
                f"origin {self.origin} outside mask of shape {self.mask.shape}"
            )

    @property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """Voxel offsets of the mask relative to its origin."""
        return tuple(
            tuple(int(c) - o for c, o in zip(idx, self.origin))
            for idx in np.argwhere(self.mask)
        )


def ball(radius: float, ndim: int) -> StructuringElement:
    """Euclidean ball element; radius 1 is the unit ball (a 2n+1 cross)."""
    if radius < 0:
        raise InvalidElementError(f"radius must be nonnegative, got {radius}")
    reach = int(radius)
    axes = np.arange(-reach, reach + 1)
    grids = np.meshgrid(*([axes] * ndim), indexing="ij")
    mask = sum(gx.astype(float) ** 2 for gx in grids) <= radius * radius + 1e-9
    return StructuringElement(mask, (reach,) * ndim)


def element_from_spec(spec: dict) -> StructuringElement:
    """Build an element from a config entry: a 0/1 nested list plus an origin."""
    try:
        mask = np.asarray(spec["mask"], dtype=bool)
        origin = tuple(int(c) for c in spec["origin"])
    except (KeyError, TypeError) as exc:
        raise InvalidElementError(f"element spec needs 'mask' and 'origin': {exc}")
    if not mask.any():
        raise InvalidElementError("element mask has no set voxel")
    return StructuringElement(mask, origin)


def _check_ndim(m: BinaryGrid, b: StructuringElement) -> None:
    if b.mask.ndim != m.ndim:
        raise ValueError(
            f"a {b.mask.ndim}D structuring element cannot probe a {m.ndim}D grid"
        )


def dilate(m: BinaryGrid, b: StructuringElement) -> BinaryGrid:
    """Minkowski sum of the foreground with the element, clipped to bounds."""
    _check_ndim(m, b)
    out = np.zeros_like(m.data)
    for off in b.offsets:
        out |= _shifted(m.data, off)
    return BinaryGrid(out)


def erode(m: BinaryGrid, b: StructuringElement) -> BinaryGrid:
    """Voxels where the translated element fits entirely in the foreground."""
    _check_ndim(m, b)
    out = np.ones_like(m.data)
    for off in b.offsets:
        out &= _shifted(m.data, tuple(-o for o in off))
    return BinaryGrid(out)


@dataclass(frozen=True)
class HitMissElement:
    """A disjoint (hit, miss) mask pair sharing one origin."""

    hit: np.ndarray
    miss: np.ndarray
    origin: tuple[int, ...]

    def __post_init__(self) -> None:
        hit = np.asarray(self.hit, dtype=bool)
        miss = np.asarray(self.miss, dtype=bool)
        if hit.shape != miss.shape:
            raise InvalidElementError("hit and miss masks must share a shape")
        if (hit & miss).any():
            raise InvalidElementError("hit and miss masks overlap")
        object.__setattr__(self, "hit", hit)
        object.__setattr__(self, "miss", miss)

    @classmethod
    def from_pattern(cls, rows: list[str]) -> "HitMissElement":
        """Build from rows of '1' (hit), '0' (miss), '.' (don't care)."""
        arr = np.array([list(r) for r in rows])
        return cls(arr == "1", arr == "0", tuple(s // 2 for s in arr.shape))

    def rotated90(self) -> "HitMissElement":
        return HitMissElement(
            np.rot90(self.hit).copy(), np.rot90(self.miss).copy(), self.origin
        )


def hit_or_miss(m: BinaryGrid, pair: HitMissElement) -> BinaryGrid:
    """Erode by the hit mask, erode the complement by the miss mask, intersect."""
    hit = StructuringElement(pair.hit, pair.origin)
    miss = StructuringElement(pair.miss, pair.origin)
    return BinaryGrid(erode(m, hit).data & erode(m.complement(), miss).data)


@lru_cache(maxsize=1)
def _thinning_elements_2d() -> tuple[HitMissElement, ...]:
    """The classical edge/corner pair in all four rotations (8 elements)."""
    edge = HitMissElement.from_pattern(
        [
            "000",
            ".1.",
            "111",
        ]
    )
    corner = HitMissElement.from_pattern(
        [
            ".00",
            "110",
            ".1.",
        ]
    )
    elems = []
    for base in (edge, corner):
        e = base
        for _ in range(4):
            elems.append(e)
            e = e.rotated90()
    return tuple(elems)


def _check_iterations(iterations: int) -> None:
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")


def thicken_background(m: BinaryGrid, iterations: int) -> BinaryGrid:
    """Thicken seed objects by homotopic hit-or-miss thinning of the background.

    Candidates come from the classical element set applied to the
    complement; each one is added to the foreground only if the local
    homology gate allows the flip, so the output Betti vector always equals
    the input's.  A voxel on the grid's border is never a candidate, even
    where the gate would accept it: every thinning element reaches one
    voxel along both directions of both axes, so it overhangs a border
    voxel, and :func:`erode` reads out-of-range voxels as false on either
    side of the hit-or-miss.
    """
    if m.ndim != 2:
        raise UnsupportedDimensionError("thickening is 2D-only; see homology_safe_dilate")
    _check_iterations(iterations)
    cur = m.copy()
    block = homology._block((3, 3))
    for _ in range(iterations):
        changed = False
        for elem in _thinning_elements_2d():
            # every candidate is empty (the element hits the complement at
            # its origin) and is visited once
            cand = np.argwhere(hit_or_miss(cur.complement(), elem).data)
            for c, key in _visits(cur, cand, np.arange(len(cand))):
                if block.verdict(key):
                    cur.data[c] = True
                    changed = True
        if not changed:
            break
    return cur


def _visits(cur: BinaryGrid, cand: np.ndarray, order) -> Iterator[tuple[Coord, int]]:
    """Yield the candidates ``cand[order]`` in turn, each with its gate key
    at its visit; the caller sets a candidate to 1 or leaves it before it
    asks for the next.

    Keys are computed at the start, with numpy, on the grid padded by one
    empty voxel, as if every candidate visited before would be set.  Nearly
    all are (the gate rejects few), and the key of each candidate whose
    block holds a rejected one is mended when it is visited.
    """
    shape = tuple(s + 2 for s in cur.dims)
    strides = [math.prod(shape[ax + 1 :]) for ax in range(cur.ndim)]
    window, bits = block_window(strides)
    at = (cand[order] + 1) @ strides
    visit = np.full(math.prod(shape), len(at))
    visit[at] = np.arange(len(at))
    cells = at[:, None] + window
    earlier = visit[cells] < np.arange(len(at))[:, None]
    keys = keys_of(np.pad(cur.data, 1).ravel()[cells] | earlier)
    steps = list(zip((-window).tolist(), bits))
    rejected: dict[int, int] = {}  # the key bits of rejected candidates, per cell
    for c, v, key in zip(map(tuple, cand[order].tolist()), at.tolist(), keys):
        if v in rejected:
            key &= ~rejected[v]
        yield c, key
        if not cur.data[c]:
            for d, bit in steps:
                rejected[v + d] = rejected.get(v + d, 0) | bit


def homology_safe_dilate(
    m: BinaryGrid,
    b: StructuringElement | None = None,
    iterations: int = 1,
    bias: NoiseField | None = None,
    seed: int = 0,
) -> BinaryGrid:
    """Dilation in which every voxel flip must pass the local homology gate.

    Per iteration, the 0-voxels reachable by dilating with ``b`` (the unit
    ball by default) are visited one at a time and flipped when safe.  With a
    noise ``bias``, candidates are visited in descending noise order and kept
    with probability proportional to the normalized noise value, which grows
    lumpy, thick-and-thin shapes instead of uniform offsets.
    """
    _check_iterations(iterations)
    if b is None:
        b = ball(1, m.ndim)
    _check_ndim(m, b)
    if bias is not None and bias.dims != m.dims:
        raise ValueError(f"bias dims {bias.dims} do not match grid dims {m.dims}")
    cur = m.copy()
    block = homology._block((3,) * m.ndim)
    for it in range(iterations):
        cand = np.argwhere(dilate(cur, b).data & ~cur.data)
        if cand.size == 0:
            break
        if bias is None:
            order = np.arange(len(cand))
        else:
            vals = bias.values[tuple(cand.T)]
            order = np.lexsort(tuple(cand.T[::-1]) + (-vals,))
            accept = (vals + 1.0) / 2.0
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, it))))
            draws = rng.random(len(cand))
            order = order[draws[order] < accept[order]]
        # every candidate is empty and in range, and is visited once
        for c, key in _visits(cur, cand, order):
            if block.verdict(key):
                cur.data[c] = True
    return cur
