"""Seed objects: implicit solids, shells, tubes, links, knots, and placement.

Shapes are rasterized by evaluating canonical implicit inequalities at voxel
centers (integer coordinates).  Curves are dense polylines thickened by exact
point-to-segment distance, so a reparametrized curve with the same geometry
rasterizes to the same voxel set.  The segments of a tube are stamped in
batches over one shared offset lattice, each segment on the voxels of its
tight box (the integer points within ``r + 1e-9`` of its endpoints' bounding
box); each (segment, voxel) pair evaluates exactly the arithmetic of a
one-segment-at-a-time stamp over the floor/ceil box, so neither the batching
nor the tighter box changes a voxel.  Placement keeps a minimum spacing
between objects by testing each drawn offset against the object's clearance
zone (the object dilated by a ball of radius ``spacing``), which equals
testing the object against the dilated scene.  :data:`CATALOG` holds one
record per catalog kind with everything about it: its labels, where it is
drawn, its cut-out parameters, its recipe and, for an implicit kind, the core
and thickening of its inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import BinaryGrid, new_grid
from .morphology import ball


class PlacementError(ValueError):
    """Raised when a shape cannot be placed inside the grid interior."""


class PlacementExhaustedError(RuntimeError):
    """Raised when no spacing-respecting offset is found within the trial budget."""


class InvalidCurveError(ValueError):
    """Raised for polylines sampled too sparsely to rasterize without gaps."""


#: Half-width of each interval factor of a boxed (tube) kind.
BOX_HALF_WIDTH = 1.5


@dataclass(frozen=True)
class ImplicitShape:
    """A canonical implicit solid, in grid axes about ``center``.

    ``radii`` is (R1, R2, r) as applicable: major, secondary, and minor/tube
    radius.  A boxed kind's interval factors have half-width
    :data:`BOX_HALF_WIDTH`.
    """

    kind: str
    center: tuple[float, ...]
    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        kind = KINDS.get(self.kind)
        if kind is None or kind.core is None:
            raise ValueError(f"unknown implicit shape kind {self.kind!r}")
        rs = [r for r in self.radii if r is not None]
        if any(r <= 0 for r in rs):
            raise ValueError(f"radii must be positive, got {self.radii}")
        if len(rs) >= 2 and not all(a > b for a, b in zip(rs, rs[1:])):
            raise ValueError(
                f"radii must decrease strictly (R1 > R2 > r), got {self.radii}"
            )

    def axis_reach(self, ndim: int) -> tuple[float, ...]:
        """Half-extent of the shape along each axis."""
        kind = KINDS[self.kind]
        *R, r = self.radii
        if kind.core == "point":
            reach = ()
        elif kind.core == "torus":
            R1, R2 = R
            reach = (R1 + R2 + r, R1 + R2 + r, R2 + r)
        else:
            reach = (R[0] + r,) * _CORE_AXES.get(kind.core, ndim)
        rest = ndim - len(reach)
        return reach + (BOX_HALF_WIDTH if kind.boxed else r,) * rest


def _implicit_mask(shape: ImplicitShape, dims) -> np.ndarray:
    """The core in the leading axes, thickened by a ball of radius r over the
    other axes, or by a box of :data:`BOX_HALF_WIDTH` if the kind is ``boxed``."""
    mesh = np.meshgrid(*[np.arange(d, dtype=np.float64) for d in dims], indexing="ij")
    x = [m - c for m, c in zip(mesh, shape.center)]
    kind = KINDS[shape.kind]
    *R, r = shape.radii
    if kind.core == "point":
        gap, rest = 0, x
    elif kind.core == "torus":
        R1, R2 = R
        rho = np.sqrt(x[0] ** 2 + x[1] ** 2)
        torus_dist = np.sqrt((rho - R1) ** 2 + x[2] ** 2)
        gap, rest = (torus_dist - R2) ** 2, x[3:]
    else:
        # the squares add left to right after an exact 0, as x0**2 + x1**2 did
        span = _CORE_AXES.get(kind.core, len(x))
        rho = np.sqrt(sum(c * c for c in x[:span]))
        gap, rest = (rho - R[0]) ** 2, x[span:]
    if kind.boxed:
        mask = gap <= r * r
        for c in rest:
            mask &= np.abs(c) <= BOX_HALF_WIDTH
        return mask
    for c in rest:
        gap = gap + c * c
    return gap <= r * r


def _check_interior(shape: ImplicitShape, dims) -> None:
    reach = shape.axis_reach(len(dims))
    for axis, (c, d, b) in enumerate(zip(shape.center, dims, reach)):
        if c - b < 1 or c + b > d - 2:
            raise PlacementError(
                f"shape at {shape.center} reaches {b:.1f} along axis {axis}, "
                f"leaving no interior margin in dims {tuple(dims)}"
            )


def rasterize_implicit(g: BinaryGrid, s: ImplicitShape) -> BinaryGrid:
    """Set the voxels that satisfy the shape's implicit inequality.

    The shape's bounding box must stay at least one voxel away from every
    face of the grid so cut-outs remain interior.
    """
    if len(s.center) != g.ndim:
        raise ValueError(f"shape center {s.center} does not match grid dims {g.dims}")
    _check_interior(s, g.dims)
    g.data[_implicit_mask(s, g.dims)] = True
    return g


# ---------------------------------------------------------------------------
# parametric curves and tubes

MAX_SAMPLE_SPACING = 0.5


@dataclass(frozen=True)
class ParametricCurve:
    """A densely sampled polyline, optionally closed."""

    samples: np.ndarray
    closed: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )
        if self.samples.ndim != 2 or self.samples.shape[0] < 2:
            raise InvalidCurveError("a curve needs at least two samples")

    def segments(self) -> np.ndarray:
        pts = self.samples
        if self.closed:
            pts = np.vstack([pts, pts[:1]])
        return np.stack([pts[:-1], pts[1:]], axis=1)

    def max_spacing(self) -> float:
        seg = self.segments()
        return float(np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1).max())


def _curve_samples(length: float) -> int:
    return max(8, int(math.ceil(length / (MAX_SAMPLE_SPACING * 0.6))))


def make_segment(p0, p1) -> ParametricCurve:
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    n = _curve_samples(float(np.linalg.norm(p1 - p0)))
    t = np.linspace(0.0, 1.0, n)[:, None]
    return ParametricCurve(p0 + t * (p1 - p0), closed=False)


def make_circle(center, radius: float, plane: tuple[int, int] = (0, 1)) -> ParametricCurve:
    """A circle of the given radius in the chosen coordinate plane."""
    center = np.asarray(center, float)
    n = _curve_samples(2 * math.pi * radius)
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    pts = np.tile(center, (n, 1))
    pts[:, plane[0]] += radius * np.cos(t)
    pts[:, plane[1]] += radius * np.sin(t)
    return ParametricCurve(pts, closed=True)


def make_trefoil(center, scale: float) -> ParametricCurve:
    """The trefoil knot (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t), scaled."""
    center = np.asarray(center, float)
    n = _curve_samples(2 * math.pi * 3.5 * scale) * 2
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    pts = scale * np.stack(
        [
            np.sin(t) + 2 * np.sin(2 * t),
            np.cos(t) - 2 * np.cos(2 * t),
            -np.sin(3 * t),
        ],
        axis=1,
    )
    pts += center[:3]
    if center.size > 3:
        pts = np.hstack([pts, np.tile(center[3:], (n, 1))])
    return ParametricCurve(pts, closed=True)


def make_hopf_link(center, scale: float) -> tuple[ParametricCurve, ParametricCurve]:
    """Two circles in orthogonal planes, each threading the other's center."""
    center = np.asarray(center, float)
    first = make_circle(center, scale, plane=(0, 1))
    shifted = center.copy()
    shifted[0] += scale
    second = make_circle(shifted, scale, plane=(0, 2))
    return first, second


def make_circle_wedge(center, radius: float, count: int) -> list[ParametricCurve]:
    """``count`` pairwise tangent circles in a row.

    Thickened into tubes, the circles merge at the tangency points, so the
    result has the homotopy type of a wedge of ``count`` circles (a genus-
    ``count`` handlebody when solid).
    """
    if count < 1:
        raise InvalidCurveError("a wedge needs at least one circle")
    center = np.asarray(center, float)
    loops = []
    for k in range(count):
        c = center.copy()
        c[0] += 2 * k * radius
        loops.append(make_circle(c, radius, plane=(0, 1)))
    return loops


#: Upper bound on the (segment, voxel) pairs evaluated at once by
#: :func:`rasterize_tube`.  Its temporaries then stay under 1 MB: at 2^16
#: pairs a generation run peaked about 1 MB higher, at the same speed.
STAMP_CHUNK_PAIRS = 1 << 14

#: How far past ``r`` a tube segment's box reaches along each axis.
BOX_SLACK = 1e-9


def rasterize_tube(g: BinaryGrid, c: ParametricCurve, tube_radius: float) -> BinaryGrid:
    """Thicken a polyline into a tube of the given radius.

    Voxels within ``tube_radius`` of any segment of the polyline are set;
    closed curves yield solid-torus topology, open ones ball topology.

    Each segment is a capsule tested on the voxels of its own tight box:
    ``ceil(min(p0, p1) - r - 1e-9)`` up to ``floor(max(p0, p1) + r + 1e-9)``
    per axis, clipped to the grid.  A voxel outside it lies more than
    ``r + 1e-9`` from the segment along one axis, far beyond the ~1e-14
    rounding of ``dist2``, so it could never pass ``dist2 <= r * r``; and the
    tight box lies inside the floor/ceil box, so the pairs it evaluates are a
    subset of a floor/ceil stamp's.  The segments are stamped in batches: one
    offset lattice the size of the largest box is laid over every segment's
    box corner, pairs outside their own segment's box are masked out, and the
    union of the capsules is written with one index assignment per batch.
    Every (segment, voxel) pair evaluates the same float expressions in the
    same order as a one-segment-at-a-time loop would, so the voxels depend
    neither on the batching nor on the box rule.
    """
    if c.samples.shape[1] != g.ndim:
        raise InvalidCurveError(
            f"curve dimension {c.samples.shape[1]} does not match grid {g.ndim}"
        )
    if tube_radius <= 0:
        raise ValueError(f"tube radius must be positive, got {tube_radius}")
    spacing = c.max_spacing()
    if spacing > MAX_SAMPLE_SPACING:
        raise InvalidCurveError(
            f"curve samples are {spacing:.3f} voxels apart; the limit is "
            f"{MAX_SAMPLE_SPACING} to guarantee gap-free tubes"
        )
    seg = c.segments()
    p0, p1 = seg[:, 0], seg[:, 1]
    r = tube_radius
    shape = g.data.shape
    lo = np.maximum(np.ceil(np.minimum(p0, p1) - r - BOX_SLACK).astype(int), 0)
    hi = np.minimum(np.floor(np.maximum(p0, p1) + r + BOX_SLACK).astype(int) + 1, shape)
    ext = hi - lo
    lattice = np.maximum(ext.max(axis=0), 0)
    pairs = int(np.prod(lattice))
    if pairs == 0:
        return g
    d = p1 - p0
    # one stacked (1 x n) @ (n x 1) product per segment gives the same value
    # as np.dot(v, v); the tube tests compare with a per-segment np.dot stamp
    l2 = (d[:, None, :] @ d[:, :, None]).ravel()
    # a zero-length segment gets t = 0, which leaves dist2 = sum(rel ** 2)
    point = l2 == 0.0
    n = g.ndim
    # axis 0 indexes segments, axis k + 1 the lattice's axis k
    column = (-1,) + (1,) * n
    divisor = np.where(point, 1.0, l2).reshape(column)
    lo_ax, ext_ax, p0_ax, d_ax = (v.T.reshape((n,) + column) for v in (lo, ext, p0, d))
    offsets = [
        np.arange(e).reshape((1,) * (k + 1) + (e,) + (1,) * (n - k - 1))
        for k, e in enumerate(lattice)
    ]
    batch = max(1, STAMP_CHUNK_PAIRS // pairs)
    for a in range(0, len(seg), batch):
        rows = slice(a, a + batch)
        inside = True
        rel = []
        for k, off in enumerate(offsets):
            inside = inside & (off < ext_ax[k, rows])
            rel.append((lo_ax[k, rows] + off).astype(np.float64) - p0_ax[k, rows])
        dk = d_ax[:, rows]
        t = sum(x * dx for x, dx in zip(rel, dk)) / divisor[rows]
        np.clip(t, 0.0, 1.0, out=t)
        t[point[rows]] = 0.0
        dist2 = sum((x - t * dx) ** 2 for x, dx in zip(rel, dk))
        inside &= dist2 <= r * r
        hit, *pos = np.nonzero(inside)
        g.data[tuple(lo[a + hit, k] + o for k, o in enumerate(pos))] = True
    return g


# ---------------------------------------------------------------------------
# the catalog.  A recipe draws one object's parameters and returns its box
# dims, a painter that rasterizes it into a grid of those dims, and its genus.
# Painters look the rasterizers up by module-level name when they run.


def _tube_radius(ndim: int) -> float:
    return 2.0 if ndim < 4 else 1.6


def _cube(reach: float, ndim: int) -> tuple[int, ...]:
    """The box that leaves two voxels around a shape of this reach."""
    return (int(math.ceil(2 * reach + 4)),) * ndim


def _center(g: BinaryGrid) -> tuple[float, ...]:
    return tuple((d - 1) / 2.0 for d in g.dims)


class _Draws:
    """One object's parameter draws from ``rng``; with ``rng=None`` every draw
    takes the low end of its range, which gives the kind's smallest box."""

    def __init__(self, rng: np.random.Generator | None, failure: str) -> None:
        self.rng, self.failure = rng, failure

    def uniform(self, lo: float, hi: float) -> float:
        if hi < lo:
            raise PlacementError(self.failure)
        return lo if self.rng is None else float(self.rng.uniform(lo, hi))

    def integer(self, lo: int, hi: int) -> int:  # in [lo, hi]
        return lo if self.rng is None else int(self.rng.integers(lo, hi + 1))


def _solid(kind, ndim, draws, budget):
    """An implicit kind; its core decides the radii: r, (R, tube) or (R1, 2.2, 1.0)."""
    if kind.core == "point":
        radii = (draws.uniform(2.5, min(4.0, budget)),)
    elif kind.core == "torus":
        R2, r = 2.2, 1.0
        radii = (draws.uniform(4.5, min(5.5, budget - R2 - r)), R2, r)
    else:
        tube = _tube_radius(ndim)
        radii = (draws.uniform(4.0, min(5.5, budget - tube)), tube)

    def paint(g):
        rasterize_implicit(g, ImplicitShape(kind.name, _center(g), radii))

    # the reach r, R + tube or R1 + R2 + r: sum adds left to right from 0
    return _cube(sum(radii), ndim), paint, 0


def _open_tube(kind, ndim, draws, budget):
    tube = _tube_radius(ndim)
    length = draws.uniform(8.0, min(14.0, 2 * (budget - tube)))

    def paint(g):
        p0 = np.array(_center(g))
        p0[0] -= length / 2
        p1 = np.array(_center(g))
        p1[0] += length / 2
        rasterize_tube(g, make_segment(p0, p1), tube)

    return _cube(length / 2 + tube, ndim), paint, 0


def _trefoil_tube(kind, ndim, draws, budget):
    r = 1.4  # strands clear 0.915*scale; a radius-1.4 tube needs scale >= 4.7
    scale = draws.uniform(4.7, min(6.5, (budget - r) / 3.0))

    def paint(g):
        rasterize_tube(g, make_trefoil(_center(g), scale), r)

    return _cube(3.0 * scale + r, ndim), paint, 0


def _hopf_link(kind, ndim, draws, budget):
    tube = _tube_radius(ndim)
    # the two circles pass within one scale of each other
    scale = draws.uniform(2 * tube + 2, min(7.5, (budget - tube) / 1.5))

    def paint(g):
        c = np.array(_center(g))
        c[0] -= scale / 2
        for loop in make_hopf_link(c, scale):
            rasterize_tube(g, loop, tube)

    return _cube(1.5 * scale + tube, ndim), paint, 0


def _circle_wedge(kind, ndim, draws, budget):
    tube = _tube_radius(ndim)
    max_genus = min(3, int((budget - tube) // 4.0))
    genus = draws.integer(2, max_genus) if max_genus > 2 else 2
    R = draws.uniform(4.0, min(5.0, (budget - tube) / genus))
    # loops sit at x = start + 2kR, so the chain spans 2*genus*R in x
    side_x = int(math.ceil(2 * genus * R + 2 * tube + 4))
    side = int(math.ceil(2 * (R + tube) + 4))

    def paint(g):
        start = np.array(_center(g))
        start[0] -= R * (genus - 1)
        for loop in make_circle_wedge(start, R, genus):
            rasterize_tube(g, loop, tube)

    return (side_x,) + (side,) * (ndim - 1), paint, genus


#: Leading shape axes a round core spans; a full sphere spans them all.
_CORE_AXES = {"circle": 2, "2-sphere": 3}


@dataclass(frozen=True, eq=False)
class CatalogKind:
    """Everything about one catalog kind.

    ``betti`` maps each grid dimension the kind is labelled in to its Betti
    vector; a ``wedge`` kind adds its drawn genus to b1.  The kind is drawn
    embedded in the dimensions ``embed`` and as a cut-out in ``carve``, with
    cut-out parameters ``ghij`` (a wedge adds its genus to g).  ``recipe``
    draws it into its own box.  An implicit kind names its ``core``, which
    is thickened by a ball, or by a box along the interval axes if
    ``boxed``.  ``floor`` raises the smallest box side the kind is drawn in.
    """

    name: str
    betti: dict[int, tuple[int, int, int, int]]
    recipe: Callable
    embed: tuple[int, ...] = ()
    carve: tuple[int, ...] = ()
    ghij: tuple[int, int, int, int] = (0, 0, 0, 0)
    wedge: bool = False
    core: str | None = None
    boxed: bool = False
    floor: int = 0

    def make(self, ndim: int, rng: np.random.Generator, max_side: int) -> tuple[BinaryGrid, int]:
        """Draw and rasterize one object into its own minimal grid.

        Returns the grid and the drawn genus.  Parameter draws are clamped so
        the object's box never exceeds ``max_side`` per axis.
        """
        budget = (max_side - 4) / 2.0  # largest usable reach from the box center
        draws = _Draws(rng, f"{self.name} cannot fit a {max_side}-voxel box")
        dims, paint, genus = self.recipe(self, ndim, draws, budget)
        g = new_grid(dims)
        paint(g)
        return g, genus

    def min_side(self, ndim: int) -> int:
        """Smallest object box the kind can be drawn into: that of its lowest draws."""
        dims, _, _ = self.recipe(self, ndim, _Draws(None, ""), 1e9)  # a budget no draw meets
        return max(self.floor, *dims)

    def cutout(self, genus: int) -> tuple[int, int, int, int]:
        """Cut-out label parameters (g, h, i, j) of an object of this genus."""
        g, h, i, j = self.ghij
        return (g + genus, h, i, j)


#: Betti vectors of a contractible solid, a thickened circle, 2-sphere and torus.
_CONTRACTIBLE, _CIRCLE, _TWO_SPHERE, _TORUS = (1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 2, 1, 0)


def _in(betti, *dims) -> dict[int, tuple[int, int, int, int]]:
    return dict.fromkeys(dims, betti)


#: The catalog, in the order draws index it.  A new kind is one record.
CATALOG = (
    # the lowest draw (r = 2.5) fits a 9-voxel box, but a floor of 9 would
    # let a cut-out ball fit a 13^4 grid and move the 4D golden digests
    CatalogKind("ball", _in(_CONTRACTIBLE, 2, 3, 4), _solid, core="point",
                embed=(2, 3, 4), carve=(2, 3, 4), floor=10),
    CatalogKind("sphere_shell", {2: _CIRCLE, 3: _TWO_SPHERE, 4: (1, 0, 0, 1)}, _solid,
                core="sphere", embed=(2, 3)),
    CatalogKind("solid_torus", _in(_CIRCLE, 3, 4), _solid, core="circle",
                embed=(3,), carve=(3,), ghij=(1, 0, 0, 0)),
    CatalogKind("torus_shell", _in(_TORUS, 3, 4), _solid, core="torus", embed=(3,)),
    CatalogKind("S1xB3", _in(_CIRCLE, 4), _solid, core="circle",
                embed=(4,), carve=(4,), ghij=(1, 0, 0, 0)),
    CatalogKind("S2xB2", _in(_TWO_SPHERE, 4), _solid, core="2-sphere",
                embed=(4,), carve=(4,), ghij=(0, 1, 0, 0)),
    CatalogKind("T2xB2", _in(_TORUS, 4), _solid, core="torus",
                embed=(4,), carve=(4,), ghij=(0, 0, 1, 1)),
    CatalogKind("tube_IxS2", _in(_TWO_SPHERE, 3, 4), _solid, core="2-sphere", boxed=True,
                embed=(4,)),
    CatalogKind("tube_I2xS1", _in(_CIRCLE, 3, 4), _solid, core="circle", boxed=True,
                embed=(4,)),
    CatalogKind("tube_IxT2", _in(_TORUS, 3, 4), _solid, core="torus", boxed=True,
                embed=(4,)),
    CatalogKind("open_tube", _in(_CONTRACTIBLE, 2, 3, 4), _open_tube, embed=(2, 3)),
    CatalogKind("trefoil_tube", _in(_CIRCLE, 3, 4), _trefoil_tube, embed=(3,)),
    CatalogKind("hopf_link", _in((2, 2, 0, 0), 3, 4), _hopf_link, embed=(3,)),
    # genus-many circles in a row, thickened: a genus-g handlebody
    CatalogKind("circle_wedge", _in(_CONTRACTIBLE, 2, 3, 4), _circle_wedge, wedge=True,
                embed=(3,), carve=(3,)),
)

#: The catalog by kind name.
KINDS = {kind.name: kind for kind in CATALOG}


def drawn(mode: str, ndim: int) -> list[CatalogKind]:
    """The kinds drawn in ``ndim`` dims in ``mode`` (cutout or embed), in table order."""
    return [k for k in CATALOG if ndim in (k.carve if mode == "cutout" else k.embed)]


# ---------------------------------------------------------------------------
# placement

def _check_same_ndim(sample: BinaryGrid, obj: BinaryGrid) -> None:
    if obj.ndim != sample.ndim:
        raise ValueError(
            f"object dims {obj.dims} have {obj.ndim} axes but sample dims "
            f"{sample.dims} have {sample.ndim}"
        )


@lru_cache(maxsize=64)
def _ball_offsets(radius: float, ndim: int) -> tuple[tuple[int, ...], ...]:
    return ball(radius, ndim).offsets


#: The most offsets drawn in one generator call.
_DRAW_BLOCK = 1024


def _offset_draws(rng: np.random.Generator, low: int, highs, trials: int):
    """Yield ``trials`` offsets, each axis drawn uniformly from ``[low, high]``.

    Each generator call draws a block of offsets, and the blocks double from
    one row up to :data:`_DRAW_BLOCK` rows: most searches end at the first
    offset, and a call costs about as much as three one-axis draws.  The
    offsets are those that one call per axis and trial gives, in order.
    """
    bounds = np.add(highs, 1)
    done = 0
    while done < trials:
        rows = min(max(done, 1), _DRAW_BLOCK, trials - done)
        yield from map(tuple, rng.integers(low, bounds, size=(rows, len(bounds))).tolist())
        done += rows


def place_with_spacing(
    sample: BinaryGrid,
    obj: BinaryGrid,
    spacing: int,
    seed: int = 0,
    max_trials: int = 1000,
    margin: int = 0,
) -> tuple[int, ...]:
    """Find an offset where ``obj`` clears existing content by ``spacing``.

    An offset is accepted when the translated object misses the existing
    foreground dilated by a ball of radius ``spacing``.  The ball is
    symmetric, so this is tested the other way round: the object, padded by
    ``spacing``, is dilated once per call into its clearance zone, and each
    offset is accepted when the zone misses the foreground in the window it
    covers (clipped to the grid).  Offsets are drawn from a seeded generator,
    so placement is reproducible; an offset drawn again is not tested again,
    and once every candidate offset has failed the search raises at once, as
    ``max_trials`` draws would have.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    _check_same_ndim(sample, obj)
    if any(o > s - 2 * margin for o, s in zip(obj.dims, sample.dims)):
        raise PlacementError(
            f"object dims {obj.dims} do not fit in sample dims {sample.dims}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    highs = [s - o - margin for s, o in zip(sample.dims, obj.dims)]
    draws = _offset_draws(rng, margin, highs, max_trials)
    data = sample.data
    if not data.any():
        for off in draws:  # every offset clears an empty sample
            return off
    else:
        # the Minkowski sum of the object and the ball, framed so that the
        # object's voxel i sits at i + reach
        reach = int(spacing)
        zone = np.zeros([d + 2 * reach for d in obj.dims], dtype=bool)
        for shift in _ball_offsets(spacing, sample.ndim):
            at = tuple(slice(reach + c, reach + c + d) for c, d in zip(shift, obj.dims))
            zone[at] |= obj.data
        candidates = math.prod(h - margin + 1 for h in highs)
        failed = set()
        for off in draws:
            if off in failed:
                continue
            window, part = [], []
            for o, z, s in zip(off, zone.shape, data.shape):
                a, b = max(o - reach, 0), min(o - reach + z, s)
                window.append(slice(a, b))
                part.append(slice(a - o + reach, b - o + reach))
            if not (data[tuple(window)] & zone[tuple(part)]).any():
                return off
            failed.add(off)
            if len(failed) == candidates:
                raise PlacementExhaustedError(
                    f"no feasible offset among all {candidates} candidate "
                    f"offsets at spacing {spacing}"
                )
    raise PlacementExhaustedError(
        f"no feasible offset after {max_trials} trials at spacing {spacing}"
    )


def blit(sample: BinaryGrid, obj: BinaryGrid, offset: tuple[int, ...]) -> None:
    """Write the object's foreground into the sample at the given offset."""
    _check_same_ndim(sample, obj)
    region = tuple(slice(o, o + d) for o, d in zip(offset, obj.dims))
    sample.data[region] |= obj.data
