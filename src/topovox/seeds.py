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
testing the object against the dilated scene.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import BinaryGrid
from .homology import BettiVector
from .labels import embedded_label
from .morphology import ball


class PlacementError(ValueError):
    """Raised when a shape cannot be placed inside the grid interior."""


class PlacementExhaustedError(RuntimeError):
    """Raised when no spacing-respecting offset is found within the trial budget."""


class InvalidCurveError(ValueError):
    """Raised for polylines sampled too sparsely to rasterize without gaps."""


#: Shape kinds with an implicit-inequality rasterization.
IMPLICIT_KINDS = (
    "ball",
    "sphere_shell",
    "solid_torus",
    "torus_shell",
    "S1xB3",
    "S2xB2",
    "T2xB2",
    "tube_IxS2",
    "tube_I2xS1",
    "tube_IxT2",
)


@dataclass(frozen=True)
class ImplicitShape:
    """A canonical implicit solid.

    ``radii`` is (R1, R2, r) as applicable: major, secondary, and minor/tube
    radius.  ``extents`` gives the half-widths of the interval factors of the
    tube kinds.  ``orientation`` permutes grid axes into shape axes.
    """

    kind: str
    center: tuple[float, ...]
    radii: tuple[float, ...]
    orientation: tuple[int, ...] | None = None
    extents: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in IMPLICIT_KINDS:
            raise ValueError(f"unknown implicit shape kind {self.kind!r}")
        rs = [r for r in self.radii if r is not None]
        if any(r <= 0 for r in rs):
            raise ValueError(f"radii must be positive, got {self.radii}")
        if len(rs) >= 2 and not all(a > b for a, b in zip(rs, rs[1:])):
            raise ValueError(
                f"radii must decrease strictly (R1 > R2 > r), got {self.radii}"
            )

    def axis_reach(self, ndim: int) -> tuple[float, ...]:
        """Half-extent of the shape along each of its own axes."""
        kind = self.kind
        if kind == "ball":
            (r,) = self.radii
            return (r,) * ndim
        if kind == "sphere_shell":
            R, r = self.radii
            return (R + r,) * ndim
        if kind in ("solid_torus", "S1xB3"):
            R, r = self.radii
            return (R + r, R + r) + (r,) * (ndim - 2)
        if kind == "tube_I2xS1":
            R, r = self.radii
            box = tuple(self_extent(self, k) for k in range(ndim - 2))
            return (R + r, R + r) + box
        if kind == "S2xB2":
            R, r = self.radii
            return (R + r,) * 3 + (r,) * (ndim - 3)
        if kind == "tube_IxS2":
            R, r = self.radii
            box = tuple(self_extent(self, k) for k in range(ndim - 3))
            return (R + r,) * 3 + box
        if kind in ("torus_shell", "T2xB2"):
            R1, R2, r = self.radii
            return (R1 + R2 + r, R1 + R2 + r, R2 + r) + (r,) * (ndim - 3)
        if kind == "tube_IxT2":
            R1, R2, r = self.radii
            box = tuple(self_extent(self, k) for k in range(ndim - 3))
            return (R1 + R2 + r, R1 + R2 + r, R2 + r) + box
        raise ValueError(f"unknown implicit shape kind {kind!r}")


def _shape_frame(shape: ImplicitShape, ndim: int, dims) -> list[np.ndarray]:
    """Voxel-center coordinates in the shape's own frame, full grid extent."""
    axes = [np.arange(d, dtype=np.float64) for d in dims]
    mesh = np.meshgrid(*axes, indexing="ij")
    perm = shape.orientation or tuple(range(ndim))
    if sorted(perm) != list(range(ndim)):
        raise ValueError(f"orientation {perm} is not an axis permutation")
    return [mesh[perm[k]] - shape.center[perm[k]] for k in range(ndim)]


def implicit_inside(shape: ImplicitShape, points: np.ndarray) -> np.ndarray:
    """Membership of arbitrary grid-frame points in the shape's solid."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[1]
    perm = shape.orientation or tuple(range(n))
    x = [pts[:, perm[k]] - shape.center[perm[k]] for k in range(n)]
    return _implicit_predicate(shape, x)


def _implicit_mask(shape: ImplicitShape, dims) -> np.ndarray:
    n = len(dims)
    x = _shape_frame(shape, n, dims)
    return _implicit_predicate(shape, x)


def _implicit_predicate(shape: ImplicitShape, x: list[np.ndarray]) -> np.ndarray:
    kind = shape.kind
    if kind == "ball":
        (r,) = shape.radii
        return sum(c * c for c in x) <= r * r
    if kind == "sphere_shell":
        R, r = shape.radii
        rho = np.sqrt(sum(c * c for c in x))
        return (rho - R) ** 2 <= r * r
    if kind in ("solid_torus", "S1xB3", "tube_I2xS1"):
        R, r = shape.radii
        rho = np.sqrt(x[0] ** 2 + x[1] ** 2)
        core = (rho - R) ** 2
        if kind == "tube_I2xS1":
            # circle thickened in-plane, boxed along the remaining axes
            mask = core <= r * r
            for k, c in enumerate(x[2:]):
                half = self_extent(shape, k)
                mask &= np.abs(c) <= half
            return mask
        for c in x[2:]:
            core = core + c * c
        return core <= r * r
    if kind in ("S2xB2", "tube_IxS2"):
        R, r = shape.radii
        rho = np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        core = (rho - R) ** 2
        if kind == "tube_IxS2":
            mask = core <= r * r
            for k, c in enumerate(x[3:]):
                mask &= np.abs(c) <= self_extent(shape, k)
            return mask
        for c in x[3:]:
            core = core + c * c
        return core <= r * r
    if kind in ("torus_shell", "T2xB2", "tube_IxT2"):
        R1, R2, r = shape.radii
        rho = np.sqrt(x[0] ** 2 + x[1] ** 2)
        torus_dist = np.sqrt((rho - R1) ** 2 + x[2] ** 2)
        core = (torus_dist - R2) ** 2
        if kind == "tube_IxT2":
            mask = core <= r * r
            for k, c in enumerate(x[3:]):
                mask &= np.abs(c) <= self_extent(shape, k)
            return mask
        for c in x[3:]:
            core = core + c * c
        return core <= r * r
    raise ValueError(f"unknown implicit shape kind {kind!r}")


def self_extent(shape: ImplicitShape, k: int) -> float:
    """Half-width of the k-th interval factor of a tube kind (default 1.5)."""
    return shape.extents[k] if k < len(shape.extents) else 1.5


def _check_interior(shape: ImplicitShape, dims) -> None:
    ndim = len(dims)
    reach = shape.axis_reach(ndim)
    perm = shape.orientation or tuple(range(ndim))
    for k in range(ndim):
        axis = perm[k]
        c, d, b = shape.center[axis], dims[axis], reach[k]
        if c - b < 1 or c + b > d - 2:
            raise PlacementError(
                f"shape at {shape.center} reaches {b:.1f} along axis {axis}, "
                f"leaving no interior margin in dims {tuple(dims)}"
            )


def rasterize_implicit(g: BinaryGrid, s: ImplicitShape, value: int = 1) -> BinaryGrid:
    """Set voxels satisfying the shape's implicit inequality to ``value``.

    The shape's bounding box must stay at least one voxel away from every
    face of the grid so cut-outs remain interior.
    """
    if len(s.center) != g.ndim:
        raise ValueError(f"shape center {s.center} does not match grid dims {g.dims}")
    _check_interior(s, g.dims)
    mask = _implicit_mask(s, g.dims)
    g.data[mask] = bool(value)
    return g


# ---------------------------------------------------------------------------
# parametric curves and tubes

MAX_SAMPLE_SPACING = 0.5


@dataclass(frozen=True)
class ParametricCurve:
    """A densely sampled polyline, optionally closed."""

    kind: str
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
    return ParametricCurve("segment_chain", p0 + t * (p1 - p0), closed=False)


def make_polyline(points, closed: bool = False) -> ParametricCurve:
    """Chain the given waypoints, resampling each leg densely."""
    pts = [np.asarray(p, float) for p in points]
    legs = list(zip(pts[:-1], pts[1:])) + ([(pts[-1], pts[0])] if closed else [])
    out = [pts[0]]
    for a, b in legs:
        n = _curve_samples(float(np.linalg.norm(b - a)))
        t = np.linspace(0.0, 1.0, n)[1:, None]
        out.extend(a + t * (b - a))
    if closed:
        out = out[:-1]
    return ParametricCurve("custom", np.asarray(out), closed=closed)


def make_circle(center, radius: float, plane: tuple[int, int] = (0, 1)) -> ParametricCurve:
    """A circle of the given radius in the chosen coordinate plane."""
    center = np.asarray(center, float)
    n = _curve_samples(2 * math.pi * radius)
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    pts = np.tile(center, (n, 1))
    pts[:, plane[0]] += radius * np.cos(t)
    pts[:, plane[1]] += radius * np.sin(t)
    return ParametricCurve("circle", pts, closed=True)


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
    return ParametricCurve("trefoil", pts, closed=True)


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


def rasterize_tube(
    g: BinaryGrid, c: ParametricCurve, tube_radius: float, value: int = 1
) -> BinaryGrid:
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
        g.data[tuple(lo[a + hit, k] + o for k, o in enumerate(pos))] = bool(value)
    return g


# ---------------------------------------------------------------------------
# boundary connected sums

@dataclass(frozen=True)
class CompositeShape:
    """Solid parts joined by straight bridge tubes (a boundary-sum carving)."""

    parts: tuple[ImplicitShape, ...]
    bridges: tuple[tuple[tuple[float, ...], tuple[float, ...], float], ...]
    label: BettiVector


def boundary_sum_carve(
    a: ImplicitShape, b: ImplicitShape, bridge_radius: float, ndim: int | None = None
) -> CompositeShape:
    """Join two disjoint solids with a straight tube along their center line.

    The tube runs from just inside the b-facing wall of ``a`` to just inside
    the a-facing wall of ``b``, so it meets each part in one contractible
    patch and never threads a hole or plugs a cavity.  The composite then has
    the homotopy type of the wedge of the parts: reduced Betti numbers add.
    """
    if bridge_radius <= 0:
        raise ValueError(f"bridge radius must be positive, got {bridge_radius}")
    n = ndim or len(a.center)
    ca = np.asarray(a.center, dtype=np.float64)
    cb = np.asarray(b.center, dtype=np.float64)
    gap = float(np.linalg.norm(cb - ca))
    if gap == 0.0:
        raise PlacementError("cannot bridge shapes with identical centers")
    u = (cb - ca) / gap
    ts = np.arange(0.0, gap, 0.05)
    pts = ca + ts[:, None] * u
    in_a = implicit_inside(a, pts)
    in_b = implicit_inside(b, pts)
    if (in_a & in_b).any():
        raise PlacementError("shapes overlap along their center line")
    if not in_a.any() or not in_b.any():
        raise PlacementError("center line misses one of the shapes")
    inset = min(1.0, bridge_radius)
    t_start = float(ts[in_a].max()) - inset
    t_end = float(ts[in_b].min()) + inset
    if t_start >= t_end:
        raise PlacementError("shapes too close together to bridge cleanly")
    p_start = tuple(ca + t_start * u)
    p_end = tuple(ca + t_end * u)
    la = embedded_label(a.kind, n)
    lb = embedded_label(b.kind, n)
    betti = (1,) + tuple(la.betti[k] + lb.betti[k] for k in range(1, 4))
    euler = betti[0] - betti[1] + betti[2] - betti[3]
    return CompositeShape(
        parts=(a, b),
        bridges=((p_start, p_end, float(bridge_radius)),),
        label=BettiVector.of(betti, euler),
    )


def rasterize_composite(g: BinaryGrid, comp: CompositeShape, value: int = 1) -> BinaryGrid:
    """Rasterize parts and bridges; error if a bridge crosses unrelated content.

    With ``value=0`` the composite is carved out of a solid, in which case
    "unrelated content" means previously carved cavities.
    """
    existing = (g.data if value else ~g.data).copy()
    scratch = BinaryGrid(np.zeros_like(g.data))
    for part in comp.parts:
        rasterize_implicit(scratch, part, 1)
    parts_mask = scratch.data.copy()
    for p0, p1, r in comp.bridges:
        rasterize_tube(
            scratch, make_segment(np.asarray(p0), np.asarray(p1)), r, 1
        )
    bridge_mask = scratch.data & ~parts_mask
    if (bridge_mask & existing).any():
        raise PlacementError("bridge tube intersects existing content")
    g.data[scratch.data] = bool(value)
    return g


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


def _offset_draws(rng: np.random.Generator, low: int, highs, trials: int):
    """Yield ``trials`` offsets, each axis drawn uniformly from ``[low, high]``.

    The offsets are drawn in growing blocks.  A block draw consumes the
    generator exactly as one scalar ``rng.integers(low, high + 1)`` per axis
    and offset would, so the offsets are the same as drawn one at a time.
    """
    ends = np.asarray(highs) + 1
    block = 8
    while trials > 0:
        k = min(block, trials)
        yield from map(tuple, rng.integers(low, ends, size=(k, len(ends))).tolist())
        trials -= k
        block = min(4 * block, 4096)


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


def blit(sample: BinaryGrid, obj: BinaryGrid, offset: tuple[int, ...], value: int = 1) -> None:
    """Write the object's foreground into the sample at the given offset."""
    _check_same_ndim(sample, obj)
    region = tuple(slice(o, o + d) for o, d in zip(offset, obj.dims))
    if value:
        sample.data[region] |= obj.data
    else:
        sample.data[region] &= ~obj.data
