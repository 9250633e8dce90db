"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's algorithms: components come
from plain BFS, cell counts from enumerating every voxel's closed faces into
a set, and low-dimensional Betti numbers from complement-counting duality
plus the Euler identity.  Slow and simple on purpose.  The exceptions are
:func:`gf2_rank` and :func:`eliminate_block`, which reduce every boundary
map with the engine's sparse GF(2) elimination instead of collapsing first
or reading Betti numbers off components, as the engine and the flip gate do,
and :func:`interior_betti`, which runs the engine on the padded complement.

The last section holds code only the tests call: the doubled lattice
spread from the voxels with its cell counts, the explicit cubical complex
with its boundary matrices, per-cell union-find roots and component
labels, the boundary voxel set and the polyline curve builder.
"""
from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from topovox.grid import (
    Adjacency,
    BinaryGrid,
    Coord,
    UnsupportedDimensionError,
    _pair_slices,
    _run_forest,
    neighbor_offsets,
)
from topovox.homology import (
    BettiVector,
    betti_numbers,
    _cell_dim_array,
    _core_ranks,
    _rank_columns,
)
from topovox.morphology import StructuringElement, ball, dilate, erode
from topovox.noise import _AMPLITUDE, _GRADS, _fade, _perm_table
from topovox.seeds import ParametricCurve, PlacementError, PlacementExhaustedError, _curve_samples


def bfs_components(data: np.ndarray, adjacency: str) -> int:
    """Number of foreground components under face or full adjacency."""
    if adjacency == "face":
        offsets = [
            off
            for off in itertools.product((-1, 0, 1), repeat=data.ndim)
            if sum(abs(o) for o in off) == 1
        ]
    else:
        offsets = [
            off
            for off in itertools.product((-1, 0, 1), repeat=data.ndim)
            if any(off)
        ]
    seen = np.zeros(data.shape, dtype=bool)
    count = 0
    for start in map(tuple, np.argwhere(data)):
        if seen[start]:
            continue
        count += 1
        queue = deque([start])
        seen[start] = True
        while queue:
            cur = queue.popleft()
            for off in offsets:
                nxt = tuple(c + o for c, o in zip(cur, off))
                if all(0 <= c < s for c, s in zip(nxt, data.shape)) and data[nxt] and not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
    return count


def chi_bruteforce(data: np.ndarray) -> int:
    """Euler characteristic by enumerating distinct closed-cube faces."""
    cells: set[tuple[int, ...]] = set()
    for v in map(tuple, np.argwhere(data)):
        for delta in itertools.product((0, 1, 2), repeat=data.ndim):
            cells.add(tuple(2 * c + d for c, d in zip(v, delta)))
    chi = 0
    for cell in cells:
        k = sum(c % 2 for c in cell)
        chi += (-1) ** k
    return chi


def cell_counts_bruteforce(data: np.ndarray) -> tuple[int, ...]:
    """Cell counts per dimension by direct face enumeration."""
    cells: set[tuple[int, ...]] = set()
    for v in map(tuple, np.argwhere(data)):
        for delta in itertools.product((0, 1, 2), repeat=data.ndim):
            cells.add(tuple(2 * c + d for c, d in zip(v, delta)))
    counts = [0] * (data.ndim + 1)
    for cell in cells:
        counts[sum(c % 2 for c in cell)] += 1
    return tuple(counts)


def bounded_background_components(data: np.ndarray, adjacency: str = "face") -> int:
    """Background components under ``adjacency`` not touching the grid border."""
    bg = ~data
    total = bfs_components(bg, adjacency)
    # flood from the border to count unbounded ones
    seen = np.zeros(data.shape, dtype=bool)
    queue: deque = deque()
    for coord in map(tuple, np.argwhere(bg)):
        if any(c == 0 or c == s - 1 for c, s in zip(coord, data.shape)):
            if not seen[coord]:
                seen[coord] = True
                queue.append(coord)
    offsets = [
        off
        for off in itertools.product((-1, 0, 1), repeat=data.ndim)
        if any(off) and (adjacency == "full" or sum(abs(o) for o in off) == 1)
    ]
    border = 0
    while queue:
        border += 0  # traversal only; component count comes after
        cur = queue.popleft()
        for off in offsets:
            nxt = tuple(c + o for c, o in zip(cur, off))
            if all(0 <= c < s for c, s in zip(nxt, data.shape)) and bg[nxt] and not seen[nxt]:
                seen[nxt] = True
                queue.append(nxt)
    unbounded = bfs_components(np.asarray(seen), adjacency)
    return total - unbounded


def interior_betti(data: np.ndarray) -> tuple[int, int, int, int]:
    """Betti numbers of the interior of the foreground, padded to four.

    The interior is the other reading of a voxel image: face adjacency for
    the foreground and full adjacency for the background.  By Alexander
    duality its b_k is the reduced b_(n-1-k) of the closed complement,
    padded by one voxel of background so that the outside is one piece:
    one engine call, reduced, with the indices reversed.  b_n is 0.
    """
    n = data.ndim
    padded = np.pad(~np.asarray(data, dtype=bool), 1, constant_values=True)
    dual = betti_numbers(BinaryGrid(padded), reduced=True).betti
    return tuple(dual[n - 1 - k] if k < n else 0 for k in range(4))


def betti_oracle(data: np.ndarray) -> tuple[int, ...]:
    """Betti numbers for 2D/3D grids via duality and the Euler identity.

    In 2D: beta1 equals the number of enclosed background components.  In 3D:
    beta2 counts enclosed background components and beta1 follows from the
    Euler identity.  Not applicable in 4D (beta1/beta2 are not separable this
    way), so callers restrict to ndim <= 3.
    """
    if not data.any():
        return (0,) * (data.ndim + 1)
    b0 = bfs_components(data, "full")
    chi = chi_bruteforce(data)
    holes = bounded_background_components(data)
    if data.ndim == 2:
        # chi = b0 - b1 must agree with the hole count
        assert chi == b0 - holes, (chi, b0, holes)
        return (b0, holes, 0)
    if data.ndim == 3:
        b2 = holes
        b1 = b0 + b2 - chi
        return (b0, b1, b2, 0)
    raise ValueError("betti_oracle supports 2D and 3D only")


def gf2_rank(matrix) -> int:
    """Rank of a dense 0/1 matrix over GF(2) by column elimination."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    bits = np.asarray(m, dtype=np.uint8) & 1
    rank, _ = _rank_columns(np.flatnonzero(col).tolist() for col in bits.T)
    return rank


def eliminate_block(data: np.ndarray) -> BettiVector:
    """Betti vector of a small block by direct elimination of every d_k."""
    n = data.ndim
    present = _cell_lattice(data)
    c = _cell_counts(present)
    ranks = _core_ranks(present, _cell_dim_array(present.shape), range(n, 0, -1))
    beta = tuple(int(c[k] - ranks[k] - ranks[k + 1]) for k in range(n + 1))
    chi = int(sum((-1) ** k * c[k] for k in range(n + 1)))
    return BettiVector.of(beta, chi)


def flip_safe_reference(g, c, new_value) -> bool:
    """The flip gate's verdict from four block solves, as the gate once was.

    Eliminates every boundary map of the 3^n block before and after the
    flip and of both complements, and compares the Betti vectors.  The gate
    decides from the centre voxel's attachment sets instead; on 3^n blocks
    the two agree, which the gate tests check.
    """
    from topovox.grid import extract_neighborhood

    before = extract_neighborhood(g, c, 1).data
    after = before.copy()
    after[(1,) * before.ndim] = bool(new_value)
    return eliminate_block(before) == eliminate_block(after) and (
        eliminate_block(~before) == eliminate_block(~after)
    )


def select_move_reference(g, noise):
    """Deform move selection by a full rescan, as it was before the front.

    Rebuilds the face-boundary mask and sorts every boundary voxel by
    (noise, raster) on each call, then scans each source's offsets in
    Python.  Returns the accepted (source, target) pair, or None, plus the
    removal and placement rejections passed on the way.  The flip gate is
    the library's: this oracle checks move selection, not the gate.
    """
    from topovox.homology import is_local_flip_safe

    a = g.data
    rej_rm = rej_pl = 0
    has_bg = np.zeros_like(a)
    for ax in range(a.ndim):
        for d in (-1, 1):
            # a voxel is boundary if its face neighbour is empty or outside
            shifted = np.zeros_like(a)
            src = [slice(None)] * a.ndim
            dst = [slice(None)] * a.ndim
            src[ax] = slice(max(0, d), a.shape[ax] + min(0, d))
            dst[ax] = slice(max(0, -d), a.shape[ax] - max(0, d))
            shifted[tuple(dst)] = a[tuple(src)]
            has_bg |= ~shifted
    srcs = np.argwhere(a & has_bg)
    if srcs.size == 0:
        return None, rej_rm, rej_pl
    src_noise = noise.values[tuple(srcs.T)]
    order = np.lexsort(tuple(srcs.T[::-1]) + (src_noise,))
    offsets = [off for off in itertools.product((-1, 0, 1), repeat=g.ndim) if any(off)]
    for k in order:
        src = tuple(int(x) for x in srcs[k])
        best = None
        best_noise = float(src_noise[k])
        for off in offsets:
            tgt = tuple(s + o for s, o in zip(src, off))
            if not g.in_range(tgt) or a[tgt]:
                continue
            v = float(noise.values[tgt])
            if v > best_noise or (v == best_noise and best is not None and tgt < best):
                best, best_noise = tgt, v
        if best is None:
            continue
        if not is_local_flip_safe(g, src, 0):
            rej_rm += 1
            continue
        g.data[src] = False
        placeable = is_local_flip_safe(g, best, 1)
        g.data[src] = True
        if not placeable:
            rej_pl += 1
            continue
        return (src, best), rej_rm, rej_pl
    return None, rej_rm, rej_pl


def stamp_tube_reference(data: np.ndarray, curve, r: float) -> None:
    """Tube stamping one segment at a time, as it was before batching.

    Each segment gets its own box (floor/ceil of its endpoints' bounding box
    grown by ``r``, clipped to the grid) and its own meshgrid, and the
    capsule mask is OR-ed in.
    """
    for p0, p1 in curve.segments():
        lo = np.maximum(np.floor(np.minimum(p0, p1) - r).astype(int), 0)
        hi = np.minimum(np.ceil(np.maximum(p0, p1) + r).astype(int) + 1, data.shape)
        if np.any(lo >= hi):
            continue
        grids = np.meshgrid(
            *[np.arange(a, b, dtype=np.float64) for a, b in zip(lo, hi)], indexing="ij"
        )
        d = p1 - p0
        rel = [gx - c for gx, c in zip(grids, p0)]
        l2 = float(np.dot(d, d))
        if l2 == 0.0:
            dist2 = sum(c * c for c in rel)
        else:
            t = sum(c * dc for c, dc in zip(rel, d)) / l2
            np.clip(t, 0.0, 1.0, out=t)
            dist2 = sum((c - t * dc) ** 2 for c, dc in zip(rel, d))
        region = tuple(slice(a, b) for a, b in zip(lo, hi))
        data[region] |= dist2 <= r * r


def place_with_spacing_reference(
    sample, obj, spacing: int, seed: int = 0, max_trials: int = 1000, margin: int = 0
) -> tuple[int, ...]:
    """Placement as it was before the clearance zone.

    The whole scene is dilated by ``ball(spacing)``, offsets are drawn one
    scalar per axis, every draw is tested (repeats too), and the search gives
    up only after ``max_trials`` draws.
    """
    if spacing < 1:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if any(o > s - 2 * margin for o, s in zip(obj.dims, sample.dims)):
        raise PlacementError(
            f"object dims {obj.dims} do not fit in sample dims {sample.dims}"
        )
    if sample.data.any():
        blocked = dilate(sample, ball(spacing, sample.ndim)).data
    else:
        blocked = np.zeros_like(sample.data)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    highs = [s - o - margin for s, o in zip(sample.dims, obj.dims)]
    for _ in range(max_trials):
        off = tuple(
            int(rng.integers(margin, hi + 1)) for hi in highs
        )
        region = tuple(slice(o, o + d) for o, d in zip(off, obj.dims))
        if not (blocked[region] & obj.data).any():
            return off
    raise PlacementExhaustedError(
        f"no feasible offset after {max_trials} trials at spacing {spacing}"
    )


def _axis_slices(ndim: int, ax: int, sl: slice) -> tuple[slice, ...]:
    full = [slice(None)] * ndim
    full[ax] = sl
    return tuple(full)


def coface_counts_reference(present: np.ndarray) -> np.ndarray:
    """Number of present cofaces of every doubled-lattice cell.

    A coface of a cell exists only along axes where its coordinate is even;
    the two candidates sit at +-1 on that axis.
    """
    cnt = np.zeros(present.shape, dtype=np.int8)
    nd = present.ndim
    for ax, s in enumerate(present.shape):
        odd = _axis_slices(nd, ax, slice(1, s, 2))
        cnt[_axis_slices(nd, ax, slice(0, s - 1, 2))] += present[odd]
        cnt[_axis_slices(nd, ax, slice(2, s, 2))] += present[odd]
    return cnt


def sweep_collapse_reference(present: np.ndarray, par: np.ndarray) -> np.ndarray:
    """The one-sweep collapse as it was first written, mutating ``present``.

    Along each axis, hyperplane by hyperplane and from the top dimension
    down, every cell whose only coface is its neighbour one step up the
    axis is removed with that coface.  The in-plane coface counts are
    recomputed for every dimension of every hyperplane.  Returns the number
    of removed pairs per coface dimension.
    """
    nd = present.ndim
    pairs = np.zeros(nd + 1, dtype=np.int64)
    for ax in range(nd):
        p, q = np.moveaxis(present, ax, 0), np.moveaxis(par, ax, 0)
        for j in range(0, p.shape[0] - 1, 2):
            plane, up = p[j], p[j + 1]
            candidates = plane & up
            if j:
                candidates &= ~p[j - 1]
            for k in range(nd - 1, -1, -1):
                free = candidates & (q[j] == k) & (coface_counts_reference(plane) == 0)
                if free.any():
                    pairs[k + 1] += np.count_nonzero(free)
                    plane &= ~free
                    up &= ~free
    return pairs


def component_roots_reference(mask: np.ndarray, links) -> np.ndarray:
    """Cell-level union-find, as it was before cells were merged into runs.

    Every true cell of ``mask`` gets its raster number; each round hooks
    every root onto the smallest root it shares a link with, then pointer
    jumping points every cell at its root.  Returns, per true cell, the
    smallest number in its component.
    """
    n = int(np.count_nonzero(mask))
    ids = np.zeros(mask.shape, dtype=np.int32)
    ids[mask] = np.arange(n, dtype=np.int32)
    us, vs = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for off, joined in links:
        src = tuple(slice(max(0, -o), max(0, s - max(0, o))) for o, s in zip(off, mask.shape))
        dst = tuple(slice(max(0, o), max(0, s + min(0, o))) for o, s in zip(off, mask.shape))
        us.append(ids[src][joined])
        vs.append(ids[dst][joined])
    u, v = np.concatenate(us), np.concatenate(vs)
    parent = np.arange(n, dtype=np.int32)
    while u.size:
        pu, pv = parent[u], parent[v]
        low = np.minimum(pu, pv)
        np.minimum.at(parent, pu, low)
        np.minimum.at(parent, pv, low)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        open_ = parent[u] != parent[v]
        u, v = u[open_], v[open_]
    return parent


def squash_reference(data: np.ndarray) -> np.ndarray | None:
    """Slab by slab: keep a slab unless it equals the one before it, then drop
    empty slabs from both ends; None when nothing is left."""
    for ax in range(data.ndim):
        slabs = list(np.moveaxis(data, ax, 0))
        kept = [s for i, s in enumerate(slabs) if i == 0 or not np.array_equal(s, slabs[i - 1])]
        while kept and not kept[0].any():
            kept.pop(0)
        while kept and not kept[-1].any():
            kept.pop()
        if not kept:
            return None
        data = np.moveaxis(np.stack(kept), 0, ax)
    return data


# The flat noise evaluator the library used before its per-axis one: every
# query point and lattice corner is hashed, faded and dotted on its own, and
# the row dot is numpy's einsum.  It shares only the constants (gradient
# tables, permutation, fade, amplitude) and is the bit-exact reference for
# ``noise._perlin_grid``; ``noise_field_flat`` is the matching field.
def perlin_array_flat(points: np.ndarray, seed: int) -> np.ndarray:
    """Noise values for an (m, n) array of query points."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[1]
    if n not in _GRADS:
        raise UnsupportedDimensionError(f"noise supports 2-4 dimensions, got {n}")
    perm = _perm_table(seed)
    grads = _GRADS[n]
    base = np.floor(pts).astype(np.int64)
    frac = pts - base
    base &= 255
    w = _fade(frac)

    accum = np.zeros(pts.shape[0], dtype=np.float64)
    for corner in range(1 << n):
        bits = [(corner >> ax) & 1 for ax in range(n)]
        h = perm[base[:, 0] + bits[0]]
        for ax in range(1, n):
            h = perm[h + base[:, ax] + bits[ax]]
        g = grads[h % len(grads)]
        offs = frac - np.asarray(bits, dtype=np.float64)
        dot = np.einsum("ij,ij->i", g, offs)
        weight = np.ones(pts.shape[0], dtype=np.float64)
        for ax in range(n):
            weight *= w[:, ax] if bits[ax] else (1.0 - w[:, ax])
        accum += weight * dot
    return accum / _AMPLITUDE[n]


def noise_field_flat(dims, scale, seed):
    """``noise.noise_field(...).values`` from a flat (voxels, n) point array."""
    dims = tuple(int(d) for d in dims)
    coords = np.stack(
        [c.ravel() for c in np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")],
        axis=1,
    ).astype(np.float64)
    return perlin_array_flat(coords * (1.0 / scale), seed).reshape(dims)


# ---------------------------------------------------------------------------
# test-only code: lattices, complexes, component labels, boundary voxels,
# polylines

def _cell_lattice(data: np.ndarray) -> np.ndarray:
    """Boolean presence array over the doubled lattice of ``data``.

    The closed cube of a voxel covers the 3^n lattice points around its
    centre, so the voxels are placed at the odd points and spread by one
    step along each axis in turn.  The engine builds its parity classes
    without this lattice; tests compare them to its ``parity::2`` slices.
    """
    nd = data.ndim
    present = np.zeros(tuple(2 * s + 1 for s in data.shape), dtype=bool)
    present[(slice(1, None, 2),) * nd] = data
    for ax in range(nd):
        odd = present[_axis_slices(nd, ax, slice(1, None, 2))]
        present[_axis_slices(nd, ax, slice(0, -1, 2))] |= odd
        present[_axis_slices(nd, ax, slice(2, None, 2))] |= odd
    return present


def _cell_counts(present: np.ndarray) -> np.ndarray:
    """Number of present cells per dimension, one parity class at a time."""
    counts = np.zeros(present.ndim + 1, dtype=np.int64)
    for parity in itertools.product((0, 1), repeat=present.ndim):
        cls = present[tuple(slice(p, None, 2) for p in parity)]
        counts[sum(parity)] += np.count_nonzero(cls)
    return counts


class CubicalComplex:
    """The cubical complex induced by the 1-voxels of a grid.

    Cells are identified by doubled-lattice coordinates; per dimension they
    are listed in lexicographic coordinate order, and boundary incidence is
    reported against that order.
    """

    def __init__(self, grid: BinaryGrid):
        self.dims = grid.dims
        self.lattice = _cell_lattice(grid.data)
        self._par = _cell_dim_array(self.lattice.shape)
        counts = np.bincount(
            self._par[self.lattice], minlength=grid.ndim + 1
        )
        self.cell_counts: tuple[int, ...] = tuple(int(c) for c in counts)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def cells(self, k: int) -> np.ndarray:
        """Doubled-lattice coordinates of the k-cells, lexicographically."""
        return np.argwhere(self.lattice & (self._par == k))

    def boundary_columns(self, k: int) -> list[list[int]]:
        """For each k-cell, the indices of its facets among the (k-1)-cells."""
        if k < 1 or k > self.ndim:
            return []
        faces = self.cells(k - 1)
        face_id = {tuple(c): i for i, c in enumerate(faces)}
        cols = []
        for cell in self.cells(k):
            col = []
            for ax in range(self.ndim):
                if cell[ax] % 2 == 1:
                    for d in (-1, 1):
                        f = list(cell)
                        f[ax] += d
                        col.append(face_id[tuple(f)])
            cols.append(sorted(col))
        return cols

    def boundary_matrix(self, k: int) -> np.ndarray:
        """Dense GF(2) boundary matrix d_k (rows: (k-1)-cells, cols: k-cells)."""
        rows = self.cell_counts[k - 1] if 1 <= k <= self.ndim else 0
        cols = self.boundary_columns(k)
        if rows * len(cols) > 64_000_000:
            raise ValueError("boundary matrix too large to materialize densely")
        mat = np.zeros((rows, len(cols)), dtype=np.uint8)
        for j, col in enumerate(cols):
            for i in col:
                mat[i, j] ^= 1
        return mat


def build_cubical_complex(g: BinaryGrid) -> CubicalComplex:
    """Union of closed unit cubes at the 1-voxels, shared faces identified."""
    return CubicalComplex(g)


def euler_from_cells(c: CubicalComplex) -> int:
    """Euler characteristic as the alternating sum of cell counts."""
    return int(sum((-1) ** k * n for k, n in enumerate(c.cell_counts)))


def component_roots(mask: np.ndarray, links) -> np.ndarray:
    """Per true cell of ``mask``, numbered in raster order, the smallest
    number in its component under ``links``, from the engine's run forest
    (:func:`topovox.grid._run_forest`).

    The roots are the cells whose value equals their own number.  The runs
    ascend, so the first cell of a component's root run is its smallest
    cell, and every cell of a run takes the first cell of its root run.
    """
    starts, parent = _run_forest(mask, links)
    starts = starts[mask]
    first = np.flatnonzero(starts).astype(np.int32)
    return first[parent][np.cumsum(starts, dtype=np.int32) - 1]


def count_roots(roots: np.ndarray) -> int:
    """Number of components in a :func:`component_roots` result."""
    return int(np.count_nonzero(roots == np.arange(roots.size)))


def connected_components(
    g: BinaryGrid, adj: Adjacency = "full"
) -> tuple[int, np.ndarray]:
    """Label foreground components with union-find.

    Returns ``(count, labels)`` where ``labels`` maps each voxel to a
    component id in first-encounter (raster) order; background voxels get -1.
    """
    a = g.data
    links = []
    for off in neighbor_offsets(g.ndim, adj):
        if off > (0,) * g.ndim:  # forward half: each pair is seen once
            src, dst = _pair_slices(off, a.shape)
            links.append((off, a[src] & a[dst]))
    # a component's root is its smallest raster number, the voxel met first
    roots = component_roots(a, links)
    is_root = roots == np.arange(roots.size)
    labels = np.full(a.shape, -1, dtype=np.int64)
    labels[a] = (np.cumsum(is_root) - 1)[roots]
    return int(np.count_nonzero(is_root)), labels


def boundary_voxels(g: BinaryGrid, adj: Adjacency = "face") -> set[Coord]:
    """1-valued voxels with at least one 0-valued neighbor under ``adj``:
    the grid minus its erosion by the unit ball (face) or the full 3^n box.

    Erosion reads out-of-range voxels as background, so voxels on the grid
    border are boundary whenever the adjacency reaches past the edge.
    """
    if adj == "face":
        element = ball(1, g.ndim)
    else:
        element = StructuringElement(np.ones((3,) * g.ndim, dtype=bool), (1,) * g.ndim)
    mask = g.data & ~erode(g, element).data
    return {tuple(int(c) for c in idx) for idx in np.argwhere(mask)}


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
    return ParametricCurve(np.asarray(out), closed=closed)


def block_key(g, c) -> int:
    """The flip gate's key of the 3^n block around ``c``, read from the grid:
    the sliced block, or the zero-padded block where a slice would leave
    the grid."""
    from topovox.grid import extract_neighborhood
    from topovox.homology import _block

    block = _block((3,) * g.ndim)
    if all(1 <= x < s - 1 for x, s in zip(c, g.dims)):
        return block.key(g.data[tuple(slice(x - 1, x + 2) for x in c)])
    return block.key(extract_neighborhood(g, c, 1).data)
