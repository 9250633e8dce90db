"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's algorithms: components come
from plain BFS, cell counts from enumerating every voxel's closed faces into
a set, and low-dimensional Betti numbers from complement-counting duality
plus the Euler identity.  Slow and simple on purpose.
"""
from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from topovox.grid import UnsupportedDimensionError
from topovox.noise import _AMPLITUDE, _GRADS, _fade, _perm_table


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


def bounded_background_components(data: np.ndarray) -> int:
    """Background components (face adjacency) not touching the grid border."""
    bg = ~data
    total = bfs_components(bg, "face")
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
        if sum(abs(o) for o in off) == 1
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
    unbounded = bfs_components(np.asarray(seen), "face")
    return total - unbounded


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


def select_move_reference(g, noise, cfg, move_filter=None):
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
    dist = cfg.max_move_distance
    offsets = [
        off
        for off in itertools.product(range(-dist, dist + 1), repeat=g.ndim)
        if any(off)
    ]
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
        if move_filter is not None and not move_filter(g, src, best):
            continue
        if not is_local_flip_safe(g, src, 0, cfg.safety_radius):
            rej_rm += 1
            continue
        g.data[src] = False
        placeable = is_local_flip_safe(g, best, 1, cfg.safety_radius)
        g.data[src] = True
        if not placeable:
            rej_pl += 1
            continue
        return (src, best), rej_rm, rej_pl
    return None, rej_rm, rej_pl


def stamp_tube_reference(data: np.ndarray, curve, r: float, value: int = 1) -> None:
    """Tube stamping one segment at a time, as it was before batching.

    Each segment gets its own box (floor/ceil of its endpoints' bounding box
    grown by ``r``, clipped to the grid) and its own meshgrid, and the
    capsule mask is OR-ed in (``value=1``) or cleared (``value=0``).
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
        mask = dist2 <= r * r
        if value:
            data[region] |= mask
        else:
            data[region] &= ~mask


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
# ``noise.perlin_value``; ``noise_field_flat`` is the matching field.
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


def noise_field_flat(dims, scale, seed, octaves=1, persistence=0.5, lacunarity=2.0):
    """``noise.noise_field(...).values`` from a flat (voxels, n) point array."""
    dims = tuple(int(d) for d in dims)
    coords = np.stack(
        [c.ravel() for c in np.meshgrid(*[np.arange(d) for d in dims], indexing="ij")],
        axis=1,
    ).astype(np.float64)
    total = np.zeros(coords.shape[0], dtype=np.float64)
    amp, freq, norm = 1.0, 1.0 / scale, 0.0
    for _ in range(octaves):
        total += amp * perlin_array_flat(coords * freq, seed)
        norm += amp
        amp *= persistence
        freq *= lacunarity
    return (total / norm).reshape(dims)
