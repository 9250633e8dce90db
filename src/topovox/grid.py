"""N-dimensional binary voxel grids and connectivity primitives.

A :class:`BinaryGrid` is a bit-valued image in 2, 3, or 4 dimensions.
Conventions used throughout the package:

* storage is row-major with the last axis fastest,
* every voxel outside the index range is background,
* foreground connectivity defaults to ``full`` adjacency (all 3^n - 1
  neighbors), background to ``face`` adjacency (2n neighbors), matching the
  closed-cube model used by the homology engine.
"""
from __future__ import annotations

import numpy as np

Coord = tuple[int, ...]

SUPPORTED_NDIM = (2, 3, 4)


class UnsupportedDimensionError(ValueError):
    """Raised when a grid or query is not 2-, 3-, or 4-dimensional."""


class BinaryGrid:
    """A binary voxel image backed by a boolean array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=bool)
        if arr.ndim not in SUPPORTED_NDIM:
            raise UnsupportedDimensionError(
                f"grids must have 2 to 4 dimensions, got {arr.ndim}"
            )
        if any(s < 1 for s in arr.shape):
            raise ValueError(f"every axis must have length >= 1, got {arr.shape}")
        self.data = arr

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dims(self) -> Coord:
        return self.data.shape

    def copy(self) -> "BinaryGrid":
        return BinaryGrid(self.data.copy())

    def complement(self) -> "BinaryGrid":
        return BinaryGrid(~self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryGrid):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"BinaryGrid(dims={self.dims}, ones={count_ones(self)})"


def new_grid(dims, fill: int = 0) -> BinaryGrid:
    """Create a grid of the given shape with every voxel set to ``fill``."""
    dims = tuple(int(d) for d in dims)
    if len(dims) not in SUPPORTED_NDIM:
        raise UnsupportedDimensionError(
            f"grids must have 2 to 4 dimensions, got {len(dims)}"
        )
    if any(d < 1 for d in dims):
        raise ValueError(f"every axis must have length >= 1, got {dims}")
    return BinaryGrid(np.full(dims, bool(fill), dtype=bool))


def _shifted(a: np.ndarray, off: Coord) -> np.ndarray:
    """Translate ``a`` by ``off``, filling vacated cells with 0."""
    out = np.zeros_like(a)
    src = []
    dst = []
    for o, s in zip(off, a.shape):
        if abs(o) >= s:
            return out
        src.append(slice(max(0, -o), s - max(0, o)))
        dst.append(slice(max(0, o), s + min(0, o)))
    out[tuple(dst)] = a[tuple(src)]
    return out


def count_ones(g: BinaryGrid) -> int:
    """Number of 1-valued voxels (the sample's hypervolume)."""
    return int(np.count_nonzero(g.data))


def _pair_slices(off: Coord, shape: tuple[int, ...]):
    """Slices selecting every in-range pair ``(x, x + off)``: ``x``, then ``x + off``."""
    src = tuple(slice(max(0, -o), max(0, s - max(0, o))) for o, s in zip(off, shape))
    dst = tuple(slice(max(0, o), max(0, s + min(0, o))) for o, s in zip(off, shape))
    return src, dst


def _run_forest(mask: np.ndarray, links) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over the runs of the true cells of ``mask``.

    ``links`` yields ``(off, joined)`` pairs, where ``joined`` is shaped like
    the overlap ``mask[_pair_slices(off, mask.shape)[0]]`` and marks which
    pairs ``(x, x + off)`` of true cells are linked.  Returns ``run``, the
    run of each cell (meaningful at the true cells only), and ``parent``,
    per run the lowest-numbered run of its component, so the root runs are
    those whose parent is themselves.

    The work follows the runs and the run pairs, not the cells.  Cells
    linked along the first axis, by the offset ``(1, 0, ..., 0)``, form a
    run down a column: ``cont`` marks a cell linked to the one a plane up.
    The runs are numbered column by column: one vectorized add per plane
    of the first axis counts the run starts down every column at once, and
    each column then adds the runs of the columns before it.  Every other
    offset joins runs.  A link whose predecessor one plane up is also a
    link, with both ends continuing their runs, joins the same run pair as
    that predecessor and is skipped, so the run ids are read only where
    the pair changes, at the link's flat position and that position plus
    the offset's flat step.
    Overlapping runs need not be linked (a 1-skeleton edge may be missing
    between two present vertices), so the links themselves decide.  Every
    round then hooks each root run onto the smallest root run it shares a
    link with (``np.minimum.at``), pointer jumping points every run at its
    root, and each link's ends move to their roots; a link whose ends meet
    drops out.  Hooking only ever lowers a parent, so no cycle can form, and
    each round removes every root that has a smaller linked root.  The link
    ends and ``parent`` are ``np.intp``, numpy's index type, so no gather
    converts its indices.
    """
    first = (1,) + (0,) * (mask.ndim - 1)
    cont = np.zeros(mask.shape, dtype=bool)
    cross = []
    for off, joined in links:
        if tuple(off) == first:
            cont[1:] |= joined
        else:
            cross.append((off, joined))
    run = np.greater(mask, cont).astype(np.int32)  # the run starts
    for i in range(1, run.shape[0]):
        np.add(run[i], run[i - 1], out=run[i])
    # the last plane holds each column's count of runs (copied: ``run``
    # changes below); a column's runs follow those of the earlier columns
    counts = run[-1].copy()
    base = np.cumsum(counts, dtype=np.int32).reshape(counts.shape)
    runs = int(base.flat[-1])
    base -= counts
    base -= 1
    run += base
    us, vs = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    kept = np.zeros(mask.shape, dtype=bool)
    flat = run.reshape(-1)
    for off, joined in cross:
        src, dst = _pair_slices(off, mask.shape)
        # a link is kept unless it repeats the run pair one plane up:
        # ``joined > repeat`` is ``joined & ~repeat`` in one pass
        repeat = joined[:-1] & cont[src][1:]
        repeat &= cont[dst][1:]
        new_pair = kept[src]
        new_pair[:1] = joined[:1]
        np.greater(joined[1:], repeat, out=new_pair[1:])
        p = np.flatnonzero(kept)
        kept[src] = False
        us.append(flat[p])
        # ``kept`` is a contiguous bool array: its byte strides are flat steps
        vs.append(flat[p + sum(o * s for o, s in zip(off, kept.strides))])
    u = np.concatenate(us).astype(np.intp)
    v = np.concatenate(vs).astype(np.intp)
    del cont, kept, us, vs  # the rounds need only the link ends
    parent = np.arange(runs, dtype=np.intp)
    while u.size:
        # both ends are roots, so only the larger one can move
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        u, v = parent[u], parent[v]
        open_ = u != v
        u, v = u[open_], v[open_]
    return run, parent


def component_count(mask: np.ndarray, links) -> int:
    """Number of components of the true cells of ``mask`` under ``links``.

    The root runs of the run-level union-find (:func:`_run_forest`), runs
    down the first axis, counted without expanding them to cells.
    """
    _, parent = _run_forest(mask, links)
    return int(np.count_nonzero(parent == np.arange(parent.size)))
