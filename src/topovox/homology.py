"""Exact cubical homology over GF(2) for binary voxel grids.

Every 1-valued voxel contributes a closed unit n-cube; shared faces are
identified once.  Cells live on a doubled coordinate lattice: the cell with
anchor ``a`` spanning the axis subset ``S`` sits at lattice point
``2a + indicator(S)``, so a coordinate is odd exactly along the axes the cell
spans and the cell dimension is the number of odd coordinates.  Faces and
cofaces are unit steps on this lattice, which keeps construction, collapse,
and boundary extraction vectorizable.

Betti numbers satisfy ``beta_k = c_k - rank(d_k) - rank(d_k+1)`` over GF(2),
and a whole grid needs at most one of those ranks.  :func:`betti_numbers`
first squashes the grid: along each axis, every run of equal voxel slabs
is kept as one slab and an empty run at either end is dropped.  Stretching
one coordinate piecewise linearly is a homeomorphism of R^n that maps the
union of the voxels' closed cubes onto the squashed union and the
complement onto its complement, so every number below is unchanged.  The
solid margin of a cube complement squashes to one slab, so a 16^4 cut-out
becomes 7^4 to 9^4 voxels before any lattice is built, and grids that
differ only in placement or margins squash to the same grid.  The result
is memoized per dimension on the squashed grid (:func:`_betti_whole`), so
a squashed grid seen before costs one SHA-256 of its packed bits.

A miss never builds the doubled lattice in 2D and 3D.  The cells are kept
as 2^n contiguous boolean arrays, one per parity class (the axes a cell
spans), each indexed by the cells' anchors (:func:`_cell_classes`).  They
are built from the voxels padded by one empty slab, one axis at a time: a
class that does not span the axis ORs each adjacent pair of slabs, and one
that spans it keeps the voxel slab itself.  ``count_nonzero`` of each class
gives the cell counts and so the Euler characteristic.  beta_0 counts the
components of the 1-skeleton: the all-even class (the vertices) linked by
the n classes odd on one axis (the edges, anchored at their lower ends).
beta_(n-1) counts the bounded face-adjacent components of the complement
(Alexander duality).  Both counts come from
:func:`topovox.grid.component_count`, a union-find whose cost follows runs
and run pairs rather than cells: one ``cumsum`` over the grid numbers the
runs of cells linked along the last axis, the other links are read only
where the pair of runs they join changes, and the components are the root
runs, counted without expanding them to cells.  The Euler identity then
settles 2D and 3D.  In 4D, beta_1 and beta_2 share one unknown,
rank(d_2), and the doubled lattice is interleaved from the same class
arrays (:func:`_interleave`), so one rule decides which cells are present.
The complex is collapsed in one sweep per axis (each free pair adds one to
the rank in its coface's dimension), then d_3 and d_2 of the remaining
core are reduced as sparse columns with rows numbered per dimension, the
pivots of d_3 clearing columns of d_2.  The sweep works on one contiguous
copy of the lattice per axis, builds its per-dimension masks once per axis
and runs the in-plane coface test only for a hyperplane and dimension that
have candidates below the top dimension.

The flip gate keys each 3^n block by one int.  Its verdict depends only
on the neighbourhood, the block with its centre cleared, and is memoized on
it per block shape.  A new neighbourhood is decided one side at a time
(foreground, then background) from the centre voxel's attachment set A:
the closed faces the centre shares with that side's voxels among its
3^n - 1 immediate neighbours (see :class:`_Block`).  The flip is accepted
only if A collapses to one vertex on both sides, that is, only if the
centre is a simple voxel (Couprie-Bertrand, TPAMI 2009): the flip then
keeps the homotopy type of the whole foreground and of the whole
background, not only the Betti numbers of the block.  Whether A collapses
is memoized on A itself, since far fewer attachment sets than
neighbourhoods occur.  The edit loops keep the key of each voxel they
gate current flip by flip (:func:`block_window`; the deform front keys a
new block with :meth:`_Block.key`, dilation a batch with
:func:`keys_of`), so a gate call reads a key instead of slicing the grid.
Measured costs are in the README's "Performance notes".
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    BinaryGrid,
    Coord,
    _pair_slices,
    component_count,
    extract_neighborhood,
)


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers (beta_0..beta_3) and Euler characteristic of a grid.

    Entries above the grid dimension are 0.  With ``reduced`` set, beta_0 is
    the rank of reduced H0 (components minus one for a nonempty space); the
    Euler characteristic is always the plain alternating cell-count sum.
    """

    betti: tuple[int, int, int, int]
    euler: int
    reduced: bool = False

    def __getitem__(self, k: int) -> int:
        return self.betti[k]

    def to_dict(self) -> dict:
        """JSON form, as manifests and deform reports write it."""
        return {"betti": list(self.betti), "euler": self.euler, "reduced": self.reduced}

    @classmethod
    def of(cls, values, euler: int, reduced: bool = False) -> "BettiVector":
        vals = tuple(int(v) for v in values)
        if len(vals) > 4 and any(vals[4:]):
            raise ValueError(f"at most four Betti numbers are supported, got {values}")
        vals = (vals + (0, 0, 0, 0))[:4]
        return cls(vals, int(euler), reduced)


# ---------------------------------------------------------------------------
# lattice construction

def _cell_classes(data: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Presence of the cells of ``data``, one contiguous array per parity class.

    The class ``parity`` (one 0 or 1 per axis, in ``itertools.product``
    order) holds the cells that span exactly the axes where it is 1; its
    array is indexed by the cell's anchor, the vertex with the smallest
    coordinates, so it is the doubled lattice sliced at ``parity::2``.  A
    cell is present iff a voxel contains it, which is decided one axis at a
    time on the voxels padded by one empty slab: along an axis the cell
    does not span, either voxel of the adjacent pair will do; along an axis
    it spans, only the voxel itself.
    """
    nd = data.ndim
    classes = {(): np.pad(data, 1)}
    for ax in range(nd):
        lower, upper, inner = (
            _axis_slices(nd, ax, sl) for sl in (slice(None, -1), slice(1, None), slice(1, -1))
        )
        split = {}
        for parity, a in classes.items():
            split[parity + (0,)] = a[lower] | a[upper]
            split[parity + (1,)] = a[inner]
        classes = split
    return {parity: np.ascontiguousarray(a) for parity, a in classes.items()}


def _interleave(classes: dict[tuple[int, ...], np.ndarray]) -> np.ndarray:
    """The doubled lattice: each parity class of :func:`_cell_classes`
    written to its ``parity::2`` slice."""
    voxels = classes[(1,) * len(next(iter(classes)))].shape
    present = np.empty(tuple(2 * s + 1 for s in voxels), dtype=bool)
    for parity, cls in classes.items():
        present[tuple(slice(p, None, 2) for p in parity)] = cls
    return present


def _cell_dim_array(shape2: tuple[int, ...]) -> np.ndarray:
    """Per-lattice-point cell dimension (number of odd coordinates)."""
    par = np.zeros(shape2, dtype=np.int8)
    for ax, s in enumerate(shape2):
        vec = (np.arange(s, dtype=np.int8) % 2).reshape(
            tuple(s if i == ax else 1 for i in range(len(shape2)))
        )
        par += vec
    return par


def _axis_slices(ndim: int, ax: int, sl: slice | int) -> tuple:
    full = [slice(None)] * ndim
    full[ax] = sl
    return tuple(full)


def _sweep_collapse(present: np.ndarray, par: np.ndarray) -> np.ndarray:
    """Remove elementary free pairs in one sweep per axis, mutating ``present``.

    Along each axis in turn, hyperplane by hyperplane and within a
    hyperplane from the top dimension down, every cell whose only coface is
    its neighbour one step up the axis is removed together with that coface.
    The pairs of one step are disjoint, so each step is a valid collapse
    sequence; a solid box collapses to a point.  Returns the number of
    removed pairs per coface dimension.

    Each axis works on one contiguous copy of the lattice with that axis
    first, written back when the axis is done.  Every even hyperplane has
    the same cell dimensions, so their masks are built once per axis.  A
    hyperplane with no candidate, and a dimension with none, is skipped
    before the in-plane coface test; a top-dimensional cell of a hyperplane
    has no coface inside it, so it needs no test at all.  The test ORs the
    plane's odd neighbours into one reused "has a coface" buffer.
    """
    nd = present.ndim
    pairs = np.zeros(nd + 1, dtype=np.int64)
    for ax in range(nd):
        p = np.ascontiguousarray(np.moveaxis(present, ax, 0))
        plane_dims = np.moveaxis(par, ax, 0)[0]
        of_dim = [plane_dims == k for k in range(nd)]
        has_coface = np.empty(p.shape[1:], dtype=bool)
        free = np.empty(p.shape[1:], dtype=bool)
        for j in range(0, p.shape[0] - 1, 2):
            plane, up = p[j], p[j + 1]
            candidates = plane & up
            if j:
                candidates &= ~p[j - 1]
            if not candidates.any():
                continue
            for k in range(nd - 1, -1, -1):
                np.logical_and(candidates, of_dim[k], out=free)
                if not free.any():
                    continue
                if k < nd - 1:
                    has_coface.fill(False)
                    for a, s in enumerate(plane.shape):
                        odd = plane[_axis_slices(nd - 1, a, slice(1, s, 2))]
                        has_coface[_axis_slices(nd - 1, a, slice(0, s - 1, 2))] |= odd
                        has_coface[_axis_slices(nd - 1, a, slice(2, s, 2))] |= odd
                    free &= ~has_coface
                pairs[k + 1] += np.count_nonzero(free)
                plane &= ~free
                up &= ~free
        np.moveaxis(present, ax, 0)[...] = p
    return pairs


# ---------------------------------------------------------------------------
# GF(2) rank

def _rank_columns(columns) -> tuple[int, set[int]]:
    """GF(2) rank of sparse columns, each an ascending list of row indices.

    Also returns the pivot rows.  A column is held as ``(base, bits)``: row
    ``base + i`` is set iff bit ``i`` of ``bits`` is, so the integer is only
    as wide as the span of rows the column has touched.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for rows in columns:
        if not rows:
            continue
        base, bits = rows[0], 0
        for r in rows:
            bits |= 1 << (r - base)
        while bits:
            low = base + bits.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = (base, bits)
                break
            other_base, other_bits = other
            if other_base >= base:
                bits ^= other_bits << (other_base - base)
            else:
                bits = (bits << (base - other_base)) ^ other_bits
                base = other_base
    return len(pivots), set(pivots)


def _core_ranks(present: np.ndarray, par: np.ndarray, dims) -> np.ndarray:
    """Ranks of the boundary maps d_k, k in ``dims``, of the complex ``present``.

    Rows are numbered within each dimension in lexicographic order, which
    keeps a column's span of rows short.  ``dims`` must be consecutive and
    descending: the pivot rows of d_(k+1) clear the corresponding columns
    of d_k (Chen-Kerber), which reduce to zero anyway.
    """
    nd = present.ndim
    ranks = np.zeros(nd + 2, dtype=np.int64)
    flat = np.flatnonzero(present)
    dim_of = par.ravel()[flat]
    row = np.zeros(present.size, dtype=np.int32)
    for k in range(nd + 1):
        of_k = dim_of == k
        row[flat[of_k]] = np.arange(np.count_nonzero(of_k))
    # the facets of a cell sit one step away along each axis it spans;
    # -1 fills the places of the axes it does not span
    facets = np.full((flat.size, 2 * nd), -1, dtype=np.int32)
    stride = 1
    for ax in range(nd - 1, -1, -1):
        odd = np.flatnonzero((flat // stride) % present.shape[ax] % 2 == 1)
        facets[odd, 2 * ax] = row[flat[odd] - stride]
        facets[odd, 2 * ax + 1] = row[flat[odd] + stride]
        stride *= present.shape[ax]
    facets.sort(axis=1)

    cleared: set[int] = set()
    for k in dims:
        cols = facets[dim_of == k, 2 * (nd - k) :].tolist()
        ranks[k], cleared = _rank_columns(
            rows for c, rows in enumerate(cols) if c not in cleared
        )
    return ranks


# ---------------------------------------------------------------------------
# Betti numbers

def _squash(data: np.ndarray) -> np.ndarray | None:
    """``data`` with every run of equal slabs along each axis kept once.

    An empty run at either end of an axis is dropped, which crops the grid to
    the bounding box of its foreground; returns None when ``data`` is empty.
    Stretching one coordinate piecewise linearly is a homeomorphism of R^n
    that maps the union of closed cubes of ``data`` onto that of the result
    and the complement onto its complement, so the Betti numbers and the
    Euler characteristic do not change.
    """
    nd = data.ndim
    for ax in range(nd):
        differ = (
            data[_axis_slices(nd, ax, slice(1, None))]
            != data[_axis_slices(nd, ax, slice(None, -1))]
        )
        # the leading axes one at a time, then the trailing ones: about half
        # the cost of one reduction over all the other axes
        for _ in range(ax):
            differ = differ.any(axis=0)
        keep = np.ones(data.shape[ax], dtype=bool)
        keep[1:] = differ.any(axis=tuple(range(1, nd - ax)))
        # an empty run at either end is one kept slab now: drop it
        last = np.flatnonzero(keep)[-1]
        if not data[_axis_slices(nd, ax, last)].any():
            if last == 0:
                return None
            keep[last] = False
        if not data[_axis_slices(nd, ax, 0)].any():
            keep[0] = False
        if not keep.all():
            data = np.compress(keep, data, axis=ax)
    return data


def _unit(ax: int, ndim: int) -> Coord:
    return tuple(int(j == ax) for j in range(ndim))


def _skeleton_components(classes: dict[tuple[int, ...], np.ndarray]) -> int:
    """Components of the 1-skeleton: the vertices (the all-even class)
    joined by the edges along each axis (the class odd on that axis alone,
    whose anchors are the edges' lower ends)."""
    n = len(next(iter(classes)))
    links = [(_unit(ax, n), classes[_unit(ax, n)]) for ax in range(n)]
    return component_count(classes[(0,) * n], links)


def _bounded_background_components(data: np.ndarray) -> int:
    """Face-adjacent components of the complement that do not reach infinity.

    Padding by one voxel joins everything outside the bounding box into the
    one unbounded component.
    """
    bg = np.pad(~data, 1, constant_values=True)
    links = []
    for ax in range(bg.ndim):
        off = _unit(ax, bg.ndim)
        src, dst = _pair_slices(off, bg.shape)
        links.append((off, bg[src] & bg[dst]))
    return component_count(bg, links) - 1


#: Entries per dimension before the whole-grid memo starts over.
_WHOLE_ENTRIES = 64

#: Per dimension: (squashed shape, SHA-256 of its packed bits) -> (beta, chi).
_whole_memo: dict[int, dict[tuple, tuple]] = {}


def _betti_whole(data: np.ndarray) -> tuple:
    """Betti numbers and Euler characteristic of a whole grid.

    The grid is squashed, and the result is memoized on the squashed grid:
    everything :func:`_betti_squashed` computes depends on that grid alone.
    An entry is a digest and a short tuple, whatever the grid size.  Each
    dimension has its own memo, so the many distinct 3D grids of a run do
    not push out the 4D ones, which cost the most and repeat the most; a
    full memo is cleared and starts over.
    """
    n = data.ndim
    data = _squash(data)
    if data is None:
        return (0,) * (n + 1), 0
    key = (data.shape, hashlib.sha256(np.packbits(data)).digest())
    memo = _whole_memo.setdefault(n, {})
    result = memo.get(key)
    if result is None:
        if len(memo) >= _WHOLE_ENTRIES:
            memo.clear()
        result = memo[key] = _betti_squashed(data)
    return result


def _betti_squashed(data: np.ndarray) -> tuple:
    """Betti numbers and Euler characteristic of a squashed, nonempty grid.

    b0 counts the components of the 1-skeleton; by Alexander duality
    b_(n-1) counts the bounded components of the complement; the Euler
    characteristic comes from the cell counts.  That settles 2D and 3D.  In
    4D, b1 and b2 share the one remaining unknown, rank d2: the other ranks
    are rank d1 = c0 - b0, rank d3 = c3 - c4 - b3 and rank d4 = c4.
    """
    n = data.ndim
    classes = _cell_classes(data)
    c = np.zeros(n + 1, dtype=np.int64)
    for parity, cls in classes.items():
        c[sum(parity)] += np.count_nonzero(cls)
    chi = int(sum((-1) ** k * c[k] for k in range(n + 1)))
    b0 = _skeleton_components(classes)
    if n == 2:
        return (b0, b0 - chi, 0), chi
    top = _bounded_background_components(data)
    if n == 3:
        return (b0, b0 + top - chi, top, 0), chi
    present = _interleave(classes)
    del classes
    # each collapsed free pair adds one to the rank of its coface's dimension
    par = _cell_dim_array(present.shape)
    pairs = _sweep_collapse(present, par)
    r1 = c[0] - b0
    r2 = pairs[2] + _core_ranks(present, par, (3, 2))[2]
    r3 = c[3] - c[4] - top
    return (b0, int(c[1] - r1 - r2), int(c[2] - r2 - r3), top, 0), chi


def betti_numbers(g: BinaryGrid, reduced: bool = False) -> BettiVector:
    """Betti numbers and Euler characteristic of the grid's cubical complex."""
    beta, chi = _betti_whole(g.data)
    if reduced and beta[0] > 0:
        beta = (beta[0] - 1,) + beta[1:]
    return BettiVector.of(beta, chi, reduced)


# ---------------------------------------------------------------------------
# the flip gate

def _bits_of(mask: np.ndarray) -> int:
    """A boolean array as an int: flat (C-order) index ``i`` is bit ``i``."""
    return int.from_bytes(np.packbits(mask.ravel(), bitorder="little").tobytes(), "little")


#: Verdicts per block shape before the gate's memo starts over.
_MEMO_ENTRIES = 1 << 20

#: Maps each byte of a boolean array to an ASCII binary digit.
_DIGITS = b"0" + b"1" * 255


def _face_lattice(n: int) -> tuple:
    """Bit layout of the closed faces of one voxel.

    Face ``d`` in {0, 1, 2}^n is bit ``sum(d[ax] * strides[ax])``: it spans
    the axes where ``d`` is 1.  Every axis but the first has one zero margin
    point past its three points, so a face shifted by one stride lands on a
    face or on a margin point, never on a face of another row.  The first
    axis needs no margin: a shift off it leaves the box.  Returns the
    strides, one mask per face dimension and the boolean array of the
    points inside the margins.
    """
    shape = (3,) + (4,) * (n - 1)
    strides = tuple(math.prod(shape[ax + 1 :]) for ax in range(n))
    inner = np.zeros(shape, dtype=bool)
    inner[(slice(None),) + (slice(0, 3),) * (n - 1)] = True
    dim = _cell_dim_array(shape)
    return strides, tuple(_bits_of(inner & (dim == k)) for k in range(n + 1)), inner


def _collapse_cells(cells: list[int], strides: tuple[int, ...]) -> None:
    """Collapse a complex held as one int of cells per dimension, in place.

    The cells sit on a padded lattice (:func:`_face_lattice`).  From the
    top dimension down, each dimension k is collapsed to a fixpoint in
    rounds: a half-adder over the 2n coface sets, each shifted by one axis
    stride, finds the free k-faces (exactly one coface; a face of a
    (k+2)-cell has two), and the free faces claim their cofaces one
    direction at a time, so that no coface is taken twice.  Pairing k-faces
    with (k+1)-cells frees no face one dimension up, so one top-down pass
    leaves no free face.
    """
    for k in range(len(cells) - 2, -1, -1):
        faces, cofaces = cells[k], cells[k + 1]
        while faces and cofaces:
            once = twice = 0
            for t in strides:
                for s in (cofaces >> t, cofaces << t):
                    twice |= once & s
                    once |= s
            free = faces & once & ~twice
            if not free:
                break
            for t in strides:
                up = free & (cofaces >> t)
                cofaces ^= up << t
                down = free & (cofaces << t)
                cofaces ^= down >> t
                faces ^= up | down
        cells[k], cells[k + 1] = faces, cofaces


class _Block:
    """Bit layout of one 3^n block shape, its verdict function and its verdicts.

    A block is keyed by one int: voxel ``i`` in raster order is bit
    ``size - 1 - i``.  Clearing the centre and taking the complement are
    then one mask each.  The gate's verdict depends only on the
    neighbourhood, the key with the centre cleared: both flip directions
    compare that block with and without its centre, for the foreground and
    for the background.  :meth:`verdict` memoizes it in a plain dict per
    shape, so the 3^2, 3^3 and 3^4 blocks never share an entry; a full memo
    is cleared and starts over.

    A verdict is settled one side at a time, foreground first.  Let X' be
    the union of the side's closed voxels without the centre c (| and &
    below are union and intersection).  The attachment set A = X' & c is
    the union of the closed faces that c shares with the side's voxels
    among its 3^n - 1 immediate neighbours (:meth:`_attached`).  The side
    is kept only if A collapses to one vertex.  Then A is contractible and
    nonempty, so H(X' | c) = H(X') (Mayer-Vietoris), and a flip kept on
    both sides is a simple-voxel flip (Couprie-Bertrand, TPAMI 2009), which
    keeps the homotopy type of each side of the whole grid.  When
    chi(A) != 1, gluing c changes chi (chi(X' | c) = chi(X') + 1 - chi(A)),
    so the block's Betti vector changes too.  The one remaining case,
    chi(A) = 1 without a collapse, is rejected as well; on random 3^3 and
    3^4 blocks it has always changed the block's Betti vector.

    The faces of one voxel are the doubled lattice of a one-voxel block
    (:func:`_face_lattice`): face ``d`` in {0, 1, 2}^n is the face shared
    with the neighbour at offset ``d - 1``.  So each row of three
    neighbours is copied over as it is (mirrored along the last axis,
    which keeps chi and collapsibility).  The collapse verdict is memoized
    on the closed set A (:attr:`collapses`), under the same cap: many
    neighbourhoods share one A.
    """

    def __init__(self, shape: tuple[int, ...]):
        n = len(shape)
        size = 3**n
        self.center = 1 << (size // 2)
        self.hood = ((1 << size) - 1) ^ self.center
        self.verdicts: dict[int, bool] = {}
        #: whether a closed attachment set, as an int on the face lattice,
        #: collapses to a vertex: far fewer sets than neighbourhoods recur
        self.collapses: dict[int, bool] = {}
        self.face_strides, dims, inner = _face_lattice(n)
        self.face_dims = dims[:n]  # the centre's own n-cell is never attached
        # chi is the popcount of the even-dimensional cells minus the odd
        self.face_even = sum(dims[0:n:2])
        self.face_odd = sum(dims[1:n:2])
        coords = np.indices(inner.shape)
        self.face_spans = tuple(_bits_of(inner & (coords[ax] == 1)) for ax in range(n))
        # the key bit of neighbour (ys, 2) and the lattice point of face (ys, 0)
        self.face_rows = tuple(
            (
                size - 3 - sum(y * 3 ** (n - 1 - ax) for ax, y in enumerate(ys)),
                sum(y * t for y, t in zip(ys, self.face_strides)),
            )
            for ys in itertools.product(range(3), repeat=n - 1)
        )

    def key(self, data: np.ndarray) -> int:
        # one byte per voxel, read as binary digits: voxel i is bit size - 1 - i
        return int(data.tobytes().translate(_DIGITS), 2)

    def verdict(self, hood: int) -> bool:
        """Whether flipping the centre of a block with neighbourhood ``hood``
        is a simple-voxel flip: the attachment sets of both sides collapse
        to a vertex; memoized."""
        safe = self.verdicts.get(hood)
        if safe is None:
            if len(self.verdicts) >= _MEMO_ENTRIES:
                self.verdicts.clear()
            safe = self._attached(hood) and self._attached(self.hood ^ hood)
            self.verdicts[hood] = safe
        return safe

    def _attached(self, rest: int) -> bool:
        """Whether the attachment set of the centre to the voxels ``rest``
        (no centre) collapses to one vertex; memoized on the set."""
        x = 0
        for at_key, at in self.face_rows:
            x |= ((rest >> at_key) & 7) << at
        # close each shared face: a face spanning an axis brings the two
        # faces at its ends along that axis
        for t, span in zip(self.face_strides, self.face_spans):
            mid = x & span
            x |= (mid << t) | (mid >> t)
        done = self.collapses.get(x)
        if done is None:
            if len(self.collapses) >= _MEMO_ENTRIES:
                self.collapses.clear()
            done = self.collapses[x] = self._collapses(x)
        return done

    def _collapses(self, x: int) -> bool:
        """Whether the closed attachment set ``x`` collapses to one vertex."""
        if (x & self.face_even).bit_count() - (x & self.face_odd).bit_count() != 1:
            return False
        cells = [x & m for m in self.face_dims]
        _collapse_cells(cells, self.face_strides)
        return cells[0].bit_count() == 1 and not any(cells[1:])


@lru_cache(maxsize=None)
def _block(shape: tuple[int, ...]) -> _Block:
    """The layout and memo of one block shape, built on first use."""
    return _Block(shape)


def block_window(strides) -> tuple[np.ndarray, list[int]]:
    """The flat offsets of a 3^n block from its centre, in raster order, for a
    grid of ``strides``, and the key bit of each: offset ``i`` is bit
    ``3^n - 1 - i`` (:meth:`_Block.key`)."""
    n = len(strides)
    window = np.array(list(itertools.product((-1, 0, 1), repeat=n))) @ np.asarray(strides)
    return window, [1 << (3**n - 1 - i) for i in range(3**n)]


def keys_of(rows: np.ndarray) -> list[int]:
    """The keys of blocks given one a row, each 3^n block flattened in raster
    order: the keys :meth:`_Block.key` gives."""
    m, size = rows.shape
    words = -(-size // 64)
    bits = np.zeros((m, 64 * words), dtype=bool)
    bits[:, 64 * words - size :] = rows
    packed = np.packbits(bits, axis=1).view(">u8")
    keys = packed[:, 0].tolist()
    for j in range(1, words):
        keys = [hi << 64 | lo for hi, lo in zip(keys, packed[:, j].tolist())]
    return keys


def is_local_flip_safe(g: BinaryGrid, c: Coord, new_value: int) -> bool:
    """Whether flipping voxel ``c`` keeps the topology of both sides.

    True iff ``c`` is a simple voxel: its attachment set to the foreground
    and to the background (within the 3^n block around ``c``, zero-padded
    at the border) each collapse to a vertex.  Such a flip keeps the
    homotopy type of the foreground and of the background, so the Betti
    vectors of both.  The background side guards against silently creating
    or merging cavities, and it alone keeps the interior-label contract: an
    accepted flip also keeps the Betti vector of the foreground's interior
    (face adjacency for the foreground, full adjacency for the background),
    so a sample whose label holds in both readings keeps it through every
    edit.  A gate that checked only the foreground side would keep the
    engine's labels but not this.  The verdict depends only on the block with its
    centre cleared and is memoized on it, so a repeated neighbourhood costs
    one dict lookup.
    """
    new_value = int(bool(new_value))
    if g.get(c) == new_value:
        raise ValueError(f"voxel {c} already has value {new_value}")
    data = extract_neighborhood(g, c, 1).data  # validates the centre
    block = _block(data.shape)
    return block.verdict(block.key(data) & block.hood)
