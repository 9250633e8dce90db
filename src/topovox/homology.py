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
becomes 7^4 to 9^4 voxels before any lattice is built.  The engine then takes the Euler
characteristic from the cell counts, beta_0 from the components of the
1-skeleton and beta_(n-1) from the bounded face-adjacent components of the
complement (Alexander duality); both component counts use the vectorized
union-find of :func:`topovox.grid.component_roots`, which first merges the
cells linked along the last axis into runs and then joins runs.  The Euler
identity then settles 2D and 3D.  In 4D, beta_1 and beta_2 share one
unknown, rank(d_2): the complex is collapsed in one sweep per axis (each
free pair adds one to the rank in its coface's dimension), then d_3 and d_2
of the remaining core are reduced as sparse columns with rows numbered per
dimension, the pivots of d_3 clearing columns of d_2.  The sweep works on
one contiguous copy of the lattice per axis, builds its per-dimension masks
once per axis and runs the in-plane coface test only for a hyperplane and
dimension that have candidates below the top dimension.

The flip gate keys each (2r+1)^n block by one int and memoizes its Betti
vector per block shape.  A block that misses the memo is solved
bit-parallel on Python ints (see :class:`_Block`).  A 2D or 3D block uses
the whole-grid formulas: beta_0 by a full-adjacency flood fill,
beta_(n-1) from the padded complement, chi from popcounts of the doubled
lattice's parity classes and beta_1 from the Euler identity.  A 4D block is
collapsed on its doubled lattice, top dimension down, and only the core
that is left (usually one vertex) is eliminated.  Measured costs are in the
README's "Performance notes".
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    BinaryGrid,
    Coord,
    _pair_slices,
    component_roots,
    count_roots,
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

    @classmethod
    def of(cls, values, euler: int, reduced: bool = False) -> "BettiVector":
        vals = tuple(int(v) for v in values)
        if len(vals) > 4 and any(vals[4:]):
            raise ValueError(f"at most four Betti numbers are supported, got {values}")
        vals = (vals + (0, 0, 0, 0))[:4]
        return cls(vals, int(euler), reduced)


# ---------------------------------------------------------------------------
# lattice construction

def _cell_lattice(data: np.ndarray) -> np.ndarray:
    """Boolean presence array over the doubled lattice of ``data``.

    The closed cube of a voxel covers the 3^n lattice points around its
    centre, so the voxels are placed at the odd points and spread by one
    step along each axis in turn.
    """
    nd = data.ndim
    present = np.zeros(tuple(2 * s + 1 for s in data.shape), dtype=bool)
    present[(slice(1, None, 2),) * nd] = data
    for ax in range(nd):
        odd = present[_axis_slices(nd, ax, slice(1, None, 2))]
        present[_axis_slices(nd, ax, slice(0, -1, 2))] |= odd
        present[_axis_slices(nd, ax, slice(2, None, 2))] |= odd
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


def _cell_counts(present: np.ndarray) -> np.ndarray:
    """Number of present cells per dimension, one parity class at a time."""
    counts = np.zeros(present.ndim + 1, dtype=np.int64)
    for parity in itertools.product((0, 1), repeat=present.ndim):
        cls = present[tuple(slice(p, None, 2) for p in parity)]
        counts[sum(parity)] += np.count_nonzero(cls)
    return counts


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


def gf2_rank(matrix) -> int:
    """Rank of a dense 0/1 matrix over GF(2) by column elimination."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    bits = np.asarray(m, dtype=np.uint8) & 1
    rank, _ = _rank_columns(np.flatnonzero(col).tolist() for col in bits.T)
    return rank


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
# public complex type

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


def _skeleton_components(present: np.ndarray) -> int:
    """Components of the 1-skeleton: lattice vertices joined by present edges."""
    n = present.ndim
    links = []
    for ax in range(n):
        edges = present[tuple(slice(1 if j == ax else 0, None, 2) for j in range(n))]
        links.append((_unit(ax, n), edges))
    return count_roots(component_roots(present[(slice(0, None, 2),) * n], links))


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
    return count_roots(component_roots(bg, links)) - 1


def _betti_whole(data: np.ndarray) -> tuple:
    """Betti numbers and Euler characteristic of a whole grid.

    Everything is computed on the grid as :func:`_squash` leaves it.  b0
    counts the components of the 1-skeleton; by Alexander duality b_(n-1)
    counts the bounded components of the complement; the Euler
    characteristic comes from the cell counts.  That settles 2D and 3D.  In
    4D, b1 and b2 share the one remaining unknown, rank d2: the other ranks
    are rank d1 = c0 - b0, rank d3 = c3 - c4 - b3 and rank d4 = c4.
    """
    n = data.ndim
    data = _squash(data)
    if data is None:
        return (0,) * (n + 1), 0
    present = _cell_lattice(data)
    c = _cell_counts(present)
    chi = int(sum((-1) ** k * c[k] for k in range(n + 1)))
    b0 = _skeleton_components(present)
    if n == 2:
        return (b0, b0 - chi, 0), chi
    top = _bounded_background_components(data)
    if n == 3:
        return (b0, b0 + top - chi, top, 0), chi
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

@lru_cache(maxsize=None)
def _shared(bv: BettiVector) -> BettiVector:
    """The first ``BettiVector`` equal to ``bv``: memo entries share it."""
    return bv


def _bits_of(mask: np.ndarray) -> int:
    """A boolean array as an int: flat (C-order) index ``i`` is bit ``i``."""
    return int.from_bytes(np.packbits(mask.ravel(), bitorder="little").tobytes(), "little")


def _set_bits(x: int):
    """Indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _eliminate_block(data: np.ndarray) -> BettiVector:
    """Betti vector of a small block by direct elimination of every d_k."""
    n = data.ndim
    present = _cell_lattice(data)
    c = _cell_counts(present)
    ranks = _core_ranks(present, _cell_dim_array(present.shape), range(n, 0, -1))
    beta = tuple(int(c[k] - ranks[k] - ranks[k + 1]) for k in range(n + 1))
    chi = int(sum((-1) ** k * c[k] for k in range(n + 1)))
    return BettiVector.of(beta, chi)


#: Entries per block shape before the gate's memo starts over.
_MEMO_ENTRIES = 1 << 20


class _Block:
    """Bit layout of one cubic block shape and its memoized Betti function.

    A block is keyed by one int: voxel ``i`` in raster order is bit
    ``size - 1 - i``.  Flipping the centre and taking the complement are
    then one XOR each.  The memo is a plain dict per shape, so blocks of
    equal size but different shape (3^4 and 9^2) never share an entry, and
    an entry costs one int and one dict slot (about 60 bytes for a 3^3
    block, half an LRU entry); a full memo is cleared and starts over.

    2D and 3D blocks are solved bit-parallel.  The voxels are copied into an
    int laid out over the block padded by one voxel, where shifting by an
    axis stride moves every block voxel one step along that axis; only a
    padding voxel can wrap into another row, and only onto padding:

    * beta_0 counts full-adjacency components, flooded by a separable box
      dilation;
    * beta_(n-1) counts the face-adjacent components of the padded
      complement that the padding ring does not reach (Alexander duality);
    * chi sums the popcounts of the parity classes of the doubled lattice:
      the cells of a class are the voxels dilated by {0, +1} along the
      class's even axes;
    * beta_1 follows from the Euler identity.

    4D blocks are collapsed (:meth:`_collapse`).  The cells sit on the
    block's doubled lattice with one int per cell dimension.  From the top
    dimension down, each dimension k is collapsed to a fixpoint in rounds:
    a half-adder over the 2n coface sets, each shifted by one axis stride,
    finds the free k-faces (exactly one coface), and the free faces claim
    their cofaces one direction at a time, so that no coface is taken
    twice.  Pairing k-faces with (k+1)-cells frees no face one dimension
    up, so one top-down pass leaves no free face.  A collapse keeps the
    homology, so the Betti numbers are those of the core, whose boundary
    ranks :func:`_rank_columns` computes; chi comes from the popcounts of
    the dimension masks.
    """

    def __init__(self, shape: tuple[int, ...]):
        n, side = len(shape), shape[0]
        size = side**n
        self.shape, self.size, self.nbytes = shape, size, (size + 7) // 8
        self.pad = 8 * self.nbytes - size
        self.full = (1 << size) - 1
        self.center = 1 << (size // 2)
        m = side + 2
        self.strides = tuple(m ** (n - 1 - ax) for ax in range(n))
        # each run of `side` key bits along the last axis, and where it lands
        # in the padded layout (mirrored along that axis, which keeps the
        # Betti numbers)
        self.row_mask = (1 << side) - 1
        self.rows = tuple(
            (size - side * (r + 1), 1 + sum((y + 1) * t for y, t in zip(ys, self.strides)))
            for r, ys in enumerate(itertools.product(range(side), repeat=n - 1))
        )
        self.box = (1 << m**n) - 1
        self.ring = self.box ^ sum(self.row_mask << at for _, at in self.rows)
        # ds[i] dilates along the axes of the set bits of i: its cells span
        # the other n - popcount(i) axes
        self.signs = tuple((-1) ** (n - bin(i).count("1")) for i in range(1 << n))
        if n < 4:
            self._solve = self._bitwise
        else:
            self._solve = self._collapse
            self._lattice_layout()
        self.betti = lru_cache(maxsize=None)(self._miss)

    def _lattice_layout(self) -> None:
        """Bit layout of the block's doubled lattice, for :meth:`_collapse`.

        Lattice point ``p`` is bit ``sum(p[ax] * lattice_strides[ax])``.  Every
        axis but the first has one zero margin point past the block's 2s+1
        points, so a cell shifted by one stride lands on a cell or on a
        margin point, never on a cell of another row.  The first axis needs
        no margin: a shift off it leaves the box, and the box mask drops it.
        Built on the first gate call for the shape, not at import.
        """
        n, side = len(self.shape), self.shape[0]
        span = 2 * side + 1
        shape2 = (span,) + (span + 1,) * (n - 1)
        self.lattice_shape = shape2
        self.lattice_strides = tuple(math.prod(shape2[ax + 1 :]) for ax in range(n))
        inner = np.zeros(shape2, dtype=bool)
        inner[(slice(None),) + (slice(0, span),) * (n - 1)] = True
        dim = _cell_dim_array(shape2)
        self.dim_masks = tuple(_bits_of(inner & (dim == k)) for k in range(n + 1))
        self.lattice_box = _bits_of(inner)
        # one row of key bits, with voxel j at lattice point 2j + 1
        self.spread = tuple(
            sum(1 << (2 * j + 1) for j in range(side) if v >> (side - 1 - j) & 1)
            for v in range(1 << side)
        )
        self.lattice_rows = tuple(
            (at_key, sum((2 * y + 1) * t for y, t in zip(ys, self.lattice_strides)))
            for (at_key, _), ys in zip(
                self.rows, itertools.product(range(side), repeat=n - 1)
            )
        )

    def key(self, data: np.ndarray) -> int:
        return int.from_bytes(np.packbits(data).tobytes(), "big") >> self.pad

    def _miss(self, key: int) -> BettiVector:
        if self.betti.cache_info().currsize >= _MEMO_ENTRIES:
            self.betti.cache_clear()
        return _shared(self._solve(key))

    def _flood(self, seed: int, mask: int, full: bool) -> int:
        """The part of ``mask`` connected to ``seed`` (a subset of it)."""
        strides = self.strides
        while True:
            grown = seed
            for t in strides:
                src = grown if full else seed
                grown |= (src << t) | (src >> t)
            grown &= mask
            if grown == seed:
                return seed
            seed = grown

    def _components(self, mask: int, full: bool) -> int:
        count = 0
        while mask:
            mask ^= self._flood(mask & -mask, mask, full)
            count += 1
        return count

    def _bitwise(self, key: int) -> BettiVector:
        x, rm = 0, self.row_mask
        for at_key, at_pad in self.rows:
            x |= ((key >> at_key) & rm) << at_pad
        b0 = self._components(x, full=True)
        ds = [x]
        for t in self.strides:
            ds += [d | (d << t) for d in ds]
        chi = sum(s * d.bit_count() for s, d in zip(self.signs, ds))
        if len(self.shape) == 2:
            return BettiVector.of((b0, b0 - chi), chi)
        bg = self.box ^ x
        # flooding from the whole ring reaches the outside in a few steps
        top = self._components(bg ^ self._flood(self.ring, bg, full=False), full=False)
        return BettiVector.of((b0, b0 + top - chi, top), chi)

    def _collapse(self, key: int) -> BettiVector:
        x, rm, spread = 0, self.row_mask, self.spread
        for at_key, at in self.lattice_rows:
            x |= spread[(key >> at_key) & rm] << at
        strides, box = self.lattice_strides, self.lattice_box
        for t in strides:
            x = (x | (x << t) | (x >> t)) & box
        cells = [x & m for m in self.dim_masks]
        chi = sum((-1) ** k * c.bit_count() for k, c in enumerate(cells))
        # top down: pairing k-faces with (k+1)-cells frees no face one
        # dimension up, so each dimension is collapsed to a fixpoint once
        for k in range(len(cells) - 2, -1, -1):
            faces, cofaces = cells[k], cells[k + 1]
            while faces and cofaces:
                # half-adder over the 2n shifted coface sets: a free face is
                # one with exactly one coface
                once = twice = 0
                for t in strides:
                    for s in (cofaces >> t, cofaces << t):
                        twice |= once & s
                        once |= s
                free = faces & once & ~twice
                if not free:
                    break
                # one direction at a time, so that no coface is taken twice
                for t in strides:
                    up = free & (cofaces >> t)
                    cofaces ^= up << t
                    down = free & (cofaces << t)
                    cofaces ^= down >> t
                    faces ^= up | down
            cells[k], cells[k + 1] = faces, cofaces
        beta = self._core_betti(cells)
        return BettiVector.of(beta, chi)

    def _core_betti(self, cells: list[int]) -> list[int]:
        """Betti numbers of a core, one int of cells per dimension.

        Rows and columns are numbered per dimension in lattice order; the
        pivot rows of d_(k+1) clear the matching columns of d_k.
        """
        counts = [c.bit_count() for c in cells]
        if not any(counts[1:]):  # the usual core: isolated vertices
            return counts
        strides, shape2 = self.lattice_strides, self.lattice_shape
        index = [{p: i for i, p in enumerate(_set_bits(c))} for c in cells]
        ranks = [0] * (len(cells) + 1)
        cleared: set[int] = set()
        for k in range(len(cells) - 1, 0, -1):
            below, columns = index[k - 1], []
            for c, p in enumerate(index[k]):
                if c in cleared:
                    continue
                rows = []
                for t, m in zip(strides, shape2):
                    if (p // t) % m % 2:
                        rows += (below[p - t], below[p + t])
                columns.append(sorted(rows))
            ranks[k], cleared = _rank_columns(columns)
        return [counts[k] - ranks[k] - ranks[k + 1] for k in range(len(cells))]


@lru_cache(maxsize=None)
def _block(shape: tuple[int, ...]) -> _Block:
    """The layout and memo of one block shape, built on first use."""
    return _Block(shape)


def is_local_flip_safe(
    g: BinaryGrid, c: Coord, new_value: int, radius: int = 1
) -> bool:
    """Whether flipping voxel ``c`` preserves local homology.

    True iff the Betti vectors of both the foreground and the background
    restricted to the (2*radius+1)^n block around ``c`` are unchanged by the
    flip.  The background check guards against silently creating or merging
    cavities.  Block results are memoized, so repeated queries over similar
    neighborhoods are cheap.
    """
    new_value = int(bool(new_value))
    interior = (
        radius >= 1
        and len(c) == g.ndim
        and all(radius <= x < s - radius for x, s in zip(c, g.dims))
    )
    # an interior centre is in range, so its value is read directly (as an
    # int: comparing a numpy bool with an int costs a ufunc call)
    if (int(g.data[c]) if interior else g.get(c)) == new_value:
        raise ValueError(f"voxel {c} already has value {new_value}")
    if interior:
        data = g.data[tuple(slice(x - radius, x + radius + 1) for x in c)]
    else:  # zero-padded at the border; validates the radius and centre
        data = extract_neighborhood(g, c, radius).data
    block = _block(data.shape)
    before = block.key(data)
    after = before ^ block.center
    betti = block.betti
    # memo values are shared instances: equal vectors are the same object
    if betti(before) is not betti(after):
        return False
    return betti(before ^ block.full) is betti(after ^ block.full)
