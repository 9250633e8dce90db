"""Hypervolume-preserving pixel-flip deformation.

Each iteration moves one boundary voxel: the lowest-noise 1-valued boundary
voxel with a higher-noise empty voxel among its 3^n - 1 neighbours is
removed and re-placed at the highest-noise such voxel, with both steps gated
by the local homology check; a source whose move fails the gate is passed
over for the next.  Volume is conserved exactly because every move is a paired flip;
topology is conserved because the gate accepts only simple-voxel flips,
which keep the homotopy type of the foreground and the background.  The
caller passes the input's label, the recipe's in generation, and the
engine checks the deformed sample against it every 100 accepted flips and
at the end: a change it finds is a defect, raised as
:class:`TopologyDriftError`.

Move selection is incremental.  A front built once per run holds the
grid in one buffer padded by one empty voxel, addresses voxels by flat
index into it, and keeps the sources with a target as a sorted list of
(noise, index) pairs, each source's current target and the gate keys of
the voxels it has judged, updated by each flip; the run deforms that
buffer and returns a copy of it.  The front's set-up computes targets only
where an empty voxel lies near, not on every occupied voxel, and sorts
only the sources, not the grid.  After a move it recomputes targets only
within one voxel of the two flipped voxels, so a move costs a few small
array updates, not a rescan of the boundary.  Each source passed asks the gate again, from two
kept keys; the gate's memo answers a neighbourhood it has decided before.
The moves and rejection counters are those of a full rescan.
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .grid import BinaryGrid, count_ones
from . import homology
from .homology import BettiVector, betti_numbers, block_window
from .homology import is_local_flip_safe  # noqa: F401  (perfbench traces the gate at this name)
from .noise import NoiseField
from .noise import noise_field  # noqa: F401  (perfbench traces the noise at this name)


class TopologyDriftError(RuntimeError):
    """Raised when the engine measures a deformed grid's Betti vector as
    other than its label.

    The gate accepts only simple-voxel flips, so this means a defect, not
    bad luck.
    """


#: Accepted flips between two engine re-verifications of the whole sample.
_GLOBAL_CHECK_EVERY = 100


@dataclass
class DeformReport:
    """Counters and invariants observed during a deformation run."""

    accepted_flips: int = 0
    rejected_removals: int = 0
    rejected_placements: int = 0
    volume_before: int = 0
    volume_after: int = 0
    betti_before: BettiVector | None = None
    betti_after: BettiVector | None = None
    stagnated: bool = False

    def to_dict(self) -> dict[str, Any]:
        """Manifest form."""
        out = {
            "accepted_flips": self.accepted_flips,
            "rejected_removals": self.rejected_removals,
            "rejected_placements": self.rejected_placements,
            "volume_before": self.volume_before,
            "volume_after": self.volume_after,
            "stagnated": self.stagnated,
        }
        for key, bv in (("betti_before", self.betti_before), ("betti_after", self.betti_after)):
            out[key] = None if bv is None else bv.to_dict()
        return out


class _MoveFront:
    """The movable voxels of one deformation run, kept current flip by flip.

    A source is a 1-valued voxel with a 0-valued (or out-of-range) face
    neighbor; its target is the highest-noise empty voxel among its 3^n - 1
    neighbors, the first in lexicographic offset order among equals, and
    only if it out-noises the source.  Sources with a target are kept as a
    sorted list of (noise, index) pairs; the index order is the raster
    order, so noise ties go to the earlier voxel.  Set-up computes targets
    only on occupied voxels with an empty voxel in range among their 3^n - 1
    neighbours, since no other voxel has a target; :meth:`_targets` decides
    which of them are sources.  The gate key of each source and target it
    judges is computed once and then kept current by every flip
    (:meth:`_flip`), so no verdict slices the grid.

    The front holds the grid once, in ``occupied``, padded by one empty
    voxel; :attr:`grid` is a view of its inside, and a flip writes one
    cell.  Voxels are addressed by flat index into it from set-up to
    :meth:`move`.  One voxel of padding is enough, since no read reaches
    more than one voxel past an in-range voxel: :meth:`_targets` reads the
    neighbours of occupied voxels, :meth:`_key` the blocks of sources and
    targets, and :meth:`move` the voxels within one of its source or its
    target (two voxels from the source, but one from the target).  A gate
    block reads as zero past the border, as :func:`is_local_flip_safe`'s
    zero-padded block does.  A flip at ``p`` can only change the targets
    and the source status of voxels within one voxel of ``p``, so
    :meth:`move` recomputes no more than that.
    """

    def __init__(self, g: BinaryGrid, noise: NoiseField):
        self.shape = shape = tuple(s + 2 for s in g.dims)
        inner = tuple(slice(1, 1 + s) for s in g.dims)

        def padded(values, fill) -> np.ndarray:
            out = np.full(shape, fill, dtype=np.asarray(values).dtype)
            out[inner] = values
            return out.ravel()

        self.window, self.offsets, self.face, self.near, self.bit_at = _steps(shape)
        values = np.asarray(noise.values, dtype=np.float64)
        self.occupied = padded(g.data, False)
        self.grid = BinaryGrid(self.occupied.reshape(shape)[inner])
        self.block = homology._block((3,) * g.ndim)
        self.keys: dict[int, int] = {}  # gate keys by padded index, kept by _flip
        self.noise = padded(values, 0.0)
        # noise of the empty in-range voxels, the only possible targets
        self.open = padded(np.where(g.data, -np.inf, values), -np.inf)

        self.target = np.full(self.noise.size, -1, dtype=np.int64)
        self._target = memoryview(self.target)  # element reads give Python ints, and fast
        # a target is an empty voxel in range, so a source needs one around it
        near_empty = ~g.data
        for ax in range(g.ndim):
            lower, upper = (
                tuple(sl if a == ax else slice(None) for a in range(g.ndim))
                for sl in (slice(None, -1), slice(1, None))
            )
            spread = near_empty.copy()
            spread[lower] |= near_empty[upper]
            spread[upper] |= near_empty[lower]
            near_empty = spread
        edge = np.flatnonzero(padded(g.data & near_empty, False))
        for lo in range(0, edge.size, 4096):  # bounds the (cells, offsets) arrays
            chunk = edge[lo : lo + 4096]
            self.target[chunk] = self._targets(chunk)
        found = edge[self.target[edge] >= 0]
        found = found[np.argsort(self.noise[found], kind="stable")]
        self.sources = list(zip(self.noise[found].tolist(), found.tolist()))

    def _key(self, v: int) -> int:
        """The gate key of voxel ``v``, computed on first use."""
        key = self.keys.get(v)
        if key is None:
            key = self.keys[v] = self.block.key(self.occupied[v + self.window])
        return key

    def _flip(self, v: int) -> None:
        """Flip voxel ``v`` and toggle its bit in the keys kept for the 3^n
        voxels whose block holds it."""
        self.occupied[v] = not self.occupied[v]
        keys = self.keys
        for d, bit in self.bit_at.items():
            if v - d in keys:
                keys[v - d] ^= bit

    def _targets(self, cells: np.ndarray) -> np.ndarray:
        """The target of each of the occupied ``cells`` (padded indices), or -1."""
        around = cells[:, None]
        source = ~self.occupied[around + self.face].all(axis=1)
        reach = self.open[around + self.offsets]
        best = reach.argmax(axis=1)  # the first maximum in offset order
        # moves are strictly uphill: the target must out-noise the source,
        # otherwise material oscillates between a minimum and its neighbors
        uphill = reach.max(axis=1) > self.noise[cells]
        return np.where(source & uphill, cells + self.offsets[best], -1)

    def select(self) -> tuple[tuple[int, int] | None, int, int]:
        """The first source, in (noise, raster) order, whose move passes
        both gates, as a (source, target) pair of padded indices, plus the
        gate rejections passed on the way.

        A move's removal key is its source's own, its placement key its
        target's with the source cleared.
        """
        rej_rm = rej_pl = 0
        verdict, hood, key, target, bit_at = (
            self.block.verdict, self.block.hood, self._key, self._target, self.bit_at
        )
        for _, v in self.sources:
            if not verdict(key(v) & hood):
                rej_rm += 1
                continue
            t = target[v]
            if verdict(key(t) ^ bit_at[v - t]):
                return (v, t), rej_rm, rej_pl
            rej_pl += 1
        return None, rej_rm, rej_pl

    def move(self, v: int, t: int) -> None:
        """Apply the accepted move from ``v`` to ``t`` and bring the front up to date."""
        self._flip(v)
        self._flip(t)
        self.open[v], self.open[t] = self.noise[v], -np.inf
        # the source is empty now, so it leaves the sources; an empty cell
        # never has a target, so only the occupied cells around either voxel
        # can gain or lose one
        del self.sources[bisect.bisect_left(self.sources, (float(self.noise[v]), v))]
        self.target[v] = -1
        cells = v + self.near[t - v]
        cells = cells[self.occupied[cells]]
        old, new = self.target[cells], self._targets(cells)
        self.target[cells] = new
        changed = cells[(old < 0) != (new < 0)]
        for c, key, now in zip(
            changed.tolist(), self.noise[changed].tolist(), self.target[changed].tolist()
        ):
            if now >= 0:
                bisect.insort(self.sources, (key, c))
            else:
                del self.sources[bisect.bisect_left(self.sources, (key, c))]


@lru_cache(maxsize=16)
def _steps(shape: tuple[int, ...]) -> tuple:
    """Flat offsets in a grid of padded ``shape``: the 3^n block window
    around a centre, the 3^n - 1 neighbours (the window without its
    centre, so in lexicographic offset order), the 2n face neighbours, per
    step from a move's source to its target the offsets within one of
    either voxel (whose targets may change), and the gate key bit of the
    voxel at each window offset."""
    n = len(shape)
    strides = [math.prod(shape[ax + 1 :]) for ax in range(n)]
    window, bits = block_window(strides)
    offsets = np.delete(window, 3**n // 2)
    near = np.append(offsets, 0)
    return (
        window,
        offsets,
        np.array([d * t for t in strides for d in (-1, 1)], dtype=np.int64),
        {d: np.union1d(near, near + d) for d in offsets.tolist()},
        dict(zip(window.tolist(), bits)),
    )


def deform_volume_preserving(
    g: BinaryGrid, iterations: int, noise: NoiseField, label: BettiVector
) -> tuple[BinaryGrid, DeformReport]:
    """Make up to ``iterations`` moves up ``noise``; returns the new grid and a report.

    The input grid is not modified.  ``label`` is the input's Betti vector,
    which the moves keep: the report's ``betti_before``.  Raises
    :class:`TopologyDriftError`, naming the check and both vectors, if the
    engine measures another vector every 100 accepted flips or at the end.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    if not g.data.any() or g.data.all():
        raise ValueError("deformation needs a grid that is neither empty nor full")
    if noise.dims != g.dims:
        raise ValueError(f"noise field dims {noise.dims} do not match grid dims {g.dims}")
    report = DeformReport(volume_before=count_ones(g), betti_before=label)
    front = _MoveFront(g, noise)
    cur = front.grid

    def check(what: str) -> BettiVector:
        measured = betti_numbers(cur)
        if measured != label:
            raise TopologyDriftError(
                f"{what} found a Betti change: the engine measured {measured.betti} "
                f"(chi {measured.euler}), the label is {label.betti} (chi {label.euler})"
            )
        return measured

    for _ in range(iterations):
        pair, rej_rm, rej_pl = front.select()
        report.rejected_removals += rej_rm
        report.rejected_placements += rej_pl
        if pair is None:
            report.stagnated = True
            warnings.warn(
                "deformation stagnated: no movable boundary voxel", RuntimeWarning
            )
            break
        front.move(*pair)
        report.accepted_flips += 1
        if report.accepted_flips % _GLOBAL_CHECK_EVERY == 0:
            check(f"the periodic check after {report.accepted_flips} flips")
    report.betti_after = check("the final check")
    report.volume_after = count_ones(cur)
    return cur.copy(), report
