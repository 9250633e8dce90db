"""Hypervolume-preserving pixel-flip deformation.

Each iteration moves one boundary voxel: the lowest-noise 1-valued boundary
voxel with a higher-noise empty voxel within the move distance is removed and
re-placed at the highest-noise such voxel, with both steps gated by the local
homology check; a source whose move fails the gate is passed over for the
next.  Volume is conserved exactly because every move is a paired flip;
topology is conserved because no gated step can change the Betti vector, and
a periodic full-sample re-verification guards against the (4D) cases where
local checks are known to be insufficient.

Move selection is incremental.  A front built once per run holds the fixed
(noise, raster) order of all voxels, each source's current target and the
gate verdict on each move it has judged.  After a move it recomputes targets
only within the move distance of the two flipped voxels, and forgets
verdicts only within the move distance plus the safety radius, so a move
costs a few small array updates and the gate calls of the verdicts it
forgot, not a rescan of the boundary.  The moves and rejection counters are
those of a full rescan.
"""
from __future__ import annotations

import bisect
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .grid import BinaryGrid, Coord, count_ones, neighbor_offsets
from .homology import BettiVector, betti_numbers, is_local_flip_safe
from .noise import NoiseField, noise_field


class TopologyDriftError(RuntimeError):
    """Raised when global re-verification detects a Betti-vector change.

    ``verified`` holds the last grid state that passed verification, so the
    caller can resume or discard it.
    """

    def __init__(self, message: str, verified: BinaryGrid | None = None):
        super().__init__(message)
        self.verified = verified


@dataclass(frozen=True)
class DeformConfig:
    """Settings for one deformation run."""

    iterations: int
    noise_scale: float = 8.0
    noise_octaves: int = 1
    safety_radius: int = 1
    max_move_distance: int = 1
    global_check_every: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        for name in ("safety_radius", "max_move_distance", "global_check_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


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
    wall_time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """Manifest form; wall_time is excluded to keep outputs byte-stable."""
        out = {
            "accepted_flips": self.accepted_flips,
            "rejected_removals": self.rejected_removals,
            "rejected_placements": self.rejected_placements,
            "volume_before": self.volume_before,
            "volume_after": self.volume_after,
            "stagnated": self.stagnated,
        }
        for key, bv in (("betti_before", self.betti_before), ("betti_after", self.betti_after)):
            out[key] = None if bv is None else {
                "betti": list(bv.betti), "euler": bv.euler, "reduced": bv.reduced
            }
        return out


def _move_offsets(ndim: int, dist: int) -> tuple[Coord, ...]:
    return tuple(
        off
        for off in itertools.product(range(-dist, dist + 1), repeat=ndim)
        if any(off)
    )


#: Optional acceptance predicate: called with (grid, source, target) before a
#: move is committed; returning False vetoes it.  Lets callers monitor e.g.
#: thickness or convexity without this module claiming such monitors.
MoveFilter = Callable[[BinaryGrid, Coord, Coord], bool]

_UNKNOWN, _OK, _REMOVAL_REJECTED, _PLACEMENT_REJECTED = range(4)


class _MoveFront:
    """The movable voxels of one deformation run, kept current flip by flip.

    A source is a 1-valued voxel with a 0-valued (or out-of-range) face
    neighbor; its target is the highest-noise empty voxel within the move
    distance, the first in lexicographic offset order among equals, and
    only if it out-noises the source.  Sources with a target are kept as a
    sorted list of their ranks in the fixed (noise, raster) order, and
    each keeps the gate verdict on its move until a flip nearby could
    change it.

    Voxels are addressed by flat index into the grid padded by the move
    distance plus the safety radius, so every window around an in-range
    voxel stays in bounds.  A flip at ``p`` can only change the targets
    and the source status of voxels within the move distance of ``p``, and
    only the verdicts of sources within the move distance plus the safety
    radius (both gated blocks lie that close), so :meth:`move` recomputes
    and forgets no more than that.
    """

    def __init__(self, g: BinaryGrid, noise: NoiseField, cfg: DeformConfig):
        self.grid, self.radius = g, cfg.safety_radius
        dist = cfg.max_move_distance
        self.pad = pad = dist + cfg.safety_radius
        self.shape = shape = tuple(s + 2 * pad for s in g.dims)
        self.strides = [math.prod(shape[ax + 1 :]) for ax in range(g.ndim)]
        inner = tuple(slice(pad, pad + s) for s in g.dims)

        def padded(values, fill) -> np.ndarray:
            out = np.full(shape, fill, dtype=np.asarray(values).dtype)
            out[inner] = values
            return out.ravel()

        def deltas(offsets) -> np.ndarray:
            return np.array(offsets, dtype=np.int64).reshape(-1, g.ndim) @ self.strides

        self.offsets = deltas(_move_offsets(g.ndim, dist))
        self.face = deltas(neighbor_offsets(g.ndim, "face"))
        self.near = np.append(self.offsets, 0)
        self.stale = np.append(deltas(_move_offsets(g.ndim, pad)), 0)

        values = np.asarray(noise.values, dtype=np.float64)
        self.occupied = padded(g.data, False)
        self.inside = padded(np.ones(g.dims, dtype=bool), False)
        self.noise = padded(values, 0.0)
        # noise of the empty in-range voxels, the only possible targets
        self.open = padded(np.where(g.data, -np.inf, values), -np.inf)

        # a stable sort of the raster order breaks noise ties by position
        voxels = np.flatnonzero(self.inside)
        self.by_rank = voxels[np.argsort(self.noise[voxels], kind="stable")]
        self.rank = np.zeros(self.noise.size, dtype=np.int64)
        self.rank[self.by_rank] = np.arange(voxels.size)
        self.target = np.full(self.noise.size, -1, dtype=np.int64)
        self.verdict = np.zeros(self.noise.size, dtype=np.int8)
        ones = voxels[self.occupied[voxels]]
        for lo in range(0, ones.size, 4096):  # bounds the (cells, offsets) arrays
            chunk = ones[lo : lo + 4096]
            self.target[chunk] = self._targets(chunk)
        self.sources = sorted(self.rank[self.target >= 0].tolist())

    def coord(self, v: int) -> Coord:
        out = []
        for s in reversed(self.shape):
            v, c = divmod(v, s)
            out.append(c - self.pad)
        return tuple(out[::-1])

    def index(self, c: Coord) -> int:
        return sum((x + self.pad) * t for x, t in zip(c, self.strides))

    def _targets(self, cells: np.ndarray) -> np.ndarray:
        """The target of each of ``cells`` (padded indices), or -1."""
        occ = self.occupied
        source = occ[cells] & ~occ[cells[:, None] + self.face].all(axis=1)
        reach = self.open[cells[:, None] + self.offsets]
        best = reach.argmax(axis=1)  # the first maximum in offset order
        # moves are strictly uphill: the target must out-noise the source,
        # otherwise material oscillates between a minimum and its neighbors
        uphill = reach[np.arange(cells.size), best] > self.noise[cells]
        return np.where(source & uphill, cells + self.offsets[best], -1)

    def _judge(self, src: Coord, tgt: Coord) -> int:
        g = self.grid
        if not is_local_flip_safe(g, src, 0, self.radius):
            return _REMOVAL_REJECTED
        g.data[src] = False
        placeable = is_local_flip_safe(g, tgt, 1, self.radius)
        g.data[src] = True
        return _OK if placeable else _PLACEMENT_REJECTED

    def select(
        self, move_filter: MoveFilter | None = None
    ) -> tuple[tuple[Coord, Coord] | None, int, int]:
        """The first source, in (noise, raster) order, whose move passes
        ``move_filter`` and both gates, as a (from, to) pair, plus the gate
        rejections passed on the way.  ``move_filter`` sees every source up
        to the accepted one and is never cached.
        """
        rej_rm = rej_pl = 0
        for rank in self.sources:
            v = int(self.by_rank[rank])
            src, tgt = self.coord(v), self.coord(int(self.target[v]))
            if move_filter is not None and not move_filter(self.grid, src, tgt):
                continue
            verdict = self.verdict[v]
            if verdict == _UNKNOWN:
                verdict = self.verdict[v] = self._judge(src, tgt)
            if verdict == _REMOVAL_REJECTED:
                rej_rm += 1
            elif verdict == _PLACEMENT_REJECTED:
                rej_pl += 1
            else:
                return (src, tgt), rej_rm, rej_pl
        return None, rej_rm, rej_pl

    def move(self, src: Coord, tgt: Coord) -> None:
        """Apply an accepted move to the grid and bring the front up to date."""
        self.grid.data[src] = False
        self.grid.data[tgt] = True
        v, t = flipped = self.index(src), self.index(tgt)
        self.occupied[v], self.occupied[t] = False, True
        self.open[v], self.open[t] = self.noise[v], -np.inf
        cells = np.unique(np.concatenate([p + self.near for p in flipped]))
        cells = cells[self.inside[cells]]
        old, new = self.target[cells], self._targets(cells)
        for c, was, now in zip(cells.tolist(), old.tolist(), new.tolist()):
            if (was < 0) != (now < 0):
                r = int(self.rank[c])
                if was < 0:
                    bisect.insort(self.sources, r)
                else:
                    del self.sources[bisect.bisect_left(self.sources, r)]
        self.target[cells] = new
        for p in flipped:
            self.verdict[p + self.stale] = _UNKNOWN


def select_move(
    g: BinaryGrid, noise: NoiseField, cfg: DeformConfig
) -> tuple[Coord, Coord] | None:
    """The (from, to) pair the next iteration would flip, or None."""
    pair, _, _ = _MoveFront(g, noise, cfg).select()
    return pair


def deform_volume_preserving(
    g: BinaryGrid,
    cfg: DeformConfig,
    move_filter: MoveFilter | None = None,
    noise: NoiseField | None = None,
) -> tuple[BinaryGrid, DeformReport]:
    """Run the pixel-moving deformation; returns the new grid and a report.

    The input grid is not modified.  ``move_filter`` can veto otherwise
    acceptable moves (e.g. to enforce thickness or convexity policies).
    ``noise`` is the field the moves climb; by default it is built from
    ``cfg`` (``noise_scale``, ``seed``, ``noise_octaves``), and a caller that
    already holds that field passes it to skip building it again.
    Raises :class:`TopologyDriftError` carrying the last verified state if a
    periodic global check ever sees the Betti vector change.
    """
    if not g.data.any() or g.data.all():
        raise ValueError("deformation needs a grid that is neither empty nor full")
    t0 = time.perf_counter()
    cur = g.copy()
    if noise is None:
        noise = noise_field(g.dims, cfg.noise_scale, cfg.seed, octaves=cfg.noise_octaves)
    elif noise.dims != g.dims:
        raise ValueError(f"noise field dims {noise.dims} do not match grid dims {g.dims}")
    report = DeformReport(
        volume_before=count_ones(g), betti_before=betti_numbers(g)
    )
    verified = cur.copy()
    since_check = 0
    front = _MoveFront(cur, noise, cfg)
    for _ in range(cfg.iterations):
        pair, rej_rm, rej_pl = front.select(move_filter)
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
        since_check += 1
        if since_check >= cfg.global_check_every:
            if betti_numbers(cur) != report.betti_before:
                raise TopologyDriftError(
                    f"global re-verification found a Betti change; discarding "
                    f"the last {since_check} flips",
                    verified=verified,
                )
            verified = cur.copy()
            since_check = 0
    report.betti_after = betti_numbers(cur)
    if report.betti_after != report.betti_before:
        raise TopologyDriftError(
            "final verification found a Betti change", verified=verified
        )
    report.volume_after = count_ones(cur)
    report.wall_time = time.perf_counter() - t0
    return cur, report
