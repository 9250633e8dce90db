import math
import warnings

import numpy as np
import pytest

from topovox.grid import count_ones, new_grid
from topovox.homology import BettiVector, betti_numbers
from topovox import deform
from topovox.deform import (
    DeformReport,
    TopologyDriftError,
    _MoveFront,
    deform_volume_preserving,
)
from topovox.noise import NoiseField, noise_field
from topovox import seeds as sd

from oracles import block_key, boundary_voxels, interior_betti, select_move_reference


def disc_grid(radius=10.0, size=48):
    g = new_grid([size, size])
    idx = np.indices((size, size)).astype(float)
    c = (size - 1) / 2
    g.data[:] = ((idx[0] - c) ** 2 + (idx[1] - c) ** 2) <= radius * radius
    return g


def _deform(g, iterations, scale=8.0, seed=0):
    """Deform ``g`` up a noise field of ``scale`` and ``seed``, checked
    against the engine's Betti vector of ``g``."""
    return deform_volume_preserving(g, iterations, noise_field(g.dims, scale, seed), betti_numbers(g))


def _coords(front, *vs):
    """The grid coordinates of the front's padded flat indices ``vs``."""
    return tuple(
        tuple(int(x) - 1 for x in np.unravel_index(v, front.shape)) for v in vs
    )


def gradient_noise(dims):
    """Synthetic strictly monotone 'noise': value increases along axis 0."""
    vals = np.linspace(-0.9, 0.9, dims[0])[:, None] * np.ones((1, dims[1]))
    return NoiseField(tuple(dims), 1.0, 0, vals)


def test_select_move_none_for_isolated_voxel():
    g = new_grid([7, 7])
    g.data[3, 3] = 1
    assert _MoveFront(g, gradient_noise((7, 7))).select()[0] is None


def test_select_move_none_for_full_grid():
    g = new_grid([6, 6], fill=1)
    assert _MoveFront(g, gradient_noise((6, 6))).select()[0] is None


def test_select_move_monotone_bar():
    # a 10-voxel bar under a monotone ramp: the lowest-noise end moves to the
    # empty neighbor one step up the ramp
    g = new_grid([14, 7])
    for x in range(2, 12):
        g.data[x, 3] = 1
    noise = gradient_noise((14, 7))
    front = _MoveFront(g, noise)
    pair = front.select()[0]
    assert pair is not None
    src, dst = _coords(front, *pair)
    assert src == (2, 3)
    assert dst[0] == 3 and g.data[dst] == 0
    assert noise.values[dst] > noise.values[src]
    # brute-force: no 1-voxel with smaller noise is movable
    candidates = sorted(boundary_voxels(g), key=lambda c: noise.values[c])
    assert candidates[0] == src


def test_deform_conserves_volume_and_betti():
    g = disc_grid()
    out, report = _deform(g, 120, 10.0, 2)
    assert report.volume_before == report.volume_after == count_ones(out)
    assert report.betti_before == report.betti_after == betti_numbers(out)
    assert report.accepted_flips == 120
    assert out != g  # shape visibly changed


def test_deform_zero_iterations_identity():
    g = disc_grid()
    out, report = _deform(g, 0)
    assert out == g
    assert report.accepted_flips == 0
    assert report.rejected_removals == report.rejected_placements == 0


def test_deform_is_deterministic():
    g = disc_grid()
    a, ra = _deform(g, 80, seed=5)
    b, rb = _deform(g, 80, seed=5)
    assert a == b
    assert ra.accepted_flips == rb.accepted_flips
    assert ra.rejected_removals == rb.rejected_removals


def test_deform_rejects_a_field_of_other_dims():
    g = disc_grid()
    with pytest.raises(ValueError, match="do not match"):
        deform_volume_preserving(g, 5, noise_field((40, 48), 8.0, 0), betti_numbers(g))


def test_deform_input_grid_untouched():
    g = disc_grid()
    snapshot = g.copy()
    _deform(g, 50, seed=1)
    assert g == snapshot


def test_deform_preserves_figure_eight():
    g = new_grid([64, 64])
    for loop in sd.make_circle_wedge((21.5, 31.5), 10.0, 2):
        sd.rasterize_tube(g, loop, 3.0)
    assert betti_numbers(g).betti == (1, 2, 0, 0)
    out, report = _deform(g, 200, 16.0, 4)
    assert report.betti_after.betti == (1, 2, 0, 0)
    assert report.volume_after == report.volume_before


def test_deform_moves_uphill():
    g = new_grid([20, 9])
    for x in range(3, 9):
        g.data[x, 3:6] = True
    noise = gradient_noise((20, 9))
    cur = g.copy()
    centroid_before = np.argwhere(cur.data).mean(axis=0)
    for _ in range(30):
        front = _MoveFront(cur, noise)
        pair = front.select()[0]
        if pair is None:
            break
        src, dst = _coords(front, *pair)
        cur.data[src] = False
        cur.data[dst] = True
    centroid_after = np.argwhere(cur.data).mean(axis=0)
    assert centroid_after[0] > centroid_before[0]


def test_deform_rejects_trivial_grids():
    with pytest.raises(ValueError):
        _deform(new_grid([8, 8]), 1)
    with pytest.raises(ValueError):
        _deform(new_grid([8, 8], fill=1), 1)


def test_deform_stagnation_warns_and_stops():
    g = new_grid([10, 10])
    g.data[4:6, 4:6] = True  # 2x2 block: removals are safe but placements
    # can only slide it; a flat noise field (scale 1 => all zeros) gives no
    # uphill target anywhere
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, report = _deform(g, 10, 1.0, 0)
    assert report.stagnated
    assert report.accepted_flips < 10
    assert any("stagnated" in str(w.message) for w in caught)
    assert report.volume_before == report.volume_after


def _random_blob(rng, dims, count):
    """A few random balls, some overlapping; never empty or full.  On an
    axis shorter than 8 a centre lies in the middle; radii are at least 2."""
    g = new_grid(dims)
    idx = np.indices(tuple(dims)).astype(float)
    n = len(dims)
    lo = np.minimum(3.0, (np.asarray(dims) - 1) / 2)
    hi = np.maximum(lo, np.asarray(dims) - 4.0)
    for _ in range(count):
        c = rng.uniform(lo, hi)
        r = rng.uniform(2.0, max(2.0, min(dims) / 4.0))
        g.data |= sum((idx[k] - c[k]) ** 2 for k in range(n)) <= r * r
    if not g.data.any():
        g.data[tuple(d // 2 for d in dims)] = True
        g.data[tuple(d // 2 + 1 for d in dims)] = True
    return g


def test_deform_corpus_conserves_topology():
    # 100 random 2D seeds, 20 random 3D seeds, 5 random 4D seeds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g = _random_blob(rng, (32, 32), 3)
            _, report = _deform(g, 40, 9.0, seed)
            assert report.betti_before == report.betti_after, seed
            assert report.volume_before == report.volume_after, seed
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            g = _random_blob(rng, (16, 16, 16), 2)
            _, report = _deform(g, 25, 6.0, seed)
            assert report.betti_before == report.betti_after, seed
            assert report.volume_before == report.volume_after, seed
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            g = _random_blob(rng, (12, 12, 12, 12), 2)
            _, report = _deform(g, 10, 5.0, seed)
            assert report.betti_before == report.betti_after, seed
            assert report.volume_before == report.volume_after, seed


@pytest.mark.parametrize(
    "dims, iterations", [((32, 32), 80), ((16, 16, 16), 40), ((10, 10, 10, 10), 15)]
)
def test_deform_keeps_the_interior_betti_vector(dims, iterations):
    # the gate's background side keeps the Betti vector of the interior
    # reading too, not only the engine's closed one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(4):
            g = _random_blob(np.random.default_rng(300 + seed), dims, 3)
            out, report = _deform(g, iterations, 5.0, seed)
            assert report.accepted_flips > 0, seed
            assert interior_betti(out.data) == interior_betti(g.data), seed


def test_deform_rejects_negative_iterations():
    with pytest.raises(ValueError, match="iterations must be nonnegative, got -1"):
        _deform(disc_grid(), -1)


def test_deform_checks_a_short_run_once_against_its_label(monkeypatch):
    # the label is the reference: the engine runs on the deformed grid only
    g = disc_grid()
    label = betti_numbers(g)
    measured = []

    def counting(grid):
        measured.append(grid.copy())
        return betti_numbers(grid)

    monkeypatch.setattr(deform, "betti_numbers", counting)
    out, report = deform_volume_preserving(g, 60, noise_field(g.dims, 8.0, 0), label)
    assert report.accepted_flips == 60
    assert report.betti_before is label
    assert measured == [out]


def test_periodic_check_names_itself_and_both_vectors():
    g = disc_grid()
    wrong = BettiVector.of((2,), 2)
    with pytest.raises(TopologyDriftError) as info:
        deform_volume_preserving(g, 120, noise_field(g.dims, 10.0, 2), wrong)
    assert str(info.value) == (
        "the periodic check after 100 flips found a Betti change: the engine "
        "measured (1, 0, 0, 0) (chi 1), the label is (2, 0, 0, 0) (chi 2)"
    )


def test_deform_in_generation_is_checked_against_the_recipe(tmp_path, monkeypatch):
    # with no engine verification drawn, deform's final check is the only
    # one: a label the deformed grid does not have must not ship
    from topovox import pipeline

    wrong = BettiVector.of((3,), 3)
    monkeypatch.setattr(pipeline, "cavity_label", lambda *args: wrong)
    monkeypatch.setattr(pipeline, "betti_disjoint_union", lambda *args: wrong)
    cfg = pipeline.DatasetConfig(
        count=1, dims=(32, 32), deform_iterations=5, verify_rate=0.0,
        out_dir=str(tmp_path / "ds"),
    )
    with pytest.raises(TopologyDriftError, match=r"^the final check found a Betti change: .*"
                       r"the label is \(3, 0, 0, 0\) \(chi 3\)$"):
        pipeline.generate_dataset(cfg)
    assert not (tmp_path / "ds").exists()


def test_drift_leaves_generate_dataset_on_the_first_attempt(tmp_path, monkeypatch):
    # a drift means a gate defect: it must not be retried under a fresh seed
    from topovox import pipeline

    calls = []

    def drift(grid, iterations, noise, label):
        calls.append(noise.seed)
        raise TopologyDriftError("the final check found a Betti change")

    monkeypatch.setattr(pipeline, "deform_volume_preserving", drift)
    cfg = pipeline.DatasetConfig(
        count=1, dims=(24, 24), deform_iterations=5, out_dir=str(tmp_path / "ds")
    )
    with pytest.raises(TopologyDriftError):
        pipeline.generate_dataset(cfg)
    assert len(calls) == 1
    assert not (tmp_path / "ds").exists()


def _lockstep(g, noise, moves):
    """Run the front and the full-rescan reference side by side.

    Every move must pick the same pair with the same rejection counters.
    Returns the number of moves made and the number of those whose source
    the gate had rejected at an earlier select: flips since then changed
    the gate's verdict on its move.
    """
    ref = g.copy()
    front = _MoveFront(g.copy(), noise)
    rejected, revived = set(), 0
    for step in range(moves):
        expected = select_move_reference(ref, noise)
        pair, rej_rm, rej_pl = front.select()
        moved = None if pair is None else _coords(front, *pair)
        assert (moved, rej_rm, rej_pl) == expected, step
        if pair is None:
            return step, revived
        revived += moved[0] in rejected
        rejected.update(_coords(front, *(v for _, v in front.sources[: rej_rm + rej_pl])))
        front.move(*pair)
        ref.data[moved[0]] = False
        ref.data[moved[1]] = True
        assert front.grid == ref
    return moves, revived


@pytest.mark.parametrize(
    "dims, seed, moves",
    [
        ((18, 21), 1, 60),
        ((16, 16), 2, 30),
        ((9, 10, 11), 1, 30),
        ((8, 8, 9, 8), 1, 6),
        # two voxels thick: every voxel is on the border, so a move's
        # windows reach the padding on both sides of the thin axis
        ((2, 9, 10), 1, 30),
        ((2, 5, 6, 5), 1, 8),
    ],
)
def test_front_matches_full_rescan(dims, seed, moves):
    rng = np.random.default_rng(sum(dims) + 10 + seed)
    revived = 0
    for trial in range(2):
        g = _random_blob(rng, dims, 3) if trial == 0 else new_grid(dims)
        if trial == 1:
            g.data[:] = rng.random(dims) < 0.55
        noise = noise_field(dims, 4.0, trial)
        # one decimal: many equal noise values, so ties in the source order
        # and among targets decide moves
        quantized = NoiseField(dims, 4.0, trial, np.round(noise.values, 1))
        for field in (noise, quantized):
            revived += _lockstep(g, field, moves)[1]
    # some source the gate rejected is accepted after a flip nearby
    assert revived > 0


def test_front_matches_full_rescan_when_stagnating():
    # a one-voxel ring: every removal breaks the loop, so the scan passes
    # every source and ends with nothing to move
    g = new_grid([12, 12])
    g.data[3:9, 3:9] = True
    g.data[4:8, 4:8] = False
    noise = noise_field((12, 12), 3.0, 1)
    assert _lockstep(g, noise, 5)[0] == 0
    # a flat field: no target is uphill of any source
    g = new_grid([10, 10])
    g.data[4:6, 4:6] = True
    flat = NoiseField((10, 10), 1.0, 0, np.zeros((10, 10)))
    assert _lockstep(g, flat, 5)[0] == 0


def _box_with_cavities(dims, cavities):
    """A full grid with each ``(lo, hi)`` box of ``cavities`` emptied."""
    g = new_grid(dims, fill=1)
    for lo, hi in cavities:
        g.data[tuple(slice(a, b) for a, b in zip(lo, hi))] = False
    return g


@pytest.mark.parametrize(
    "dims, seed, moves, cavities",
    [
        # one cavity one layer in from the border: border voxels are sources
        # through their out-of-range neighbours and reach the cavity
        ((14, 15), 1, 40, [((1, 1), (5, 7))]),
        ((9, 10, 11), 1, 20, [((1, 1, 1), (4, 3, 4))]),
        ((9, 10, 11), 2, 12, [((2, 1, 1), (4, 4, 3)), ((5, 6, 6), (7, 8, 9))]),
        ((7, 7, 8, 7), 1, 6, [((1, 1, 1, 1), (3, 3, 4, 3))]),
        ((7, 7, 8, 7), 1, 4, [((1, 1, 1, 1), (3, 3, 3, 3)), ((4, 4, 5, 4), (6, 6, 7, 6))]),
    ],
)
def test_front_matches_full_rescan_on_cutouts(dims, seed, moves, cavities):
    # most occupied voxels are interior, so set-up must find the sources on
    # the face boundary alone
    g = _box_with_cavities(dims, cavities)
    for field_seed in (seed - 1, seed):
        noise = noise_field(dims, 4.0, field_seed)
        quantized = NoiseField(dims, 4.0, field_seed, np.round(noise.values, 1))
        for field in (noise, quantized):
            assert _lockstep(g, field, moves)[0] > 0


@pytest.mark.parametrize("dims", [(12, 12), (1, 16), (8, 8, 8), (1, 6, 6), (6, 6, 6, 6), (1, 5, 1, 6)])
def test_front_keys_stay_the_blocks_keys(monkeypatch, dims):
    # after every move, each key the front keeps is its block's key, read
    # from the grid: sliced inside, zero-padded at the border
    move, moves = _MoveFront.move, []

    def checked(self, v, t):
        move(self, v, t)
        moves.append(v)
        assert self.keys
        for u, key in self.keys.items():
            assert key == block_key(self.grid, _coords(self, u)[0])

    monkeypatch.setattr(_MoveFront, "move", checked)
    rng = np.random.default_rng(sum(dims))
    for seed in range(3):
        g = sd.BinaryGrid(rng.random(dims) < 0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _deform(g, 25, 3.0, seed)
    assert moves


@pytest.mark.parametrize("dims", [(12, 12), (1, 16), (5, 6, 7), (2, 5, 6, 5)])
def test_front_holds_the_grid_once_padded_by_one_voxel(dims):
    g = sd.BinaryGrid(np.random.default_rng(sum(dims)).random(dims) < 0.5)
    front = _MoveFront(g, noise_field(dims, 4.0, 0))
    cells = math.prod(d + 2 for d in dims)
    for per_voxel in (front.occupied, front.noise, front.open, front.target):
        assert per_voxel.size == cells
    # the grid is a view of the padded buffer, not a second copy
    assert front.grid == g
    assert np.shares_memory(front.grid.data, front.occupied)
    assert not np.shares_memory(front.grid.data, g.data)


def test_deform_returns_a_grid_that_owns_its_data(monkeypatch):
    fronts = []
    init = _MoveFront.__init__

    def kept(self, g, noise):
        init(self, g, noise)
        fronts.append(self)

    monkeypatch.setattr(_MoveFront, "__init__", kept)
    out, report = _deform(disc_grid(), 30, seed=3)
    [front] = fronts
    assert report.accepted_flips == 30
    assert out == front.grid
    assert out.data.base is None and out.data.flags.c_contiguous
    assert not np.shares_memory(out.data, front.occupied)
