import warnings

import numpy as np
import pytest

from topovox.grid import boundary_voxels, count_ones, new_grid
from topovox.homology import betti_numbers
from topovox.deform import (
    DeformConfig,
    DeformReport,
    TopologyDriftError,
    deform_volume_preserving,
    select_move,
)
from topovox.noise import NoiseField, noise_field
from topovox import seeds as sd


def disc_grid(radius=10.0, size=48):
    g = new_grid([size, size])
    idx = np.indices((size, size)).astype(float)
    c = (size - 1) / 2
    g.data[:] = ((idx[0] - c) ** 2 + (idx[1] - c) ** 2) <= radius * radius
    return g


def gradient_noise(dims):
    """Synthetic strictly monotone 'noise': value increases along axis 0."""
    vals = np.linspace(-0.9, 0.9, dims[0])[:, None] * np.ones((1, dims[1]))
    return NoiseField(tuple(dims), 1.0, 0, vals)


def test_select_move_none_for_isolated_voxel():
    g = new_grid([7, 7])
    g.set((3, 3), 1)
    assert select_move(g, gradient_noise((7, 7)), DeformConfig(iterations=1)) is None


def test_select_move_none_for_full_grid():
    g = new_grid([6, 6], fill=1)
    assert select_move(g, gradient_noise((6, 6)), DeformConfig(iterations=1)) is None


def test_select_move_monotone_bar():
    # a 10-voxel bar under a monotone ramp: the lowest-noise end moves to the
    # empty neighbor one step up the ramp
    g = new_grid([14, 7])
    for x in range(2, 12):
        g.set((x, 3), 1)
    noise = gradient_noise((14, 7))
    pair = select_move(g, noise, DeformConfig(iterations=1))
    assert pair is not None
    src, dst = pair
    assert src == (2, 3)
    assert dst[0] == 3 and g.get(dst) == 0
    assert noise.values[dst] > noise.values[src]
    # brute-force: no 1-voxel with smaller noise is movable
    candidates = sorted(boundary_voxels(g), key=lambda c: noise.values[c])
    assert candidates[0] == src


def test_deform_conserves_volume_and_betti():
    g = disc_grid()
    out, report = deform_volume_preserving(
        g, DeformConfig(iterations=120, noise_scale=10.0, seed=2)
    )
    assert report.volume_before == report.volume_after == count_ones(out)
    assert report.betti_before == report.betti_after == betti_numbers(out)
    assert report.accepted_flips == 120
    assert out != g  # shape visibly changed


def test_deform_zero_iterations_identity():
    g = disc_grid()
    out, report = deform_volume_preserving(g, DeformConfig(iterations=0))
    assert out == g
    assert report.accepted_flips == 0
    assert report.rejected_removals == report.rejected_placements == 0


def test_deform_is_deterministic():
    g = disc_grid()
    a, ra = deform_volume_preserving(g, DeformConfig(iterations=80, seed=5))
    b, rb = deform_volume_preserving(g, DeformConfig(iterations=80, seed=5))
    assert a == b
    assert ra.accepted_flips == rb.accepted_flips
    assert ra.rejected_removals == rb.rejected_removals


def test_deform_with_a_given_field_equals_building_it():
    g = disc_grid()
    cfg = DeformConfig(iterations=60, noise_scale=5.5, seed=9)
    field = noise_field(g.dims, cfg.noise_scale, cfg.seed)
    a, ra = deform_volume_preserving(g, cfg)
    b, rb = deform_volume_preserving(g, cfg, noise=field)
    assert a == b
    assert ra.to_dict() == rb.to_dict()


def test_deform_rejects_a_field_of_other_dims():
    g = disc_grid()
    with pytest.raises(ValueError, match="do not match"):
        deform_volume_preserving(g, DeformConfig(iterations=5), noise=noise_field((40, 48), 8.0, 0))


def test_deform_input_grid_untouched():
    g = disc_grid()
    snapshot = g.copy()
    deform_volume_preserving(g, DeformConfig(iterations=50, seed=1))
    assert g == snapshot


def test_deform_preserves_figure_eight():
    g = new_grid([64, 64])
    for loop in sd.make_circle_wedge((21.5, 31.5), 10.0, 2):
        sd.rasterize_tube(g, loop, 3.0)
    assert betti_numbers(g).betti == (1, 2, 0, 0)
    out, report = deform_volume_preserving(
        g, DeformConfig(iterations=200, noise_scale=16.0, seed=4)
    )
    assert report.betti_after.betti == (1, 2, 0, 0)
    assert report.volume_after == report.volume_before


def test_deform_moves_uphill():
    g = new_grid([20, 9])
    for x in range(3, 9):
        g.data[x, 3:6] = True
    noise = gradient_noise((20, 9))
    cfg = DeformConfig(iterations=30, seed=0)
    cur = g.copy()
    centroid_before = np.argwhere(cur.data).mean(axis=0)
    for _ in range(cfg.iterations):
        pair = select_move(cur, noise, cfg)
        if pair is None:
            break
        src, dst = pair
        cur.data[src] = False
        cur.data[dst] = True
    centroid_after = np.argwhere(cur.data).mean(axis=0)
    assert centroid_after[0] > centroid_before[0]


def test_deform_rejects_trivial_grids():
    with pytest.raises(ValueError):
        deform_volume_preserving(new_grid([8, 8]), DeformConfig(iterations=1))
    with pytest.raises(ValueError):
        deform_volume_preserving(new_grid([8, 8], fill=1), DeformConfig(iterations=1))


def test_deform_stagnation_warns_and_stops():
    g = new_grid([10, 10])
    g.data[4:6, 4:6] = True  # 2x2 block: removals are safe but placements
    # can only slide it; a flat noise field (scale 1 => all zeros) gives no
    # uphill target anywhere
    cfg = DeformConfig(iterations=10, noise_scale=1.0, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, report = deform_volume_preserving(g, cfg)
    assert report.stagnated
    assert report.accepted_flips < 10
    assert any("stagnated" in str(w.message) for w in caught)
    assert report.volume_before == report.volume_after


def _random_blob(rng, dims, count):
    """A few random balls, some overlapping; never empty or full."""
    g = new_grid(dims)
    idx = np.indices(tuple(dims)).astype(float)
    n = len(dims)
    for _ in range(count):
        c = rng.uniform(3, np.asarray(dims) - 4.0)
        r = rng.uniform(2.0, min(dims) / 4.0)
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
            _, report = deform_volume_preserving(
                g, DeformConfig(iterations=40, noise_scale=9.0, seed=seed)
            )
            assert report.betti_before == report.betti_after, seed
            assert report.volume_before == report.volume_after, seed
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            g = _random_blob(rng, (16, 16, 16), 2)
            _, report = deform_volume_preserving(
                g, DeformConfig(iterations=25, noise_scale=6.0, seed=seed)
            )
            assert report.betti_before == report.betti_after, seed
            assert report.volume_before == report.volume_after, seed
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            g = _random_blob(rng, (12, 12, 12, 12), 2)
            _, report = deform_volume_preserving(
                g, DeformConfig(iterations=10, noise_scale=5.0, seed=seed)
            )
            assert report.betti_before == report.betti_after, seed
            assert report.volume_before == report.volume_after, seed


def test_deform_config_validation():
    with pytest.raises(ValueError):
        DeformConfig(iterations=-1)
    with pytest.raises(ValueError):
        DeformConfig(iterations=1, global_check_every=0)


def test_report_serialization_excludes_wall_time():
    g = disc_grid()
    _, report = deform_volume_preserving(g, DeformConfig(iterations=20, seed=9))
    doc = report.to_dict()
    assert "wall_time" not in doc
    assert doc["volume_before"] == doc["volume_after"]
    assert doc["betti_before"]["betti"] == list(report.betti_before.betti)


def test_drift_error_carries_verified_state():
    err = TopologyDriftError("boom", verified=disc_grid())
    assert err.verified is not None


def test_move_filter_vetoes_moves():
    g = disc_grid()
    # forbid any move whose target lands in the upper half of the image
    out, report = deform_volume_preserving(
        g,
        DeformConfig(iterations=40, noise_scale=10.0, seed=2),
        move_filter=lambda grid, src, dst: dst[0] >= 24,
    )
    gained = np.argwhere(out.data & ~g.data)
    assert report.accepted_flips > 0
    assert (gained[:, 0] >= 24).all()


def _lockstep(g, noise, cfg, moves, move_filter=None):
    """Run the front and the full-rescan reference side by side.

    Every move must pick the same pair with the same rejection counters,
    and ``move_filter`` must see the same calls in the same order.  Returns
    the number of moves made.
    """
    from oracles import select_move_reference
    from topovox.deform import _MoveFront

    ref = g.copy()
    front = _MoveFront(g.copy(), noise, cfg)
    seen = {"front": [], "ref": []}

    def recorder(name):
        if move_filter is None:
            return None

        def record(grid, src, dst):
            seen[name].append((src, dst))
            return move_filter(grid, src, dst)

        return record

    for step in range(moves):
        expected = select_move_reference(ref, noise, cfg, recorder("ref"))
        got = front.select(recorder("front"))
        assert got == expected, step
        assert seen["front"] == seen["ref"], step
        pair = got[0]
        if pair is None:
            return step
        front.move(*pair)
        ref.data[pair[0]] = False
        ref.data[pair[1]] = True
        assert front.grid == ref
    return moves


def _veto(grid, src, dst):
    return (sum(src) + 2 * dst[-1]) % 3 != 0


@pytest.mark.parametrize("move_filter", [None, _veto])
@pytest.mark.parametrize(
    "dims, dist, radius, moves",
    [
        ((18, 21), 1, 1, 60),
        ((16, 16), 2, 1, 40),
        ((16, 16), 1, 2, 30),
        ((9, 10, 11), 1, 1, 30),
        ((8, 8, 8), 2, 2, 8),
        ((8, 8, 9, 8), 1, 1, 6),
    ],
)
def test_front_matches_full_rescan(dims, dist, radius, moves, move_filter):
    rng = np.random.default_rng(sum(dims) + 10 * dist + radius)
    cfg = DeformConfig(
        iterations=moves, max_move_distance=dist, safety_radius=radius
    )
    for trial in range(2):
        g = _random_blob(rng, dims, 3) if trial == 0 else new_grid(dims)
        if trial == 1:
            g.data[:] = rng.random(dims) < 0.55
        noise = noise_field(dims, 4.0, trial)
        # one decimal: many equal noise values, so ties in the source order
        # and among targets decide moves
        quantized = NoiseField(dims, 4.0, trial, np.round(noise.values, 1))
        for field in (noise, quantized):
            _lockstep(g, field, cfg, moves, move_filter)


def test_front_matches_full_rescan_when_stagnating():
    cfg = DeformConfig(iterations=5)
    # a one-voxel ring: every removal breaks the loop, so the scan passes
    # every source and ends with nothing to move
    g = new_grid([12, 12])
    g.data[3:9, 3:9] = True
    g.data[4:8, 4:8] = False
    noise = noise_field((12, 12), 3.0, 1)
    assert _lockstep(g, noise, cfg, 5) == 0
    # a flat field: no target is uphill of any source
    g = new_grid([10, 10])
    g.data[4:6, 4:6] = True
    flat = NoiseField((10, 10), 1.0, 0, np.zeros((10, 10)))
    assert _lockstep(g, flat, cfg, 5) == 0
