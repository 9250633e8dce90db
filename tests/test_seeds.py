import hashlib
import math
import time

import numpy as np
import pytest
from oracles import make_polyline, place_with_spacing_reference, stamp_tube_reference

from topovox.grid import BinaryGrid, count_ones, new_grid
from topovox.homology import betti_numbers
from topovox.labels import cavity_label, embedded_label
from topovox import seeds as sd
from topovox.seeds import (
    ImplicitShape,
    InvalidCurveError,
    ParametricCurve,
    PlacementError,
    PlacementExhaustedError,
    make_circle,
    make_circle_wedge,
    make_hopf_link,
    make_segment,
    make_trefoil,
    place_with_spacing,
    rasterize_implicit,
    rasterize_tube,
)


def center_of(dims):
    return tuple((d - 1) / 2.0 for d in dims)


def test_point_ball_sets_one_voxel():
    g = new_grid([9, 9, 9])
    rasterize_implicit(g, ImplicitShape("ball", (4.0, 4.0, 4.0), (0.4,)))
    assert count_ones(g) == 1
    assert g.data[4, 4, 4] == 1


def test_solid_torus_label():
    g = new_grid([32] * 3)
    rasterize_implicit(g, ImplicitShape("solid_torus", center_of([32] * 3), (8.0, 3.0)))
    assert betti_numbers(g).betti == (1, 1, 0, 0)


@pytest.mark.parametrize(
    "kind,radii,expect",
    [
        ("ball", (4.0,), (1, 0, 0, 0)),
        ("sphere_shell", (6.0, 1.6), (1, 0, 0, 1)),
        ("S1xB3", (6.0, 2.0), (1, 1, 0, 0)),
        ("S2xB2", (6.0, 2.0), (1, 0, 1, 0)),
        ("T2xB2", (4.5, 2.2, 1.0), (1, 2, 1, 0)),
        ("tube_IxS2", (5.0, 1.6), (1, 0, 1, 0)),
        ("tube_I2xS1", (6.0, 2.0), (1, 1, 0, 0)),
        ("tube_IxT2", (4.5, 2.2, 1.0), (1, 2, 1, 0)),
    ],
)
def test_4d_catalog_labels(kind, radii, expect):
    g = new_grid([20] * 4)
    rasterize_implicit(g, ImplicitShape(kind, center_of([20] * 4), radii))
    assert betti_numbers(g).betti == expect


def test_3d_shell_kinds():
    g = new_grid([24] * 3)
    rasterize_implicit(g, ImplicitShape("sphere_shell", center_of([24] * 3), (7.0, 1.5)))
    assert betti_numbers(g).betti == (1, 0, 1, 0)
    g = new_grid([28] * 3)
    rasterize_implicit(g, ImplicitShape("torus_shell", center_of([28] * 3), (7.0, 3.5, 1.2)))
    assert betti_numbers(g).betti == (1, 2, 1, 0)


def test_shape_validation():
    with pytest.raises(ValueError):
        ImplicitShape("cube", (0, 0), (1.0,))
    with pytest.raises(ValueError):
        ImplicitShape("solid_torus", (0, 0, 0), (2.0, 3.0))  # r >= R
    with pytest.raises(ValueError):
        ImplicitShape("ball", (0, 0), (-1.0,))


#: Two radii tuples per core arity: point (r), torus (R1, R2, r), others (R, r).
MASK_RADII = {1: ((3.3,), (2.6,)), 2: ((4.0, 1.6), (3.6, 1.2)), 3: ((4.0, 1.8, 0.8), (3.6, 1.6, 1.0))}
MASK_ARITY = {"point": 1, "torus": 3}
MASK_DIMS = {2: (22, 22), 3: (20, 20, 20), 4: (18, 18, 18, 18)}
IMPLICIT_MASKS_DIGEST = "2ca0b33541c855cda7568bdb9377fdbbfa96cb5a62b9c5de549ced4192a4f96c"


def implicit_mask_cases():
    """Every implicit kind in each dimension it is labelled in, over two radii
    and two centres."""
    for record in sd.CATALOG:
        if record.core is None:
            continue
        for ndim in sorted(record.betti):
            dims = MASK_DIMS[ndim]
            shifted = tuple(c + s for c, s in zip(center_of(dims), (0.3, -0.5, 0.25, 0.0)))
            for radii in MASK_RADII[MASK_ARITY.get(record.core, 2)]:
                for center in (center_of(dims), shifted):
                    yield dims, ImplicitShape(record.name, center, radii)


def test_implicit_masks_are_pinned():
    # the voxels and axis reach of every implicit kind; the digest was
    # recorded before the orientation and extents fields were removed
    cases = list(implicit_mask_cases())
    assert len(cases) == 76
    digest = hashlib.sha256()
    for dims, shape in cases:
        g = new_grid(dims)
        rasterize_implicit(g, shape)
        key = (shape.kind, shape.center, shape.radii, shape.axis_reach(len(dims)))
        digest.update(repr(key).encode())
        digest.update(np.packbits(g.data).tobytes())
    assert digest.hexdigest() == IMPLICIT_MASKS_DIGEST


def test_interior_margin_enforced():
    g = new_grid([16, 16, 16])
    with pytest.raises(PlacementError):
        rasterize_implicit(g, ImplicitShape("ball", (2.0, 8.0, 8.0), (3.0,)))


# ---------------------------------------------------------------------------
# tubes


def test_straight_tube_is_contractible():
    g = new_grid([32] * 3)
    rasterize_tube(g, make_segment((8, 16, 16), (24, 16, 16)), 2.0)
    assert betti_numbers(g).betti == (1, 0, 0, 0)


def test_circle_tube_is_a_donut():
    g = new_grid([32] * 3)
    rasterize_tube(g, make_circle(center_of([32] * 3), 8.0), 2.0)
    assert betti_numbers(g).betti == (1, 1, 0, 0)


def test_trefoil_tube_is_homologically_a_donut():
    g = new_grid([48] * 3)
    rasterize_tube(g, make_trefoil(center_of([48] * 3), 6.0), 2.0)
    assert betti_numbers(g).betti == (1, 1, 0, 0)


def test_sparse_curve_rejected():
    sparse = ParametricCurve(np.array([[2.0, 2.0], [10.0, 2.0]]), closed=False)
    g = new_grid([16, 16])
    with pytest.raises(InvalidCurveError):
        rasterize_tube(g, sparse, 1.5)


def test_tube_resampling_invariance():
    dims = [32] * 3
    center = center_of(dims)

    def circle_at(n):
        t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        pts = np.tile(np.asarray(center), (n, 1))
        pts[:, 0] += 8.0 * np.cos(t)
        pts[:, 1] += 8.0 * np.sin(t)
        return ParametricCurve(pts, closed=True)

    a = new_grid(dims)
    rasterize_tube(a, circle_at(400), 2.0)
    b = new_grid(dims)
    rasterize_tube(b, circle_at(900), 2.0)
    assert a == b


def test_hopf_link_labels():
    g = new_grid([32] * 3)
    c1, c2 = make_hopf_link((13.0, 16.0, 16.0), 6.0)
    rasterize_tube(g, c1, 2.0)
    rasterize_tube(g, c2, 2.0)
    assert betti_numbers(g).betti == (2, 2, 0, 0)
    alone = new_grid([32] * 3)
    rasterize_tube(alone, c1, 2.0)
    assert betti_numbers(alone).betti == (1, 1, 0, 0)


def _random_curve(rng, dims, closed, repeat):
    # waypoints spill past every face, so segment boxes get clipped
    pts = rng.uniform(-3.0, np.asarray(dims) + 2.0, size=(int(rng.integers(2, 5)), len(dims)))
    if repeat:
        # a repeated waypoint makes a leg of zero-length segments
        pts = np.insert(pts, 1, pts[1], axis=0)
    return make_polyline(pts, closed=closed)


def _stamp_both(rng, dims, curve, r, fill=0.5):
    start = rng.random(dims) < fill
    expect = start.copy()
    stamp_tube_reference(expect, curve, r)
    got = BinaryGrid(start.copy())
    rasterize_tube(got, curve, r)
    return expect, got.data


@pytest.mark.parametrize("dims", [(23, 19), (13, 15, 11), (8, 9, 7, 10)])
@pytest.mark.parametrize("closed", [False, True])
def test_tube_matches_per_segment_reference(dims, closed):
    rng = np.random.default_rng(sum(dims) * 4 + 2 + closed)
    for trial in range(6):
        curve = _random_curve(rng, dims, closed, repeat=trial % 2 == 0)
        if trial % 2 == 0:
            seg = curve.segments()
            assert (seg[:, 0] == seg[:, 1]).all(axis=1).any()
        r = float(rng.uniform(0.4, 3.0))
        expect, got = _stamp_both(rng, dims, curve, r)
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dims,r", [((30, 24, 26), 9.0), ((14, 12, 13, 11), 5.5)])
def test_tube_matches_reference_across_chunks(dims, r):
    rng = np.random.default_rng(len(dims) + 1)
    curve = _random_curve(rng, dims, closed=False, repeat=True)
    # every segment box spans at least 2r per axis: more pairs than one chunk
    assert len(curve.segments()) * (2 * r) ** len(dims) > 2 * sd.STAMP_CHUNK_PAIRS
    expect, got = _stamp_both(rng, dims, curve, r)
    assert got.tobytes() == expect.tobytes()


def _tie_radius(curve, voxel):
    """A radius whose square equals the voxel's squared distance to the curve.

    The distance is taken in the reference's per-segment arithmetic, so the
    voxel sits exactly on the tube's boundary and any change in rounding
    order can move it out.
    """
    best = math.inf
    for p0, p1 in curve.segments():
        rel = [np.float64(x) - c for x, c in zip(voxel, p0)]
        d = p1 - p0
        l2 = float(np.dot(d, d))
        if l2 == 0.0:
            dist2 = sum(c * c for c in rel)
        else:
            t = min(max(sum(c * dc for c, dc in zip(rel, d)) / l2, 0.0), 1.0)
            dist2 = sum((c - t * dc) ** 2 for c, dc in zip(rel, d))
        best = min(best, float(dist2))
    root = math.sqrt(best)
    for r in (root, math.nextafter(root, math.inf), math.nextafter(root, 0.0)):
        if r * r == best:
            return r
    return None


@pytest.mark.parametrize("dims", [(23, 19), (13, 15, 11), (8, 9, 7, 10)])
def test_tube_matches_reference_on_boundary_ties(dims):
    rng = np.random.default_rng(len(dims))
    ties = 0
    for _ in range(120):
        curve = _random_curve(rng, dims, closed=bool(rng.integers(2)), repeat=False)
        near = curve.samples[rng.integers(len(curve.samples))] + rng.integers(-3, 4, len(dims))
        voxel = tuple(int(x) for x in np.clip(np.round(near), 0, np.asarray(dims) - 1))
        r = _tie_radius(curve, voxel)
        if r is None or not 0.5 <= r <= 4.0:
            continue
        ties += 1
        expect, got = _stamp_both(rng, dims, curve, r, fill=0.0)
        assert expect[voxel]
        assert got.tobytes() == expect.tobytes()
    assert ties >= 40


@pytest.mark.parametrize("dims", [(23, 19), (13, 15, 11), (8, 9, 7, 10)])
def test_tube_matches_reference_on_integer_waypoints(dims):
    # integer waypoints and radii put voxels exactly r past a box's edge
    rng = np.random.default_rng(len(dims) + 10)
    for closed in (False, True):
        for r in (1.0, 2.0, 3.0):
            pts = rng.integers(-2, np.asarray(dims) + 2, size=(4, len(dims)))
            curve = make_polyline(pts.astype(float), closed=closed)
            expect, got = _stamp_both(rng, dims, curve, r, fill=0.0)
            assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dims", [(12, 11), (9, 10, 8), (8, 9, 7, 8)])
@pytest.mark.parametrize("r", [1.4, 1.6, 2.0])
def test_tube_matches_reference_near_box_edges(dims, r):
    # an endpoint sits so that min - r (or max + r) lies on, just past or just
    # short of an integer, where the tight box starts (or ends); the voxel
    # there on the segment's axis line is then a hair outside or inside
    rng = np.random.default_rng(len(dims) * 10 + int(r * 10))
    n = len(dims)
    for delta in (0.0, 1e-12, 1e-10, 1e-8):
        for sign in (1, -1):
            for end in ("min", "max"):
                for k in range(n):
                    base = rng.integers(3, np.asarray(dims) - 3).astype(float)
                    edge = int(base[k])
                    p0 = base.copy()
                    step = np.zeros(n)
                    if end == "min":
                        p0[k] = edge + r + sign * delta
                        step[k] = 0.4
                    else:
                        p0[k] = edge - r + sign * delta
                        step[k] = -0.4
                    curve = ParametricCurve(np.stack([p0, p0 + step]), closed=False)
                    expect, got = _stamp_both(rng, dims, curve, r, fill=0.0)
                    assert got.tobytes() == expect.tobytes()
                    voxel = tuple(int(c) for c in base[:k]) + (edge,) + tuple(
                        int(c) for c in base[k + 1:]
                    )
                    if delta:
                        # inside exactly when the edge voxel is short of r
                        assert got[voxel] == ((sign < 0) == (end == "min"))


def test_tube_outside_the_grid_sets_nothing():
    g = new_grid([12, 12])
    rasterize_tube(g, make_segment((-20.0, -20.0), (-10.0, -20.0)), 2.0)
    assert count_ones(g) == 0


def test_separated_circles_same_homology_as_link():
    # homology cannot see linking: two far-apart circles measure the same
    g = new_grid([40] * 3)
    rasterize_tube(g, make_circle((12.0, 12.0, 12.0), 6.0), 2.0)
    rasterize_tube(g, make_circle((28.0, 28.0, 28.0), 6.0, plane=(0, 2)), 2.0)
    assert betti_numbers(g).betti == (2, 2, 0, 0)


def test_circle_wedge_labels():
    g = new_grid([44, 32, 32])
    for loop in make_circle_wedge((12.0, 16.0, 16.0), 5.0, 3):
        rasterize_tube(g, loop, 2.0)
    assert betti_numbers(g).betti == (1, 3, 0, 0)


# ---------------------------------------------------------------------------
# placement


def test_place_in_empty_sample_first_trial():
    sample = new_grid([16, 16])
    obj = new_grid([4, 4], fill=1)
    off = place_with_spacing(sample, obj, spacing=2, seed=0)
    assert all(0 <= o <= 12 for o in off)


def test_place_in_full_sample_exhausts():
    sample = new_grid([16, 16], fill=1)
    obj = new_grid([3, 3], fill=1)
    with pytest.raises(PlacementExhaustedError):
        place_with_spacing(sample, obj, spacing=2, seed=0, max_trials=64)


def test_placed_balls_respect_spacing():
    sample = new_grid([32] * 3)
    obj = new_grid([11] * 3)
    idx = np.indices((11,) * 3).astype(float)
    obj.data[:] = ((idx - 5.0) ** 2).sum(axis=0) <= 25.0
    offs = []
    for seed in (1, 2):
        off = place_with_spacing(sample, obj, spacing=3, seed=seed)
        sd.blit(sample, obj, off)
        offs.append(np.asarray(off) + 5)
    assert np.linalg.norm(offs[0] - offs[1]) >= 13.0
    assert betti_numbers(sample).betti == (2, 0, 0, 0)


def test_placement_satisfies_dilation_disjointness():
    from topovox.morphology import ball, dilate

    sample = new_grid([24, 24])
    sample.data[8:14, 8:14] = True
    obj = new_grid([5, 5], fill=1)
    off = place_with_spacing(sample, obj, spacing=2, seed=4)
    blocked = dilate(sample, ball(2, 2)).data
    region = tuple(slice(o, o + 5) for o in off)
    assert not (blocked[region] & obj.data).any()


def _placement_outcome(place, sample, obj, spacing, seed, max_trials, margin):
    try:
        return place(
            BinaryGrid(sample.data.copy()), obj, spacing,
            seed=seed, max_trials=max_trials, margin=margin,
        )
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("ndim", [2, 3, 4])
@pytest.mark.parametrize("per_axis", [1, 2, 3, 7])
def test_placement_matches_reference(ndim, per_axis):
    # per_axis**ndim candidate offsets: 1, 8, 27 and 343 in 3D
    rng = np.random.default_rng(ndim * 10 + per_axis)
    outcomes = set()
    for trial in range(20 if ndim < 4 else 10):
        margin = int(rng.integers(0, 3))
        spacing = int(rng.integers(1, 5))
        odims = tuple(int(d) for d in rng.integers(2, 8 if ndim < 4 else 5, ndim))
        sdims = tuple(d + 2 * margin + per_axis - 1 for d in odims)
        obj = BinaryGrid(rng.random(odims) < rng.choice([0.3, 1.0]))
        # empty, sparse, crowded and full samples
        fill = (0.0, 0.003, 0.02, 0.1, 1.0)[trial % 5]
        sample = BinaryGrid(rng.random(sdims) < fill)
        max_trials = int(rng.choice([1, 6, 50, 1000]))
        seed = int(rng.integers(2**32))
        args = (sample, obj, spacing, seed, max_trials, margin)
        got = _placement_outcome(place_with_spacing, *args)
        assert got == _placement_outcome(place_with_spacing_reference, *args)
        outcomes.add(type(got))
    assert outcomes == {tuple, type}


def test_placement_matches_reference_on_crowded_scenes():
    # objects placed one after another until the scene is full
    rng = np.random.default_rng(7)
    for ndim, side in ((2, 40), (3, 18)):
        sample = new_grid([side + int(rng.integers(3)) for _ in range(ndim)])
        exhausted = 0
        for k in range(40):
            obj = BinaryGrid(rng.random(tuple(rng.integers(3, 8, ndim))) < 0.7)
            args = (sample, obj, int(rng.integers(1, 5)), k, 1000, int(rng.integers(3)))
            got = _placement_outcome(place_with_spacing, *args)
            assert got == _placement_outcome(place_with_spacing_reference, *args)
            if isinstance(got, tuple):
                sd.blit(sample, obj, got)
            else:
                exhausted += 1
        assert exhausted >= 5


def test_placement_finds_the_one_feasible_offset():
    # 25 candidates, only (2, 2) clears the scene: the search must not give
    # up before it has tested every candidate, whichever it draws last
    sample = new_grid([5, 5], fill=1)
    sample.data[1:4, 2] = sample.data[2, 1:4] = False
    obj = new_grid([1, 1], fill=1)
    for seed in range(200):
        assert place_with_spacing(sample, obj, spacing=1, seed=seed, max_trials=10**6) == (2, 2)


def test_placement_raises_once_every_candidate_failed():
    # 4 candidate offsets: the 10**7 trials are never drawn
    sample = new_grid([16, 16], fill=1)
    obj = new_grid([15, 15], fill=1)
    start = time.perf_counter()
    with pytest.raises(PlacementExhaustedError, match="among all 4 candidate offsets"):
        place_with_spacing(sample, obj, spacing=2, seed=0, max_trials=10**7)
    assert time.perf_counter() - start < 5.0


def test_placement_and_blit_name_both_dims_on_ndim_mismatch():
    sample = new_grid([4, 4, 16])
    obj = new_grid([4, 4], fill=1)
    for call in (
        lambda: place_with_spacing(sample, obj, spacing=2),
        lambda: sd.blit(sample, obj, (0, 0)),
    ):
        with pytest.raises(ValueError, match=r"\(4, 4\).*\(4, 4, 16\)") as info:
            call()
        assert type(info.value) is ValueError


def test_polyline_chaining_is_dense():
    curve = make_polyline([(2, 2), (10, 4), (6, 12)], closed=True)
    assert curve.max_spacing() <= 0.5
    assert curve.closed


def test_full_catalog_rasterizations_match_labels():
    # every embeddable catalog kind, in every dimension it supports, measures
    # exactly its descriptor label
    rng = np.random.default_rng(5)
    for ndim in (2, 3, 4):
        budget = {2: 60, 3: 44, 4: 20}[ndim]
        for kind in sd.drawn("embed", ndim):
            obj, genus = kind.make(ndim, rng, budget)
            measured = betti_numbers(obj)
            label = embedded_label(kind.name, ndim, genus)
            assert measured == label, (kind.name, ndim, measured.betti, label.betti)
    # and every cut-out kind, carved from a solid box with margin 2, measures
    # the cavity label of its (g, h, i, j)
    carved = 0
    for ndim in (2, 3, 4):
        budget = {2: 60, 3: 44, 4: 20}[ndim]
        for kind in sd.drawn("cutout", ndim):
            obj, genus = kind.make(ndim, rng, budget)
            scene = new_grid([d + 4 for d in obj.dims])
            sd.blit(scene, obj, (2,) * ndim)
            box = scene.complement()
            label = cavity_label(ndim, [kind.cutout(genus)])
            measured = betti_numbers(box)
            assert measured == label, (kind.name, ndim, measured.betti, label.betti)
            carved += 1
    assert carved == sum(len(kind.carve) for kind in sd.CATALOG)


@pytest.mark.parametrize("ndim", [2, 3, 4])
def test_offset_draws_in_blocks_match_one_call_per_axis(ndim):
    for seed in range(200):
        trials = 2 * sd._DRAW_BLOCK + 7 if seed < 5 else 40
        highs = [5 + (seed + ax) % 7 for ax in range(ndim)]
        low = seed % 3
        per_axis = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        expected = [
            tuple(int(per_axis.integers(low, h + 1)) for h in highs) for _ in range(trials)
        ]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        assert list(sd._offset_draws(rng, low, highs, trials)) == expected
