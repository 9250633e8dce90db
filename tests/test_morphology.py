import itertools

import numpy as np
import pytest

from topovox.grid import BinaryGrid, UnsupportedDimensionError, count_ones, new_grid
from topovox.homology import betti_numbers
from topovox.morphology import (
    HitMissElement,
    InvalidElementError,
    StructuringElement,
    ball,
    dilate,
    element_from_spec,
    erode,
    hit_or_miss,
    homology_safe_dilate,
    thicken_background,
)
from topovox.noise import noise_field
from topovox import morphology
from topovox import seeds as sd
from topovox.homology import is_local_flip_safe

from oracles import block_key, interior_betti

BOX_3X3 = StructuringElement(np.ones((3, 3), bool), (1, 1))


def brute_dilate(m: BinaryGrid, b: StructuringElement) -> np.ndarray:
    """The set-sum definition, evaluated point by point."""
    out = np.zeros(m.dims, dtype=bool)
    for v in map(tuple, np.argwhere(m.data)):
        for off in b.offsets:
            w = tuple(a + o for a, o in zip(v, off))
            if all(0 <= c < s for c, s in zip(w, m.dims)):
                out[w] = True
    return out


def test_dilate_single_voxel_box():
    g = new_grid([5, 5])
    g.data[2, 2] = 1
    out = dilate(g, BOX_3X3)
    assert count_ones(out) == 9


def test_dilate_identity_element():
    g = new_grid([6, 6])
    g.data[2:4, 1:5] = True
    origin_only = StructuringElement(np.ones((1, 1), bool), (0, 0))
    assert dilate(g, origin_only) == g


def test_dilate_formulations_agree(rng):
    for _ in range(10):
        g = BinaryGrid(rng.random((16, 16)) < 0.3)
        b = ball(float(rng.uniform(1.0, 2.5)), 2)
        assert np.array_equal(dilate(g, b).data, brute_dilate(g, b))


def test_dilate_is_extensive_and_monotone(rng):
    g = BinaryGrid(rng.random((12, 12)) < 0.4)
    b = ball(1, 2)
    out = dilate(g, b)
    assert (g.data <= out.data).all()
    smaller = BinaryGrid(g.data & (rng.random((12, 12)) < 0.7))
    assert (dilate(smaller, b).data <= out.data).all()


def test_erode_block_to_center():
    g = new_grid([5, 5])
    g.data[1:4, 1:4] = True
    out = erode(g, BOX_3X3)
    assert count_ones(out) == 1
    assert out.data[2, 2] == 1


def test_opening_is_anti_extensive(rng):
    g = BinaryGrid(rng.random((14, 14)) < 0.55)
    b = ball(1, 2)
    opened = dilate(erode(g, b), b)
    assert (opened.data <= g.data).all()


def test_erosion_dilation_duality(rng):
    # the identity holds wherever the element does not overhang the border;
    # at the border the finite complement grid cannot represent the
    # conceptually infinite background, so the two sides differ there
    for _ in range(10):
        g = BinaryGrid(rng.random((12, 12)) < 0.5)
        b = StructuringElement(rng.random((3, 3)) < 0.6, (1, 1))
        left = erode(g, b).data
        right = ~dilate(g.complement(), StructuringElement(b.mask[::-1, ::-1].copy(), (1, 1))).data
        interior = (slice(1, -1), slice(1, -1))
        assert np.array_equal(left[interior], right[interior])
        # the clipped erosion is never more permissive than its dual
        assert not (left & ~right).any()


def test_ball_element_shapes():
    assert count_ones(BinaryGrid(ball(1, 2).mask)) == 5  # unit ball is a cross
    assert count_ones(BinaryGrid(ball(1, 3).mask)) == 7
    assert ball(1.5, 2).mask.sum() == 9
    with pytest.raises(InvalidElementError):
        StructuringElement(np.ones((11, 3), bool), (0, 0))
    with pytest.raises(InvalidElementError):
        StructuringElement(np.ones((3, 3), bool), (3, 0))


# ---------------------------------------------------------------------------
# hit-or-miss


ISOLATED_POINT = HitMissElement.from_pattern(
    [
        "000",
        "010",
        "000",
    ]
)


def test_hit_or_miss_isolated_point():
    g = new_grid([5, 5])
    g.data[2, 2] = 1
    out = hit_or_miss(g, ISOLATED_POINT)
    assert count_ones(out) == 1 and out.data[2, 2] == 1


def test_hit_or_miss_block_has_no_isolated_points():
    g = new_grid([6, 6])
    g.data[2:4, 2:4] = True
    assert count_ones(hit_or_miss(g, ISOLATED_POINT)) == 0


def test_hit_or_miss_corner_detector():
    # upper-left convex corner of a solid block
    corner = HitMissElement.from_pattern(
        [
            "00.",
            "011",
            ".1.",
        ]
    )
    g = new_grid([9, 9])
    g.data[2:7, 2:7] = True
    matches = set()
    elem = corner
    for _ in range(4):
        matches |= {tuple(map(int, c)) for c in np.argwhere(hit_or_miss(g, elem).data)}
        elem = elem.rotated90()
    # brute-force: a corner fires where the pattern fits in some rotation
    expect = {(2, 2), (2, 6), (6, 2), (6, 6)}
    assert matches == expect


def test_hit_or_miss_rejects_overlap():
    with pytest.raises(InvalidElementError):
        HitMissElement(np.ones((3, 3), bool), np.ones((3, 3), bool), (1, 1))


# ---------------------------------------------------------------------------
# thickening


def test_thicken_circle_seed():
    g = new_grid([32, 32])
    sd.rasterize_tube(g, sd.make_circle((15.5, 15.5), 9.0), 1.0)
    before = betti_numbers(g)
    assert before.betti == (1, 1, 0, 0)
    out = thicken_background(g, 6)
    assert betti_numbers(out) == before
    assert count_ones(out) > 2 * count_ones(g)


@pytest.mark.parametrize("dims", [(24, 24), (12, 12, 12), (8, 8, 8, 8)])
def test_safe_dilation_keeps_the_interior_betti_vector(dims):
    # every flip is gated on both sides, so the interior reading (face
    # adjacency for the foreground, full for the background) keeps its
    # Betti vector as well
    for seed in range(4):
        g = BinaryGrid(noise_field(dims, 3.0, seed).values > 0.15)
        bias = noise_field(dims, 4.0, seed + 10)
        out = homology_safe_dilate(g, bias=bias, seed=seed)
        assert count_ones(out) > count_ones(g), seed
        assert interior_betti(out.data) == interior_betti(g.data), seed


def _thicken_one_gate_call_at_a_time(m, iterations):
    """Thickening as it was before it walked ``_visits``: the gate sliced
    the grid for each candidate."""
    cur = m.copy()
    for _ in range(iterations):
        changed = False
        for elem in morphology._thinning_elements_2d():
            for c in map(tuple, np.argwhere(hit_or_miss(cur.complement(), elem).data)):
                if is_local_flip_safe(cur, c, 1):
                    cur.data[c] = 1
                    changed = True
        if not changed:
            break
    return cur


def test_thicken_matches_one_gate_call_at_a_time(monkeypatch):
    # no element fits over a border voxel (erosion reads past the border as
    # background), so the candidates nearest the border lie one voxel in,
    # and their blocks hold border voxels
    visits, on_border = morphology._visits, []

    def watched(cur, cand, order):
        on_border.extend(
            c for c in map(tuple, cand[order].tolist())
            if any(x in (1, s - 2) for x, s in zip(c, cur.dims))
        )
        yield from visits(cur, cand, order)

    monkeypatch.setattr(morphology, "_visits", watched)
    rng = np.random.default_rng(23)
    for trial in range(60):
        dims = tuple(int(s) for s in rng.integers(3, 40, size=2))
        m = BinaryGrid(rng.random(dims) < rng.uniform(0.05, 0.6))
        iterations = int(rng.integers(1, 6))
        assert thicken_background(m, iterations) == _thicken_one_gate_call_at_a_time(m, iterations), trial
    assert on_border


def test_thicken_rejects_non_2d():
    with pytest.raises(UnsupportedDimensionError):
        thicken_background(new_grid([5, 5, 5], fill=1), 3)


def test_thicken_zero_iterations_is_identity():
    g = new_grid([16, 16])
    g.data[5:8, 5:8] = True
    assert thicken_background(g, 0) == g


# ---------------------------------------------------------------------------
# homology-checked dilation


def test_safe_dilate_grows_contractible_blob():
    g = new_grid([16, 16, 16])
    g.data[8, 8, 8] = 1
    out = homology_safe_dilate(g, iterations=3)
    assert betti_numbers(out).betti == (1, 0, 0, 0)
    assert count_ones(out) > 20


def test_safe_dilate_preserves_scene_betti():
    g = new_grid([40, 40, 40])
    sd.rasterize_tube(g, sd.make_circle((19.5, 19.5, 10.0), 8.0), 2.0)
    sd.rasterize_tube(g, sd.make_segment((8, 8, 25), (30, 30, 30)), 2.0)
    before = betti_numbers(g)
    assert before.betti == (2, 1, 0, 0)
    out = homology_safe_dilate(g, iterations=2)
    assert betti_numbers(out) == before


def test_safe_dilate_never_merges_close_blobs():
    g = new_grid([9, 9])
    g.data[2:4, 2:4] = True
    g.data[6:8, 2:4] = True  # two voxels of gap
    before = betti_numbers(g)
    assert before.betti == (2, 0, 0, 0)
    out = homology_safe_dilate(g, iterations=4)
    assert betti_numbers(out).betti == (2, 0, 0, 0)


def test_safe_dilate_deterministic_with_bias():
    g = new_grid([24, 24])
    g.data[10:14, 10:14] = True
    bias = noise_field([24, 24], scale=5.0, seed=8)
    a = homology_safe_dilate(g, iterations=3, bias=bias, seed=5)
    b = homology_safe_dilate(g, iterations=3, bias=bias, seed=5)
    c = homology_safe_dilate(g, iterations=3, bias=bias, seed=6)
    assert a == b
    assert betti_numbers(a).betti == (1, 0, 0, 0)
    assert a != c  # different acceptance draws give a different lump


def test_safe_dilate_bias_dims_must_match():
    g = new_grid([8, 8])
    g.data[4, 4] = 1
    with pytest.raises(ValueError):
        homology_safe_dilate(g, bias=noise_field([9, 9], 4.0, 0))


@pytest.mark.parametrize("op", [dilate, erode, homology_safe_dilate])
def test_element_of_another_dimension_is_rejected(op):
    # a 2D element would probe a 3D grid in one plane only
    g = new_grid([6, 6, 6])
    g.data[3, 3, 3] = 1
    with pytest.raises(ValueError, match="2D structuring element cannot probe a 3D grid"):
        op(g, BOX_3X3)
    with pytest.raises(ValueError, match="4D structuring element"):
        op(g, ball(1, 4))


def test_element_spec_needs_a_set_voxel():
    with pytest.raises(InvalidElementError, match="no set voxel"):
        element_from_spec({"mask": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "origin": [1, 1]})
    assert element_from_spec({"mask": [[0, 1], [0, 0]], "origin": [0, 0]}).offsets == ((0, 1),)


THIN_AND_BORDER = [(9, 9), (1, 9), (6, 6, 6), (1, 5, 6), (5, 5, 5, 5), (1, 4, 1, 5)]


@pytest.mark.parametrize("dims", THIN_AND_BORDER)
def test_visit_keys_are_the_blocks_keys(dims):
    # any order, any acceptance: each candidate comes with the key of its
    # block at its visit, border and one-voxel-thick grids included
    rng = np.random.default_rng(sum(dims))
    for _ in range(8):
        cur = BinaryGrid(rng.random(dims) < 0.3)
        cand = np.argwhere(~cur.data)
        order = rng.permutation(len(cand))[: len(cand) * 3 // 4]
        for c, key in morphology._visits(cur, cand, order):
            assert key == block_key(cur, c)
            if rng.random() < 0.7:
                cur.data[c] = True


def _dilate_one_gate_call_at_a_time(m, iterations, bias, seed):
    """Homology-safe dilation as it was before the keys were precomputed."""
    cur = m.copy()
    b = ball(1, m.ndim)
    for it in range(iterations):
        cand = np.argwhere(dilate(cur, b).data & ~cur.data)
        if cand.size == 0:
            break
        order = np.arange(len(cand))
        if bias is not None:
            vals = bias.values[tuple(cand.T)]
            order = np.lexsort(tuple(cand.T[::-1]) + (-vals,))
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, it))))
            draws = rng.random(len(cand))
            order = order[draws[order] < (vals[order] + 1.0) / 2.0]
        for c in map(tuple, cand[order].tolist()):
            if is_local_flip_safe(cur, c, 1):
                cur.data[c] = True
    return cur


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("dims", [(16, 16), (1, 12), (10, 10, 10), (1, 6, 7), (7, 7, 7, 7)])
def test_safe_dilation_judges_each_candidate_by_its_blocks_key(monkeypatch, dims, with_bias):
    visits, seen = morphology._visits, []

    def checked(cur, cand, order):
        for c, key in visits(cur, cand, order):
            assert key == block_key(cur, c)
            seen.append(c)
            yield c, key

    monkeypatch.setattr(morphology, "_visits", checked)
    rng = np.random.default_rng(len(dims) + dims[0])
    m = BinaryGrid(rng.random(dims) < 0.15)
    bias = noise_field(dims, 4.0, 3) if with_bias else None
    out = homology_safe_dilate(m, iterations=2, bias=bias, seed=1)
    assert seen
    assert out == _dilate_one_gate_call_at_a_time(m, 2, bias, 1)
