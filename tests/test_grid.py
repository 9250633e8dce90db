import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topovox.grid import (
    BinaryGrid,
    UnsupportedDimensionError,
    count_ones,
    new_grid,
)
from topovox.homology import betti_numbers

from oracles import (
    bfs_components,
    boundary_voxels,
    connected_components,
    extract_neighborhood,
    neighbor_offsets,
)


def test_new_grid_solid_square():
    g = new_grid([4, 4], fill=1)
    assert count_ones(g) == 16


def test_new_grid_empty_4d():
    g = new_grid([2, 2, 2, 2], fill=0)
    assert count_ones(g) == 0
    assert g.dims == (2, 2, 2, 2)


def test_new_grid_disc_seed():
    g = new_grid([64, 64], fill=1)
    idx = np.indices((64, 64)).astype(float)
    g.data &= ((idx[0] - 31.5) ** 2 + (idx[1] - 31.5) ** 2) <= 20.0 ** 2
    assert betti_numbers(g).betti == (1, 0, 0, 0)


def test_new_grid_rejects_bad_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        new_grid([4])
    with pytest.raises(UnsupportedDimensionError):
        new_grid([2, 2, 2, 2, 2])
    with pytest.raises(ValueError):
        new_grid([4, 0])


def test_neighbor_counts_match_adjacency_kind():
    for n in (2, 3, 4):
        assert len(neighbor_offsets(n, "face")) == 2 * n
        assert len(neighbor_offsets(n, "full")) == 3**n - 1


def test_boundary_all_ones_3x3():
    g = new_grid([3, 3], fill=1)
    # the whole rim touches out-of-range background; only the center is interior
    assert boundary_voxels(g, "face") == {
        c for c in itertools.product(range(3), repeat=2) if c != (1, 1)
    }


def test_boundary_single_voxel():
    g = new_grid([5, 5])
    g.data[2, 3] = 1
    assert boundary_voxels(g, "face") == {(2, 3)}


def test_boundary_3d_cube_brute_force():
    g = new_grid([3, 3, 3], fill=1)
    got = boundary_voxels(g, "face")
    # oracle: enumerate neighbors directly
    expect = set()
    for c in itertools.product(range(3), repeat=3):
        for off in neighbor_offsets(3, "face"):
            n = tuple(a + b for a, b in zip(c, off))
            if not all(0 <= x < 3 for x in n):
                expect.add(c)
                break
    assert got == expect
    assert len(got) == 26


def test_boundary_subset_of_foreground(rng):
    g = BinaryGrid(rng.random((12, 12)) < 0.5)
    fg = {tuple(map(int, c)) for c in np.argwhere(g.data)}
    assert boundary_voxels(g, "face") <= fg
    assert boundary_voxels(g, "full") <= fg


@pytest.mark.parametrize("dims", [(7, 9), (5, 6, 4), (4, 5, 3, 4)])
@pytest.mark.parametrize("adj", ["face", "full"])
def test_boundary_mask_brute_force(rng, dims, adj):
    for fill in (0.3, 0.8, 1.0):
        a = rng.random(dims) < fill
        expect = np.zeros(dims, dtype=bool)
        for c in map(tuple, np.argwhere(a)):
            for off in neighbor_offsets(len(dims), adj):
                n = tuple(x + o for x, o in zip(c, off))
                if not all(0 <= x < s for x, s in zip(n, dims)) or not a[n]:
                    expect[c] = True
                    break
        assert boundary_voxels(BinaryGrid(a), adj) == {tuple(map(int, c)) for c in np.argwhere(expect)}


def test_count_ones_disc_enumeration():
    g = new_grid([64, 64])
    for x in range(64):
        for y in range(64):
            if (x - 32) ** 2 + (y - 32) ** 2 <= 100:
                g.data[x, y] = 1
    expect = sum(
        1
        for x in range(64)
        for y in range(64)
        if (x - 32) ** 2 + (y - 32) ** 2 <= 100
    )
    assert count_ones(g) == expect == 317


def test_count_ones_invariant_under_symmetry(rng):
    g = BinaryGrid(rng.random((6, 7, 8)) < 0.4)
    n = count_ones(g)
    assert count_ones(BinaryGrid(g.data.transpose(2, 0, 1))) == n
    assert count_ones(BinaryGrid(g.data[::-1, :, ::-1].copy())) == n


def test_extract_neighborhood_center():
    g = new_grid([9, 9], fill=1)
    block = extract_neighborhood(g, (4, 4), 1)
    assert block.dims == (3, 3)
    assert count_ones(block) == 9


def test_extract_neighborhood_corner_padding():
    g = new_grid([5, 5], fill=1)
    block = extract_neighborhood(g, (0, 0), 1)
    assert block.dims == (3, 3)
    # overhang cells read as background
    assert count_ones(block) == 4
    assert block.data[0, 0] == 0
    assert block.data[1, 1] == 1


def test_extract_neighborhood_4d():
    g = new_grid([3, 3, 3, 3], fill=1)
    block = extract_neighborhood(g, (1, 1, 1, 1), 1)
    assert block.dims == (3, 3, 3, 3)
    assert count_ones(block) == 81


def test_extract_neighborhood_errors():
    g = new_grid([5, 5])
    with pytest.raises(IndexError):
        extract_neighborhood(g, (5, 0), 1)
    with pytest.raises(ValueError):
        extract_neighborhood(g, (2, 2), 0)


def test_components_two_isolated():
    g = new_grid([6, 6])
    g.data[1, 1] = 1
    g.data[4, 4] = 1
    count, labels = connected_components(g, "full")
    assert count == 2
    assert labels[1, 1] != labels[4, 4]
    assert labels[0, 0] == -1


def test_components_diagonal_adjacency_semantics():
    g = new_grid([4, 4])
    g.data[1, 1] = 1
    g.data[2, 2] = 1
    assert connected_components(g, "face")[0] == 2
    assert connected_components(g, "full")[0] == 1


def test_components_match_engine_beta0(rng):
    for _ in range(15):
        g = BinaryGrid(rng.random((8, 8, 8)) < rng.uniform(0.2, 0.6))
        count, _ = connected_components(g, "full")
        assert count == betti_numbers(g).betti[0]


def test_components_match_bfs_oracle(rng):
    for adj in ("face", "full"):
        for _ in range(10):
            g = BinaryGrid(rng.random((7, 7)) < 0.5)
            assert connected_components(g, adj)[0] == bfs_components(g.data, adj)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_components_labeling_is_partition(seed):
    rng = np.random.default_rng(seed)
    g = BinaryGrid(rng.random((6, 6)) < 0.5)
    count, labels = connected_components(g, "full")
    fg = g.data
    assert (labels[fg] >= 0).all()
    assert (labels[~fg] == -1).all()
    if count:
        assert set(np.unique(labels[fg])) == set(range(count))
