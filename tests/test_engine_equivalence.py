"""The engine's whole-grid layers against their first, plainer versions.

``_sweep_collapse`` must remove the same free pairs and leave the same core
as the sweep that recomputed in-plane coface counts for every dimension of
every hyperplane, and ``component_roots`` must return the same root for
every cell as the union-find that linked single cells instead of runs.
"""
import itertools

import numpy as np
import pytest

from topovox import pipeline
from topovox.grid import _pair_slices, component_roots, neighbor_offsets
from topovox.homology import _cell_dim_array, _cell_lattice, _squash, _sweep_collapse

from oracles import component_roots_reference, sweep_collapse_reference

SHAPES = [
    (9, 11),
    (1, 7),
    (7, 1),
    (6, 5, 7),
    (1, 6, 5),
    (5, 4, 1),
    (4, 5, 3, 6),
    (1, 4, 4, 4),
    (4, 4, 4, 1),
    (6, 6, 6, 6),
]
FILLS = [0.1, 0.3, 0.5, 0.7, 0.9]


def gen_plain_4d_grids(count=3):
    """Cut-outs and embedded objects from gen-plain's 4D config (16^4, one object)."""
    grids = []
    for mode in ("cutout", "embed"):
        cfg = pipeline.DatasetConfig(count=1, dims=(16,) * 4, max_objects=1, mode=mode)
        for i in range(count):
            seq = np.random.SeedSequence(entropy=61, spawn_key=(i, 0))
            rng = np.random.Generator(np.random.PCG64(seq))
            grid, *_ = pipeline._build_sample(cfg, rng, int(seq.generate_state(1)[0]))
            grids.append(grid.data)
    return grids


def assert_same_sweep(data):
    present = _cell_lattice(data)
    par = _cell_dim_array(present.shape)
    expected = present.copy()
    want = sweep_collapse_reference(expected, par)
    got = _sweep_collapse(present, par)
    assert np.array_equal(got, want)
    assert np.array_equal(present, expected)


@pytest.mark.parametrize("shape", SHAPES)
def test_sweep_matches_reference_on_random_grids(rng, shape):
    for fill in FILLS:
        data = rng.random(shape) < fill
        assert_same_sweep(data)
        squashed = _squash(data)
        if squashed is not None:
            assert_same_sweep(squashed)


def test_sweep_matches_reference_on_empty_and_full_grids():
    for shape in [(3, 4), (3, 2, 4), (2, 3, 2, 2)]:
        assert_same_sweep(np.zeros(shape, dtype=bool))
        assert_same_sweep(np.ones(shape, dtype=bool))


def test_sweep_matches_reference_on_gen_plain_4d_samples():
    for data in gen_plain_4d_grids():
        assert_same_sweep(data)
        assert_same_sweep(_squash(data))


def skeleton_links(present):
    """The 1-skeleton's vertices and its edges, as ``_skeleton_components`` links them."""
    n = present.ndim
    links = []
    for ax in range(n):
        off = tuple(int(j == ax) for j in range(n))
        links.append((off, present[tuple(slice(1 if j == ax else 0, None, 2) for j in range(n))]))
    return present[(slice(0, None, 2),) * n], links


def adjacency_links(mask, offsets):
    links = []
    for off in offsets:
        src, dst = _pair_slices(off, mask.shape)
        links.append((off, mask[src] & mask[dst]))
    return links


def assert_same_roots(mask, links):
    links = list(links)
    want = component_roots_reference(mask, links)
    got = component_roots(mask, links)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", SHAPES)
def test_roots_match_reference_on_random_grids(rng, shape):
    n = len(shape)
    for fill in FILLS:
        mask = rng.random(shape) < fill
        face = [off for off in neighbor_offsets(n, "face") if off > (0,) * n]
        full = [off for off in neighbor_offsets(n, "full") if off > (0,) * n]
        assert_same_roots(mask, adjacency_links(mask, face))
        assert_same_roots(mask, adjacency_links(mask, full))
        # backward offsets, and links that join only some adjacent pairs
        some = [
            (off, joined & (rng.random(joined.shape) < 0.5))
            for off, joined in adjacency_links(mask, neighbor_offsets(n, "full"))
        ]
        assert_same_roots(mask, some)
        assert_same_roots(*skeleton_links(_cell_lattice(mask)))


def test_roots_match_reference_without_a_last_axis_link(rng):
    for shape in [(8, 9), (5, 6, 7), (4, 3, 5, 4)]:
        n = len(shape)
        mask = rng.random(shape) < 0.6
        offsets = [
            off
            for off in itertools.product((-1, 0, 1), repeat=n)
            if any(off) and off[-1] == 0
        ]
        assert_same_roots(mask, adjacency_links(mask, offsets))
        assert_same_roots(mask, [])


def test_roots_of_an_empty_mask():
    for shape in [(4, 5), (1, 1, 1), (3, 1, 2, 1)]:
        mask = np.zeros(shape, dtype=bool)
        offsets = [off for off in neighbor_offsets(len(shape), "face") if off > (0,) * len(shape)]
        roots = component_roots(mask, adjacency_links(mask, offsets))
        assert roots.size == 0
        assert_same_roots(mask, adjacency_links(mask, offsets))


def test_roots_match_reference_on_gen_plain_4d_samples():
    face = [off for off in neighbor_offsets(4, "face") if off > (0,) * 4]
    for grid in gen_plain_4d_grids():
        # the whole 16^4 grid, and the squashed one that verification sees
        for data in (grid, _squash(grid)):
            assert_same_roots(*skeleton_links(_cell_lattice(data)))
            bg = np.pad(~data, 1, constant_values=True)
            assert_same_roots(bg, adjacency_links(bg, face))
