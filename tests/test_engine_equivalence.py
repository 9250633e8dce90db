"""The engine's whole-grid layers against their first, plainer versions.

``_sweep_collapse`` must remove the same free pairs and leave the same core
as the sweep that recomputed in-plane coface counts for every dimension of
every hyperplane; ``component_roots``, built on the run forest, must
return the same root for every cell, and ``component_count`` the same
number of components, as the union-find that linked single cells instead
of runs; the parity classes must be the slices of the doubled lattice
spread from the voxels; and ``betti_numbers``, which moves the shortest
axis first, must not depend on the order of the axes.
"""
import itertools

import numpy as np
import pytest

from topovox import noise, pipeline
from topovox.grid import BinaryGrid, _pair_slices, component_count
from topovox.homology import (
    betti_numbers,
    _cell_classes,
    _cell_dim_array,
    _interleave,
    _squash,
    _sweep_collapse,
)

from oracles import (
    _cell_lattice,
    component_roots,
    component_roots_reference,
    count_roots,
    neighbor_offsets,
    sweep_collapse_reference,
)

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
    (60, 3),
    (40, 3, 4),
]
FILLS = [0.1, 0.3, 0.5, 0.7, 0.9]


def gen_plain_4d_grids(count=3):
    """Cut-outs and embedded objects from gen-plain's 4D config (16^4, one object)."""
    grids = []
    for mode in ("cutout", "embed"):
        cfg = pipeline.DatasetConfig(count=1, dims=(16,) * 4, max_objects=1, mode=mode)
        table = pipeline._draw_table(cfg)
        for i in range(count):
            seq = np.random.SeedSequence(entropy=61, spawn_key=(i, 0))
            rng = np.random.Generator(np.random.PCG64(seq))
            grid, *_ = pipeline._build_sample(cfg, table, rng, int(seq.generate_state(1)[0]))
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
    assert got.shape == want.shape == (np.count_nonzero(mask),)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


def assert_same_engine_roots(data):
    """Both passes of whole-grid verification: the 1-skeleton and the
    padded complement, linked as ``_skeleton_components`` and
    ``_bounded_background_components`` link them."""
    assert_same_roots(*skeleton_links(_cell_lattice(data)))
    bg = np.pad(~data, 1, constant_values=True)
    face = [off for off in neighbor_offsets(data.ndim, "face") if off > (0,) * data.ndim]
    assert_same_roots(bg, adjacency_links(bg, face))


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
    """Neither the last axis nor the first, whose ``(1, 0, ...)`` links
    build the runs, need be linked."""
    for shape in [(8, 9), (5, 6, 7), (4, 3, 5, 4)]:
        n = len(shape)
        mask = rng.random(shape) < 0.6
        for ax in (-1, 0):
            offsets = [
                off
                for off in itertools.product((-1, 0, 1), repeat=n)
                if any(off) and off[ax] == 0
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
    for grid in gen_plain_4d_grids():
        # the whole 16^4 grid, and the squashed one that verification sees
        for data in (grid, _squash(grid)):
            assert_same_engine_roots(data)


@pytest.mark.parametrize("side", [24, 31, 40])
def test_roots_match_reference_on_verify_noisy_grids(side):
    """The benchmark's verify-noisy kinds: 60% uniform fill, and a
    thresholded noise field with 2-5% of its voxels flipped."""
    rng = np.random.default_rng(side)
    shape = (side,) * 3
    uniform = rng.random(shape) < 0.6
    field = noise.noise_field(shape, float(rng.uniform(4.0, 8.0)), int(rng.integers(2**31)))
    salted = (field.values > 0) ^ (rng.random(shape) < rng.uniform(0.02, 0.05))
    for data in (uniform, salted):
        # nothing squashes away in noisy grids: the engine sees them whole
        assert_same_engine_roots(data)


def test_roots_when_links_skip_every_other_position_of_a_run_pair():
    """Two full rows, each one run; only every other cross link is present,
    so no link has a linked predecessor to stand in for it."""
    for shape in [(2, 12), (2, 3, 11)]:
        n = len(shape)
        mask = np.ones(shape, dtype=bool)
        links = adjacency_links(mask, [(0,) * (n - 1) + (1,)])
        for off, joined in adjacency_links(mask, [(1,) + (0,) * (n - 1)]):
            for parity in (0, 1):
                cross = joined.copy()
                cross[..., parity::2] = False
                assert_same_roots(mask, links + [(off, cross)])
            # a single link joins the pair, at either end or in the middle
            for x in (0, shape[-1] // 2, shape[-1] - 1):
                cross = np.zeros_like(joined)
                cross[..., x] = True
                assert_same_roots(mask, links + [(off, cross)])


def test_roots_when_a_run_breaks_under_a_linked_stretch():
    """Row 0 is one run, row 1 breaks in the middle.  The cross link where
    row 1's second run starts has a linked predecessor and a source that
    continues its run, but its target does not continue: it is the only
    link of that run and must be kept."""
    mask = np.ones((2, 10), dtype=bool)
    along = mask[:, 1:].copy()
    along[1, 4] = False  # row 1: cells 0-4 and 5-9
    across = np.ones((1, 10), dtype=bool)
    got = component_roots(mask, [((0, 1), along), ((1, 0), across)])
    assert np.array_equal(got, np.zeros(20, dtype=np.int32))
    assert_same_roots(mask, [((0, 1), along), ((1, 0), across)])
    # the other way round: the source breaks, the target is one run
    along = mask[:, 1:].copy()
    along[0, 4] = False
    assert_same_roots(mask, [((0, 1), along), ((1, 0), across)])


def test_roots_with_a_backward_last_axis_offset(rng):
    """``(0, ..., -1)`` and ``(-1, 0, ...)`` are not the first-axis link
    that builds runs: each is passed through as a cross link, alone or
    beside the forward ones."""
    for shape in [(7, 9), (5, 6, 7), (4, 3, 5, 4)]:
        n = len(shape)
        mask = rng.random(shape) < 0.6
        face = [off for off in neighbor_offsets(n, "face") if off > (0,) * n]
        for back in [(0,) * (n - 1) + (-1,), (-1,) + (0,) * (n - 1)]:
            assert_same_roots(mask, adjacency_links(mask, [back]))
            assert_same_roots(mask, adjacency_links(mask, [back] + face))
            some = [
                (off, joined & (rng.random(joined.shape) < 0.5))
                for off, joined in adjacency_links(mask, [back] + face)
            ]
            assert_same_roots(mask, some)


def assert_same_classes(data):
    """Each parity class is the spread lattice's ``parity::2`` slice, and
    interleaving the classes gives the spread lattice back."""
    lattice = _cell_lattice(data)
    classes = _cell_classes(data)
    assert list(classes) == list(itertools.product((0, 1), repeat=data.ndim))
    for parity, cls in classes.items():
        assert cls.dtype == bool and cls.flags.c_contiguous
        assert np.array_equal(cls, lattice[tuple(slice(p, None, 2) for p in parity)]), parity
    assert np.array_equal(_interleave(classes), lattice)


@pytest.mark.parametrize("shape", SHAPES)
def test_classes_match_the_spread_lattice(rng, shape):
    for fill in FILLS:
        assert_same_classes(rng.random(shape) < fill)
    assert_same_classes(np.zeros(shape, dtype=bool))
    assert_same_classes(np.ones(shape, dtype=bool))


def test_interleaved_lattice_matches_on_gen_plain_4d_samples():
    for grid in gen_plain_4d_grids():
        for data in (grid, _squash(grid)):
            assert_same_classes(data)


def assert_same_count(mask, links):
    links = list(links)
    assert component_count(mask, links) == count_roots(component_roots_reference(mask, links))


def assert_same_engine_counts(data):
    """Both counts of whole-grid verification, with the links built as
    ``_skeleton_components`` (from the parity classes) and
    ``_bounded_background_components`` build them."""
    n = data.ndim
    classes = _cell_classes(data)
    units = [tuple(int(j == ax) for j in range(n)) for ax in range(n)]
    assert_same_count(classes[(0,) * n], [(u, classes[u]) for u in units])
    bg = np.pad(~data, 1, constant_values=True)
    assert_same_count(bg, adjacency_links(bg, units))


@pytest.mark.parametrize("shape", SHAPES)
def test_count_matches_reference_on_random_grids(rng, shape):
    n = len(shape)
    for fill in FILLS:
        mask = rng.random(shape) < fill
        assert_same_engine_counts(mask)
        full = [off for off in neighbor_offsets(n, "full") if off > (0,) * n]
        assert_same_count(mask, adjacency_links(mask, full))
    for mask in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)):
        assert_same_engine_counts(mask)


@pytest.mark.parametrize("side", [24, 31, 40])
def test_count_matches_reference_on_verify_noisy_grids(side):
    rng = np.random.default_rng(side)
    shape = (side,) * 3
    uniform = rng.random(shape) < 0.6
    field = noise.noise_field(shape, float(rng.uniform(4.0, 8.0)), int(rng.integers(2**31)))
    salted = (field.values > 0) ^ (rng.random(shape) < rng.uniform(0.02, 0.05))
    for data in (uniform, salted):
        assert_same_engine_counts(data)


def test_count_matches_reference_on_union_find_edge_cases(rng):
    """The cases of the roots tests above: links that skip every other
    position of a run pair or leave one link, a run that breaks under a
    linked stretch, a backward last-axis offset, and no last-axis link."""
    for shape in [(2, 12), (2, 3, 11)]:
        n = len(shape)
        mask = np.ones(shape, dtype=bool)
        along = adjacency_links(mask, [(0,) * (n - 1) + (1,)])
        [(off, joined)] = adjacency_links(mask, [(1,) + (0,) * (n - 1)])
        for parity in (0, 1):
            cross = joined.copy()
            cross[..., parity::2] = False
            assert_same_count(mask, along + [(off, cross)])
        for x in (0, shape[-1] // 2, shape[-1] - 1):
            cross = np.zeros_like(joined)
            cross[..., x] = True
            assert_same_count(mask, along + [(off, cross)])
    mask = np.ones((2, 10), dtype=bool)
    across = np.ones((1, 10), dtype=bool)
    for row in (0, 1):
        along = mask[:, 1:].copy()
        along[row, 4] = False
        assert_same_count(mask, [((0, 1), along), ((1, 0), across)])
    assert component_count(mask, [((0, 1), along), ((1, 0), across)]) == 1
    for shape in [(7, 9), (5, 6, 7), (4, 3, 5, 4)]:
        n = len(shape)
        back = (0,) * (n - 1) + (-1,)
        mask = rng.random(shape) < 0.6
        face = [off for off in neighbor_offsets(n, "face") if off > (0,) * n]
        assert_same_count(mask, adjacency_links(mask, [back]))
        assert_same_count(mask, adjacency_links(mask, [back] + face))
        some = [
            (off, joined & (rng.random(joined.shape) < 0.5))
            for off, joined in adjacency_links(mask, [back] + face)
        ]
        assert_same_count(mask, some)
        no_last = [
            off
            for off in itertools.product((-1, 0, 1), repeat=n)
            if any(off) and off[-1] == 0
        ]
        assert_same_count(mask, adjacency_links(mask, no_last))
        assert_same_count(mask, [])


def assert_betti_invariant_under_axis_permutations(data):
    want = betti_numbers(BinaryGrid(data))
    for perm in itertools.permutations(range(data.ndim)):
        got = betti_numbers(BinaryGrid(np.ascontiguousarray(data.transpose(perm))))
        assert got == want, perm


def test_betti_numbers_do_not_depend_on_the_order_of_the_axes(rng):
    """The engine moves the shortest axis first; permuting the axes of the
    input must give the same Betti vector, whichever axis that is."""
    for shape in [(9, 11), (6, 5, 7), (30, 3), (4, 4, 25)]:
        for fill in FILLS:
            assert_betti_invariant_under_axis_permutations(rng.random(shape) < fill)
    for side in (5, 6, 7):
        assert_betti_invariant_under_axis_permutations(rng.random((side,) * 4) < 0.6)
