import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topovox
from topovox import homology
from topovox.grid import BinaryGrid, new_grid
from topovox.homology import (
    BettiVector,
    betti_numbers,
    is_local_flip_safe,
    _rank_columns,
    _squash,
)

from oracles import (
    betti_oracle,
    bfs_components,
    bounded_background_components,
    build_cubical_complex,
    connected_components,
    euler_from_cells,
    cell_counts_bruteforce,
    chi_bruteforce,
    eliminate_block,
    extract_neighborhood,
    flip_safe_reference,
    gf2_rank,
    interior_betti,
    squash_reference,
)


def annulus_2d():
    g = new_grid([5, 5])
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                g.data[i + 1, j + 1] = 1
    return g


def hollow_shell_3d():
    g = new_grid([7, 7, 7])
    for c in itertools.product(range(5), repeat=3):
        if 0 in c or 4 in c:
            g.data[tuple(x + 1 for x in c)] = 1
    return g


# ---------------------------------------------------------------------------
# complex construction


def test_single_voxel_2d_cells():
    g = new_grid([5, 5])
    g.data[2, 2] = 1
    c = build_cubical_complex(g)
    assert c.cell_counts == (4, 4, 1)


def test_two_adjacent_voxels_share_an_edge():
    g = new_grid([5, 5])
    g.data[2, 2] = 1
    g.data[2, 3] = 1
    assert build_cubical_complex(g).cell_counts == (6, 7, 2)


def test_single_voxel_4d_cells():
    g = new_grid([3, 3, 3, 3])
    g.data[1, 1, 1, 1] = 1
    assert build_cubical_complex(g).cell_counts == (16, 32, 24, 8, 1)


def test_cell_counts_match_bruteforce(rng):
    g = BinaryGrid(rng.random((4, 5, 3)) < 0.5)
    assert build_cubical_complex(g).cell_counts == cell_counts_bruteforce(g.data)


def test_boundary_of_boundary_vanishes(rng):
    for dims in [(4, 4), (3, 3, 3), (2, 3, 2, 3)]:
        g = BinaryGrid(rng.random(dims) < 0.6)
        c = build_cubical_complex(g)
        for k in range(2, g.ndim + 1):
            dk = c.boundary_matrix(k)
            dk1 = c.boundary_matrix(k - 1)
            if dk.size == 0 or dk1.size == 0:
                continue
            assert not ((dk1 @ dk) % 2).any()


def test_each_facet_appears_once(rng):
    g = BinaryGrid(rng.random((4, 4, 4)) < 0.5)
    c = build_cubical_complex(g)
    for k in range(1, 4):
        for col in c.boundary_columns(k):
            assert len(col) == len(set(col)) == 2 * k


# ---------------------------------------------------------------------------
# GF(2) rank


def test_gf2_rank_zero_matrix():
    assert gf2_rank(np.zeros((3, 4), dtype=int)) == 0


def test_gf2_rank_identity():
    assert gf2_rank(np.eye(5, dtype=int)) == 5


def test_gf2_rank_square_boundary():
    g = new_grid([3, 3])
    g.data[1, 1] = 1
    d1 = build_cubical_complex(g).boundary_matrix(1)
    assert d1.shape == (4, 4)
    assert gf2_rank(d1) == 3


def _rank_by_span_enumeration(m: np.ndarray) -> int:
    """Independent oracle: count distinct elements of the column span."""
    cols = [tuple(c % 2) for c in m.T]
    span = {tuple([0] * m.shape[0])}
    for c in cols:
        span |= {tuple((a + b) % 2 for a, b in zip(v, c)) for v in span}
    return int(np.log2(len(span)))


def test_gf2_rank_against_span_enumeration(rng):
    for _ in range(20):
        m = (rng.random((6, 5)) < 0.5).astype(int)
        assert gf2_rank(m) == _rank_by_span_enumeration(m)


# ---------------------------------------------------------------------------
# Betti numbers


def test_empty_grid_all_zero():
    bv = betti_numbers(new_grid([4, 4, 4]))
    assert bv.betti == (0, 0, 0, 0) and bv.euler == 0


def test_annulus():
    bv = betti_numbers(annulus_2d())
    assert bv.betti == (1, 1, 0, 0)
    assert bv.euler == 0


def test_hollow_shell_is_a_sphere():
    bv = betti_numbers(hollow_shell_3d())
    assert bv.betti == (1, 0, 1, 0)
    assert bv.euler == 2


def test_torus_shell_16():
    g = new_grid([16, 16, 16])
    idx = np.indices((16, 16, 16)).astype(float)
    c = 7.5
    rho = np.sqrt((idx[0] - c) ** 2 + (idx[1] - c) ** 2)
    surf = np.sqrt((rho - 4.5) ** 2 + (idx[2] - c) ** 2)
    g.data[:] = np.abs(surf - 2.0) <= 1.1
    bv = betti_numbers(g)
    assert bv.betti == (1, 2, 1, 0)
    # Euler characteristic cross-checked from raw cell counts
    assert bv.euler == chi_bruteforce(g.data) == 0


def test_euler_from_cells_examples():
    g = new_grid([3, 3])
    g.data[1, 1] = 1
    assert euler_from_cells(build_cubical_complex(g)) == 1
    assert euler_from_cells(build_cubical_complex(annulus_2d())) == 0


def test_euler_matches_alternating_betti(rng):
    for dims in [(6, 6), (5, 5, 5), (3, 4, 3, 3)]:
        g = BinaryGrid(rng.random(dims) < 0.5)
        bv = betti_numbers(g)
        assert bv.euler == euler_from_cells(build_cubical_complex(g))
        assert bv.euler == sum((-1) ** k * b for k, b in enumerate(bv.betti))


def test_matches_duality_oracle_2d_3d(rng):
    for _ in range(10):
        g = BinaryGrid(rng.random((8, 8)) < rng.uniform(0.3, 0.7))
        assert betti_numbers(g).betti[:3] == betti_oracle(g.data)
    for _ in range(10):
        g = BinaryGrid(rng.random((6, 6, 6)) < rng.uniform(0.3, 0.7))
        assert betti_numbers(g).betti == betti_oracle(g.data)


@pytest.mark.parametrize("shape", [(9, 9), (12, 7), (6, 6, 6), (5, 7, 4)])
def test_interior_betti_matches_components_with_swapped_adjacencies(rng, shape):
    # the interior reads the foreground by face adjacency and the
    # background by full adjacency: b0 counts face-adjacent foreground
    # components, b_(n-1) the full-adjacent background components off the border
    n = len(shape)
    for _ in range(15):
        data = rng.random(shape) < rng.uniform(0.2, 0.8)
        interior = interior_betti(data)
        assert interior[0] == bfs_components(data, "face")
        assert interior[n - 1] == bounded_background_components(data, "full")
        assert interior[n:] == (0,) * (4 - n)


def test_interior_betti_of_a_diagonal_pair():
    # closed cubes touch at a corner; their interiors do not
    data = np.eye(2, dtype=bool)
    assert betti_numbers(BinaryGrid(data)).betti == (1, 0, 0, 0)
    assert interior_betti(data) == (2, 0, 0, 0)


def _betti_from_boundary_ranks(g: BinaryGrid) -> tuple[int, ...]:
    """Betti numbers from the dense boundary matrices, whatever the dimension."""
    c = build_cubical_complex(g)
    ranks = [0] + [gf2_rank(c.boundary_matrix(k)) for k in range(1, g.ndim + 1)] + [0]
    beta = [c.cell_counts[k] - ranks[k] - ranks[k + 1] for k in range(g.ndim + 1)]
    return BettiVector.of(beta, 0).betti


def _with_cavity(dims: tuple[int, ...]) -> BinaryGrid:
    """A solid box touching the grid border, hollowed out at one inner voxel."""
    g = new_grid(dims, fill=1)
    g.data[tuple(d // 2 for d in dims)] = 0
    return g


def test_matches_boundary_matrix_oracle(rng):
    grids = [
        new_grid((4, 6)),
        new_grid((3, 5), fill=1),
        new_grid((2, 3, 4)),
        new_grid((3, 2, 4), fill=1),
        new_grid((2, 2, 3, 2)),
        new_grid((2, 3, 2, 2), fill=1),
        annulus_2d(),
        hollow_shell_3d(),
        _with_cavity((3, 4, 3)),
        _with_cavity((3, 3, 3, 3)),
    ]
    # a loop: a square annulus thickened along the last two axes
    ring = new_grid((3, 3, 2, 2), fill=1)
    ring.data[1, 1] = False
    grids.append(ring)
    # several components: isolated voxels and a diagonal pair
    many = new_grid((5, 5, 4, 3))
    for c in [(0, 0, 0, 0), (4, 4, 3, 2), (2, 2, 1, 1), (3, 3, 2, 2), (0, 4, 3, 0)]:
        many.data[c] = 1
    grids.append(many)
    for dims, fills in [
        ((6, 9), (0.3, 0.5, 0.7)),
        ((1, 7), (0.5,)),
        ((4, 5, 3), (0.3, 0.5, 0.7)),
        ((3, 1, 5), (0.5,)),
        ((3, 3, 3, 3), (0.5, 0.6, 0.75)),
        ((2, 3, 4, 2), (0.5, 0.7)),
    ]:
        for p in fills:
            for _ in range(3):
                grids.append(BinaryGrid(rng.random(dims) < p))
    for k in (1, 2, 3):
        assert any(_betti_from_boundary_ranks(g)[k] for g in grids if g.ndim == 4)
    for g in grids:
        bv = betti_numbers(g)
        assert bv.betti == _betti_from_boundary_ranks(g), g.data.astype(int)
        assert bv.euler == euler_from_cells(build_cubical_complex(g))


def _betti_from_sparse_boundary_ranks(g: BinaryGrid) -> tuple[int, ...]:
    """:func:`_betti_from_boundary_ranks` with each rank reduced from the
    boundary map's sparse columns, which fit where the dense matrices of
    6^4 to 8^4 grids do not."""
    c = build_cubical_complex(g)
    ranks = [0] + [_rank_columns(c.boundary_columns(k))[0] for k in range(1, g.ndim + 1)] + [0]
    beta = [c.cell_counts[k] - ranks[k] - ranks[k + 1] for k in range(g.ndim + 1)]
    return BettiVector.of(beta, 0).betti


@pytest.mark.parametrize(
    "shape",
    [(23, 31), (1, 40), (12, 9, 14), (1, 13, 10), (6, 6, 6, 6), (7, 6, 8, 7), (8, 8, 8, 8)],
)
def test_whole_grid_matches_boundary_ranks_on_random_fills(rng, shape):
    """The parity classes, the run-level component counts and, in 4D, the
    interleaved lattice's collapse and core rank, against every boundary
    map reduced on the explicit complex."""
    for fill in (0.2, 0.35, 0.5, 0.65, 0.8):
        g = BinaryGrid(rng.random(shape) < fill)
        bv = betti_numbers(g)
        assert bv.betti == _betti_from_sparse_boundary_ranks(g), (shape, fill)
        assert bv.euler == euler_from_cells(build_cubical_complex(g))


_RSS_PROBE = """
import json, resource
# fail with MemoryError instead of exhausting the machine
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from topovox.grid import BinaryGrid
from topovox.homology import betti_numbers
bv = betti_numbers(BinaryGrid(np.random.default_rng(7).random((64, 64, 64)) < 0.6))
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"betti": bv.betti, "euler": bv.euler, "rss_mb": rss_mb}))
"""


def test_random_64_cube_peak_memory():
    """A random 60% fill 64^3 grid resolves in bounded memory."""
    src = str(Path(topovox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # a process started by exec inherits the ru_maxrss of the image it
    # replaced (pytest's), so the probe is started from a small interpreter
    launcher = (
        "import subprocess, sys; "
        f"sys.exit(subprocess.run([sys.executable, '-c', {_RSS_PROBE!r}]).returncode)"
    )
    out = subprocess.run(
        [sys.executable, "-c", launcher],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    res = json.loads(out.stdout)
    assert res["rss_mb"] < 400
    b = res["betti"]
    assert res["euler"] == b[0] - b[1] + b[2] - b[3]


def test_component_count_equals_beta0(rng):
    for _ in range(10):
        g = BinaryGrid(rng.random((7, 7, 7)) < 0.4)
        assert connected_components(g, "full")[0] == betti_numbers(g).betti[0]


def test_disjoint_union_additivity():
    g = new_grid([16, 16, 16])
    idx = np.indices((16, 16, 16)).astype(float)
    ball = ((idx - 3.5) ** 2).sum(axis=0) <= 6.0
    shell_rho = np.sqrt(((idx - 11.5) ** 2).sum(axis=0))
    shell = np.abs(shell_rho - 2.5) <= 1.0
    g.data[:] = ball | shell
    ga = BinaryGrid(ball)
    gb = BinaryGrid(shell)
    bu, ba, bb = betti_numbers(g), betti_numbers(ga), betti_numbers(gb)
    assert bu.betti == tuple(x + y for x, y in zip(ba.betti, bb.betti))
    assert bu.euler == ba.euler + bb.euler


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_invariance_under_axis_symmetries(seed):
    rng = np.random.default_rng(seed)
    g = BinaryGrid(rng.random((5, 6, 4)) < 0.5)
    base = betti_numbers(g)
    perm = tuple(rng.permutation(3))
    assert betti_numbers(BinaryGrid(g.data.transpose(perm).copy())) == base
    assert betti_numbers(BinaryGrid(g.data[::-1, :, ::-1].copy())) == base


def test_reduced_flag():
    g = new_grid([4, 4])
    g.data[1, 1] = 1
    assert betti_numbers(g, reduced=False).betti == (1, 0, 0, 0)
    assert betti_numbers(g, reduced=True).betti == (0, 0, 0, 0)
    assert betti_numbers(new_grid([4, 4]), reduced=True).betti == (0, 0, 0, 0)


def test_betti_vector_of_rejects_high_dimensions():
    with pytest.raises(ValueError):
        BettiVector.of((1, 0, 0, 0, 2), 0)


# ---------------------------------------------------------------------------
# squashing runs of equal slabs


def _repeat_slabs(rng, data: np.ndarray, most: int) -> np.ndarray:
    """``data`` with every slab along every axis repeated 1..most times."""
    for ax in range(data.ndim):
        data = np.repeat(data, rng.integers(1, most + 1, data.shape[ax]), axis=ax)
    return data


def _equal_neighbours(data: np.ndarray, ax: int) -> np.ndarray:
    """For each pair of consecutive slabs along ``ax``, whether they are equal."""
    a, b = np.moveaxis(data, ax, 0)[1:], np.moveaxis(data, ax, 0)[:-1]
    return (a == b).all(axis=tuple(range(1, data.ndim)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ndim=st.sampled_from((2, 3, 4)),
    fill=st.floats(0.2, 0.8),
    axis=st.integers(0, 3),
    copies=st.integers(1, 3),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_repeated_and_empty_end_slabs_leave_betti_unchanged(
    seed, ndim, fill, axis, copies, pad
):
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in rng.integers(1, 6 if ndim < 4 else 4, ndim))
    data = rng.random(shape) < fill
    ax = axis % ndim
    base = betti_numbers(BinaryGrid(data))
    reps = np.ones(shape[ax], dtype=int)
    reps[rng.integers(shape[ax])] += copies
    repeated = np.repeat(data, reps, axis=ax)
    widths = [(0, 0)] * ndim
    widths[ax] = pad
    padded = np.pad(data, widths)
    for edited in (repeated, padded):
        bv = betti_numbers(BinaryGrid(edited))
        assert bv == base
        if ndim < 4:  # duality and flood fills, independent of the engine
            assert bv.betti[: ndim + 1] == betti_oracle(edited)[: ndim + 1]


def test_repeated_slabs_match_boundary_matrix_oracle(rng):
    grids = []
    for shape, most, fills in [
        ((3, 4), 3, (0.3, 0.5, 0.7)),
        ((1, 4), 3, (0.5,)),
        ((3, 2, 3), 3, (0.3, 0.5, 0.7)),
        ((2, 1, 3), 2, (0.6,)),
        ((2, 2, 2, 2), 2, (0.4, 0.6, 0.8)),
        ((3, 2, 2, 1), 2, (0.5, 0.7)),
    ]:
        for p in fills:
            for _ in range(3):
                data = _repeat_slabs(rng, rng.random(shape) < p, most)
                widths = [tuple(int(w) for w in rng.integers(0, 2, 2)) for _ in shape]
                grids.append(BinaryGrid(np.pad(data, widths)))
    # a 4D loop and a 4D cavity, stretched
    ring = np.ones((3, 3, 1, 1), dtype=bool)
    ring[1, 1] = False
    grids.append(BinaryGrid(np.repeat(np.repeat(ring, [2, 1, 2], axis=0), [1, 3, 1], axis=1)))
    grids.append(BinaryGrid(np.repeat(_with_cavity((3, 3, 3, 3)).data, [1, 2, 1], axis=2)))
    assert {g.ndim for g in grids} == {2, 3, 4}
    for g in grids:
        bv = betti_numbers(g)
        assert bv.betti == _betti_from_boundary_ranks(g), g.data.astype(int)
        assert bv.euler == euler_from_cells(build_cubical_complex(g))


@pytest.mark.parametrize("dims", [(1, 1), (7, 3), (1, 5, 2), (6, 6, 6), (1, 1, 1, 1), (4, 2, 5, 3)])
def test_full_box_is_contractible(dims):
    bv = betti_numbers(new_grid(dims, fill=1))
    assert bv.betti == (1, 0, 0, 0) and bv.euler == 1


def test_slabs_that_differ_in_one_voxel_are_kept():
    # consecutive rows of an annulus differ in its one hole voxel
    ring = np.repeat(np.repeat(annulus_2d().data, [1, 3, 1, 2, 1], axis=0), [2, 1, 1, 3, 1], axis=1)
    assert betti_numbers(BinaryGrid(ring)).betti == (1, 1, 0, 0)
    shell = np.repeat(hollow_shell_3d().data, [3, 1, 2, 1, 1, 2, 1], axis=1)
    assert betti_numbers(BinaryGrid(shell)).betti == (1, 0, 1, 0)


def test_an_empty_slab_between_objects_is_kept():
    data = np.zeros((7, 3, 2), dtype=bool)
    data[1:3] = True
    data[4:6] = True
    bv = betti_numbers(BinaryGrid(data))
    assert bv.betti == (2, 0, 0, 0) and bv.euler == 2


def test_axis_of_length_one():
    data = np.zeros((1, 6, 5), dtype=bool)
    data[0, 1:5, 1:4] = True
    data[0, 2:4, 2] = False
    assert betti_numbers(BinaryGrid(data)).betti == (1, 1, 0, 0)
    assert betti_numbers(BinaryGrid(data.reshape(6, 5))).betti == (1, 1, 0, 0)
    assert betti_numbers(BinaryGrid(data.reshape(1, 6, 1, 5))).betti == (1, 1, 0, 0)


def test_grid_whose_slabs_are_all_equal(rng):
    for shape in [(5, 4), (3, 4, 4), (2, 3, 3, 3)]:
        slab = rng.random(shape[1:]) < 0.6
        data = np.broadcast_to(slab, shape).copy()
        assert betti_numbers(BinaryGrid(data)) == betti_numbers(BinaryGrid(data[:1]))
        assert _squash(data).shape[0] == 1


@pytest.mark.parametrize("dims", [(1, 1), (3, 8), (1, 4, 1), (5, 5, 5), (1, 2, 3, 4)])
def test_empty_grid_squashes_to_nothing(dims):
    data = np.zeros(dims, dtype=bool)
    assert _squash(data) is None
    bv = betti_numbers(BinaryGrid(data))
    assert bv.betti == (0, 0, 0, 0) and bv.euler == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ndim=st.sampled_from((2, 3, 4)), fill=st.floats(0.05, 0.95))
def test_squash_matches_slab_by_slab_reference(seed, ndim, fill):
    rng = np.random.default_rng(seed)
    data = _repeat_slabs(rng, rng.random(rng.integers(1, 5, ndim)) < fill, 3)
    data = np.pad(data, [tuple(int(w) for w in rng.integers(0, 3, 2)) for _ in range(ndim)])
    squashed = _squash(data)
    want = squash_reference(data)
    if want is None:
        assert squashed is None
        return
    assert np.array_equal(squashed, want)
    for ax in range(ndim):
        assert not _equal_neighbours(squashed, ax).any()
        ends = np.moveaxis(squashed, ax, 0)
        assert ends[0].any() and ends[-1].any()


def test_squash_of_a_cut_out_keeps_only_the_cavity():
    data = np.ones((16, 16, 16, 16), dtype=bool)
    data[5:9, 6:8, 6:10, 4:7] = False
    assert _squash(data).shape == (3, 3, 3, 3)
    assert _squash(np.ones((16,) * 4, dtype=bool)).shape == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# the whole-grid memo


@pytest.fixture
def whole_memo(monkeypatch):
    """A fresh, empty whole-grid memo for one test."""
    memo = {}
    monkeypatch.setattr(homology, "_whole_memo", memo)
    return memo


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ndim=st.sampled_from((2, 3, 4)), fill=st.floats(0.1, 0.9))
def test_memo_hits_give_what_the_engine_computes(seed, ndim, fill):
    rng = np.random.default_rng(seed)
    data = rng.random(tuple(rng.integers(1, 7 if ndim < 4 else 4, ndim))) < fill
    homology._whole_memo.clear()
    cold = betti_numbers(BinaryGrid(data))
    entries = 0 if _squash(data) is None else 1
    assert len(homology._whole_memo.get(ndim, {})) == entries
    hit = betti_numbers(BinaryGrid(data.copy()))
    reduced = betti_numbers(BinaryGrid(data), reduced=True)
    assert len(homology._whole_memo.get(ndim, {})) == entries
    assert hit == cold
    assert reduced.reduced and reduced.euler == cold.euler
    assert reduced.betti == (max(cold[0] - 1, 0),) + cold.betti[1:]
    # an independent answer, so a wrong entry cannot agree with itself
    assert cold.betti == _betti_from_boundary_ranks(BinaryGrid(data))


def test_stretched_and_padded_copies_add_no_entry(rng, whole_memo):
    for shape in [(5, 6), (4, 5, 3), (3, 4, 3, 3)]:
        data = rng.random(shape) < 0.5
        base = betti_numbers(BinaryGrid(data))
        entries = len(whole_memo[data.ndim])
        stretched = _repeat_slabs(rng, data, 3)
        padded = np.pad(data, [tuple(int(w) for w in rng.integers(0, 3, 2)) for _ in shape])
        for copy in (stretched, padded, np.pad(stretched, 1)):
            assert np.array_equal(_squash(copy), _squash(data))
            assert betti_numbers(BinaryGrid(copy)) == base
        assert len(whole_memo[data.ndim]) == entries


def test_equal_packed_bits_of_different_shapes_get_separate_entries(whole_memo):
    # as a 4x4 grid these bits are one component, as a 2x8 grid four; both
    # are their own squash, so only the shape tells the keys apart
    bits = np.array([1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1], dtype=bool)
    square, wide = bits.reshape(4, 4), bits.reshape(2, 8)
    assert np.array_equal(_squash(square), square) and np.array_equal(_squash(wide), wide)
    assert np.packbits(square).tobytes() == np.packbits(wide).tobytes()
    assert betti_numbers(BinaryGrid(square)).betti == (1, 0, 0, 0)
    assert betti_numbers(BinaryGrid(wide)).betti == (4, 0, 0, 0)
    assert len(whole_memo[2]) == 2
    assert betti_numbers(BinaryGrid(square)).betti == (1, 0, 0, 0)


def test_whole_memo_starts_over_when_full(rng, monkeypatch, whole_memo):
    monkeypatch.setattr(homology, "_WHOLE_ENTRIES", 4)
    grids = []
    while len(grids) < 11:
        data = rng.random((5, 5)) < 0.5
        if _squash(data) is not None and all(
            not np.array_equal(_squash(data), _squash(g)) for g in grids
        ):
            grids.append(data)
    for i, data in enumerate(grids):
        assert betti_numbers(BinaryGrid(data)).betti[:3] == betti_oracle(data)
        assert len(whole_memo[2]) == i % 4 + 1
    # each dimension has its own memo
    betti_numbers(BinaryGrid(np.ones((2, 2, 2), dtype=bool)))
    assert len(whole_memo[2]) == 3 and len(whole_memo[3]) == 1


# ---------------------------------------------------------------------------
# local flip safety


def test_deleting_isolated_voxel_unsafe():
    g = new_grid([5, 5])
    g.data[2, 2] = 1
    assert not is_local_flip_safe(g, (2, 2), 0)


def test_deleting_bar_middle_unsafe():
    g = new_grid([7, 7])
    for j in range(3):
        g.data[3, 2 + j] = 1
    assert not is_local_flip_safe(g, (3, 3), 0)


def test_deleting_block_corner_safe():
    g = new_grid([6, 6])
    for c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        g.data[c] = 1
    assert is_local_flip_safe(g, (2, 2), 0)
    # brute-force confirmation on both restricted blocks
    before = extract_neighborhood(g, (2, 2), 1).data
    after = before.copy()
    after[1, 1] = False
    assert betti_oracle(before) == betti_oracle(after)
    assert betti_oracle(~before) == betti_oracle(~after)


def test_filling_a_hole_unsafe():
    g = annulus_2d()
    assert not is_local_flip_safe(g, (2, 2), 1)


def test_flip_safety_rejects_noop():
    g = new_grid([5, 5])
    with pytest.raises(ValueError):
        is_local_flip_safe(g, (2, 2), 0)
    g.data[2, 2] = 1
    g.data[0, 3] = 1
    for c, value in (((2, 2), 1), ((0, 3), 1), ((4, 4), 0), ((0, 0), 0)):
        with pytest.raises(ValueError, match="already has value"):
            is_local_flip_safe(g, c, value)


def _complement_betti(g):
    """Betti vector of the complement, padded by one voxel of background."""
    return betti_numbers(BinaryGrid(np.pad(~g.data, 1, constant_values=True)))


@pytest.mark.parametrize(
    "dims, grids, at_least", [((7, 7), 40, 50), ((6, 6, 6), 30, 50), ((5, 5, 5, 5), 20, 30)]
)
def test_accepted_flips_preserve_global_betti(rng, dims, grids, at_least):
    # an accepted flip is a simple-voxel flip: it keeps the Betti vectors of
    # the whole foreground and of the whole background
    checked = 0
    for _ in range(grids):
        g = BinaryGrid(rng.random(dims) < rng.uniform(0.3, 0.7))
        base, outside = betti_numbers(g), _complement_betti(g)
        for _ in range(10):
            c = tuple(int(rng.integers(0, d)) for d in dims)
            new = 1 - g.data[c]
            if is_local_flip_safe(g, c, new):
                g2 = g.copy()
                g2.data[c] = new
                assert betti_numbers(g2) == base
                assert _complement_betti(g2) == outside
                checked += 1
    assert checked > at_least


def test_block_bits_match_elimination_on_all_2d_blocks():
    # the whole-grid engine is the library's one exact solver of a block
    for bits in itertools.product((False, True), repeat=9):
        data = np.array(bits).reshape(3, 3)
        for d in (data, ~data):
            assert betti_numbers(BinaryGrid(d)) == eliminate_block(d), d


@pytest.mark.parametrize(
    "shape, per_rate",
    [((3, 3, 3), 300), ((5, 5, 5), 40), ((5, 5), 200), ((3, 3, 3, 3), 100), ((5, 5, 5, 5), 4)],
)
def test_block_bits_match_elimination_on_random_blocks(shape, per_rate):
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    for rate in np.linspace(0.1, 0.9, 9):
        for _ in range(per_rate):
            data = rng.random(shape) < rate
            assert betti_numbers(BinaryGrid(data)) == eliminate_block(data), data


def _shell(n, side):
    data = np.ones((side,) * n, dtype=bool)
    data[(slice(1, -1),) * n] = False
    return data


def _plane_removed(n, side):
    data = np.ones((side,) * n, dtype=bool)
    data[:, :, side // 2, side // 2] = False
    return data


def _loop(n, side):
    data = np.zeros((side,) * n, dtype=bool)
    ring = data[(slice(None), slice(None)) + (side // 2,) * (n - 2)]
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    return data


def _full(n, side):
    return np.ones((side,) * n, dtype=bool)


def _empty(n, side):
    return np.zeros((side,) * n, dtype=bool)


@pytest.mark.parametrize("side", [3, 5])
@pytest.mark.parametrize(
    "n, make, betti",
    [
        (4, _shell, (1, 0, 0, 1)),
        (4, _plane_removed, (1, 1, 0, 0)),
        (4, _loop, (1, 1, 0, 0)),
        (4, _full, (1, 0, 0, 0)),
        (4, _empty, (0, 0, 0, 0)),
        (3, _shell, (1, 0, 1, 0)),
        (3, _loop, (1, 1, 0, 0)),
        (3, _full, (1, 0, 0, 0)),
        (3, _empty, (0, 0, 0, 0)),
        (2, _shell, (1, 1, 0, 0)),
        (2, _loop, (1, 1, 0, 0)),
        (2, _full, (1, 0, 0, 0)),
        (2, _empty, (0, 0, 0, 0)),
    ],
    ids=[
        "shell", "plane_removed", "loop", "full", "empty",
        "shell_3d", "loop_3d", "full_3d", "empty_3d",
        "shell_2d", "loop_2d", "full_2d", "empty_2d",
    ],
)
def test_4d_blocks_that_do_not_collapse_to_a_point(n, make, betti, side):
    data = make(n, side)
    for d in (data, ~data):
        assert betti_numbers(BinaryGrid(d)) == eliminate_block(d), d
    assert betti_numbers(BinaryGrid(data)).betti == betti


def test_block_memo_starts_over_when_full(monkeypatch):
    monkeypatch.setattr(homology, "_MEMO_ENTRIES", 4)
    block = homology._Block((3, 3))  # a fresh memo, not the shared one
    for bits in itertools.islice(itertools.product((False, True), repeat=9), 0, 512, 37):
        data = np.array(bits).reshape(3, 3)
        hood = block.key(data) & block.hood
        assert block.verdict(hood) == flip_safe_reference(BinaryGrid(data), (1, 1), not data[1, 1])
        assert block.verdicts[hood] == block.verdict(hood)
        assert len(block.verdicts) <= 4
        assert len(block.collapses) <= 4


@pytest.fixture
def fresh_gate(monkeypatch):
    """Empty verdict memos for one test, so every verdict is computed."""
    monkeypatch.setattr(homology, "_block", functools.lru_cache(maxsize=None)(homology._Block))


def _check_gate(g, c):
    """The gate's verdict, and each side's attachment-set answer, against
    elimination of the 3^n block.

    The gate accepts exactly where both attachment sets collapse, and each
    side's answer equals the elimination of the block with and without its
    centre: no leftover (chi(A) = 1, no collapse) keeps the block's Betti
    vector.
    """
    new = 1 - g.data[c]
    safe = is_local_flip_safe(g, c, new)
    assert safe == flip_safe_reference(g, c, new)
    data = extract_neighborhood(g, c, 1).data
    block = homology._block(data.shape)
    centre = (1,) * g.ndim
    kept = []
    for side in (data, ~data):
        rest = side.copy()
        rest[centre] = False
        with_centre = rest.copy()
        with_centre[centre] = True
        kept.append(block._attached(block.key(rest)))
        assert kept[-1] == (eliminate_block(rest) == eliminate_block(with_centre))
    assert safe == all(kept)


def test_gate_matches_reference_on_all_2d_blocks(fresh_gate):
    for bits in itertools.product((False, True), repeat=9):
        _check_gate(BinaryGrid(np.array(bits).reshape(3, 3)), (1, 1))


@pytest.mark.parametrize(
    "shape, per_rate",
    [((3, 3, 3), 60), ((3, 3, 3, 3), 12), ((5, 5), 40), ((5, 5, 5), 12)],
)
def test_gate_matches_reference_on_random_blocks(fresh_gate, shape, per_rate):
    rng = np.random.default_rng(100 + len(shape) * 10 + shape[0])
    centre = tuple(s // 2 for s in shape)
    for rate in np.linspace(0.1, 0.9, 9):
        for _ in range(per_rate):
            _check_gate(BinaryGrid(rng.random(shape) < rate), centre)


@pytest.mark.parametrize(
    "dims, depth",
    [((4, 4), 1), ((4, 4, 4), 1), ((3, 3, 3, 3), 1), ((5, 5), 2), ((4, 4, 4), 2)],
)
def test_gate_matches_reference_at_border_centres(fresh_gate, rng, dims, depth):
    # centres on the border take the zero-padded block; at depth 2, centres
    # one voxel in take a block sliced up to the border
    border = [
        c
        for c in itertools.product(*map(range, dims))
        if any(min(x, d - 1 - x) < depth for x, d in zip(c, dims))
    ]
    for _ in range(20):
        g = BinaryGrid(rng.random(dims) < rng.uniform(0.2, 0.8))
        for k in rng.choice(len(border), size=min(len(border), 12), replace=False):
            _check_gate(g, border[k])


@pytest.mark.parametrize(
    "dims", [(1, 7), (7, 2), (2, 6), (1, 5, 6), (4, 2, 5), (1, 4, 4, 4), (2, 3, 4, 4), (3, 4, 1, 3)]
)
def test_gate_matches_reference_at_every_voxel_of_thin_grids(fresh_gate, rng, dims):
    # a 1-thick axis pads the block on both sides, a 2-thick one on one side;
    # each grid and its complement flip every voxel once each way
    for rate in (0.35, 0.65):
        data = rng.random(dims) < rate
        for g in (BinaryGrid(data), BinaryGrid(~data)):
            for c in itertools.product(*map(range, dims)):
                new = 1 - g.data[c]
                assert is_local_flip_safe(g, c, new) == flip_safe_reference(g, c, new), (g.data, c)


@pytest.mark.parametrize("dims", [(1, 7), (2, 6), (4, 2, 5), (2, 3, 4, 4)])
def test_gate_rejects_centres_outside_the_grid(dims):
    g = BinaryGrid(np.ones(dims, dtype=bool))
    n = len(dims)
    outside = [(-1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,), (dims[0],) + (0,) * (n - 1),
               tuple(dims), (0,) * (n - 1), (0,) * (n + 1)]
    for c in outside:
        for new_value in (0, 1):
            # a negative index must not wrap to the far side, and a 0 read
            # outside the grid must not pass for a no-op flip
            with pytest.raises(IndexError, match="out of range"):
                is_local_flip_safe(g, c, new_value)


def test_gate_rejects_an_attachment_set_with_chi_1_that_does_not_collapse(fresh_gate):
    data = np.zeros((3, 3, 3), dtype=bool)
    for c in ((0, 1, 1), (1, 1, 2), (1, 2, 0), (2, 0, 0), (2, 2, 1), (2, 2, 2)):
        data[c] = True
    with_centre = data.copy()
    with_centre[1, 1, 1] = True
    # chi(A) = 1: gluing the centre keeps chi, so Euler alone would accept
    assert eliminate_block(data).euler == eliminate_block(with_centre).euler
    block = homology._block(data.shape)
    assert not block._attached(block.key(data))
    g = BinaryGrid(data)
    assert not is_local_flip_safe(g, (1, 1, 1), 1)
    assert not flip_safe_reference(g, (1, 1, 1), 1)


def test_both_flip_directions_share_one_verdict(fresh_gate):
    data = np.zeros((3, 3, 3), dtype=bool)
    data[0] = True  # a slab the centre touches along one face
    g = BinaryGrid(data)
    assert is_local_flip_safe(g, (1, 1, 1), 1)
    block = homology._block(data.shape)
    assert len(block.verdicts) == 1
    g.data[1, 1, 1] = 1
    assert is_local_flip_safe(g, (1, 1, 1), 0)
    assert len(block.verdicts) == 1


def test_gate_matches_elimination_on_random_grids(rng):
    """The gate's verdict equals one computed by eliminating all four blocks."""
    for dims in ((9, 9), (7, 7), (6, 6, 6), (7, 7, 7), (5, 5, 5, 5)):
        for _ in range(60):
            g = BinaryGrid(rng.random(dims) < rng.uniform(0.2, 0.8))
            c = tuple(int(rng.integers(0, d)) for d in dims)
            new = 1 - g.data[c]
            assert is_local_flip_safe(g, c, new) == flip_safe_reference(g, c, new)


# ---------------------------------------------------------------------------
# verdicts on the neighbourhoods the edit loops meet


def _block_of(hood: int, shape) -> np.ndarray:
    """The 3^n block whose key is ``hood`` (:meth:`_Block.key`)."""
    size = math.prod(shape)
    return np.array([hood >> (size - 1 - i) & 1 for i in range(size)], dtype=bool).reshape(shape)


@pytest.mark.parametrize(
    "name", ["2d-deform-dilate-bias", "3d-deform", "3d-dilate", "4d-deform", "4d-cutout-deform"]
)
def test_golden_edit_verdicts_match_the_elimination_oracle(fresh_gate, tmp_path, name):
    # the verdicts the deform front and the dilation memoized, keyed by the
    # keys they kept live, against eliminating the four blocks: every 2D
    # and 3D one, and a spread of at most 150 4D ones
    from test_golden import CASES, generate

    generate(tmp_path, **CASES[name][0])
    seen = 0
    for ndim in (2, 3, 4):
        shape = (3,) * ndim
        verdicts = list(homology._block(shape).verdicts.items())
        seen += len(verdicts)
        step = 1 if ndim < 4 else max(1, len(verdicts) // 150)
        for hood, safe in verdicts[::step]:
            assert safe == flip_safe_reference(BinaryGrid(_block_of(hood, shape)), (1,) * ndim, 1)
    assert seen > 20
