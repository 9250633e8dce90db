import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topovox
from topovox.grid import BinaryGrid, connected_components, new_grid
from topovox.homology import (
    BettiVector,
    betti_numbers,
    build_cubical_complex,
    euler_from_cells,
    gf2_rank,
    is_local_flip_safe,
    _block,
    _eliminate_block,
)
from topovox.grid import extract_neighborhood

from oracles import betti_oracle, cell_counts_bruteforce, chi_bruteforce


def annulus_2d():
    g = new_grid([5, 5])
    for i in range(3):
        for j in range(3):
            if (i, j) != (1, 1):
                g.set((i + 1, j + 1), 1)
    return g


def hollow_shell_3d():
    g = new_grid([7, 7, 7])
    for c in itertools.product(range(5), repeat=3):
        if 0 in c or 4 in c:
            g.set(tuple(x + 1 for x in c), 1)
    return g


# ---------------------------------------------------------------------------
# complex construction


def test_single_voxel_2d_cells():
    g = new_grid([5, 5])
    g.set((2, 2), 1)
    c = build_cubical_complex(g)
    assert c.cell_counts == (4, 4, 1)


def test_two_adjacent_voxels_share_an_edge():
    g = new_grid([5, 5])
    g.set((2, 2), 1)
    g.set((2, 3), 1)
    assert build_cubical_complex(g).cell_counts == (6, 7, 2)


def test_single_voxel_4d_cells():
    g = new_grid([3, 3, 3, 3])
    g.set((1, 1, 1, 1), 1)
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
    g.set((1, 1), 1)
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
    g.set((1, 1), 1)
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


def _betti_from_boundary_ranks(g: BinaryGrid) -> tuple[int, ...]:
    """Betti numbers from the dense boundary matrices, whatever the dimension."""
    c = build_cubical_complex(g)
    ranks = [0] + [gf2_rank(c.boundary_matrix(k)) for k in range(1, g.ndim + 1)] + [0]
    beta = [c.cell_counts[k] - ranks[k] - ranks[k + 1] for k in range(g.ndim + 1)]
    return BettiVector.of(beta, 0).betti


def _with_cavity(dims: tuple[int, ...]) -> BinaryGrid:
    """A solid box touching the grid border, hollowed out at one inner voxel."""
    g = new_grid(dims, fill=1)
    g.set(tuple(d // 2 for d in dims), 0)
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
        many.set(c, 1)
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
    g.set((1, 1), 1)
    assert betti_numbers(g, reduced=False).betti == (1, 0, 0, 0)
    assert betti_numbers(g, reduced=True).betti == (0, 0, 0, 0)
    assert betti_numbers(new_grid([4, 4]), reduced=True).betti == (0, 0, 0, 0)


def test_betti_vector_of_rejects_high_dimensions():
    with pytest.raises(ValueError):
        BettiVector.of((1, 0, 0, 0, 2), 0)


# ---------------------------------------------------------------------------
# local flip safety


def test_deleting_isolated_voxel_unsafe():
    g = new_grid([5, 5])
    g.set((2, 2), 1)
    assert not is_local_flip_safe(g, (2, 2), 0)


def test_deleting_bar_middle_unsafe():
    g = new_grid([7, 7])
    for j in range(3):
        g.set((3, 2 + j), 1)
    assert not is_local_flip_safe(g, (3, 3), 0)


def test_deleting_block_corner_safe():
    g = new_grid([6, 6])
    for c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        g.set(c, 1)
    assert is_local_flip_safe(g, (2, 2), 0)
    # brute-force confirmation on both restricted blocks
    from topovox.grid import extract_neighborhood

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


def test_accepted_flips_preserve_global_betti(rng):
    checked = 0
    for _ in range(40):
        g = BinaryGrid(rng.random((7, 7)) < rng.uniform(0.3, 0.7))
        base = betti_numbers(g)
        for _ in range(10):
            c = tuple(int(rng.integers(0, 7)) for _ in range(2))
            new = 1 - g.get(c)
            if is_local_flip_safe(g, c, new):
                g2 = g.copy()
                g2.set(c, new)
                assert betti_numbers(g2) == base
                checked += 1
    assert checked > 50


def test_block_bits_match_elimination_on_all_2d_blocks():
    block = _block((3, 3))
    for bits in itertools.product((False, True), repeat=9):
        data = np.array(bits).reshape(3, 3)
        key = block.key(data)
        assert block.betti(key) == _eliminate_block(data), data
        assert block.betti(key ^ block.full) == _eliminate_block(~data), data


@pytest.mark.parametrize(
    "shape, per_rate",
    [((3, 3, 3), 300), ((5, 5, 5), 40), ((5, 5), 200), ((3, 3, 3, 3), 100), ((5, 5, 5, 5), 4)],
)
def test_block_bits_match_elimination_on_random_blocks(shape, per_rate):
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    block = _block(shape)
    for rate in np.linspace(0.1, 0.9, 9):
        for _ in range(per_rate):
            data = rng.random(shape) < rate
            assert block.betti(block.key(data)) == _eliminate_block(data), data


def _shell(side):
    data = np.ones((side,) * 4, dtype=bool)
    data[(slice(1, -1),) * 4] = False
    return data


def _plane_removed(side):
    data = np.ones((side,) * 4, dtype=bool)
    data[:, :, side // 2, side // 2] = False
    return data


def _loop(side):
    data = np.zeros((side,) * 4, dtype=bool)
    ring = data[:, :, side // 2, side // 2]
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    return data


@pytest.mark.parametrize("side", [3, 5])
@pytest.mark.parametrize(
    "make, betti",
    [
        (_shell, (1, 0, 0, 1)),
        (_plane_removed, (1, 1, 0, 0)),
        (_loop, (1, 1, 0, 0)),
        (lambda side: np.ones((side,) * 4, dtype=bool), (1, 0, 0, 0)),
        (lambda side: np.zeros((side,) * 4, dtype=bool), (0, 0, 0, 0)),
    ],
    ids=["shell", "plane_removed", "loop", "full", "empty"],
)
def test_4d_blocks_that_do_not_collapse_to_a_point(make, betti, side):
    data = make(side)
    block = _block(data.shape)
    for d in (data, ~data):
        assert block.betti(block.key(d)) == _eliminate_block(d), d
    assert block.betti(block.key(data)).betti == betti


def test_block_memo_tells_equal_sizes_apart():
    # 9^2 and 3^4 blocks both have 81 voxels and can share a bit pattern
    data = np.ones((9, 9), dtype=bool)
    data[:, 4] = False  # two bars in 2D; a 2-plane removed from the 4D cube
    flat = _block((9, 9))
    quad = _block((3, 3, 3, 3))
    assert flat.key(data) == quad.key(data.reshape((3,) * 4))
    assert flat.betti(flat.key(data)).betti == (2, 0, 0, 0)
    assert quad.betti(quad.key(data)) == _eliminate_block(data.reshape((3,) * 4))
    assert quad.betti(quad.key(data)).betti == (1, 1, 0, 0)


def test_block_memo_starts_over_when_full(monkeypatch):
    from topovox import homology

    monkeypatch.setattr(homology, "_MEMO_ENTRIES", 4)
    block = homology._Block((3, 3))  # a fresh memo, not the shared one
    for bits in itertools.islice(itertools.product((False, True), repeat=9), 0, 512, 37):
        data = np.array(bits).reshape(3, 3)
        assert block.betti(block.key(data)) == _eliminate_block(data)
        assert block.betti.cache_info().currsize <= 4


def test_gate_matches_elimination_on_random_grids(rng):
    """The gate's verdict equals one computed by eliminating all four blocks."""
    for dims, radius in (
        ((9, 9), 1),
        ((7, 7), 2),
        ((6, 6, 6), 1),
        ((7, 7, 7), 2),
        ((5, 5, 5, 5), 1),
    ):
        for _ in range(60):
            g = BinaryGrid(rng.random(dims) < rng.uniform(0.2, 0.8))
            c = tuple(int(rng.integers(0, d)) for d in dims)
            new = 1 - g.get(c)
            before = extract_neighborhood(g, c, radius).data
            after = before.copy()
            after[(radius,) * len(dims)] = new
            expected = _eliminate_block(before) == _eliminate_block(after) and (
                _eliminate_block(~before) == _eliminate_block(~after)
            )
            assert is_local_flip_safe(g, c, new, radius) == expected
