import numpy as np
import pytest

from topovox.grid import UnsupportedDimensionError
from topovox.noise import NoiseField, _perlin_grid, noise_field

from oracles import noise_field_flat, perlin_array_flat

# scalar reference implementation, written independently of the library's
# vectorized evaluator; shares only the published constants (quintic fade,
# gradient tables, permutation seeding)
from topovox.noise import _GRADS, _AMPLITUDE, _perm_table


def perlin_value(p, seed):
    """The library's evaluator at one point: a grid of one point per axis."""
    axes = [np.array([x], dtype=np.float64) for x in np.asarray(p, dtype=np.float64)]
    return float(_perlin_grid(axes, seed).reshape(-1)[0])


def _reference_value(p, seed):
    n = len(p)
    perm = [int(x) for x in _perm_table(seed)]
    grads = [[float(c) for c in g] for g in _GRADS[n]]
    base = [int(np.floor(x)) for x in p]
    frac = [x - b for x, b in zip(p, base)]
    base = [b & 255 for b in base]
    fade = [t * t * t * (t * (t * 6 - 15) + 10) for t in frac]
    total = 0.0
    for corner in range(1 << n):
        bits = [(corner >> ax) & 1 for ax in range(n)]
        h = perm[base[0] + bits[0]]
        for ax in range(1, n):
            h = perm[h + base[ax] + bits[ax]]
        grad = grads[h % len(grads)]
        dot = sum(gc * (f - b) for gc, f, b in zip(grad, frac, bits))
        w = 1.0
        for ax in range(n):
            w *= fade[ax] if bits[ax] else 1.0 - fade[ax]
        total += w * dot
    return total / _AMPLITUDE[n]


def test_zero_at_lattice_points():
    assert perlin_value((3.0, 7.0), seed=42) == 0.0
    assert perlin_value((0.0, 0.0, 0.0, 0.0), seed=7) == 0.0
    assert perlin_value((-2.0, 5.0, 11.0), seed=1) == 0.0


def test_matches_reference_reimplementation(rng):
    for n in (2, 3, 4):
        pts = rng.uniform(-20, 20, size=(10, n))
        for p in pts:
            assert perlin_value(p, seed=99) == pytest.approx(
                _reference_value(list(p), seed=99), abs=1e-12
            )


def test_range_containment(rng):
    for n in (2, 3, 4):
        pts = rng.uniform(-100, 100, size=(1_000_000, n))
        v = perlin_array_flat(pts, seed=5)
        assert v.min() >= -1.0 and v.max() <= 1.0
    # the field itself, on grids of about 300k voxels at a scale that does
    # not divide the lattice, so voxels land all over the noise cells
    for dims in ((512, 512), (64, 64, 64), (24, 24, 24, 24)):
        v = noise_field(dims, scale=3.3, seed=5).values
        assert v.min() >= -1.0 and v.max() <= 1.0
        assert v.min() < -0.3 and v.max() > 0.3


# every dims the golden cases and the gen-edit benchmark use, and an odd one
FIELD_DIMS = [
    (32, 32), (64, 64), (20, 20, 20), (32, 32, 32), (40, 40, 40),
    (12, 12, 12, 12), (13, 13, 13, 13), (14, 14, 14, 14), (7, 9, 5),
]
# the default scale and non-integer scales in [4, 8), as verify-noisy draws
FIELD_SCALES = (8.0, 4.0, 4.37, 5.5, 6.91, 7.99)
FIELD_SEEDS = (0, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize("dims", FIELD_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_field_matches_flat_oracle_bit_for_bit(dims):
    for scale in FIELD_SCALES:
        for seed in FIELD_SEEDS:
            got = noise_field(dims, scale, seed).values
            assert np.array_equal(got, noise_field_flat(dims, scale, seed)), (scale, seed)


def test_field_matches_flat_oracle_past_256_lattice_cells():
    # the lattice index wraps at 256: bases 0..333 here
    got = noise_field((300, 3), 0.9, 11).values
    assert np.array_equal(got, noise_field_flat((300, 3), 0.9, 11))


def test_point_value_matches_flat_oracle_bit_for_bit(rng):
    for n in (2, 3, 4):
        pts = rng.uniform(-300, 300, size=(100, n))
        pts[:20] = np.round(pts[:20])  # lattice points, negative ones included
        for seed in FIELD_SEEDS:
            expected = perlin_array_flat(pts, seed)
            got = np.array([perlin_value(p, seed) for p in pts])
            assert np.array_equal(got, expected)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        perlin_value((1.0,), seed=0)
    with pytest.raises(UnsupportedDimensionError):
        perlin_value((1.0,) * 5, seed=0)


def test_field_at_unit_scale_is_zero():
    f = noise_field([4, 4], scale=1.0, seed=5)
    assert np.allclose(f.values, 0.0)


def test_field_determinism_and_seed_sensitivity():
    a = noise_field([64, 64], scale=8.0, seed=99)
    b = noise_field([64, 64], scale=8.0, seed=99)
    assert np.array_equal(a.values, b.values)
    # sensitivity is measured at a scale that does not divide the grid, so
    # voxels rarely land on noise-lattice lines where values pin to zero
    c = noise_field([64, 64], scale=7.3, seed=99)
    d = noise_field([64, 64], scale=7.3, seed=100)
    assert (c.values != d.values).mean() > 0.99


def test_field_nonconstant_and_bounded():
    f = noise_field([64, 64], scale=8.0, seed=3)
    assert f.values.min() >= -1.0 and f.values.max() <= 1.0
    assert f.values.std() > 0.05


def test_field_shape_and_metadata():
    f = noise_field([6, 7, 8], scale=4.0, seed=0)
    assert isinstance(f, NoiseField)
    assert f.values.shape == (6, 7, 8)
    assert f.dims == (6, 7, 8)


def test_field_parameter_validation():
    with pytest.raises(ValueError):
        noise_field([8, 8], scale=0.0, seed=0)


def test_field_rejects_a_scale_whose_lattice_cells_overflow():
    # beyond 2^63 lattice cells a voxel's cell index does not fit the int64
    # cast: numpy warns and the field comes out NaN
    with pytest.raises(ValueError, match=r"^scale 1e-300 is too small for dims \(16, 16\)$"):
        noise_field([16, 16], scale=1e-300, seed=0)
    with pytest.raises(ValueError, match="too small"):
        noise_field([16, 16], scale=5e-324, seed=0)
    with np.errstate(all="raise"):
        assert np.isfinite(noise_field([16, 16], scale=2e-18, seed=0).values).all()
