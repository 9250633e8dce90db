import numpy as np
import pytest

from topovox.grid import BinaryGrid, new_grid
from topovox.homology import BettiVector, betti_numbers
from topovox import seeds as sd
from topovox.labels import (
    ConstructionDescriptor,
    InvalidDescriptorError,
    betti_cube_multi_complement,
    betti_disjoint_union,
    cavity_label,
    embedded_label,
)


def valid_params(limit=4):
    for g in range(limit + 1):
        for h in range(limit + 1):
            for i in range(limit + 1):
                js = range(1, limit + 1) if i > 0 else (0,)
                for j in js:
                    if g + h + i > 0:
                        yield g, h, i, j


# ---------------------------------------------------------------------------
# closed-form labels


def test_cube_complement_examples():
    assert betti_cube_multi_complement([(1, 0, 0, 0)]) == BettiVector.of((1, 0, 1, 1), 1)
    assert betti_cube_multi_complement([(0, 0, 1, 2)]) == BettiVector.of((1, 2, 3, 1), 1)


def test_euler_equals_alternating_sum_everywhere():
    for params in valid_params():
        bv = betti_cube_multi_complement([params])
        assert bv.euler == bv.betti[0] - bv.betti[1] + bv.betti[2] - bv.betti[3]


def test_boundary_and_complement_swap_middle_betti():
    # Alexander duality: each carved 4D catalog kind's own b1/b2 are its
    # cut-out label's b2/b1
    carved = sd.drawn("cutout", 4)
    assert [kind.name for kind in carved] == ["ball", "S1xB3", "S2xB2", "T2xB2"]
    for kind in carved:
        inside = embedded_label(kind.name, 4)
        outside = cavity_label(4, [kind.cutout(0)])
        assert inside.betti[1] == outside.betti[2], kind.name
        assert inside.betti[2] == outside.betti[1], kind.name


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidDescriptorError):
        betti_cube_multi_complement([(1, 0, 1, 0)])  # i > 0 needs j > 0
    with pytest.raises(InvalidDescriptorError):
        betti_cube_multi_complement([(1, 0, 0, 2)])  # j without i
    with pytest.raises(InvalidDescriptorError):
        betti_cube_multi_complement([(-1, 1, 0, 0)])


# ---------------------------------------------------------------------------
# disjoint unions


def test_union_singleton():
    bv = BettiVector.of((1, 1, 0, 0), 0)
    assert betti_disjoint_union([bv]) == bv


def test_union_two_shells():
    shell = BettiVector.of((1, 0, 1, 0), 2)
    out = betti_disjoint_union([shell, shell])
    assert out.betti == (2, 0, 2, 0)
    assert out.euler == 4


def test_union_is_associative_and_commutative():
    a = BettiVector.of((1, 2, 0, 0), -1)
    b = BettiVector.of((1, 0, 1, 0), 2)
    c = BettiVector.of((2, 1, 0, 0), 1)
    left = betti_disjoint_union([betti_disjoint_union([a, b]), c])
    right = betti_disjoint_union([a, betti_disjoint_union([b, c])])
    swapped = betti_disjoint_union([c, b, a])
    assert left == right == swapped


def test_union_rejects_empty_and_mixed():
    with pytest.raises(InvalidDescriptorError):
        betti_disjoint_union([])
    with pytest.raises(InvalidDescriptorError):
        betti_disjoint_union(
            [BettiVector.of((1, 0, 0, 0), 1), BettiVector.of((0, 0, 0, 0), 1, reduced=True)]
        )


def test_union_matches_engine_on_rasterized_scene(rng):
    g = new_grid([32, 32, 32])
    idx = np.indices((32, 32, 32)).astype(float)
    ball = ((idx - 7.5) ** 2).sum(axis=0) <= 16.0
    rho = np.sqrt((idx[0] - 22.5) ** 2 + (idx[1] - 22.5) ** 2)
    donut = (rho - 5.0) ** 2 + (idx[2] - 22.5) ** 2 <= 4.0
    g.data[:] = ball | donut
    expect = betti_disjoint_union(
        [BettiVector.of((1, 0, 0, 0), 1), BettiVector.of((1, 1, 0, 0), 0)]
    )
    assert betti_numbers(g) == expect


# ---------------------------------------------------------------------------
# multi-cut-out complements (engine-validated before trust)


def test_multi_complement_empty_is_solid_cube():
    assert betti_cube_multi_complement([]) == BettiVector.of((1, 0, 0, 0), 1)


def test_multi_complement_single_matches_row_formula():
    for g, h, i, j in valid_params():
        bv = betti_cube_multi_complement([(g, h, i, j)])
        assert bv.betti == (1, h + i * j, g + i * (j + 1), 1)
        assert bv.euler == g - h + i


def test_multi_complement_pair():
    bv = betti_cube_multi_complement([(1, 0, 0, 0), (0, 1, 0, 0)])
    assert bv.betti == (1, 1, 1, 2)
    assert bv.euler == bv.betti[0] - bv.betti[1] + bv.betti[2] - bv.betti[3]


def test_cavity_label_3d_cube_minus_solid_donut_matches_engine():
    g = new_grid([32, 32, 32], fill=1)
    idx = np.indices((32, 32, 32)).astype(float)
    rho = np.sqrt((idx[0] - 15.5) ** 2 + (idx[1] - 15.5) ** 2)
    donut = (rho - 8.0) ** 2 + (idx[2] - 15.5) ** 2 <= 9.0
    g.data[donut] = False
    assert betti_numbers(g) == cavity_label(3, [(1, 0, 0, 0)])
    assert betti_numbers(g).betti == (1, 1, 1, 0)


def test_cavity_label_3d_two_balls_matches_engine():
    g = new_grid([32, 32, 32], fill=1)
    idx = np.indices((32, 32, 32)).astype(float)
    for c in (9.5, 22.5):
        g.data[((idx[0] - c) ** 2 + (idx[1] - 15.5) ** 2 + (idx[2] - 15.5) ** 2) <= 25.0] = False
    assert betti_numbers(g) == cavity_label(3, [(0, 0, 0, 0), (0, 0, 0, 0)])
    assert betti_numbers(g).betti == (1, 0, 2, 0)


def test_cavity_label_4d_matches_engine():
    g = new_grid([20, 20, 20, 20], fill=1)
    idx = np.indices((20,) * 4).astype(float)
    rho = np.sqrt((idx[0] - 9.5) ** 2 + (idx[1] - 9.5) ** 2)
    cavity = (rho - 6.0) ** 2 + (idx[2] - 9.5) ** 2 + (idx[3] - 9.5) ** 2 <= 4.0
    g.data[cavity] = False
    assert betti_numbers(g) == betti_cube_multi_complement([(1, 0, 0, 0)])


def test_cavity_label_4d_sphere_shell_cutout_matches_engine():
    # cube minus a thickened 2-sphere: the engine decides the expectation,
    # which must then agree with the complement formula at (0, 1, 0, 0)
    g = new_grid([20, 20, 20, 20], fill=1)
    idx = np.indices((20,) * 4).astype(float)
    rho = np.sqrt(sum((idx[k] - 9.5) ** 2 for k in range(3)))
    cavity = (rho - 6.0) ** 2 + (idx[3] - 9.5) ** 2 <= 4.0
    g.data[cavity] = False
    measured = betti_numbers(g)
    assert measured == betti_cube_multi_complement([(0, 1, 0, 0)])
    assert measured.betti == (1, 1, 0, 1)


def test_cavity_label_dimension_guards():
    with pytest.raises(InvalidDescriptorError):
        cavity_label(3, [(0, 1, 0, 0)])
    with pytest.raises(InvalidDescriptorError):
        cavity_label(2, [(1, 0, 0, 0)])


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_label_routing():
    d = ConstructionDescriptor(family="cube_complement", ndim=4, cutouts=((1, 0, 0, 0),))
    assert d.label() == betti_cube_multi_complement([(1, 0, 0, 0)])
    d = ConstructionDescriptor(
        family="disjoint_union",
        children=(
            ConstructionDescriptor(family="embedded_object", kind="ball", ndim=3),
            ConstructionDescriptor(family="embedded_object", kind="solid_torus", ndim=3),
        ),
    )
    assert d.label().betti == (2, 1, 0, 0)


def test_descriptor_validation():
    with pytest.raises(InvalidDescriptorError):
        ConstructionDescriptor(family="nope")
    with pytest.raises(InvalidDescriptorError):
        ConstructionDescriptor(family="disjoint_union")
    with pytest.raises(InvalidDescriptorError, match="unknown family"):
        ConstructionDescriptor(family="closed_sum")
    with pytest.raises(InvalidDescriptorError):
        ConstructionDescriptor(family="embedded_object")
    with pytest.raises(InvalidDescriptorError, match="requires cutouts"):
        ConstructionDescriptor(family="cube_complement", ndim=4)
    with pytest.raises(InvalidDescriptorError):  # above the glue cap
        ConstructionDescriptor(family="cube_complement", ndim=4, cutouts=((9, 0, 0, 0),))
    # every cut-out that label() rejects is rejected when the descriptor is built
    for ndim, cut, reason in [
        (4, (-1, 0, 0, 0), "nonnegative"),
        (4, (0, 0, 0, -1), "nonnegative"),
        (4, (1, 0, 1, 0), "j must be positive"),
        (0, (1, 0, 1, 0), "j must be positive"),  # a missing ndim labels as 4D
        (4, (0, 0, 0, 1), "only meaningful"),
        (3, (-1, 0, 0, 0), "handlebodies"),
        (3, (0, 1, 0, 0), "handlebodies"),
        (3, (1, 0, 1, 1), "handlebodies"),
        (2, (1, 0, 0, 0), "disc holes"),
        (5, (0, 0, 0, 0), "unsupported dimension"),
    ]:
        with pytest.raises(InvalidDescriptorError, match=reason):
            ConstructionDescriptor(family="cube_complement", ndim=ndim, cutouts=((0, 0, 0, 0), cut))
    # the pure formulas are not capped
    assert betti_cube_multi_complement([(9, 0, 0, 0)]).betti == (1, 0, 9, 1)


def test_descriptor_round_trip():
    d = ConstructionDescriptor(
        family="disjoint_union",
        ndim=3,
        children=(
            ConstructionDescriptor(
                family="embedded_object",
                kind="circle_wedge",
                genus=3,
                ndim=3,
                placement=({"offset": [1, 2, 3]},),
            ),
            ConstructionDescriptor(family="cube_complement", ndim=3, cutouts=((2, 0, 0, 0),)),
        ),
        deformation_log=({"kind": "volume_preserving", "iterations": 5},),
    )
    again = ConstructionDescriptor.from_dict(d.to_dict())
    assert again == d
    assert again.label() == d.label()


def test_embedded_label_catalog():
    assert embedded_label("hopf_link", 3).betti == (2, 2, 0, 0)
    assert embedded_label("sphere_shell", 2).betti == (1, 1, 0, 0)
    assert embedded_label("sphere_shell", 4).betti == (1, 0, 0, 1)
    assert embedded_label("circle_wedge", 3, genus=4).betti == (1, 4, 0, 0)
    with pytest.raises(InvalidDescriptorError):
        embedded_label("S1xB3", 3)
    with pytest.raises(InvalidDescriptorError):
        embedded_label("circle_wedge", 3)
