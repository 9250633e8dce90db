"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are exact integer equality throughout; wall-clock bounds
are asserted where a criterion pins one.
"""
import time
import warnings

import numpy as np
import pytest

from topovox.grid import BinaryGrid, count_ones, new_grid
from topovox.homology import BettiVector, betti_numbers, is_local_flip_safe
from topovox.labels import cavity_label, embedded_label
from topovox.noise import noise_field
from topovox.morphology import homology_safe_dilate, thicken_background
from topovox.deform import deform_volume_preserving
from topovox.pipeline import DatasetConfig, generate_dataset, read_voxels, verify_sample, write_voxels
from topovox import seeds as sd

from oracles import (
    boundary_voxels,
    build_cubical_complex,
    connected_components,
    euler_from_cells,
    make_polyline,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _ball_grid(dims, center, radius):
    g = new_grid(dims)
    idx = np.indices(tuple(dims)).astype(float)
    g.data[:] = sum((idx[k] - center[k]) ** 2 for k in range(len(dims))) <= radius**2
    return g


def _disc64(radius=20.0):
    return _ball_grid([64, 64], (31.5, 31.5), radius)


def _figure_eight64():
    g = new_grid([64, 64])
    for loop in sd.make_circle_wedge((21.5, 31.5), 10.0, 2):
        sd.rasterize_tube(g, loop, 3.0)
    return g


def _table_rows(g, h, i, j):
    """The published table's rows: closed sum, boundary sum, 4-cube complement."""
    mid = g + h + i * (2 * j + 1)
    return (
        BettiVector.of((1, mid, mid, 1), 0),
        BettiVector.of((1, g + i * (j + 1), h + i * j, 0), 1 - g + h - i),
        BettiVector.of((1, h + i * j, g + i * (j + 1), 1), g - h + i),
    )


def test_criterion_1_table_reproduction():
    """Closed-form labels match the published table on the parameter sweep."""
    t0 = time.perf_counter()
    checked = 0
    for g in range(4):
        for h in range(4):
            for i in range(4):
                if g + h + i == 0:
                    continue
                for j in range(1, 4) if i > 0 else (0,):
                    rows = _table_rows(g, h, i, j)
                    for bv in rows:
                        alt = bv.betti[0] - bv.betti[1] + bv.betti[2] - bv.betti[3]
                        assert bv.euler == alt
                    assert cavity_label(4, [(g, h, i, j)]) == rows[2]
                    checked += 1
    # the 4D catalog kinds are the table's building blocks: embedded, each is
    # the boundary-sum row at its parameters; cut out, the complement row
    for name, ghij in (("S1xB3", (1, 0, 0, 0)), ("S2xB2", (0, 1, 0, 0)), ("T2xB2", (0, 0, 1, 1))):
        kind = sd.KINDS[name]
        assert kind.ghij == ghij
        _, bsum, comp = _table_rows(*ghij)
        assert embedded_label(name, 4) == bsum
        assert cavity_label(4, [kind.cutout(0)]) == comp
        checked += 2
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: label-table reproduction",
        elapsed < 1.0,
        f"{checked} labels in {elapsed:.3f}s",
    )


def test_criterion_2_engine_canonical_suite():
    """Engine Betti vectors match known values for the canonical shapes."""
    t0 = time.perf_counter()
    center3 = (15.5, 15.5, 15.5)

    cases = []

    cases.append(("2D disc", _disc64(14.0), (1, 0, 0, 0)))

    annulus = new_grid([64, 64])
    idx = np.indices((64, 64)).astype(float)
    rho = np.sqrt((idx[0] - 31.5) ** 2 + (idx[1] - 31.5) ** 2)
    annulus.data[:] = (rho >= 8) & (rho <= 14)
    cases.append(("2D annulus", annulus, (1, 1, 0, 0)))

    cases.append(("2D figure-eight wedge", _figure_eight64(), (1, 2, 0, 0)))

    cases.append(("3D solid ball", _ball_grid([32] * 3, center3, 9.0), (1, 0, 0, 0)))

    shell = new_grid([32] * 3)
    idx = np.indices((32,) * 3).astype(float)
    rho = np.sqrt(sum((idx[k] - 15.5) ** 2 for k in range(3)))
    shell.data[:] = np.abs(rho - 9.0) <= 1.5
    cases.append(("3D hollow shell", shell, (1, 0, 1, 0)))

    torus = new_grid([32] * 3)
    sd.rasterize_implicit(torus, sd.ImplicitShape("solid_torus", center3, (8.0, 3.0)))
    cases.append(("3D solid torus", torus, (1, 1, 0, 0)))

    tshell = new_grid([32] * 3)
    sd.rasterize_implicit(tshell, sd.ImplicitShape("torus_shell", center3, (8.0, 3.5, 1.2)))
    cases.append(("3D torus shell", tshell, (1, 2, 1, 0)))

    hopf = new_grid([32] * 3)
    for loop in sd.make_hopf_link((13.0, 16.0, 16.0), 6.0):
        sd.rasterize_tube(hopf, loop, 2.0)
    cases.append(("3D Hopf-link tubes", hopf, (2, 2, 0, 0)))

    trefoil = new_grid([48] * 3)
    sd.rasterize_tube(trefoil, sd.make_trefoil((23.5,) * 3, 6.0), 2.0)
    cases.append(("3D trefoil tube", trefoil, (1, 1, 0, 0)))

    cmd = new_grid([32] * 3, fill=1)
    donut = new_grid([32] * 3)
    sd.rasterize_implicit(donut, sd.ImplicitShape("solid_torus", center3, (8.0, 3.0)))
    cmd.data &= ~donut.data
    cases.append(("3D cube minus solid donut", cmd, (1, 1, 1, 0)))

    cases.append(("4D solid cube", new_grid([20] * 4, fill=1), (1, 0, 0, 0)))

    c4 = new_grid([20] * 4, fill=1)
    cav = new_grid([20] * 4)
    sd.rasterize_implicit(cav, sd.ImplicitShape("S1xB3", (9.5,) * 4, (6.0, 2.0)))
    c4.data &= ~cav.data
    cases.append(("4D cube minus S1xB3", c4, (1, 0, 1, 1)))

    failures = []
    for name, grid, expect in cases:
        got = betti_numbers(grid).betti
        if got != expect:
            failures.append(f"{name}: got {got}, expected {expect}")
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2: engine canonical suite",
        not failures and elapsed < 300.0,
        f"{len(cases)} shapes in {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


def _fig9_scene():
    g = new_grid([64] * 3)
    curve = make_polyline([(10, 8, 10), (18, 12, 14), (26, 8, 20), (34, 14, 26)])
    sd.rasterize_tube(g, curve, 2.0)
    for loop in sd.make_circle_wedge((14.0, 40.0, 12.0), 6.0, 2):
        sd.rasterize_tube(g, loop, 2.0)
    for loop in sd.make_hopf_link((44.0, 44.0, 40.0), 6.5):
        sd.rasterize_tube(g, loop, 2.0)
    sd.rasterize_tube(g, sd.make_trefoil((20.0, 20.0, 44.0), 5.5), 2.0)
    return g


def test_criterion_3_tube_scene_reproduction():
    """Curve+wedge+link+knot scene measures (5, 5, 0, 0), stable under growth."""
    t0 = time.perf_counter()
    g = _fig9_scene()
    before = betti_numbers(g)
    grown = homology_safe_dilate(g, iterations=3, seed=0)
    after = betti_numbers(grown)
    elapsed = time.perf_counter() - t0
    ok = (
        before.betti == (5, 5, 0, 0)
        and after.betti == (5, 5, 0, 0)
        and count_ones(grown) > count_ones(g)
        and elapsed < 300.0
    )
    _report(
        "criterion 3: tube-scene reproduction",
        ok,
        f"before {before.betti}, after 3 dilations {after.betti}, {elapsed:.1f}s",
    )


def test_criterion_4_deformation():
    """600-step deformations conserve volume and topology and move the boundary."""
    t0 = time.perf_counter()
    results = []
    # each shape's own label: a disc, and a wedge of two circles
    for name, grid, label in (
        ("disc", _disc64(20.0), BettiVector.of((1,), 1)),
        ("figure-eight", _figure_eight64(), BettiVector.of((1, 2), -1)),
    ):
        bnd0 = boundary_voxels(grid)
        out, report = deform_volume_preserving(grid, 600, noise_field(grid.dims, 16.0, 3), label)
        displaced = sum(1 for v in bnd0 if not out.data[v]) / len(bnd0)
        results.append(
            (
                name,
                report.accepted_flips,
                report.volume_before == report.volume_after,
                report.betti_before == report.betti_after,
                displaced,
            )
        )
    elapsed = time.perf_counter() - t0
    ok = all(
        flips == 600 and vol_ok and betti_ok and disp >= 0.30
        for _, flips, vol_ok, betti_ok, disp in results
    ) and elapsed < 300.0
    detail = "; ".join(
        f"{name}: flips={flips} vol_ok={vol_ok} betti_ok={betti_ok} displaced={disp:.2f}"
        for name, flips, vol_ok, betti_ok, disp in results
    )
    _report("criterion 4: volume-preserving deformation", ok, f"{detail}; {elapsed:.1f}s")


def _curves_scene_2d(seed: int) -> BinaryGrid:
    rng = np.random.default_rng(seed)
    g = new_grid([64, 64])
    for _ in range(int(rng.integers(2, 5))):
        if rng.random() < 0.5:
            c = rng.uniform(14, 50, size=2)
            sd.rasterize_tube(g, sd.make_circle(c, float(rng.uniform(4, 9))), 1.0)
        else:
            pts = rng.uniform(6, 58, size=(3, 2))
            sd.rasterize_tube(g, make_polyline(pts), 1.0)
    return g


def test_criterion_5_background_thickening_corpus():
    """14 thickening iterations preserve the Betti vector on 100 random scenes."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(100):
        g = _curves_scene_2d(seed)
        before = betti_numbers(g)
        out = thicken_background(g, 14)
        after = betti_numbers(out)
        if before != after:
            failures.append((seed, before.betti, after.betti))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5: background-thickening corpus",
        not failures and elapsed < 120.0,
        f"100 seeds in {elapsed:.1f}s" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_6_local_safety_soundness():
    """Accepted local flips never change full-grid homology in 2D/3D."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = {2: 0, 3: 0, 4: 0}
    proposals = {2: 0, 3: 0, 4: 0}
    accepted = {2: 0, 3: 0, 4: 0}

    def run(ndim: int, total: int, lo: int, hi: int, per_grid: int) -> None:
        while proposals[ndim] < total:
            dims = tuple(int(x) for x in rng.integers(lo, hi + 1, size=ndim))
            g = BinaryGrid(rng.random(dims) < rng.uniform(0.25, 0.75))
            base = betti_numbers(g)
            for _ in range(per_grid):
                if proposals[ndim] >= total:
                    break
                c = tuple(int(rng.integers(0, d)) for d in dims)
                new = 1 - g.data[c]
                proposals[ndim] += 1
                if is_local_flip_safe(g, c, new):
                    accepted[ndim] += 1
                    flipped = g.copy()
                    flipped.data[c] = new
                    if betti_numbers(flipped) != base:
                        violations[ndim] += 1

    run(2, 50_000, 6, 12, 50)
    run(3, 50_000, 5, 7, 50)
    run(4, 2_000, 4, 5, 30)  # theoretical-gap probe: logged, not a failure

    if violations[4]:
        print(f"[note] 4D local-check counterexamples observed: {violations[4]}")

    # drift must never escape to emitted samples: full verification of a 4D
    # batch generated with deformation enabled
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        cfg = DatasetConfig(
            count=2,
            dims=(16, 16, 16, 16),
            mode="embed",
            deform_iterations=15,
            verify_rate=1.0,
            out_dir=td,
            master_seed=41,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            emitted_ok = all(
                verify_sample(v, m).passed for v, m in generate_dataset(cfg)
            )

    elapsed = time.perf_counter() - t0
    ok = violations[2] == 0 and violations[3] == 0 and emitted_ok
    _report(
        "criterion 6: local-safety soundness",
        ok,
        f"2D {accepted[2]}/{proposals[2]} accepted, 3D {accepted[3]}/{proposals[3]}, "
        f"4D probe {accepted[4]}/{proposals[4]} ({violations[4]} logged), "
        f"violations 2D={violations[2]} 3D={violations[3]}, emitted_ok={emitted_ok}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_oracle_equivalence():
    """Union-find component counts and the Euler identity agree with the engine."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    mismatches = 0
    for k in range(1000):
        ndim = int(rng.integers(2, 5))
        dims = tuple(int(x) for x in rng.integers(2, 9, size=ndim))
        g = BinaryGrid(rng.random(dims) < rng.uniform(0.2, 0.8))
        bv = betti_numbers(g)
        if connected_components(g, "full")[0] != bv.betti[0]:
            mismatches += 1
        if euler_from_cells(build_cubical_complex(g)) != sum(
            (-1) ** i * b for i, b in enumerate(bv.betti)
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7: oracle equivalence",
        mismatches == 0 and elapsed < 120.0,
        f"1000 grids in {elapsed:.1f}s, mismatches={mismatches}",
    )


def test_criterion_8_determinism_and_io(tmp_path):
    """Byte-identical regeneration and exact voxel-file round trips."""
    t0 = time.perf_counter()
    import hashlib

    digests = []
    for name in ("run1", "run2"):
        cfg = DatasetConfig(
            count=3,
            dims=(28, 28, 28),
            mode="mixed",
            deform_iterations=20,
            out_dir=str(tmp_path / name),
            master_seed=99,
        )
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for voxel_path, manifest_path in generate_dataset(cfg):
                digest.update(voxel_path.read_bytes())
                digest.update(manifest_path.read_bytes())
        digests.append(digest.hexdigest())

    rng = np.random.default_rng(0)
    round_trips_ok = True
    for dims in [(1, 1), (5, 1), (1, 9), (3, 4, 5), (1, 2, 1), (2, 1, 3, 4), (16, 16, 16, 16)]:
        g = BinaryGrid(rng.random(dims) < 0.5)
        path = tmp_path / "rt.tvox"
        write_voxels(path, g)
        if read_voxels(path) != g:
            round_trips_ok = False
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8: determinism and I/O",
        digests[0] == digests[1] and round_trips_ok,
        f"dataset digests equal={digests[0] == digests[1]}, "
        f"round_trips_ok={round_trips_ok}, {elapsed:.1f}s",
    )
