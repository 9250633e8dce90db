import dataclasses
import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from topovox.deform import deform_volume_preserving
from topovox.grid import BinaryGrid, new_grid
from topovox.homology import betti_numbers
from topovox.morphology import homology_safe_dilate
from topovox.noise import noise_field
from topovox.pipeline import (
    MAX_VOXELS,
    DatasetConfig,
    LabelMismatchError,
    SampleAttemptsExhaustedError,
    SampleManifest,
    VoxelFormatError,
    export_slice,
    file_checksum,
    generate_dataset,
    read_voxels,
    verify_sample,
    write_voxels,
)
from topovox import cli, homology, pipeline
from topovox import seeds as sd


# ---------------------------------------------------------------------------
# TVOX format


def test_round_trip_random_4d(tmp_path, rng):
    g = BinaryGrid(rng.random((16, 16, 16, 16)) < 0.5)
    path = tmp_path / "g.tvox"
    write_voxels(path, g)
    assert read_voxels(path) == g


@pytest.mark.parametrize(
    "dims", [(5, 1), (1, 7), (1, 1), (3, 4, 5), (1, 6, 1), (2, 1, 3, 4)]
)
def test_round_trip_edge_dims(tmp_path, rng, dims):
    g = BinaryGrid(rng.random(dims) < 0.5)
    path = tmp_path / "edge.tvox"
    write_voxels(path, g)
    assert read_voxels(path) == g


def test_header_layout(tmp_path):
    g = new_grid([64, 64], fill=1)
    path = tmp_path / "h.tvox"
    write_voxels(path, g)
    raw = path.read_bytes()
    assert raw[:4] == b"TVOX"
    assert raw[4] == 1 and raw[5] == 2
    assert int.from_bytes(raw[6:10], "little") == 64
    assert int.from_bytes(raw[10:14], "little") == 64
    assert len(raw) == 14 + 512


def test_format_errors(tmp_path):
    path = tmp_path / "bad.tvox"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(VoxelFormatError, match="magic"):
        read_voxels(path)
    g = new_grid([8, 8], fill=1)
    good = tmp_path / "good.tvox"
    write_voxels(good, g)
    raw = good.read_bytes()
    trunc = tmp_path / "trunc.tvox"
    trunc.write_bytes(raw[:-3])
    with pytest.raises(VoxelFormatError, match="offset"):
        read_voxels(trunc)
    vers = tmp_path / "vers.tvox"
    vers.write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(VoxelFormatError, match="version"):
        read_voxels(vers)


def test_huge_header_dims_rejected(tmp_path):
    # 0xFFFFFFFF^4 overflows int64 to a negative size, 65536^4 to zero
    path = tmp_path / "huge.tvox"
    for dim in (0xFFFFFFFF, 1 << 16):
        path.write_bytes(b"TVOX" + bytes([1, 4]) + dim.to_bytes(4, "little") * 4)
        with pytest.raises(VoxelFormatError, match=f"expected {(dim**4 + 7) // 8} bytes"):
            read_voxels(path)


def test_bit_flip_breaks_checksum(tmp_path):
    cfg = DatasetConfig(count=1, dims=(24, 24), mode="embed", out_dir=str(tmp_path / "d"), master_seed=0)
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    raw = bytearray(voxel_path.read_bytes())
    raw[-1] ^= 0x80
    voxel_path.write_bytes(bytes(raw))
    report = verify_sample(voxel_path, manifest_path)
    assert not report.passed and not report.checksum_ok


# ---------------------------------------------------------------------------
# manifests and generation


def test_generated_samples_verify(tmp_path):
    cfg = DatasetConfig(
        count=4, dims=(32, 32), mode="cutout", out_dir=str(tmp_path / "ds"), master_seed=3
    )
    pairs = generate_dataset(cfg)
    assert len(pairs) == 4
    for voxel_path, manifest_path in pairs:
        report = verify_sample(voxel_path, manifest_path)
        assert report.passed, report.summary()
        manifest = SampleManifest.from_json(manifest_path.read_text())
        assert manifest.engine_verified


def test_generation_is_byte_identical(tmp_path):
    hashes = []
    for name in ("a", "b"):
        cfg = DatasetConfig(
            count=3,
            dims=(28, 28, 28),
            mode="mixed",
            out_dir=str(tmp_path / name),
            master_seed=17,
        )
        pairs = generate_dataset(cfg)
        digest = hashlib.sha256()
        for voxel_path, manifest_path in pairs:
            digest.update(voxel_path.read_bytes())
            digest.update(manifest_path.read_bytes())
        hashes.append(digest.hexdigest())
    assert hashes[0] == hashes[1]


def test_manifest_round_trip(tmp_path):
    cfg = DatasetConfig(count=1, dims=(24, 24), out_dir=str(tmp_path / "m"), master_seed=1)
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    manifest = SampleManifest.from_json(manifest_path.read_text())
    again = SampleManifest.from_json(manifest.to_json())
    assert again == manifest
    assert manifest.voxel_checksum == file_checksum(voxel_path)


def test_tampered_label_fails_verification(tmp_path):
    cfg = DatasetConfig(count=1, dims=(24, 24), out_dir=str(tmp_path / "t"), master_seed=2)
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    doc = json.loads(manifest_path.read_text())
    doc["label"]["betti"][1] += 1
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    report = verify_sample(voxel_path, manifest_path)
    assert report.checksum_ok and not report.passed


def _set_manifest_dims(manifest_path, dims):
    doc = json.loads(manifest_path.read_text())
    doc["dims"] = dims
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def test_manifest_dims_that_differ_from_the_voxel_file_fail(tmp_path, monkeypatch):
    cfg = DatasetConfig(count=1, dims=(16, 16), out_dir=str(tmp_path / "d"), master_seed=2)
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    _set_manifest_dims(manifest_path, [3, 5, 7])
    monkeypatch.setattr(pipeline, "betti_numbers", None)  # the engine must not run
    report = verify_sample(voxel_path, manifest_path)
    assert not report.passed and report.checksum_ok and report.measured is None
    assert report.reason == "manifest dims (3, 5, 7) differ from voxel file dims (16, 16)"
    assert report.summary().startswith("FAIL ") and report.summary().endswith(report.reason)


def test_verify_sample_reads_the_voxel_file_once(tmp_path, monkeypatch):
    cfg = DatasetConfig(count=1, dims=(16, 16), out_dir=str(tmp_path / "o"), master_seed=2)
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    reads = []
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self.name) or real(self))
    assert verify_sample(voxel_path, manifest_path).passed
    assert reads == [voxel_path.name]


def test_generate_dataset_reads_no_voxel_file(tmp_path, monkeypatch):
    # each manifest's checksum is of the bytes written, not of the file read back
    reads = []
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self.name) or real(self))
    monkeypatch.setattr(pipeline, "file_checksum", None)
    cfg = DatasetConfig(count=2, dims=(16, 16), out_dir=str(tmp_path / "o"), master_seed=2)
    pairs = generate_dataset(cfg)
    assert reads == []
    monkeypatch.undo()
    for voxel_path, manifest_path in pairs:
        manifest = SampleManifest.from_json(manifest_path.read_text())
        assert manifest.voxel_checksum == file_checksum(voxel_path)


def test_verify_sample_checks_the_checksum_before_decoding(tmp_path, monkeypatch):
    cfg = DatasetConfig(count=1, dims=(16, 16), out_dir=str(tmp_path / "c"), master_seed=2)
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    monkeypatch.setattr(pipeline, "betti_numbers", None)  # the engine must not run
    # a damaged header whose checksum no longer matches fails without decoding
    raw = bytearray(voxel_path.read_bytes())
    raw[0] ^= 0xFF
    voxel_path.write_bytes(bytes(raw))
    report = verify_sample(voxel_path, manifest_path)
    assert not report.passed and not report.checksum_ok and report.measured is None
    # the same header under a matching checksum is decoded, and rejected
    doc = json.loads(manifest_path.read_text())
    doc["voxel_checksum"] = hashlib.sha256(bytes(raw)).hexdigest()
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    with pytest.raises(VoxelFormatError, match="bad magic at offset 0"):
        verify_sample(voxel_path, manifest_path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_deformed_samples_keep_labels(tmp_path):
    cfg = DatasetConfig(
        count=2,
        dims=(40, 40),
        mode="embed",
        deform_iterations=60,
        dilate_iterations=1,
        out_dir=str(tmp_path / "def"),
        master_seed=8,
    )
    for voxel_path, manifest_path in generate_dataset(cfg):
        report = verify_sample(voxel_path, manifest_path)
        assert report.passed, report.summary()
        manifest = SampleManifest.from_json(manifest_path.read_text())
        assert manifest.deform_report is not None
        assert manifest.deform_report["volume_before"] == manifest.deform_report["volume_after"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "edits, builds",
    [
        (dict(deform_iterations=10, dilate_iterations=1, dilate_noise_bias=True), 1),
        (dict(deform_iterations=10, dilate_iterations=1), 1),
        (dict(dilate_iterations=1, dilate_noise_bias=True), 1),
        (dict(dilate_iterations=1), 0),
        (dict(), 0),
    ],
)
def test_noise_field_is_built_at_most_once_per_sample(tmp_path, monkeypatch, edits, builds):
    from topovox import deform, noise

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return noise.noise_field(*args, **kwargs)

    monkeypatch.setattr(pipeline, "noise_field", counting)
    monkeypatch.setattr(deform, "noise_field", counting)
    cfg = DatasetConfig(count=2, dims=(32, 32), mode="embed", out_dir=str(tmp_path / "ds"), **edits)
    generate_dataset(cfg)
    assert len(calls) == 2 * builds


def test_4d_generation(tmp_path):
    cfg = DatasetConfig(
        count=2, dims=(18, 18, 18, 18), mode="mixed", out_dir=str(tmp_path / "q"), master_seed=5
    )
    for voxel_path, manifest_path in generate_dataset(cfg):
        assert verify_sample(voxel_path, manifest_path).passed


def test_deformed_4d_sample_computes_each_grid_once(tmp_path, monkeypatch):
    # deform checks its final grid against the recipe's label, and the
    # pipeline verifies that grid again: the memo answers the second call
    monkeypatch.setattr(homology, "_whole_memo", {})
    whole, computed = [], []

    def counting(fn, calls):
        def wrapper(data):
            calls.append(data.shape)
            return fn(data)
        return wrapper

    monkeypatch.setattr(homology, "_betti_whole", counting(homology._betti_whole, whole))
    monkeypatch.setattr(homology, "_betti_squashed", counting(homology._betti_squashed, computed))
    cfg = DatasetConfig(
        count=1, dims=(12,) * 4, mode="embed", max_objects=1, deform_iterations=20,
        out_dir=str(tmp_path / "q"), master_seed=4,
    )
    [(_, manifest_path)] = generate_dataset(cfg)
    manifest = SampleManifest.from_json(manifest_path.read_text())
    assert manifest.engine_verified and manifest.deform_report["accepted_flips"] > 0
    assert len(whole) == 2
    assert len(computed) == 1


def test_4d_dilation_is_always_engine_verified(tmp_path):
    # the 4D gate is incomplete and dilation has no global re-check, so a
    # dilated 4D sample is verified even when verify_rate says never
    common = dict(dims=(13, 13, 13, 13), count=1, max_objects=1, verify_rate=0.0)
    [(_, dilated)] = generate_dataset(
        DatasetConfig(out_dir=str(tmp_path / "dil"), dilate_iterations=1, **common)
    )
    assert SampleManifest.from_json(dilated.read_text()).engine_verified
    [(_, plain)] = generate_dataset(DatasetConfig(out_dir=str(tmp_path / "plain"), **common))
    assert not SampleManifest.from_json(plain.read_text()).engine_verified


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_dir"
    monkeypatch.setenv("TOPOVOX_OUT", str(target))
    cfg = DatasetConfig(count=1, dims=(24, 24), out_dir=str(tmp_path / "ignored"), master_seed=0)
    pairs = generate_dataset(cfg)
    assert pairs[0][0].parent == target
    assert not (tmp_path / "ignored").exists()


#: A JSON integer of 401 digits, beyond the float range
BIG = "1" + "0" * 400

#: Configs that each used to escape as an OverflowError traceback
OVERFLOWS = [
    (f'{{"count": 1, "deform_noise_scale": {BIG}}}', "bad config: deform_noise_scale must be a positive number, got 1000"),
    (f'{{"count": 1, "verify_rate": {BIG}}}', "bad config: verify_rate must be a number in [0, 1], got 1000"),
    (f'{{"count": 1, "shape_weights": {{"ball": {BIG}}}}}', "bad config: shape_weights must map kind names to finite numbers"),
    ('{"count": 1, "dilate_element": {"mask": [[1]], "origin": [1e400, 0]}}',
     "bad config: dilate_element: element spec needs 'mask' and 'origin': cannot convert float infinity to integer"),
]

#: Configs that used to load and then fail in generation with a numpy text
#: that named no field (the second after a numpy warning line)
LOADED_THEN_FAILED = [
    ('{"dims": [24, 24], "count": 1, "max_objects": 18446744073709551617}',
     f"bad config: max_objects must be at most {MAX_VOXELS}, got 18446744073709551617"),
    ('{"dims": [24, 24], "count": 1, "shape_weights": {"ball": 1.7e308, "sphere_shell": 1.7e308, "open_tube": 1}}',
     "bad config: shape_weights must sum to a positive finite number"),
]


def test_config_round_trip():
    cfg = DatasetConfig(count=5, dims=(16, 16, 16), mode="embed", master_seed=9)
    again = DatasetConfig.from_json(cfg.to_json())
    assert again == cfg


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[1]", "a config must be a JSON object"),
        ('"dims"', "a config must be a JSON object"),
        ("[" * 100000, "JSON nested too deeply"),
        ('{"dims": 5}', "bad config: dims must be integers, got 5"),
        ('{"dims": null}', "bad config: dims must be integers, got None"),
        ('{"count": 1, "colour": "red"}', "bad config: unknown fields ['colour']"),
        ('{"count": "two"}', "bad config: count must be an integer, got 'two'"),
        ('{"count": ', "Expecting value"),
        *OVERFLOWS,
        *LOADED_THEN_FAILED,
        ('{"dims": [4000, 4000, 4000]}', f"bad config: dims (4000, 4000, 4000) hold 64000000000 voxels, more than {MAX_VOXELS}"),
    ],
)
def test_config_from_json_rejects_bad_input_with_a_value_error(text, reason):
    with pytest.raises(ValueError) as exc:
        DatasetConfig.from_json(text)
    assert reason in str(exc.value)


def test_config_bounds_the_voxel_count():
    assert MAX_VOXELS == 2**24
    for dims in ((4096, 4096), (256, 256, 256), (64, 64, 64, 64), (1, 2**24)):
        assert DatasetConfig(dims=dims).dims == dims
    for dims in ((4097, 4096), (257, 256, 256), (65, 64, 64, 64), (2, 2**24), (2**63, 2**63)):
        with pytest.raises(ValueError, match=rf"dims \({dims[0]}, .* voxels, more than {MAX_VOXELS}$"):
            DatasetConfig(dims=dims)


def test_config_bounds_max_objects_by_the_voxel_bound():
    assert DatasetConfig(max_objects=MAX_VOXELS).max_objects == MAX_VOXELS
    with pytest.raises(ValueError, match=f"^max_objects must be at most {MAX_VOXELS}, got {MAX_VOXELS + 1}$"):
        DatasetConfig(max_objects=MAX_VOXELS + 1)


def test_config_from_json_overrides_fields_before_checking_them():
    cfg = DatasetConfig.from_json('{"count": 3, "dims": [16, 16]}', count=5, master_seed=2)
    assert (cfg.count, cfg.dims, cfg.master_seed) == (5, (16, 16), 2)
    assert DatasetConfig.from_json("{}", dims=[24, 24, 24]).dims == (24, 24, 24)
    # a field the file gets wrong is fine when an override replaces it
    assert DatasetConfig.from_json('{"count": 0}', count=1).count == 1
    with pytest.raises(ValueError, match="bad config: count must be positive"):
        DatasetConfig.from_json('{"count": 1}', count=0)


def test_custom_dilate_element(tmp_path):
    element = {"mask": [[0, 1, 0], [1, 1, 1], [0, 1, 0]], "origin": [1, 1]}
    cfg = DatasetConfig(
        count=1,
        dims=(28, 28),
        mode="embed",
        dilate_iterations=2,
        dilate_element=element,
        out_dir=str(tmp_path / "el"),
        master_seed=6,
    )
    [(voxel_path, manifest_path)] = generate_dataset(cfg)
    assert verify_sample(voxel_path, manifest_path).passed
    assert DatasetConfig.from_json(cfg.to_json()).dilate_element == element


def test_config_validation():
    with pytest.raises(ValueError):
        DatasetConfig(mode="wat")
    with pytest.raises(ValueError):
        DatasetConfig(verify_rate=1.5)
    with pytest.raises(ValueError):
        DatasetConfig(count=0)
    with pytest.raises(ValueError):
        DatasetConfig(shape_weights={"ball": -1.0})


def test_config_takes_numpy_integers_as_plain_ints():
    cfg = DatasetConfig(
        count=np.int64(2), dims=(np.int32(24), 24), max_objects=np.uint8(2),
        deform_iterations=np.int16(3), master_seed=np.int64(5),
    )
    assert (cfg.count, cfg.dims, cfg.max_objects, cfg.deform_iterations, cfg.master_seed) == (
        2, (24, 24), 2, 3, 5
    )
    assert all(type(v) is int for v in (cfg.count, *cfg.dims, cfg.max_objects, cfg.master_seed))
    assert DatasetConfig.from_json(cfg.to_json()) == cfg


PLANE_ELEMENT = {"mask": [[1, 1, 1], [1, 1, 1], [1, 1, 1]], "origin": [1, 1]}


def test_dilate_element_must_match_dims():
    with pytest.raises(ValueError, match=r"dilate_element is 2D but dims \(16, 16, 16\) are 3D"):
        DatasetConfig(dims=(16, 16, 16), dilate_iterations=1, dilate_element=PLANE_ELEMENT)
    # a bad element is a bad config even when no dilation is asked for
    with pytest.raises(ValueError, match="2D but dims"):
        DatasetConfig(dims=(16, 16, 16), dilate_element=PLANE_ELEMENT)
    with pytest.raises(ValueError, match="no set voxel"):
        DatasetConfig(dims=(16, 16), dilate_element={"mask": [[0, 0], [0, 0]], "origin": [0, 0]})
    with pytest.raises(ValueError, match="needs 'mask' and 'origin'"):
        DatasetConfig(dims=(16, 16), dilate_element={})
    DatasetConfig(dims=(16, 16), dilate_element=PLANE_ELEMENT)


def test_shape_weights_name_only_catalog_kinds():
    # a misspelled kind used to draw uniformly, as if no weights were given
    with pytest.raises(ValueError, match="unknown kind 'torus'"):
        DatasetConfig(dims=(32, 32, 32), shape_weights={"torus": 1.0})
    with pytest.raises(ValueError, match="unknown kind 'Ball'"):
        DatasetConfig(shape_weights={"ball": 1.0, "Ball": 1.0})
    # a catalog kind that no mode draws in these dims is still a valid name
    DatasetConfig(dims=(32, 32), shape_weights={"S2xB2": 1.0, "ball": 0.5})


def test_shape_weights_weigh_a_fitting_kind_in_every_drawn_mode():
    # weights for 4D kinds alone used to be ignored: a 3D embed run drew uniformly
    with pytest.raises(ValueError, match="no embed kind that fits dims"):
        DatasetConfig(dims=(32, 32, 32), mode="embed", shape_weights={"S2xB2": 1.0})
    with pytest.raises(ValueError, match="no embed kind"):
        DatasetConfig(dims=(32, 32, 32), mode="embed", shape_weights={"ball": 0.0, "S2xB2": 1.0})
    # mixed draws both modes: open_tube is never cut out
    with pytest.raises(ValueError, match="no cutout kind that fits dims"):
        DatasetConfig(dims=(32, 32, 32), mode="mixed", shape_weights={"open_tube": 1.0})
    DatasetConfig(dims=(32, 32, 32), mode="embed", shape_weights={"open_tube": 1.0})
    DatasetConfig(dims=(32, 32, 32), mode="mixed", shape_weights={"open_tube": 1.0, "ball": 1.0})
    # a mode in which no kind fits is left out: no cut-out fits 13^4
    DatasetConfig(dims=(13, 13, 13, 13), mode="mixed", shape_weights={"ball": 1.0})


# ---------------------------------------------------------------------------
# slice export


def test_export_slice_2d_full_image(tmp_path):
    g = new_grid([8, 10])
    g.data[2:5, 3:7] = True
    voxel_path = tmp_path / "g.tvox"
    write_voxels(voxel_path, g)
    out = tmp_path / "g.pgm"
    export_slice(voxel_path, {}, out)
    raw = out.read_bytes()
    assert raw.startswith(b"P5\n10 8\n255\n")
    pixels = np.frombuffer(raw[len(b"P5\n10 8\n255\n"):], dtype=np.uint8).reshape(8, 10)
    assert (pixels[2:5, 3:7] == 255).all()
    assert pixels.sum() == 255 * 12


def test_export_slice_of_solid_torus_is_annulus(tmp_path):
    g = new_grid([32] * 3)
    sd.rasterize_implicit(
        g, sd.ImplicitShape("solid_torus", (15.5, 15.5, 15.5), (8.0, 3.0))
    )
    voxel_path = tmp_path / "t.tvox"
    write_voxels(voxel_path, g)
    out = tmp_path / "t.pgm"
    export_slice(voxel_path, {2: 15}, out)
    raw = out.read_bytes()
    header_end = raw.index(b"255\n") + 4
    plane = np.frombuffer(raw[header_end:], dtype=np.uint8).reshape(32, 32) > 0
    assert betti_numbers(BinaryGrid(plane)).betti == (1, 1, 0, 0)


def test_export_slice_4d(tmp_path):
    g = new_grid([6, 6, 6, 6], fill=1)
    voxel_path = tmp_path / "q.tvox"
    write_voxels(voxel_path, g)
    out = tmp_path / "q.pgm"
    export_slice(voxel_path, {2: 3, 3: 3}, out)
    assert out.read_bytes().startswith(b"P5\n6 6\n255\n")


def test_export_slice_validation(tmp_path):
    g = new_grid([6, 6, 6])
    voxel_path = tmp_path / "v.tvox"
    write_voxels(voxel_path, g)
    with pytest.raises(ValueError):
        export_slice(voxel_path, {}, tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        export_slice(voxel_path, {5: 0}, tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        export_slice(voxel_path, {2: 9}, tmp_path / "x.pgm")


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_verify_stats_render(tmp_path, capsys):
    out_dir = tmp_path / "cli_ds"
    rc = cli.main(
        [
            "gen",
            "--count", "2",
            "--dims", "24", "24",
            "--mode", "embed",
            "--seed", "4",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    assert len(list(out_dir.glob("*.tvox"))) == 2

    rc = cli.main(["verify", str(out_dir)])
    assert rc == 0
    assert "2/2 samples passed" in capsys.readouterr().out

    rc = cli.main(["stats", str(out_dir)])
    assert rc == 0
    assert "2 samples" in capsys.readouterr().out

    voxels = sorted(out_dir.glob("*.tvox"))[0]
    rc = cli.main(["render-slice", str(voxels), "--out", str(tmp_path / "s.pgm")])
    assert rc == 0
    assert (tmp_path / "s.pgm").exists()


def test_cli_verify_fails_on_tamper(tmp_path, capsys):
    out_dir = tmp_path / "cli_bad"
    cli.main(["gen", "--count", "1", "--dims", "24", "24", "--seed", "1", "--out", str(out_dir)])
    manifest_path = next(out_dir.glob("*.json"))
    doc = json.loads(manifest_path.read_text())
    doc["label"]["betti"][0] += 1
    manifest_path.write_text(json.dumps(doc))
    rc = cli.main(["verify", str(out_dir)])
    assert rc == 1


def test_cli_deform_and_thicken(tmp_path, capsys):
    g = new_grid([32, 32])
    idx = np.indices((32, 32)).astype(float)
    g.data[:] = ((idx[0] - 15.5) ** 2 + (idx[1] - 15.5) ** 2) <= 64.0
    src = tmp_path / "disc.tvox"
    write_voxels(src, g)

    rc = cli.main(
        ["deform", str(src), "--iterations", "40", "--out", str(tmp_path / "d.tvox")]
    )
    assert rc == 0
    deformed = read_voxels(tmp_path / "d.tvox")
    assert betti_numbers(deformed).betti == (1, 0, 0, 0)

    rc = cli.main(
        ["thicken", str(src), "--iterations", "2", "--out", str(tmp_path / "t.tvox")]
    )
    assert rc == 0
    thick = read_voxels(tmp_path / "t.tvox")
    assert betti_numbers(thick).betti == (1, 0, 0, 0)


@pytest.mark.parametrize(
    "command, rest",
    [("thicken", ["--method", "morph"]), ("thicken", ["--method", "dilate"]), ("deform", [])],
    ids=["morph", "dilate", "deform"],
)
def test_cli_thicken_rejects_negative_iterations(tmp_path, monkeypatch, capsys, command, rest):
    """Both edit commands reject the count before the file is read or measured."""
    g = new_grid([16, 16])
    g.data[5:11, 5:11] = True
    src = tmp_path / "square.tvox"
    write_voxels(src, g)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "read_voxels", no_work)
    monkeypatch.setattr(cli, "betti_numbers", no_work)
    out = tmp_path / "t.tvox"
    rc = cli.main([command, str(src), *rest, "--iterations", "-2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"topovox {command}: error: iterations must be nonnegative, got -2"
    ]
    assert not out.exists()


def test_cli_deform_reports_stagnation_on_stdout_only(tmp_path, capsys):
    """A scale of 1e-12 puts every voxel on a noise-lattice point, where the
    field is zero, so no move is ever selected."""
    g = new_grid([24, 24, 24])
    g.data[8:16, 8:16, 8:16] = True
    src = tmp_path / "cube.tvox"
    write_voxels(src, g)
    out = tmp_path / "d.tvox"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["deform", str(src), "--scale", "1e-12", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "accepted=0 volume=512->512 betti=(1, 0, 0, 0)->(1, 0, 0, 0) stagnated"
    ]
    assert (read_voxels(out).data == g.data).all()


@pytest.mark.parametrize(
    "args, reference",
    [
        (["deform", "--iterations", "30"], lambda g, seed: deform_volume_preserving(
            g, 30, noise_field(g.dims, 8.0, seed), betti_numbers(g))[0]),
        (["thicken", "--noise-bias", "--iterations", "2"], lambda g, seed: homology_safe_dilate(
            g, iterations=2, bias=noise_field(g.dims, 8.0, seed), seed=seed)),
    ],
    ids=["deform", "thicken"],
)
@pytest.mark.parametrize("seed", [7, int("9" * 30)])
def test_cli_edits_take_any_nonnegative_seed(tmp_path, capsys, args, reference, seed):
    g = new_grid([32, 32])
    idx = np.indices((32, 32)).astype(float)
    g.data[:] = ((idx[0] - 15.5) ** 2 + (idx[1] - 15.5) ** 2) <= 64.0
    src = tmp_path / "disc.tvox"
    write_voxels(src, g)
    out = tmp_path / "e.tvox"
    command, *rest = args
    assert cli.main([command, str(src), *rest, "--seed", str(seed), "--out", str(out)]) == 0
    assert read_voxels(out).data.tobytes() == reference(g, seed).data.tobytes()


@pytest.mark.parametrize(
    "args, reason",
    [
        (["deform", "--scale", "nan"], "scale must be a positive finite number, got nan"),
        (["deform", "--scale", "inf"], "scale must be a positive finite number, got inf"),
        (["thicken", "--noise-bias", "--scale", "nan"], "scale must be a positive finite number, got nan"),
        (["render-slice", "--fix", "0=a"], "bad --fix '0=a': expected AXIS=COORD"),
        (["render-slice", "--fix", "0"], "bad --fix '0': expected AXIS=COORD"),
        (["render-slice", "--fix", "0=1", "0=2"], "bad --fix '0=2': axis 0 is fixed twice"),
        (["deform", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        (["thicken", "--seed", "-1"], "--seed must be nonnegative, got -1"),
        (["thicken", "--noise-bias", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    ],
)
def test_cli_fails_in_one_line_on_bad_arguments(tmp_path, capsys, args, reason):
    g = new_grid([16, 16])
    g.data[5:11, 5:11] = True
    src = tmp_path / "square.tvox"
    write_voxels(src, g)
    out = tmp_path / "out.bin"
    command, *rest = args
    rc = cli.main([command, str(src), *rest, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"topovox {command}: error: {reason}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "fix, reason",
    [
        (["5=0"], "axis 5 out of range for dims (6, 7, 8)"),
        (["0=9", "1=0"], "coordinate 9 out of range on axis 0"),
        ([], "need exactly two free axes, got 3 for dims (6, 7, 8)"),
    ],
)
def test_render_slice_checks_the_fixed_axes_before_counting_free_ones(tmp_path, capsys, fix, reason):
    src = tmp_path / "box.tvox"
    write_voxels(src, new_grid([6, 7, 8], fill=1))
    out = tmp_path / "s.pgm"
    rc = cli.main(["render-slice", str(src), "--fix", *fix, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"topovox render-slice: error: {reason}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, reason",
    [
        (["deform", "--iterations", "x"], "argument --iterations: invalid int value: 'x'"),
        (["render-slice", "--fix", "-1=0"], "unrecognized arguments: -1=0"),
        (["thicken", "--method", "grow"], "argument --method: invalid choice: 'grow' (choose from 'morph', 'dilate')"),
    ],
)
def test_cli_usage_errors_are_one_line(tmp_path, capsys, args, reason):
    src = tmp_path / "box.tvox"
    write_voxels(src, new_grid([6, 7, 8], fill=1))
    out = tmp_path / "out.bin"
    command, *rest = args
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(src), *rest, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"topovox {command}: error: {reason}"]
    assert captured.out == ""
    assert not out.exists()


def test_cli_usage_error_without_a_command_is_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "topovox: error: the following arguments are required: command"
    ]


def test_render_slice_takes_a_negative_axis_after_an_equals_sign(tmp_path, capsys):
    src = tmp_path / "box.tvox"
    write_voxels(src, new_grid([6, 7, 8], fill=1))
    out = tmp_path / "s.pgm"
    rc = cli.main(["render-slice", str(src), "--fix=-1=0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "topovox render-slice: error: axis -1 out of range for dims (6, 7, 8)"
    ]
    assert not out.exists()


def _cli_dataset(tmp_path, name):
    out_dir = tmp_path / name
    cli.main(["gen", "--count", "2", "--dims", "24", "24", "--seed", "3", "--out", str(out_dir)])
    return out_dir


def _verify_lines(out_dir, capsys):
    capsys.readouterr()
    rc = cli.main(["verify", str(out_dir)])
    return rc, capsys.readouterr().out.splitlines()


def test_cli_verify_fails_on_manifest_dims_that_differ(tmp_path, capsys):
    out_dir = tmp_path / "dims"
    cli.main(["gen", "--count", "2", "--dims", "16", "16", "--seed", "3", "--out", str(out_dir)])
    _set_manifest_dims(out_dir / "sample_0000.json", [3, 5, 7])
    rc, lines = _verify_lines(out_dir, capsys)
    assert rc == 1
    assert lines[0].startswith("sample_0000.json: FAIL")
    assert "(3, 5, 7)" in lines[0] and "(16, 16)" in lines[0]
    assert lines[1].startswith("sample_0001.json: PASS")
    assert lines[-1] == "1/2 samples passed"


@pytest.mark.parametrize("dims", ["abc", [], [16, 0], [16, 16.0], [True, 16], None])
def test_cli_verify_fails_on_manifest_dims_that_are_not_positive_integers(tmp_path, capsys, dims):
    out_dir = tmp_path / "dims"
    cli.main(["gen", "--count", "2", "--dims", "16", "16", "--seed", "3", "--out", str(out_dir)])
    _set_manifest_dims(out_dir / "sample_0000.json", dims)
    rc, lines = _verify_lines(out_dir, capsys)
    assert rc == 1
    assert lines[0] == (
        f"sample_0000.json: FAIL not a sample manifest: "
        f"dims must be a list of positive integers, got {dims!r}"
    )
    assert lines[1].startswith("sample_0001.json: PASS")
    assert lines[-1] == "1/2 samples passed"


def test_cli_verify_reports_missing_voxel_file(tmp_path, capsys):
    out_dir = _cli_dataset(tmp_path, "missing")
    (out_dir / "sample_0000.tvox").unlink()
    rc, lines = _verify_lines(out_dir, capsys)
    assert rc == 1
    assert lines[0].startswith("sample_0000.json: FAIL cannot read")
    assert "sample_0000.tvox" in lines[0]
    assert lines[1].startswith("sample_0001.json: PASS")
    assert lines[-1] == "1/2 samples passed"


def _with_field(text, name, value):
    doc = json.loads(text)
    doc[name] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda t: t[: len(t) // 2], "invalid JSON"),
        (lambda t: '{"dims": [24, 24], "seed": 3}', "no field 'construction'"),
        (lambda t: '{"dims": [24, 24], "construction": {"family": "ball"}}', "unknown family"),
        (lambda t: "[1, 2, 3]", "not a sample manifest"),
        (lambda t: _with_field(t, "voxel_file", 5), "voxel_file is not a string"),
        (lambda t: "[" * 100000, "nested too deeply"),
        # families no sample is built from
        (lambda t: _with_field(t, "construction", {"family": "closed_sum", "g": 1}),
         "not a sample manifest: unknown family 'closed_sum'"),
        (lambda t: _with_field(t, "construction", {"family": "boundary_sum", "g": 1}),
         "not a sample manifest: unknown family 'boundary_sum'"),
        (lambda t: _with_field(t, "construction", {"family": "cube_complement", "ndim": 2, "g": 1}),
         "not a sample manifest: cube_complement requires cutouts"),
        # cut-outs that label() rejects fail while the manifest loads
        (lambda t: _with_field(t, "construction", {"family": "cube_complement", "ndim": 4, "cutouts": [[-1, 0, 0, 0]]}),
         "not a sample manifest: counts must be nonnegative, got (-1, 0, 0, 0)"),
        (lambda t: _with_field(t, "construction", {"family": "cube_complement", "ndim": 4, "cutouts": [[1, 0, 1, 0]]}),
         "not a sample manifest: j must be positive when i > 0"),
        (lambda t: _with_field(t, "construction", {"family": "cube_complement", "ndim": 3, "cutouts": [[-1, 0, 0, 0]]}),
         "not a sample manifest: 3d cut-outs are genus-g handlebodies"),
        (lambda t: _with_field(t, "construction", {"family": "cube_complement", "ndim": 3, "cutouts": [[1, 0, 1, 0]]}),
         "not a sample manifest: 3d cut-outs are genus-g handlebodies"),
    ],
)
def test_cli_verify_reports_malformed_manifest(tmp_path, capsys, edit, reason):
    out_dir = _cli_dataset(tmp_path, "malformed")
    manifest = out_dir / "sample_0000.json"
    manifest.write_text(edit(manifest.read_text()))
    rc, lines = _verify_lines(out_dir, capsys)
    assert rc == 1
    assert lines[0].startswith("sample_0000.json: FAIL")
    assert reason in lines[0]
    assert lines[1].startswith("sample_0001.json: PASS")
    assert lines[-1] == "1/2 samples passed"


def test_cli_verify_reports_json_that_is_not_a_manifest(tmp_path, capsys):
    out_dir = _cli_dataset(tmp_path, "report")
    (out_dir / "run_report.json").write_text(json.dumps({"samples_per_s": 3.1}))
    rc, lines = _verify_lines(out_dir, capsys)
    assert rc == 1
    assert lines[0] == "run_report.json: FAIL not a sample manifest: no field 'dims'"
    assert all(line.startswith("sample_") and ": PASS" in line for line in lines[1:3])
    assert lines[-1] == "2/3 samples passed"


def test_cli_stats_reports_json_that_is_not_a_manifest(tmp_path, capsys):
    out_dir = _cli_dataset(tmp_path, "stats")
    (out_dir / "run_report.json").write_text(json.dumps({"samples_per_s": 3.1}))
    capsys.readouterr()
    rc = cli.main(["stats", str(out_dir)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert "run_report.json: FAIL not a sample manifest: no field 'dims'" in lines
    assert lines[-1] == "2 samples, 1 failed"


def test_cli_stats_on_a_missing_directory(tmp_path, capsys):
    rc = cli.main(["stats", str(tmp_path / "nowhere")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [f"topovox stats: error: no such dataset directory: {tmp_path / 'nowhere'}"]


@pytest.mark.parametrize("command", ["deform", "thicken", "render-slice"])
@pytest.mark.parametrize(
    "content, reason",
    [(None, "No such file or directory"), (b"PK\x03\x04 not voxels", "bad magic at offset 0")],
    ids=["missing", "not-tvox"],
)
def test_cli_commands_fail_in_one_line_on_bad_voxel_files(tmp_path, capsys, command, content, reason):
    src = tmp_path / "in.tvox"
    if content is not None:
        src.write_bytes(content)
    out = tmp_path / "out.bin"
    rc = cli.main([command, str(src), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1
    assert err[0].startswith(f"topovox {command}: error: {reason}")
    assert not out.exists()


# ---------------------------------------------------------------------------
# atomic writes


@pytest.mark.parametrize("target", ["voxels", "manifest"])
def test_interrupted_write_leaves_no_partial_sample(tmp_path, monkeypatch, target):
    cfg = DatasetConfig(count=3, dims=(24, 24), mode="embed", master_seed=8, out_dir=str(tmp_path / "ds"))
    real_write_voxels, real_write_text = pipeline.write_voxels, Path.write_text
    calls = []

    def half_then_fail(path, data, write):
        calls.append(path)
        if len(calls) == 2:  # the second sample's file
            write(path, data[: len(data) // 2])
            raise KeyboardInterrupt
        write(path, data)

    if target == "voxels":
        def write_voxels(path, g):
            raw = real_write_voxels(tmp_path / "whole.tvox", g)
            half_then_fail(Path(path), raw, Path.write_bytes)
            return raw

        monkeypatch.setattr(pipeline, "write_voxels", write_voxels)
    else:
        def write_text(self, text, *args, **kwargs):
            if self.suffix != ".part":
                return real_write_text(self, text, *args, **kwargs)
            half_then_fail(self, text, real_write_text)

        monkeypatch.setattr(Path, "write_text", write_text)
    with pytest.raises(KeyboardInterrupt):
        generate_dataset(cfg)
    monkeypatch.undo()

    out = tmp_path / "ds"
    names = sorted(p.name for p in out.iterdir())
    if target == "voxels":
        assert names == ["sample_0000.json", "sample_0000.tvox"]
    else:  # the voxels of the interrupted sample landed, its manifest did not
        assert names == ["sample_0000.json", "sample_0000.tvox", "sample_0001.tvox"]
    assert verify_sample(out / "sample_0000.tvox", out / "sample_0000.json").passed
    # a rerun writes the same dataset as an uninterrupted run
    generate_dataset(cfg)
    generate_dataset(dataclasses.replace(cfg, out_dir=str(tmp_path / "clean")))
    for p in sorted((tmp_path / "clean").iterdir()):
        assert (out / p.name).read_bytes() == p.read_bytes()
    assert len(list(out.iterdir())) == 6


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"count": 1, "colour": "red"}', "bad config: "),
        ("[1, 2]", "a config must be a JSON object"),
        ("[" * 100000, "JSON nested too deeply"),
        ('{"count": "two"}', "bad config: "),
        ('{"count": ', "Expecting value"),
        ('{"count": 1, "max_objects": 0}', "max_objects must be at least 1, got 0"),
        ('{"count": 1, "spacing": 0}', "spacing must be at least 1, got 0"),
        ('{"count": 1, "spacing": 5}', "spacing must be at most 4, got 5"),
        ('{"count": 1, "deform_iterations": -3}', "deform_iterations must be nonnegative, got -3"),
        ('{"count": 1, "dilate_iterations": -1}', "dilate_iterations must be nonnegative, got -1"),
        ('{"count": 1, "dims": [8, 8]}', "dims (8, 8) too small for any cut-out or object"),
        ('{"count": 1, "shape_weights": {"torus": 1.0}}', "bad config: shape_weights names an unknown kind 'torus'"),
        (
            '{"count": 1, "dims": [32, 32, 32], "mode": "embed", "shape_weights": {"S2xB2": 1}}',
            "bad config: shape_weights gives no embed kind that fits dims (32, 32, 32) a positive weight",
        ),
        (
            json.dumps({"dims": [16, 16, 16], "dilate_iterations": 1, "dilate_element": PLANE_ELEMENT}),
            "bad config: dilate_element is 2D but dims (16, 16, 16) are 3D",
        ),
        (
            '{"dims": [16, 16], "dilate_element": {"mask": [[1, 1], [1]], "origin": [0, 0]}}',
            "bad config: dilate_element: element mask must be a rectangular 0/1 nested list, got [[1, 1], [1]]",
        ),
        (
            '{"dims": [16, 16], "dilate_element": {"mask": "11", "origin": [0, 0]}}',
            "bad config: dilate_element: element mask must be a rectangular 0/1 nested list, got '11'",
        ),
        (
            '{"dims": [16, 16], "dilate_element": [1]}',
            "bad config: dilate_element: element spec must be an object with 'mask' and 'origin', got [1]",
        ),
        ('{"dims": [16, 16], "shape_weights": [1]}', "bad config: shape_weights must map kind names to finite numbers, got [1]"),
        ('{"count": 1, "shape_weights": {"ball": "1"}}', "bad config: shape_weights must map kind names to finite numbers"),
        ('{"count": 1, "shape_weights": {"ball": true}}', "bad config: shape_weights must map kind names to finite numbers"),
        ('{"count": 1, "shape_weights": {"ball": NaN}}', "bad config: shape_weights must map kind names to finite numbers"),
        ('{"count": 2.5}', "bad config: count must be an integer, got 2.5"),
        ('{"count": true}', "bad config: count must be an integer, got True"),
        ('{"count": 1, "max_objects": 2.5}', "bad config: max_objects must be an integer, got 2.5"),
        ('{"count": 1, "spacing": 2.0}', "bad config: spacing must be an integer, got 2.0"),
        ('{"count": 1, "deform_iterations": 2.5}', "bad config: deform_iterations must be an integer, got 2.5"),
        ('{"count": 1, "dilate_iterations": 1.5}', "bad config: dilate_iterations must be an integer, got 1.5"),
        ('{"count": 1, "master_seed": 7.0}', "bad config: master_seed must be an integer, got 7.0"),
        ('{"count": 1, "master_seed": -1}', "bad config: master_seed must be nonnegative, got -1"),
        ('{"count": 1, "dims": [32.5, 32]}', "bad config: dims must be integers, got [32.5, 32]"),
        ('{"count": 1, "dims": 5}', "bad config: dims must be integers, got 5"),
        ('{"count": 1, "dims": null}', "bad config: dims must be integers, got None"),
        ('{"count": 1, "deform_noise_scale": "8"}', "bad config: deform_noise_scale must be a positive number, got '8'"),
        ('{"count": 1, "deform_noise_scale": 0}', "bad config: deform_noise_scale must be a positive number, got 0"),
        ('{"count": 1, "dilate_noise_bias": "false"}', "bad config: dilate_noise_bias must be true or false, got 'false'"),
        ('{"count": 1, "dilate_noise_bias": 1}', "bad config: dilate_noise_bias must be true or false, got 1"),
        ('{"count": 1, "out_dir": 5}', "bad config: out_dir must be a string, got 5"),
        ('{"count": 1, "verify_rate": true}', "bad config: verify_rate must be a number in [0, 1], got True"),
        ('{"count": 1, "verify_rate": "x"}', "bad config: verify_rate must be a number in [0, 1], got 'x'"),
        ('{"count": 1, "verify_rate": NaN}', "bad config: verify_rate must be a number in [0, 1], got nan"),
        ('{"count": 1, "verify_rate": 1.5}', "bad config: verify_rate must be a number in [0, 1], got 1.5"),
        ('{"count": 1, "dims": [16, 0]}', "bad config: dims must have 2 to 4 axes, each of length at least 1, got (16, 0)"),
        ('{"count": 1, "dims": []}', "bad config: dims must have 2 to 4 axes, each of length at least 1, got ()"),
        *OVERFLOWS,
        *LOADED_THEN_FAILED,
    ],
)
def test_cli_gen_fails_in_one_line_on_a_bad_config(tmp_path, capsys, monkeypatch, text, reason):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    # --out would override the config's own out_dir
    out = [] if '"out_dir"' in text else ["--out", str(tmp_path / "ds")]
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["gen", "--config", str(config), *out])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("topovox gen: error: ")
    assert reason in err[0]
    assert not (tmp_path / "ds").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("dims", [["20"], ["6"] * 5])
def test_cli_gen_rejects_dims_without_2_to_4_axes_as_a_config(tmp_path, capsys, dims):
    # these used to spend all ten attempts on "too small for any cut-out"
    out = tmp_path / "ds"
    assert cli.main(["gen", "--dims", *dims, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("topovox gen: error: bad config: dims must have 2 to 4 axes")
    assert not out.exists()


def test_cli_gen_rejects_dims_above_the_voxel_bound_before_generating(tmp_path, capsys, monkeypatch):
    def never(cfg):  # a missing bound must not allocate 64 GB here
        raise AssertionError("generation started")

    monkeypatch.setattr(cli, "generate_dataset", never)
    out = tmp_path / "ds"
    assert cli.main(["gen", "--dims", "4000", "4000", "4000", "--count", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "topovox gen: error: bad config: dims (4000, 4000, 4000) hold 64000000000 voxels, "
        f"more than {MAX_VOXELS}"
    ]
    assert not out.exists()


def test_cli_gen_failure_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "new" / "ds"
    assert cli.main(["gen", "--dims", "8", "8", "--count", "1", "--out", str(out)]) == 1
    assert "too small" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    # a directory that already existed is left as it was
    out.mkdir(parents=True)
    (out / "keep.txt").write_text("kept")
    assert cli.main(["gen", "--dims", "8", "8", "--count", "1", "--out", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept"


def test_exhausted_attempts_name_the_last_cause(tmp_path, monkeypatch):
    calls = []

    def always_fails(*args):
        calls.append(args)
        raise sd.PlacementError(f"placement failed on attempt {len(calls)}")

    monkeypatch.setattr(pipeline, "_build_sample", always_fails)
    cfg = DatasetConfig(count=1, dims=(32, 32), out_dir=str(tmp_path / "ds"))
    with pytest.raises(SampleAttemptsExhaustedError) as info:
        generate_dataset(cfg)
    assert len(calls) == 10
    assert str(info.value) == "sample 0 failed after 10 attempts; the last: placement failed on attempt 10"
    assert isinstance(info.value.__cause__, sd.PlacementError)
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "mode, dims, what",
    [
        ("cutout", (13, 13), "cut-out"),
        ("embed", (11, 11, 11), "object"),
        ("mixed", (8, 8), "cut-out or object"),
        ("cutout", (13, 13, 13, 13), "cut-out"),
        ("mixed", (20, 20, 9), "cut-out or object"),
    ],
)
def test_dims_that_nothing_fits_fail_before_the_first_attempt(tmp_path, monkeypatch, mode, dims, what):
    def no_attempt(*args):
        raise AssertionError("an attempt was made")

    monkeypatch.setattr(pipeline, "_build_sample", no_attempt)
    cfg = DatasetConfig(count=1, dims=dims, mode=mode, out_dir=str(tmp_path / "ds"))
    with pytest.raises(sd.PlacementError) as info:
        generate_dataset(cfg)
    assert str(info.value) == f"dims {dims} too small for any {what}"
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize(
    "mode, dims", [("cutout", (14, 14)), ("embed", (12, 12)), ("mixed", (12, 12)), ("embed", (12,) * 4)]
)
def test_dims_that_one_kind_fits_pass_the_up_front_check(mode, dims):
    assert pipeline._draw_table(DatasetConfig(count=1, dims=dims, mode=mode))


@pytest.mark.parametrize(
    "dims, modes",
    [((12, 12), ["embed"]), ((13,) * 3, ["embed"]), ((13,) * 4, ["embed"]), ((14, 14), ["cutout", "embed"])],
)
def test_mixed_draws_only_the_modes_that_fit(dims, modes):
    assert list(pipeline._draw_table(DatasetConfig(dims=dims))) == modes


def test_draw_table_probabilities_follow_shape_weights():
    weights = {"ball": 3.0, "solid_torus": 1.0, "circle_wedge": 0.5, "open_tube": 2.0, "S2xB2": 9.0}
    table = pipeline._draw_table(DatasetConfig(dims=(40,) * 3, shape_weights=weights))
    assert list(table) == ["cutout", "embed"]
    for mode, (kinds, p, margin, max_side) in table.items():
        w = np.array([weights.get(k.name, 0.0) for k in kinds])
        assert np.array_equal(p, w / w.sum())
        assert margin == (2 if mode == "cutout" else 1)
        assert max_side == 40 - 2 * margin
        assert all(k.min_side(3) <= max_side for k in kinds)


def test_no_attempt_at_13_4_mixed_is_lost_to_a_mode_nothing_fits():
    # half of these attempts used to draw "cutout" and raise "too small"
    cfg = DatasetConfig(dims=(13,) * 4)
    table = pipeline._draw_table(cfg)
    built = 0
    for i in range(24):
        seq = np.random.SeedSequence(entropy=0, spawn_key=(i, 0))
        rng = np.random.Generator(np.random.PCG64(seq))
        try:
            _, construction, _, _ = pipeline._build_sample(cfg, table, rng, int(seq.generate_state(1)[0]))
        except sd.PlacementExhaustedError:  # a crowded grid, not a size that never fits
            continue
        assert construction.family == "disjoint_union"
        built += 1
    assert built
