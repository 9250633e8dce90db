import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from topovox.grid import BinaryGrid, new_grid
from topovox.homology import betti_numbers
from topovox.pipeline import (
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
from topovox import cli, pipeline
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


def test_config_round_trip():
    cfg = DatasetConfig(count=5, dims=(16, 16, 16), mode="embed", master_seed=9)
    again = DatasetConfig.from_json(cfg.to_json())
    assert again == cfg


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


def _cli_dataset(tmp_path, name):
    out_dir = tmp_path / name
    cli.main(["gen", "--count", "2", "--dims", "24", "24", "--seed", "3", "--out", str(out_dir)])
    return out_dir


def _verify_lines(out_dir, capsys):
    capsys.readouterr()
    rc = cli.main(["verify", str(out_dir)])
    return rc, capsys.readouterr().out.splitlines()


def test_cli_verify_reports_missing_voxel_file(tmp_path, capsys):
    out_dir = _cli_dataset(tmp_path, "missing")
    (out_dir / "sample_0000.tvox").unlink()
    rc, lines = _verify_lines(out_dir, capsys)
    assert rc == 1
    assert lines[0].startswith("sample_0000.json: FAIL cannot read")
    assert "sample_0000.tvox" in lines[0]
    assert lines[1].startswith("sample_0001.json: PASS")
    assert lines[-1] == "1/2 samples passed"


def _with_voxel_file(text, value):
    doc = json.loads(text)
    doc["voxel_file"] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda t: t[: len(t) // 2], "invalid JSON"),
        (lambda t: '{"dims": [24, 24], "seed": 3}', "no field 'construction'"),
        (lambda t: '{"dims": [24, 24], "construction": {"family": "ball"}}', "unknown family"),
        (lambda t: "[1, 2, 3]", "not a sample manifest"),
        (lambda t: _with_voxel_file(t, 5), "voxel_file is not a string"),
        (lambda t: "[" * 100000, "nested too deeply"),
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
            scratch = tmp_path / "whole.tvox"
            real_write_voxels(scratch, g)
            half_then_fail(Path(path), scratch.read_bytes(), Path.write_bytes)

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
        ('{"count": 1, "dims": [8, 8]}', "dims (8, 8) too small for any cut-out or object"),
    ],
)
def test_cli_gen_fails_in_one_line_on_a_bad_config(tmp_path, capsys, text, reason):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    rc = cli.main(["gen", "--config", str(config), "--out", str(tmp_path / "ds")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("topovox gen: error: ")
    assert reason in err[0]


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
    pipeline._check_some_kind_fits(DatasetConfig(count=1, dims=dims, mode=mode))
