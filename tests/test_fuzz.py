"""Fuzzing of the two file parsers and the config loader, which return a
value or raise their own error, and of the command line, which exits 0, 1
or 2 without a traceback."""
import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from topovox import cli
from topovox.grid import BinaryGrid
from topovox.homology import BettiVector
from topovox.labels import ConstructionDescriptor
from topovox.pipeline import (
    MAX_VOXELS,
    DatasetConfig,
    ManifestFormatError,
    SampleManifest,
    VoxelFormatError,
    generate_dataset,
    read_voxels,
    write_voxels,
)

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _valid_tvox(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "valid.tvox"
    write_voxels(path, BinaryGrid(rng.random((5, 3, 2)) < 0.5))
    return path.read_bytes()


def _read_or_format_error(path, raw):
    path.write_bytes(raw)
    try:
        g = read_voxels(path)
    except VoxelFormatError:
        return
    assert isinstance(g, BinaryGrid)
    assert len(raw) == 6 + 4 * g.ndim + (g.data.size + 7) // 8


@FUZZ
@given(st.binary(max_size=64) | st.binary(max_size=16).map(lambda b: b"TVOX\x01" + b))
def test_read_voxels_on_arbitrary_bytes(tmp_path, raw):
    _read_or_format_error(tmp_path / "fuzz.tvox", raw)


@FUZZ
@given(st.data())
def test_read_voxels_on_mutated_files(tmp_path, data):
    raw = bytearray(_valid_tvox(tmp_path))
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["set", "cut", "insert"]))
        at = data.draw(st.integers(0, len(raw)))
        if op == "set" and at < len(raw):
            raw[at] = data.draw(st.integers(0, 255))
        elif op == "cut":
            del raw[at:]
        else:
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=8))
    _read_or_format_error(tmp_path / "fuzz.tvox", bytes(raw))


def _parse_or_format_error(text):
    try:
        manifest = SampleManifest.from_json(text)
    except ManifestFormatError:
        return
    assert isinstance(manifest.construction, ConstructionDescriptor)
    assert isinstance(manifest.label, BettiVector)
    assert isinstance(manifest.voxel_file, str)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_MANIFEST = {
    "schema_version": 1,
    "dims": [24, 24],
    "construction": {
        "family": "disjoint_union",
        "ndim": 2,
        "children": [{"family": "embedded_object", "kind": "ball", "ndim": 2}],
    },
    "label": {"betti": [1, 0, 0, 0], "euler": 1, "reduced": False},
    "seed": 7,
    "voxel_file": "sample_0000.tvox",
    "voxel_checksum": "0" * 64,
    "engine_verified": True,
    "deform_report": None,
}


@FUZZ
@given(st.text(max_size=80))
@example("[" * 100000)
@example('{"a":' * 5000)
def test_manifest_from_arbitrary_text(text):
    _parse_or_format_error(text)


def _replace_at(doc, path, value):
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(doc, dict) and key in doc:
        return {**doc, key: _replace_at(doc[key], rest, value)}
    if isinstance(doc, list) and isinstance(key, int) and key < len(doc):
        return doc[:key] + [_replace_at(doc[key], rest, value)] + doc[key + 1 :]
    return value


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


@FUZZ
@given(st.sampled_from(list(_paths(_MANIFEST))), _JSON)
@example(("label", "euler"), float("inf"))
@example(("label", "betti", 0), float("nan"))
def test_manifest_from_mutated_manifest(path, value):
    _parse_or_format_error(json.dumps(_replace_at(_MANIFEST, path, value)))


def test_unmutated_fuzz_manifest_parses():
    assert SampleManifest.from_json(json.dumps(_MANIFEST)).voxel_file == "sample_0000.tvox"


#: Valid configs: the CI smoke configs, the fields of perfbench's gen-plain
#: and gen-edit workloads, and one that sets the remaining fields.
_CONFIGS = (
    {"dims": [22, 22, 22, 22], "mode": "embed", "count": 8, "max_objects": 1, "master_seed": 7,
     "shape_weights": {"S1xB3": 1, "S2xB2": 1, "T2xB2": 1, "tube_IxS2": 1, "tube_I2xS1": 1, "tube_IxT2": 1}},
    {"dims": [20, 20, 20], "count": 2, "max_objects": 2, "master_seed": 7,
     "deform_iterations": 20, "dilate_iterations": 1},
    {"dims": [12, 12, 12, 12], "mode": "embed", "count": 2, "max_objects": 1, "master_seed": 7,
     "deform_iterations": 20},
    {"dims": [128, 128]},
    {"dims": [48, 48, 48]},
    {"dims": [16, 16, 16, 16], "max_objects": 1},
    {"dims": [64, 64], "deform_iterations": 60, "dilate_iterations": 1},
    {"dims": [32, 32, 32], "deform_iterations": 20, "dilate_iterations": 1, "max_objects": 2},
    {"dims": [28, 28], "mode": "cutout", "spacing": 3, "deform_noise_scale": 4.0, "verify_rate": 0.5,
     "dilate_noise_bias": True, "out_dir": "ds", "shape_weights": {"ball": 1.0, "sphere_shell": 2},
     "dilate_element": {"mask": [[0, 1, 0], [1, 1, 1], [0, 1, 0]], "origin": [1, 1]}},
)

# stand-ins for the JSON numbers 1e400 and -1e400, beyond the float range
_HUGE, _NEG_HUGE = "<1e400>", "<-1e400>"
_SCALARS = (None, True, "abc", "", {}, 0, 0.0, -1, -0.5, 1.5, 2**63 + 1, 10**400, _HUGE, _NEG_HUGE)


def _mutation(rng):
    """Another JSON type, zero, a negative, a number above 2^63 or beyond the
    float range, a non-numeric string, or a short nested list of one."""
    v = _SCALARS[rng.integers(len(_SCALARS))]
    return ([v], [[v, v]], v, v)[rng.integers(4)]


def _config_paths(doc):
    """Every field, present or not, an unknown one, and each entry one level
    inside a present field."""
    top = [(f.name,) for f in fields(DatasetConfig)] + [("colour",)]
    return top + [p for p in _paths(doc) if len(p) == 2]


def _load_or_bad_config(text):
    try:
        DatasetConfig.from_json(text)
    except ValueError as exc:
        assert str(exc).startswith("bad config: ") and "\n" not in str(exc), (text, str(exc))
    except Exception as exc:
        raise AssertionError(f"{type(exc).__name__} on {text}") from exc


def test_config_from_json_on_mutated_configs():
    rng = np.random.default_rng(2701)
    for _ in range(1000):
        doc = _CONFIGS[rng.integers(len(_CONFIGS))]
        for _ in range(rng.integers(1, 4)):
            paths = _config_paths(doc)
            path, value = paths[rng.integers(len(paths))], _mutation(rng)
            doc = {**doc, path[0]: value} if len(path) == 1 else _replace_at(doc, path, value)
        text = json.dumps(doc).replace(json.dumps(_HUGE), "1e400").replace(json.dumps(_NEG_HUGE), "-1e400")
        _load_or_bad_config(text)


def test_unmutated_fuzz_configs_load():
    for doc in _CONFIGS:
        cfg = DatasetConfig.from_json(json.dumps(doc))
        assert cfg.dims == tuple(doc["dims"]) and math.prod(cfg.dims) <= MAX_VOXELS


# ---------------------------------------------------------------------------
# command lines

_NOT_A_NUMBER = ("", "x", "2.5", "nan", "--", "=")
_SCALES = ("8", "0.5", "0", "-1", "inf", "nan", "1e300", "1e-300", "5e-324", "x")
_SEEDS = ("0", "-1", "9" * 30, "x")


def _argv_pools(files):
    """Per command, the base argv of a small run that succeeds and, per flag
    (``None`` for the positionals), the values a mutation may give it.

    Counts and iterations stay at 3 or below: a large one would make a
    case run long, not fail.  Values beyond any size go only to the seeds,
    which do not set the amount of work, and to fields whose bounds reject
    them before work starts: ``--dims``, ``--spacing`` and ``--max-objects``.
    """
    f = files
    voxels = (f["vox2"], f["vox3"], f["missing"], f["dir"], f["manifest"], f["text"])
    outs = (f["out"], f["dir"], f["missing"] + "/x.tvox", "")
    return {
        "gen": ({"--dims": "16 16", "--count": "1", "--mode": "embed", "--out": f["gen_out"]}, {
            "--config": (f["config"], f["missing"], f["dir"], f["text"], f["vox2"]),
            "--count": ("1", "2", "3", "0", "-1", *_NOT_A_NUMBER),
            "--dims": ("16 16", "12 12 12", "8 8", "16", "6 6 6 6 6", "0 16", "-3 16", "16 x", "",
                       "9" * 20 + " 16", "4000 4000 4000", "2 16777216"),
            "--mode": ("embed", "cutout", "mixed", "wat"),
            "--max-objects": ("1", "2", "0", "-1", str(MAX_VOXELS + 1), str(2**64 + 1), "9" * 40, *_NOT_A_NUMBER),
            "--spacing": ("1", "4", "5", "0", "-1", "9" * 40, *_NOT_A_NUMBER),
            "--deform-iterations": ("0", "3", "-1", *_NOT_A_NUMBER),
            "--dilate-iterations": ("0", "1", "-1", *_NOT_A_NUMBER),
            "--verify-rate": ("0", "0.5", "1", "1.5", "-0.1", "inf", *_NOT_A_NUMBER),
            "--out": (f["gen_out"], f["text"], ""),
            "--seed": _SEEDS,
        }),
        "deform": ({None: f["vox2"], "--iterations": "3", "--out": f["out"]}, {
            None: voxels,
            "--iterations": ("0", "1", "3", "-1", *_NOT_A_NUMBER),
            "--scale": _SCALES,
            "--seed": _SEEDS,
            "--out": outs,
        }),
        "thicken": ({None: f["vox2"], "--iterations": "1", "--out": f["out"]}, {
            None: voxels,
            "--iterations": ("0", "1", "3", "-1", *_NOT_A_NUMBER),
            "--method": ("morph", "dilate", "wat"),
            "--noise-bias": ("",),
            "--scale": _SCALES,
            "--seed": _SEEDS,
            "--out": outs,
        }),
        "verify": ({None: f["manifest"]}, {
            None: (f["manifest"], f["dataset"], f["missing"], f["vox2"], f["text"], f["dir"],
                   f"{f['manifest']} {f['missing']}", ""),
        }),
        "stats": ({None: f["dataset"]}, {
            None: (f["dataset"], f["missing"], f["vox2"], f["dir"], ""),
        }),
        "render-slice": ({None: f["vox3"], "--fix": "0=1", "--out": f["pgm"]}, {
            None: voxels,
            "--fix": ("0=1", "2=5", "0=1 1=2", "0=1 0=2", "0=a", "a", "5=0", "-1=0", "0=-1", "0=99", "9" * 30 + "=0", ""),
            "--out": (f["pgm"], f["dir"], f["missing"] + "/x.pgm", ""),
        }),
    }


def _argv(command, flags):
    argv = [command]
    for flag, value in flags.items():
        argv += ([] if flag is None else [flag]) + value.split()
    return argv


def _mutated_argv(rng, pools):
    """A base argv with one to three mutations, each a flag set from its
    pool, a flag dropped, an unknown flag or another command's name; then,
    one time in five, one token repeated or dropped."""
    command = list(pools)[rng.integers(len(pools))]
    base, pool = pools[command]
    flags = dict(base)
    for _ in range(rng.integers(1, 4)):
        # most mutations set a value, so most cases get past the parser
        op = rng.choice(4, p=[0.8, 0.1, 0.05, 0.05])
        if op == 0:
            flag = list(pool)[rng.integers(len(pool))]
            flags[flag] = pool[flag][rng.integers(len(pool[flag]))]
        elif op == 1 and flags:
            del flags[list(flags)[rng.integers(len(flags))]]
        elif op == 2:
            flags["--colour"] = "red"
        elif op == 3:
            command = list(pools)[rng.integers(len(pools))]
    argv = _argv(command, flags)
    if len(argv) > 1 and rng.random() < 0.2:
        at = rng.integers(1, len(argv))
        argv[at : at + 1] = argv[at : at + 1] * (2 * rng.integers(2))
    return argv


@pytest.fixture
def cli_files(tmp_path):
    """Paths the command-line fuzz draws from, each as a string."""
    ds = tmp_path / "ds"
    generate_dataset(DatasetConfig(count=2, dims=(16, 16), mode="embed", out_dir=str(ds), master_seed=3))
    write_voxels(tmp_path / "box.tvox", BinaryGrid(np.indices((6, 7, 8)).sum(axis=0) % 5 < 2))
    (tmp_path / "empty").mkdir()
    (tmp_path / "notes.txt").write_text("not json, not voxels")
    (tmp_path / "cfg.json").write_text(json.dumps({"dims": [16, 16], "count": 1, "deform_iterations": 3}))
    names = {
        "vox2": ds / "sample_0000.tvox", "vox3": tmp_path / "box.tvox", "manifest": ds / "sample_0001.json",
        "dataset": ds, "dir": tmp_path / "empty", "text": tmp_path / "notes.txt", "config": tmp_path / "cfg.json",
        "missing": tmp_path / "nowhere", "out": tmp_path / "out.tvox", "pgm": tmp_path / "out.pgm",
        "gen_out": tmp_path / "gen",
    }
    return {k: str(v) for k, v in names.items()}


def test_cli_on_mutated_command_lines(tmp_path, monkeypatch, capsys, cli_files):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TOPOVOX_OUT", raising=False)
    pools = _argv_pools(cli_files)
    for command, (base, _) in pools.items():
        assert cli.main(_argv(command, base)) == 0, command
    capsys.readouterr()
    rng = np.random.default_rng(2801)
    codes = set()
    for _ in range(400):
        argv = _mutated_argv(rng, pools)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # a usage error
                rc = exc.code
            except Exception as exc:
                raise AssertionError(f"{type(exc).__name__} on {argv}") from exc
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), argv
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, err)
        assert all("deformation stagnated" in str(w.message) for w in caught), (argv, caught)
        codes.add(rc)
    assert codes == {0, 1, 2}
