"""Fuzzing of the two file parsers and the config loader: they return a value
or raise their own error."""
import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from topovox.grid import BinaryGrid
from topovox.homology import BettiVector
from topovox.labels import ConstructionDescriptor
from topovox.pipeline import (
    MAX_VOXELS,
    DatasetConfig,
    ManifestFormatError,
    SampleManifest,
    VoxelFormatError,
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
