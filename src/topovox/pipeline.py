"""Dataset generation, voxel/manifest serialization, and verification.

Voxel files use the TVOX v1 format: the magic bytes ``TVOX``, a version byte
(0x01), the dimension count, little-endian 32-bit axis lengths, then the
voxel bits packed 8 per byte in storage order (row-major, last axis fastest,
most significant bit first) with the final byte zero-padded.

Each sample is paired with a JSON manifest holding the construction
descriptor, its closed-form label, provenance, and a SHA-256 checksum of the
voxel file.  Generation is fully deterministic from the master seed: sample
``i`` derives its own seed stream, so datasets regenerate byte-identically.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import sys
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .deform import deform_volume_preserving
from .grid import BinaryGrid, new_grid
from .homology import BettiVector, betti_numbers
from .labels import ConstructionDescriptor, betti_disjoint_union, cavity_label
from .morphology import InvalidElementError, element_from_spec, homology_safe_dilate
from .noise import noise_field
from . import seeds

MAGIC = b"TVOX"
VERSION = 1
SCHEMA_VERSION = 1

#: Environment variable that overrides the configured output directory.
OUTPUT_DIR_ENV = "TOPOVOX_OUT"


class VoxelFormatError(ValueError):
    """Raised for malformed TVOX files; the message carries the byte offset."""


class ManifestFormatError(ValueError):
    """Raised for JSON that is malformed or is not a sample manifest."""


class LabelMismatchError(RuntimeError):
    """Raised when an engine verification contradicts a symbolic label."""


class SampleAttemptsExhaustedError(RuntimeError):
    """Raised when every attempt at one sample fails; names the last cause."""


# ---------------------------------------------------------------------------
# TVOX voxel files

def write_voxels(path, g: BinaryGrid) -> bytes:
    """Write a grid as a TVOX v1 file (bit-exact round trip); returns its bytes."""
    header = MAGIC + bytes([VERSION, g.ndim])
    for d in g.dims:
        header += int(d).to_bytes(4, "little")
    raw = header + np.packbits(g.data.ravel()).tobytes()
    Path(path).write_bytes(raw)
    return raw


def read_voxels(path) -> BinaryGrid:
    """Read a TVOX v1 file back into a grid."""
    return _decode_voxels(Path(path).read_bytes())


def _decode_voxels(raw: bytes) -> BinaryGrid:
    """The grid held by the bytes of a TVOX v1 file."""
    if raw[:4] != MAGIC:
        raise VoxelFormatError(f"bad magic at offset 0: {raw[:4]!r}")
    if len(raw) < 6:
        raise VoxelFormatError(f"truncated header at offset {len(raw)}")
    if raw[4] != VERSION:
        raise VoxelFormatError(f"unsupported version {raw[4]} at offset 4")
    ndim = raw[5]
    if ndim not in (2, 3, 4):
        raise VoxelFormatError(f"unsupported dimension count {ndim} at offset 5")
    need = 6 + 4 * ndim
    if len(raw) < need:
        raise VoxelFormatError(f"truncated dims at offset {len(raw)}")
    dims = tuple(
        int.from_bytes(raw[6 + 4 * k : 10 + 4 * k], "little") for k in range(ndim)
    )
    if any(d < 1 for d in dims):
        raise VoxelFormatError(f"nonpositive axis length in {dims} at offset 6")
    total = math.prod(dims)  # Python ints: four 32-bit axes overflow int64
    expect = need + (total + 7) // 8
    if len(raw) != expect:
        raise VoxelFormatError(
            f"payload length {len(raw) - need} at offset {need}, expected "
            f"{expect - need} bytes for dims {dims}"
        )
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=need), count=total)
    # unpackbits returns a fresh 0/1 uint8 array: a valid bool array as it is
    return BinaryGrid(bits.view(bool).reshape(dims))


def _replace_atomically(path: Path, write):
    """Call ``write`` on a sibling temp name, rename it to ``path``, and
    return what ``write`` returned.

    The temp name ends in ``.part``, so a reader globbing ``*.tvox`` or
    ``*.json`` never sees a file that is still being written.
    """
    tmp = path.with_name(path.name + ".part")
    try:
        result = write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def file_checksum(path) -> str:
    """The SHA-256 of a file's bytes, as a manifest's ``voxel_checksum``."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# manifests

def _betti_from_json(d: dict[str, Any]) -> BettiVector:
    return BettiVector.of(d["betti"], d["euler"], d.get("reduced", False))


def _dims_from_json(value) -> tuple[int, ...]:
    if not (isinstance(value, list) and value and all(type(d) is int and d > 0 for d in value)):
        raise ValueError(f"dims must be a list of positive integers, got {value!r}")
    return tuple(value)


@dataclass
class SampleManifest:
    """Everything needed to interpret and re-verify one sample."""

    dims: tuple[int, ...]
    construction: ConstructionDescriptor
    label: BettiVector
    seed: int
    voxel_file: str
    voxel_checksum: str
    engine_verified: bool
    deform_report: dict[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "dims": list(self.dims),
            "construction": self.construction.to_dict(),
            "label": self.label.to_dict(),
            "seed": self.seed,
            "voxel_file": self.voxel_file,
            "voxel_checksum": self.voxel_checksum,
            "engine_verified": self.engine_verified,
            "deform_report": self.deform_report,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SampleManifest":
        """Parse a manifest; raises :class:`ManifestFormatError` on bad input."""
        try:
            doc = json.loads(text)
            manifest = cls(
                dims=_dims_from_json(doc["dims"]),
                construction=ConstructionDescriptor.from_dict(doc["construction"]),
                label=_betti_from_json(doc["label"]),
                seed=doc["seed"],
                voxel_file=doc["voxel_file"],
                voxel_checksum=doc["voxel_checksum"],
                engine_verified=doc["engine_verified"],
                deform_report=doc.get("deform_report"),
                schema_version=doc.get("schema_version", SCHEMA_VERSION),
            )
        except json.JSONDecodeError as exc:
            raise ManifestFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ManifestFormatError("not a sample manifest: nested too deeply") from exc
        except KeyError as exc:
            raise ManifestFormatError(f"not a sample manifest: no field {exc}") from exc
        except (TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ManifestFormatError(f"not a sample manifest: {exc}") from exc
        if not isinstance(manifest.voxel_file, str):
            raise ManifestFormatError("not a sample manifest: voxel_file is not a string")
        return manifest


# ---------------------------------------------------------------------------
# dataset configuration

#: DatasetConfig fields that must be integers (a numpy integer is accepted).
_INTEGER_FIELDS = (
    "count", "max_objects", "spacing", "deform_iterations", "dilate_iterations", "master_seed"
)


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is an Integral too, but not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number other than a bool, finite as a float (a JSON int may not be)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


#: Placement dilates by ``ball(spacing)``, which spans ``2 * spacing + 1``
#: voxels per axis; structuring elements are capped at 9.
MAX_SPACING = 4

#: The most voxels a generated grid may hold (4096^2, 256^3, 64^4), checked before allocating.
MAX_VOXELS = 2**24


@dataclass
class DatasetConfig:
    """Knobs for one generation run; serializable as JSON."""

    count: int = 4
    dims: tuple[int, ...] = (32, 32)
    mode: str = "mixed"  # cutout | embed | mixed
    shape_weights: dict[str, float] | None = None
    max_objects: int = 3
    spacing: int = 2
    deform_iterations: int = 0
    deform_noise_scale: float = 8.0
    dilate_iterations: int = 0
    dilate_noise_bias: bool = False
    dilate_element: dict | None = None  # {"mask": [...0/1...], "origin": [...]}
    verify_rate: float = 1.0
    out_dir: str = "dataset"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.dims, Iterable) and all(_is_integer(d) for d in self.dims)):
            raise ValueError(f"dims must be integers, got {self.dims!r}")
        self.dims = tuple(int(d) for d in self.dims)
        if not (2 <= len(self.dims) <= 4 and min(self.dims) >= 1):
            raise ValueError(
                f"dims must have 2 to 4 axes, each of length at least 1, got {self.dims}"
            )
        if math.prod(self.dims) > MAX_VOXELS:
            raise ValueError(f"dims {self.dims} hold {math.prod(self.dims)} voxels, more than {MAX_VOXELS}")
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if not (_is_number(self.deform_noise_scale) and self.deform_noise_scale > 0):
            raise ValueError(
                f"deform_noise_scale must be a positive number, got {self.deform_noise_scale!r}"
            )
        if self.mode not in ("cutout", "embed", "mixed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (_is_number(self.verify_rate) and 0.0 <= self.verify_rate <= 1.0):
            raise ValueError(f"verify_rate must be a number in [0, 1], got {self.verify_rate!r}")
        if not isinstance(self.dilate_noise_bias, bool):
            raise ValueError(
                f"dilate_noise_bias must be true or false, got {self.dilate_noise_bias!r}"
            )
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.max_objects < 1:
            raise ValueError(f"max_objects must be at least 1, got {self.max_objects}")
        if self.max_objects > MAX_VOXELS:  # each object takes a voxel
            raise ValueError(f"max_objects must be at most {MAX_VOXELS}, got {self.max_objects}")
        if self.spacing < 1:
            raise ValueError(f"spacing must be at least 1, got {self.spacing}")
        if self.spacing > MAX_SPACING:
            raise ValueError(f"spacing must be at most {MAX_SPACING}, got {self.spacing}")
        for name in ("deform_iterations", "dilate_iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.dilate_element is not None:
            try:
                element = element_from_spec(self.dilate_element)
            except InvalidElementError as exc:
                raise ValueError(f"dilate_element: {exc}") from exc
            if element.mask.ndim != len(self.dims):
                raise ValueError(
                    f"dilate_element is {element.mask.ndim}D but dims {self.dims} "
                    f"are {len(self.dims)}D"
                )
        if self.shape_weights is not None:
            if not isinstance(self.shape_weights, Mapping) or not all(
                _is_number(w) for w in self.shape_weights.values()
            ):
                raise ValueError(
                    f"shape_weights must map kind names to finite numbers, got {self.shape_weights!r}"
                )
            if any(w < 0 for w in self.shape_weights.values()):
                raise ValueError("shape weights must be nonnegative")
            if not 0 < sum(self.shape_weights.values()) <= sys.float_info.max:
                raise ValueError("shape_weights must sum to a positive finite number")
            for name in self.shape_weights:
                if name not in seeds.KINDS:
                    raise ValueError(f"shape_weights names an unknown kind {name!r}")
            _draw_table(self)  # raises if a drawn mode's fitting kinds all weigh 0

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def resolved_out_dir(self) -> Path:
        return Path(os.environ.get(OUTPUT_DIR_ENV, self.out_dir))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, **overrides) -> "DatasetConfig":
        """Parse a JSON object of config fields, ``overrides`` replacing
        fields of the same name before the whole is checked.

        Raises :class:`ValueError` on malformed JSON, JSON that is not an
        object, an unknown field or a bad value.
        """
        try:
            doc = json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
        if not isinstance(doc, dict):
            raise ValueError("a config must be a JSON object")
        doc.update(overrides)
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"bad config: unknown fields {unknown}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:  # a bad type or value
            raise ValueError(f"bad config: {exc}") from exc


# ---------------------------------------------------------------------------
# object synthesis

def _draw_table(cfg: DatasetConfig) -> dict[str, tuple[list[seeds.CatalogKind], np.ndarray, int, int]]:
    """What a sample of ``cfg`` can be drawn as, decided once per run.

    Maps each mode ``cfg.mode`` draws in (both for ``mixed``) in which some
    kind fits ``cfg.dims`` to those kinds, their draw probabilities (by
    ``shape_weights``, uniform without them), the margin kept free at the
    grid border and the largest object box side that margin leaves.  Raises
    ``ValueError`` if ``shape_weights`` gives no kind of such a mode a
    positive weight.
    """
    table = {}
    for mode in ("cutout", "embed") if cfg.mode == "mixed" else (cfg.mode,):
        margin = 2 if mode == "cutout" else 1
        max_side = min(cfg.dims) - 2 * margin
        kinds = [k for k in seeds.drawn(mode, cfg.ndim) if k.min_side(cfg.ndim) <= max_side]
        if not kinds:
            continue
        if cfg.shape_weights:
            w = np.array([cfg.shape_weights.get(k.name, 0.0) for k in kinds], dtype=float)
        else:
            w = np.ones(len(kinds))
        if not w.sum() > 0:
            names = ", ".join(k.name for k in kinds)
            raise ValueError(
                f"shape_weights gives no {mode} kind that fits dims {cfg.dims} "
                f"a positive weight (those kinds: {names})"
            )
        table[mode] = (kinds, w / w.sum(), margin, max_side)
    return table


def _build_sample(
    cfg: DatasetConfig, table: dict, rng: np.random.Generator, sample_seed: int
) -> tuple[BinaryGrid, ConstructionDescriptor, BettiVector, dict | None]:
    """One sample of ``cfg``, drawn from its :func:`_draw_table` ``table``."""
    ndim = cfg.ndim
    if len(table) == 2:  # mixed, and both modes fit
        mode = "cutout" if rng.random() < 0.5 else "embed"
    else:
        (mode,) = table
    n_objects = int(rng.integers(1, cfg.max_objects + 1))

    # objects are placed in an empty scene; a cut-out sample is its complement
    kinds, p, margin, max_side = table[mode]
    scene = new_grid(cfg.dims)
    placed = []
    for _ in range(n_objects):
        kind = kinds[int(rng.choice(len(kinds), p=p))]
        obj, genus = kind.make(ndim, rng, max_side)
        offset = seeds.place_with_spacing(
            scene, obj, cfg.spacing, seed=int(rng.integers(0, 2**32)), margin=margin
        )
        seeds.blit(scene, obj, offset)
        placed.append((kind, genus, list(offset)))

    if mode == "cutout":
        grid = scene.complement()
        cutouts = [kind.cutout(genus) for kind, genus, _ in placed]
        construction = ConstructionDescriptor(
            family="cube_complement",
            ndim=ndim,
            cutouts=tuple(cutouts),
            placement=tuple(
                {"kind": kind.name, "offset": offset, "genus": genus}
                for kind, genus, offset in placed
            ),
        )
        label = cavity_label(ndim, cutouts)
    else:
        grid = scene
        children = [
            ConstructionDescriptor(
                family="embedded_object",
                kind=kind.name,
                genus=genus,
                ndim=ndim,
                placement=({"offset": offset},),
            )
            for kind, genus, offset in placed
        ]
        construction = ConstructionDescriptor(
            family="disjoint_union", ndim=ndim, children=tuple(children)
        )
        label = betti_disjoint_union([c.label() for c in children])

    deform_doc = None
    # deformation and noise-biased dilation read the same noise field
    biased = cfg.dilate_iterations > 0 and cfg.dilate_noise_bias
    noise = (
        noise_field(cfg.dims, cfg.deform_noise_scale, sample_seed)
        if cfg.deform_iterations > 0 or biased
        else None
    )
    if cfg.deform_iterations > 0:
        grid, report = deform_volume_preserving(grid, cfg.deform_iterations, noise, label)
        deform_doc = report.to_dict()
        construction.deformation_log = (
            {"kind": "volume_preserving", "iterations": cfg.deform_iterations,
             "noise_scale": cfg.deform_noise_scale, "seed": sample_seed},
        )
    if cfg.dilate_iterations > 0:
        element = (
            element_from_spec(cfg.dilate_element) if cfg.dilate_element else None
        )
        grid = homology_safe_dilate(
            grid, element, iterations=cfg.dilate_iterations,
            bias=noise if biased else None, seed=sample_seed,
        )
        construction.deformation_log = construction.deformation_log + (
            {"kind": "homology_safe_dilate", "iterations": cfg.dilate_iterations,
             "noise_bias": cfg.dilate_noise_bias, "seed": sample_seed},
        )
    return grid, construction, label, deform_doc


def generate_dataset(cfg: DatasetConfig) -> list[tuple[Path, Path]]:
    """Generate the configured samples; returns (voxel path, manifest path) pairs.

    Dims that no catalog kind fits in any mode ``cfg.mode`` allows raise
    :class:`seeds.PlacementError` before the first attempt.  Placement
    exhaustion triggers regeneration of the affected sample under a fresh
    derived seed, up to 10 attempts; after the last one
    :class:`SampleAttemptsExhaustedError` names its cause.  A label
    verification failure and a :class:`deform.TopologyDriftError` are hard
    errors: labels are construction-exact by design and the flip gate
    accepts only simple-voxel flips, so either means a defect, not bad
    luck.  Each file is written under a temp name and renamed, voxels
    before manifest, so an interrupted run leaves no truncated file and no
    manifest without its voxels.  The output directory is created just
    before the first file is written, so a run whose first sample fails
    leaves no empty directory behind.
    """
    table = _draw_table(cfg)
    if not table:
        what = {"cutout": "cut-out", "embed": "object", "mixed": "cut-out or object"}[cfg.mode]
        raise seeds.PlacementError(f"dims {cfg.dims} too small for any {what}")
    out = cfg.resolved_out_dir()
    results: list[tuple[Path, Path]] = []
    width = max(4, len(str(cfg.count - 1)))
    for i in range(cfg.count):
        grid = construction = label = deform_doc = None
        for attempt in range(10):
            seq = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(i, attempt))
            rng = np.random.Generator(np.random.PCG64(seq))
            sample_seed = int(seq.generate_state(1)[0])
            try:
                grid, construction, label, deform_doc = _build_sample(
                    cfg, table, rng, sample_seed
                )
                break
            except (seeds.PlacementExhaustedError, seeds.PlacementError) as exc:
                cause = exc
        else:
            raise SampleAttemptsExhaustedError(
                f"sample {i} failed after 10 attempts; the last: {cause}"
            ) from cause

        verify_draw = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(i, 999)))
        ).random()
        # dilation, unlike deformation, has no global re-check of its own:
        # verify every dilated 4D sample (the flag is part of the manifest)
        engine_verified = verify_draw < cfg.verify_rate or (
            cfg.ndim == 4 and cfg.dilate_iterations > 0
        )
        if engine_verified:
            measured = betti_numbers(grid)
            if measured != label:
                raise LabelMismatchError(
                    f"sample {i}: engine measured {measured.betti} "
                    f"(chi {measured.euler}) but the label says {label.betti} "
                    f"(chi {label.euler})"
                )

        stem = f"sample_{i:0{width}d}"
        voxel_path = out / f"{stem}.tvox"
        manifest_path = out / f"{stem}.json"
        if not results:
            out.mkdir(parents=True, exist_ok=True)
        raw = _replace_atomically(voxel_path, lambda p: write_voxels(p, grid))
        manifest = SampleManifest(
            dims=grid.dims,
            construction=construction,
            label=label,
            seed=sample_seed,
            voxel_file=voxel_path.name,
            voxel_checksum=hashlib.sha256(raw).hexdigest(),
            engine_verified=engine_verified,
            deform_report=deform_doc,
        )
        _replace_atomically(manifest_path, lambda p: p.write_text(manifest.to_json()))
        results.append((voxel_path, manifest_path))
    return results


# ---------------------------------------------------------------------------
# verification and export

@dataclass
class VerificationReport:
    passed: bool
    checksum_ok: bool
    expected: BettiVector
    measured: BettiVector | None
    #: Why the sample failed before the engine ran, if it did.
    reason: str | None = None

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        meas = None if self.measured is None else self.measured.betti
        line = (
            f"{state} expected={self.expected.betti} chi={self.expected.euler} "
            f"measured={meas} checksum_ok={self.checksum_ok}"
        )
        return line if self.reason is None else f"{line}: {self.reason}"


def verify_sample(voxel_path, manifest_path) -> VerificationReport:
    """Recompute the Betti vector of a stored sample and compare to its label.

    A sample whose voxel file fails its checksum, or whose manifest dims
    differ from the voxel file's, fails without running the engine.  The
    voxel file is read once: the bytes that pass the checksum are the bytes
    decoded.
    """
    manifest = SampleManifest.from_json(Path(manifest_path).read_text())
    raw = Path(voxel_path).read_bytes()
    if hashlib.sha256(raw).hexdigest() != manifest.voxel_checksum:
        return VerificationReport(False, False, manifest.label, None)
    grid = _decode_voxels(raw)
    if manifest.dims != grid.dims:
        return VerificationReport(
            False, True, manifest.label, None,
            reason=f"manifest dims {manifest.dims} differ from voxel file dims {grid.dims}",
        )
    measured = betti_numbers(grid, reduced=manifest.label.reduced)
    passed = measured == manifest.label
    return VerificationReport(passed, True, manifest.label, measured)


def export_slice(voxel_path, fixed: dict[int, int], out_path) -> None:
    """Write a 2D slice of a voxel file as a binary PGM (P5) image.

    ``fixed`` maps axis index to the coordinate held fixed; exactly two axes
    must remain free.  Foreground renders as 255 on a 0 background.
    """
    grid = read_voxels(voxel_path)
    for ax, coord in fixed.items():
        if not 0 <= ax < grid.ndim:
            raise ValueError(f"axis {ax} out of range for dims {grid.dims}")
        if not 0 <= coord < grid.dims[ax]:
            raise ValueError(f"coordinate {coord} out of range on axis {ax}")
    free = [ax for ax in range(grid.ndim) if ax not in fixed]
    if len(free) != 2:
        raise ValueError(
            f"need exactly two free axes, got {len(free)} for dims {grid.dims}"
        )
    index = tuple(
        slice(None) if ax in free else fixed[ax] for ax in range(grid.ndim)
    )
    plane = grid.data[index]
    rows, cols = plane.shape
    header = f"P5\n{cols} {rows}\n255\n".encode()
    Path(out_path).write_bytes(header + (plane.astype(np.uint8) * 255).tobytes())
