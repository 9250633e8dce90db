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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .deform import DeformConfig, TopologyDriftError, deform_volume_preserving
from .grid import BinaryGrid, new_grid
from .homology import BettiVector, betti_numbers
from .labels import ConstructionDescriptor, betti_disjoint_union, cavity_label
from .morphology import element_from_spec, homology_safe_dilate
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

def write_voxels(path, g: BinaryGrid) -> None:
    """Write a grid as a TVOX v1 file (bit-exact round trip)."""
    header = MAGIC + bytes([VERSION, g.ndim])
    for d in g.dims:
        header += int(d).to_bytes(4, "little")
    payload = np.packbits(g.data.ravel()).tobytes()
    Path(path).write_bytes(header + payload)


def read_voxels(path) -> BinaryGrid:
    """Read a TVOX v1 file back into a grid."""
    raw = Path(path).read_bytes()
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
    return BinaryGrid(bits.astype(bool).reshape(dims))


def _replace_atomically(path: Path, write) -> None:
    """Call ``write`` on a sibling temp name, then rename it to ``path``.

    The temp name ends in ``.part``, so a reader globbing ``*.tvox`` or
    ``*.json`` never sees a file that is still being written.
    """
    tmp = path.with_name(path.name + ".part")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# manifests

def _betti_to_json(bv: BettiVector) -> dict[str, Any]:
    return {"betti": list(bv.betti), "euler": bv.euler, "reduced": bv.reduced}


def _betti_from_json(d: dict[str, Any]) -> BettiVector:
    return BettiVector.of(d["betti"], d["euler"], d.get("reduced", False))


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
            "label": _betti_to_json(self.label),
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
                dims=tuple(doc["dims"]),
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

#: Cut-out shape kinds whose complement stays connected, per dimension.
CUTOUT_KINDS = {
    2: ("ball",),
    3: ("ball", "solid_torus", "circle_wedge"),
    4: ("ball", "S1xB3", "S2xB2", "T2xB2"),
}

#: Embeddable shape kinds, per dimension.
EMBED_KINDS = {
    2: ("ball", "sphere_shell", "open_tube"),
    3: (
        "ball",
        "sphere_shell",
        "solid_torus",
        "torus_shell",
        "open_tube",
        "trefoil_tube",
        "hopf_link",
        "circle_wedge",
    ),
    4: (
        "ball",
        "S1xB3",
        "S2xB2",
        "T2xB2",
        "tube_IxS2",
        "tube_I2xS1",
        "tube_IxT2",
    ),
}


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
        self.dims = tuple(int(d) for d in self.dims)
        if self.mode not in ("cutout", "embed", "mixed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.verify_rate <= 1.0:
            raise ValueError("verify_rate must be in [0, 1]")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.max_objects < 1:
            raise ValueError(f"max_objects must be at least 1, got {self.max_objects}")
        if self.spacing < 1:
            raise ValueError(f"spacing must be at least 1, got {self.spacing}")
        if self.shape_weights is not None:
            if any(w < 0 for w in self.shape_weights.values()):
                raise ValueError("shape weights must be nonnegative")
            if sum(self.shape_weights.values()) <= 0:
                raise ValueError("shape weights must sum to a positive value")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def resolved_out_dir(self) -> Path:
        return Path(os.environ.get(OUTPUT_DIR_ENV, self.out_dir))

    def to_json(self) -> str:
        doc = {
            "count": self.count,
            "dims": list(self.dims),
            "mode": self.mode,
            "shape_weights": self.shape_weights,
            "max_objects": self.max_objects,
            "spacing": self.spacing,
            "deform_iterations": self.deform_iterations,
            "deform_noise_scale": self.deform_noise_scale,
            "dilate_iterations": self.dilate_iterations,
            "dilate_noise_bias": self.dilate_noise_bias,
            "dilate_element": self.dilate_element,
            "verify_rate": self.verify_rate,
            "out_dir": self.out_dir,
            "master_seed": self.master_seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DatasetConfig":
        doc = json.loads(text)
        doc["dims"] = tuple(doc.get("dims", (32, 32)))
        return cls(**doc)


# ---------------------------------------------------------------------------
# object synthesis

def _weighted_choice(rng: np.random.Generator, kinds, weights: dict[str, float] | None):
    if weights:
        w = np.array([weights.get(k, 0.0) for k in kinds], dtype=float)
        if w.sum() <= 0:
            w = np.ones(len(kinds))
    else:
        w = np.ones(len(kinds))
    return kinds[int(rng.choice(len(kinds), p=w / w.sum()))]


def _tube_radius(ndim: int) -> float:
    return 2.0 if ndim < 4 else 1.6


def _min_side(kind: str, ndim: int) -> int:
    """Smallest object box the kind can be drawn into without degenerating."""
    tube = _tube_radius(ndim)
    if kind == "ball":
        return 10
    if kind in ("sphere_shell", "S1xB3", "S2xB2", "solid_torus", "tube_IxS2", "tube_I2xS1"):
        return int(math.ceil(2 * (4.0 + tube) + 4))
    if kind in ("torus_shell", "T2xB2", "tube_IxT2"):
        return int(math.ceil(2 * 7.7 + 4))
    if kind == "open_tube":
        return int(math.ceil(2 * (4.0 + tube) + 4))
    if kind == "trefoil_tube":
        # strands clear 0.915*scale; a radius-1.4 tube needs scale >= 4.7
        return int(math.ceil(2 * (3.0 * 4.7 + 1.4) + 4))
    if kind == "hopf_link":
        # the two circles pass within one scale of each other
        return int(math.ceil(2 * (1.5 * (2 * tube + 2) + tube) + 4))
    if kind == "circle_wedge":
        return int(math.ceil(2 * 2 * 4.0 + 2 * tube + 4))
    raise ValueError(f"unknown catalog kind {kind!r}")


def _make_object(
    kind: str, ndim: int, rng: np.random.Generator, max_side: int
) -> tuple[BinaryGrid, ConstructionDescriptor]:
    """Rasterize one catalog object into its own minimal grid.

    Parameter draws are clamped so the object's box never exceeds
    ``max_side`` per axis.
    """
    tube = _tube_radius(ndim)
    budget = (max_side - 4) / 2.0  # largest usable reach from the box center

    def box_for(reach: float) -> tuple[BinaryGrid, tuple[float, ...]]:
        side = int(math.ceil(2 * reach + 4))
        grid = new_grid((side,) * ndim)
        return grid, ((side - 1) / 2.0,) * ndim

    def draw(lo: float, hi: float) -> float:
        if hi < lo:
            raise seeds.PlacementError(f"{kind} cannot fit a {max_side}-voxel box")
        return float(rng.uniform(lo, hi))

    genus = 0
    if kind == "ball":
        r = draw(2.5, min(4.0, budget))
        g, center = box_for(r)
        seeds.rasterize_implicit(g, seeds.ImplicitShape("ball", center, (r,)))
    elif kind in ("sphere_shell", "S1xB3", "S2xB2", "solid_torus", "tube_IxS2", "tube_I2xS1"):
        R = draw(4.0, min(5.5, budget - tube))
        g, center = box_for(R + tube)
        seeds.rasterize_implicit(g, seeds.ImplicitShape(kind, center, (R, tube)))
    elif kind in ("torus_shell", "T2xB2", "tube_IxT2"):
        R2, r = 2.2, 1.0
        R1 = draw(4.5, min(5.5, budget - R2 - r))
        g, center = box_for(R1 + R2 + r)
        seeds.rasterize_implicit(g, seeds.ImplicitShape(kind, center, (R1, R2, r)))
    elif kind == "open_tube":
        length = draw(8.0, min(14.0, 2 * (budget - tube)))
        g, center = box_for(length / 2 + tube)
        p0 = np.array(center)
        p0[0] -= length / 2
        p1 = np.array(center)
        p1[0] += length / 2
        seeds.rasterize_tube(g, seeds.make_segment(p0, p1), tube)
    elif kind == "trefoil_tube":
        r = 1.4
        scale = draw(4.7, min(6.5, (budget - r) / 3.0))
        g, center = box_for(3.0 * scale + r)
        seeds.rasterize_tube(g, seeds.make_trefoil(center, scale), r)
    elif kind == "hopf_link":
        scale = draw(2 * tube + 2, min(7.5, (budget - tube) / 1.5))
        g, center = box_for(1.5 * scale + tube)
        c = np.array(center)
        c[0] -= scale / 2
        for loop in seeds.make_hopf_link(c, scale):
            seeds.rasterize_tube(g, loop, tube)
    elif kind == "circle_wedge":
        max_genus = min(3, int((budget - tube) // 4.0))
        genus = int(rng.integers(2, max_genus + 1)) if max_genus > 2 else 2
        R = draw(4.0, min(5.0, (budget - tube) / genus))
        # loops sit at x = start + 2kR, so the chain spans 2*genus*R in x
        side_x = int(math.ceil(2 * genus * R + 2 * tube + 4))
        side = int(math.ceil(2 * (R + tube) + 4))
        dims = (side_x,) + (side,) * (ndim - 1)
        g = new_grid(dims)
        start = np.array([(d - 1) / 2.0 for d in dims])
        start[0] -= R * (genus - 1)
        for loop in seeds.make_circle_wedge(start, R, genus):
            seeds.rasterize_tube(g, loop, tube)
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")

    desc = ConstructionDescriptor(
        family="embedded_object", kind=kind, genus=genus, ndim=ndim
    )
    return g, desc


def _cutout_params(kind: str, genus: int) -> tuple[int, int, int, int]:
    """Cut-out label parameters for a catalog kind."""
    if kind == "ball":
        return (0, 0, 0, 0)
    if kind in ("solid_torus", "S1xB3"):
        return (1, 0, 0, 0)
    if kind == "S2xB2":
        return (0, 1, 0, 0)
    if kind == "T2xB2":
        return (0, 0, 1, 1)
    if kind == "circle_wedge":
        return (genus, 0, 0, 0)
    raise ValueError(f"kind {kind!r} is not a valid cut-out")


def _fitting_kinds(mode: str, dims: tuple[int, ...]) -> tuple[list[str], int, int]:
    """The kinds of ``mode`` (cutout or embed) whose box fits ``dims``.

    Also returns the margin kept free at the grid border and the largest
    object box side that margin leaves.
    """
    ndim = len(dims)
    margin = 2 if mode == "cutout" else 1
    max_side = min(dims) - 2 * margin
    table = CUTOUT_KINDS if mode == "cutout" else EMBED_KINDS
    return [k for k in table[ndim] if _min_side(k, ndim) <= max_side], margin, max_side


def _check_some_kind_fits(cfg: DatasetConfig) -> None:
    """Raise :class:`seeds.PlacementError` if no kind fits ``cfg.dims`` in any
    mode ``cfg.mode`` allows: no attempt could then succeed, whatever its seed.

    Dims with an unsupported number of axes are left to the grid to reject.
    """
    modes = ("cutout", "embed") if cfg.mode == "mixed" else (cfg.mode,)
    if cfg.ndim in CUTOUT_KINDS and not any(_fitting_kinds(m, cfg.dims)[0] for m in modes):
        what = " or ".join("cut-out" if m == "cutout" else "object" for m in modes)
        raise seeds.PlacementError(f"dims {cfg.dims} too small for any {what}")


def _build_sample(
    cfg: DatasetConfig, rng: np.random.Generator, sample_seed: int
) -> tuple[BinaryGrid, ConstructionDescriptor, BettiVector, dict | None]:
    ndim = cfg.ndim
    mode = cfg.mode
    if mode == "mixed":
        mode = "cutout" if rng.random() < 0.5 else "embed"
    n_objects = int(rng.integers(1, cfg.max_objects + 1))

    if mode == "cutout":
        grid = new_grid(cfg.dims, fill=1)
        carved = new_grid(cfg.dims, fill=0)  # cavity tracker for spacing
        kinds, margin, max_side = _fitting_kinds(mode, cfg.dims)
        if not kinds:
            raise seeds.PlacementError(f"dims {cfg.dims} too small for any cut-out")
        cutouts = []
        placements = []
        for k in range(n_objects):
            kind = _weighted_choice(rng, kinds, cfg.shape_weights)
            obj, desc = _make_object(kind, ndim, rng, max_side)
            offset = seeds.place_with_spacing(
                carved,
                obj,
                cfg.spacing,
                seed=int(rng.integers(0, 2**32)),
                margin=margin,
            )
            seeds.blit(carved, obj, offset)
            seeds.blit(grid, obj, offset, value=0)
            cutouts.append(_cutout_params(kind, desc.genus))
            placements.append({"kind": kind, "offset": list(offset), "genus": desc.genus})
        construction = ConstructionDescriptor(
            family="cube_complement",
            ndim=ndim,
            cutouts=tuple(cutouts),
            placement=tuple(placements),
        )
        label = cavity_label(ndim, cutouts)
    else:
        grid = new_grid(cfg.dims, fill=0)
        kinds, margin, max_side = _fitting_kinds(mode, cfg.dims)
        if not kinds:
            raise seeds.PlacementError(f"dims {cfg.dims} too small for any object")
        children = []
        for k in range(n_objects):
            kind = _weighted_choice(rng, kinds, cfg.shape_weights)
            obj, desc = _make_object(kind, ndim, rng, max_side)
            offset = seeds.place_with_spacing(
                grid, obj, cfg.spacing, seed=int(rng.integers(0, 2**32)), margin=margin
            )
            seeds.blit(grid, obj, offset)
            children.append(
                ConstructionDescriptor(
                    family="embedded_object",
                    kind=kind,
                    genus=desc.genus,
                    ndim=ndim,
                    placement=({"offset": list(offset)},),
                )
            )
        construction = ConstructionDescriptor(
            family="disjoint_union", ndim=ndim, children=tuple(children)
        )
        label = betti_disjoint_union([c.label() for c in children])

    deform_doc = None
    # deformation and noise-biased dilation read the same one-octave field
    biased = cfg.dilate_iterations > 0 and cfg.dilate_noise_bias
    noise = (
        noise_field(cfg.dims, cfg.deform_noise_scale, sample_seed)
        if cfg.deform_iterations > 0 or biased
        else None
    )
    if cfg.deform_iterations > 0:
        dcfg = DeformConfig(
            iterations=cfg.deform_iterations,
            noise_scale=cfg.deform_noise_scale,
            seed=sample_seed,
        )
        grid, report = deform_volume_preserving(grid, dcfg, noise=noise)
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
    exhaustion and topology drift trigger regeneration of the affected
    sample under a fresh derived seed, up to 10 attempts; after the last one
    :class:`SampleAttemptsExhaustedError` names its cause.  A label
    verification failure is a hard error: labels are construction-exact by
    design, so a mismatch means a defect, not bad luck.  Each file is written
    under a temp name and renamed, voxels before manifest, so an interrupted
    run leaves no truncated file and no manifest without its voxels.  The
    output directory is created just before the first file is written, so a
    run whose first sample fails leaves no empty directory behind.
    """
    _check_some_kind_fits(cfg)
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
                    cfg, rng, sample_seed
                )
                break
            except (
                seeds.PlacementExhaustedError,
                seeds.PlacementError,
                TopologyDriftError,
            ) as exc:
                cause = exc
        else:
            raise SampleAttemptsExhaustedError(
                f"sample {i} failed after 10 attempts; the last: {cause}"
            ) from cause

        verify_draw = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(i, 999)))
        ).random()
        # the 4D flip gate is known to be incomplete and dilation, unlike
        # deformation, has no global re-check: verify every such sample
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
        _replace_atomically(voxel_path, lambda p: write_voxels(p, grid))
        manifest = SampleManifest(
            dims=grid.dims,
            construction=construction,
            label=label,
            seed=sample_seed,
            voxel_file=voxel_path.name,
            voxel_checksum=file_checksum(voxel_path),
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

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        meas = None if self.measured is None else self.measured.betti
        return (
            f"{state} expected={self.expected.betti} chi={self.expected.euler} "
            f"measured={meas} checksum_ok={self.checksum_ok}"
        )


def verify_sample(voxel_path, manifest_path) -> VerificationReport:
    """Recompute the Betti vector of a stored sample and compare to its label."""
    manifest = SampleManifest.from_json(Path(manifest_path).read_text())
    checksum_ok = file_checksum(voxel_path) == manifest.voxel_checksum
    if not checksum_ok:
        return VerificationReport(False, False, manifest.label, None)
    grid = read_voxels(voxel_path)
    measured = betti_numbers(grid, reduced=manifest.label.reduced)
    passed = measured == manifest.label
    return VerificationReport(passed, True, manifest.label, measured)


def export_slice(voxel_path, fixed: dict[int, int], out_path) -> None:
    """Write a 2D slice of a voxel file as a binary PGM (P5) image.

    ``fixed`` maps axis index to the coordinate held fixed; exactly two axes
    must remain free.  Foreground renders as 255 on a 0 background.
    """
    grid = read_voxels(voxel_path)
    free = [ax for ax in range(grid.ndim) if ax not in fixed]
    if len(free) != 2:
        raise ValueError(
            f"need exactly two free axes, got {len(free)} for dims {grid.dims}"
        )
    for ax, coord in fixed.items():
        if not 0 <= ax < grid.ndim:
            raise ValueError(f"axis {ax} out of range for dims {grid.dims}")
        if not 0 <= coord < grid.dims[ax]:
            raise ValueError(f"coordinate {coord} out of range on axis {ax}")
    index = tuple(
        slice(None) if ax in free else fixed[ax] for ax in range(grid.ndim)
    )
    plane = grid.data[index]
    rows, cols = plane.shape
    header = f"P5\n{cols} {rows}\n255\n".encode()
    Path(out_path).write_bytes(header + (plane.astype(np.uint8) * 255).tobytes())
