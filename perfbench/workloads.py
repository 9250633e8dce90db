"""Workloads, input builders and output checks of the topovox benchmark.

Every workload goes through the public API of ``topovox.pipeline``.  Inputs
depend only on the benchmark seed.  The checks in this module never call
``topovox.homology``: TVOX files are decoded here, and the 2D/3D reference
labels come from connected components and the Euler characteristic (the
method of ``tests/oracles.py``, vectorized with ``scipy.ndimage``).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from topovox import noise, pipeline
from topovox.grid import BinaryGrid
from topovox.homology import BettiVector
from topovox.labels import ConstructionDescriptor


@dataclass(frozen=True)
class GenConfig:
    """One ``DatasetConfig`` shape; each round makes ``count`` samples of it
    in each of ``modes``."""

    name: str
    fields: dict
    count: int
    modes: tuple[str, ...] = ("cutout", "embed")


# Samples alternate explicitly between the two modes that ``mode="mixed"``
# picks at random: a cut-out sample costs 2-3x an embedded one, and a coin
# flip per sample would put that ratio into the run-to-run spread.
#
# ``generate_dataset`` gives up on a whole dataset after ten failed attempts
# at one sample, so every config keeps the chance that an attempt fails
# placement low: three objects in a 24^3 grid or two in a 16^4 grid abort
# about 1 sample in 200, and three in a 20^4 grid about 1 in 50.
#
# 4D sizes.  At 20^4 a cut-out costs 1.9-5.1 s and peaks at 2.6 GB, so a run
# holds too few of them to be steady.  At 16^4 and 12^4 every 4D object is a
# single ball.  No cut-out fits a 12^4 grid, and a deformed 4D cut-out costs
# 6-31 s at 14^4, so gen-edit's 4D samples are embedded.  They are not
# dilated: one homology-safe dilation of a 12^4 ball costs about 2.4 s of
# 1-2 ms gate calls, which would make 4D most of every round.
WORKLOADS: dict[str, tuple[GenConfig, ...] | dict] = {
    "gen-plain": (
        GenConfig("2d", {"dims": (128, 128)}, 1),
        GenConfig("3d", {"dims": (48, 48, 48)}, 3),
        GenConfig("4d", {"dims": (16, 16, 16, 16), "max_objects": 1}, 2),
    ),
    "gen-edit": (
        GenConfig("2d", {"dims": (64, 64), "deform_iterations": 60, "dilate_iterations": 1}, 1),
        GenConfig("3d", {"dims": (32, 32, 32), "deform_iterations": 20, "dilate_iterations": 1,
                         "max_objects": 2}, 1),
        GenConfig("4d", {"dims": (12, 12, 12, 12), "deform_iterations": 20, "max_objects": 1}, 1, ("embed",)),
    ),
    # six blocks of 18 files (sides 24, 26, ..., 40 in both kinds): 108 files
    "verify-noisy": {"blocks": 6, "sides": range(24, 41, 2)},
}


# ---------------------------------------------------------------------------
# engine-free reference labels and an independent TVOX decoder

def _euler(a: np.ndarray) -> int:
    """Euler characteristic of the closed cubical complex of the foreground."""
    lat = np.zeros(tuple(2 * s + 1 for s in a.shape), dtype=bool)
    lat[(slice(1, None, 2),) * a.ndim] = a
    for ax in range(a.ndim):
        # closing the voxels is a separable 3^n dilation; the wrap-around of
        # roll only moves the all-zero even end planes of this axis
        lat = lat | np.roll(lat, 1, ax) | np.roll(lat, -1, ax)
    return sum(
        (-1) ** sum(parity) * int(np.count_nonzero(lat[tuple(slice(p, None, 2) for p in parity)]))
        for parity in itertools.product((0, 1), repeat=a.ndim)
    )


def reference_betti(a: np.ndarray) -> BettiVector:
    """Betti vector of a 2D or 3D grid without the homology engine.

    b0 counts full-adjacency foreground components, the top hole count is
    the number of face-adjacent background components off the border
    (Alexander duality), and in 3D b1 follows from the Euler identity.
    """
    if a.ndim not in (2, 3):
        raise ValueError("reference labels exist for 2D and 3D grids only")
    from scipy import ndimage  # imported here so gen-* set-up does not pay for it

    if not a.any():
        return BettiVector.of((), 0)
    b0 = ndimage.label(a, structure=np.ones((3,) * a.ndim))[1]
    bg, n_bg = ndimage.label(~a, structure=ndimage.generate_binary_structure(a.ndim, 1))
    border = np.zeros_like(a)
    for ax in range(a.ndim):
        border[(slice(None),) * ax + (0,)] = True
        border[(slice(None),) * ax + (-1,)] = True
    holes = n_bg - len(np.unique(bg[border & ~a]))
    chi = _euler(a)
    if a.ndim == 2:
        return BettiVector.of((b0, holes), chi)
    return BettiVector.of((b0, b0 + holes - chi, holes), chi)


def decode_tvox(raw: bytes) -> np.ndarray:
    if raw[:5] != b"TVOX\x01":
        raise ValueError("not a TVOX v1 file")
    ndim = raw[5]
    dims = tuple(int.from_bytes(raw[6 + 4 * k : 10 + 4 * k], "little") for k in range(ndim))
    total = int(np.prod(dims))
    bits = np.unpackbits(np.frombuffer(raw, np.uint8, offset=6 + 4 * ndim), count=total)
    return bits.astype(bool).reshape(dims)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative name, then bytes."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the timed loops

class EngineProbe:
    """Keeps every Betti vector ``topovox.pipeline`` gets from the engine, so
    the checks can compare manifest labels with the engine's own results."""

    def __init__(self) -> None:
        self.results: list[BettiVector] = []
        self._fn = pipeline.betti_numbers

        def probe(*args, **kwargs):
            bv = self._fn(*args, **kwargs)
            self.results.append(bv)
            return bv

        pipeline.betti_numbers = probe

    def uninstall(self) -> None:
        pipeline.betti_numbers = self._fn


@dataclass
class Sample:
    """One timed call and what the checks need to judge it."""

    round: int
    where: str
    seconds: float
    error: str | None = None
    dims: tuple[int, ...] = ()
    engine: BettiVector | None = None
    reference: BettiVector | None = None
    report: object = None


def _sample_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def gen_round(configs, seed: int, rnd: int, out_root: Path, probe: EngineProbe, counts) -> list[Sample]:
    """Generate one round of samples, one ``generate_dataset`` call (count 1,
    own output directory) per sample."""
    samples = []
    for ci, cfg in enumerate(configs):
        for j in range(cfg.count):
            for mi, mode in enumerate(cfg.modes):
                where = f"r{rnd:04d}/{cfg.name}-{j}-{mode}"
                out = out_root / where
                os.environ[pipeline.OUTPUT_DIR_ENV] = str(out)
                dc = pipeline.DatasetConfig(
                    count=1, mode=mode, verify_rate=1.0, out_dir=str(out),
                    master_seed=_sample_seed(seed, rnd, ci, j, mi), **cfg.fields,
                )
                seen = len(probe.results)
                t0 = time.perf_counter()
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        pipeline.generate_dataset(dc)
                    err = None
                except Exception as exc:  # a failed sample is counted, the run goes on
                    err = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                for w in caught:
                    if "deformation stagnated" in str(w.message):
                        counts["deform.stagnated"] += 1
                    else:
                        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
                engine = probe.results[-1] if len(probe.results) == seen + 1 else None
                samples.append(Sample(rnd, where, dt, err, dc.dims, engine))
    return samples


def check_gen_sample(out_root: Path, s: Sample) -> str | None:
    """Failure reason for one generated sample, or None when it is correct."""
    if s.error:
        return s.error
    d = out_root / s.where
    try:
        names = sorted(p.name for p in d.iterdir())
        if names != ["sample_0000.json", "sample_0000.tvox"]:
            return f"{s.where}: unexpected files {names}"
        doc = json.loads((d / "sample_0000.json").read_text())
        raw = (d / "sample_0000.tvox").read_bytes()
        if doc["voxel_checksum"] != hashlib.sha256(raw).hexdigest():
            return f"{s.where}: voxel checksum mismatch"
        if doc["engine_verified"] is not True:
            return f"{s.where}: manifest is not engine-verified"
        label = BettiVector.of(doc["label"]["betti"], doc["label"]["euler"])
        if s.engine is None or label != s.engine:
            return f"{s.where}: label {label} differs from the engine's {s.engine}"
        data = decode_tvox(raw)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"{s.where}: unreadable output: {exc!r}"
    if data.shape != s.dims:
        return f"{s.where}: dims {data.shape}, expected {s.dims}"
    if data.ndim < 4:
        ref = reference_betti(data)
        if ref != label:
            return f"{s.where}: label {label.betti} differs from reference {ref.betti}"
    return None


def build_noisy_inputs(seed: int, out_dir: Path, blocks: int, sides) -> list[list[tuple[Path, Path, BettiVector]]]:
    """Write the verify-noisy corpus: 3D TVOX files plus manifests whose
    labels are engine-free references.

    Every block holds each side in ``sides`` twice: once as uniform random
    fill at 60%, once as a smooth noise field thresholded at 0 with 2-5% of
    voxels flipped.  Files are in seeded order within a block, so any run of
    whole blocks verifies the same mix of sizes and kinds.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = []
    for b in range(blocks):
        block = [(side, kind) for side in sides for kind in ("random", "noise")]
        rng.shuffle(block)
        entries = []
        for k, (side, kind) in enumerate(block):
            shape = (side,) * 3
            if kind == "random":
                a = rng.random(shape) < 0.6
            else:
                field = noise.noise_field(shape, float(rng.uniform(4.0, 8.0)), int(rng.integers(2**31)))
                a = (field.values > 0) ^ (rng.random(shape) < rng.uniform(0.02, 0.05))
            ref = reference_betti(a)
            voxel_path = out_dir / f"noisy_{b:02d}_{k:03d}.tvox"
            manifest_path = voxel_path.with_suffix(".json")
            pipeline.write_voxels(voxel_path, BinaryGrid(a))
            manifest = pipeline.SampleManifest(
                dims=shape,
                construction=ConstructionDescriptor(family="embedded_object", kind=f"noisy_{kind}", ndim=3),
                label=ref,
                seed=seed,
                voxel_file=voxel_path.name,
                voxel_checksum=pipeline.file_checksum(voxel_path),
                engine_verified=False,
            )
            manifest_path.write_text(manifest.to_json())
            entries.append((voxel_path, manifest_path, ref))
        corpus.append(entries)
    return corpus


def verify_round(corpus, rnd: int) -> list[Sample]:
    """Verify every file of block ``rnd`` (cycling through the blocks)."""
    samples = []
    for voxel_path, manifest_path, ref in corpus[rnd % len(corpus)]:
        t0 = time.perf_counter()
        try:
            report = pipeline.verify_sample(voxel_path, manifest_path)
            err = None
        except Exception as exc:  # a failed sample is counted, the run goes on
            report, err = None, f"{type(exc).__name__}: {exc}"
        samples.append(Sample(rnd, voxel_path.name, time.perf_counter() - t0, err,
                              reference=ref, report=report))
    return samples


def check_verify_sample(s: Sample) -> str | None:
    if s.error:
        return s.error
    r = s.report
    if not (r.passed and r.checksum_ok):
        return f"{s.where}: {r.summary()}"
    if r.measured != s.reference or r.expected != s.reference:
        return f"{s.where}: measured {r.measured}, reference {s.reference}"
    return None
