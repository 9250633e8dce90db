"""Command-line interface: gen, deform, thicken, verify, stats, render-slice."""
from __future__ import annotations

import argparse
import dataclasses
import errno
import sys
import warnings
from collections import Counter
from pathlib import Path

from .deform import deform_volume_preserving
from .grid import count_ones
from .homology import betti_numbers
from .morphology import homology_safe_dilate, thicken_background
from .noise import noise_field
from .pipeline import (
    DatasetConfig,
    SampleAttemptsExhaustedError,
    SampleManifest,
    export_slice,
    generate_dataset,
    read_voxels,
    verify_sample,
    write_voxels,
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, like the others.

    Subparsers are built with the parser's own class, so each command's
    errors name the command.
    """

    def error(self, message: str):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(2)


def _add_gen(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen", help="generate a labeled dataset")
    p.add_argument("--config", type=Path, help="JSON file with DatasetConfig fields")
    p.add_argument("--count", type=int)
    p.add_argument("--dims", type=int, nargs="+")
    p.add_argument("--mode", choices=["cutout", "embed", "mixed"])
    p.add_argument("--max-objects", type=int, dest="max_objects")
    p.add_argument("--spacing", type=int)
    p.add_argument("--deform-iterations", type=int, dest="deform_iterations")
    p.add_argument("--dilate-iterations", type=int, dest="dilate_iterations")
    p.add_argument("--verify-rate", type=float, dest="verify_rate")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--seed", type=int, dest="master_seed")


def _gen(args: argparse.Namespace) -> int:
    flags = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(DatasetConfig)
        if getattr(args, f.name, None) is not None
    }
    text = args.config.read_text() if args.config else "{}"
    cfg = DatasetConfig.from_json(text, **flags)
    pairs = generate_dataset(cfg)
    for voxel_path, manifest_path in pairs:
        manifest = SampleManifest.from_json(manifest_path.read_text())
        print(
            f"{voxel_path.name}: betti={tuple(manifest.label.betti)} "
            f"chi={manifest.label.euler} verified={manifest.engine_verified}"
        )
    print(f"wrote {len(pairs)} samples to {cfg.resolved_out_dir()}")
    return 0


def _check_edit_args(args: argparse.Namespace) -> None:
    """Reject a negative ``--iterations`` or ``--seed`` before the file is read."""
    if args.iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {args.iterations}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")


def _deform(args: argparse.Namespace) -> int:
    _check_edit_args(args)
    grid = read_voxels(args.voxels)
    noise = noise_field(grid.dims, args.scale, args.seed)  # a bad scale fails before the engine runs
    with warnings.catch_warnings():  # a stagnated run says so in its summary line
        warnings.filterwarnings("ignore", "deformation stagnated", RuntimeWarning)
        out, report = deform_volume_preserving(grid, args.iterations, noise, betti_numbers(grid))
    write_voxels(args.out, out)
    print(
        f"accepted={report.accepted_flips} volume={report.volume_before}->"
        f"{report.volume_after} betti={report.betti_before.betti}->"
        f"{report.betti_after.betti}" + (" stagnated" if report.stagnated else "")
    )
    return 0


def _thicken(args: argparse.Namespace) -> int:
    _check_edit_args(args)
    grid = read_voxels(args.voxels)
    before = betti_numbers(grid)
    if args.method == "morph":
        out = thicken_background(grid, args.iterations)
    else:
        bias = (
            noise_field(grid.dims, args.scale, args.seed) if args.noise_bias else None
        )
        out = homology_safe_dilate(
            grid, iterations=args.iterations, bias=bias, seed=args.seed
        )
    after = betti_numbers(out)
    write_voxels(args.out, out)
    print(
        f"volume={count_ones(grid)}->{count_ones(out)} "
        f"betti={before.betti}->{after.betti}"
    )
    return 0 if before == after else 1


def _fail_line(manifest_path: Path, exc: Exception) -> None:
    """One FAIL line for a file that cannot be read or parsed."""
    if isinstance(exc, OSError):
        print(f"{manifest_path.name}: FAIL cannot read {exc.filename}: {exc.strerror}")
    else:  # malformed manifest or voxel file
        print(f"{manifest_path.name}: FAIL {exc}")


def _verify(args: argparse.Namespace) -> int:
    manifests = []
    for path in args.paths:
        path = Path(path)
        if path.is_dir():
            manifests.extend(sorted(path.glob("*.json")))
        else:
            manifests.append(path)
    failures = 0
    for manifest_path in manifests:
        # a bad file fails on its own line; the others are still checked
        try:
            manifest = SampleManifest.from_json(manifest_path.read_text())
            voxel_path = manifest_path.parent / manifest.voxel_file
            report = verify_sample(voxel_path, manifest_path)
        except (OSError, ValueError) as exc:
            _fail_line(manifest_path, exc)
        else:
            print(f"{manifest_path.name}: {report.summary()}")
            if report.passed:
                continue
        failures += 1
    print(f"{len(manifests) - failures}/{len(manifests)} samples passed")
    return 0 if failures == 0 else 1


def _stats(args: argparse.Namespace) -> int:
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such dataset directory", str(dataset))
    hist: Counter = Counter()
    failures = 0
    for manifest_path in sorted(dataset.glob("*.json")):
        try:
            manifest = SampleManifest.from_json(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            _fail_line(manifest_path, exc)
            failures += 1
        else:
            hist[tuple(manifest.label.betti)] += 1
    for betti, n in sorted(hist.items()):
        print(f"betti={betti}: {n}")
    print(f"{sum(hist.values())} samples" + (f", {failures} failed" if failures else ""))
    return 0 if failures == 0 else 1


def _render_slice(args: argparse.Namespace) -> int:
    fixed = {}
    for spec in args.fix or []:
        axis, _, coord = spec.partition("=")
        try:
            axis, coord = int(axis), int(coord)
        except ValueError:
            raise ValueError(f"bad --fix {spec!r}: expected AXIS=COORD") from None
        if axis in fixed:
            raise ValueError(f"bad --fix {spec!r}: axis {axis} is fixed twice")
        fixed[axis] = coord
    export_slice(args.voxels, fixed, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="topovox",
        description="Topologically labeled synthetic voxel data in 2-4 dimensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_gen(sub)

    p = sub.add_parser("deform", help="volume-preserving deformation of a voxel file")
    p.add_argument("voxels", type=Path)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--scale", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("thicken", help="grow objects without changing topology")
    p.add_argument("voxels", type=Path)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--method", choices=["morph", "dilate"], default="dilate")
    p.add_argument("--noise-bias", action="store_true", dest="noise_bias")
    p.add_argument("--scale", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("verify", help="re-verify labels of stored samples")
    p.add_argument("paths", nargs="+", help="manifest files or dataset directories")

    p = sub.add_parser("stats", help="label histogram of a dataset directory")
    p.add_argument("dataset")

    p = sub.add_parser("render-slice", help="export a 2D slice as PGM")
    p.add_argument("voxels", type=Path)
    p.add_argument("--fix", nargs="*", help="axis=coord for each fixed axis")
    p.add_argument("--out", type=Path, required=True)

    args, extra = parser.parse_known_args(argv)
    if extra:  # e.g. a negative axis in ``--fix -1=0``, taken for an option
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    handler = {
        "gen": _gen,
        "deform": _deform,
        "thicken": _thicken,
        "verify": _verify,
        "stats": _stats,
        "render-slice": _render_slice,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:  # a missing or unwritable file
        reason = f"{exc.strerror}: {exc.filename}" if exc.filename else str(exc)
    except (ValueError, SampleAttemptsExhaustedError) as exc:
        # a malformed voxel file, config or argument, or a grid no sample fits
        reason = str(exc)
    print(f"topovox {args.command}: error: {reason}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
