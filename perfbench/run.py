"""topovox benchmark: verified samples per second, latency, peak RSS, set-up time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gen-plain --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):
  gen-plain     generate_dataset, no edits, every sample engine-verified
  gen-edit      generate_dataset with deformation and homology-safe dilation
  verify-noisy  verify_sample over seeded noisy 3D files and manifests

Load shape: a closed loop with one client.  Every run is a fresh
single-threaded worker process (``worker.py``) that handles samples back to
back, like one ``topovox gen`` or ``topovox verify`` call, so the engine's
block memo starts cold.  Numpy/BLAS thread counts are pinned to 1.

``--trace 0`` prints the end-to-end metrics; set-up is repeated in set-up-only
workers and reported as a median (see ``SETUP_MIN``).  ``--trace 1`` runs the
workload untraced for half the time, replays exactly the same work traced,
and prints per-layer metrics from the spans plus the tracing overhead.

Each run checks every output (see ``workloads.py``) and compares the SHA-256
digest of each generated round with earlier runs of the same seed in this
checkout with the same workload definition (kept in
``.perfbench/digests.json``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("gen-plain", "gen-edit", "verify-noisy")
# Set-up is measured in the timed worker and in set-up-only workers, and
# reported as the median: at least three, and up to fifteen while they add
# up to less than 4 s, so a short, noisy set-up gets more samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 4.0


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("TOPOVOX_OUT", "PYTHONPATH")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(run_dir: Path, tag: str, **spec) -> dict:
    """Run one worker to completion and return its result."""
    out = run_dir / tag
    out.mkdir(parents=True)
    spec_path = out / "spec.json"
    spec["out_dir"] = str(out)
    spec["spawned"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=worker_env(), cwd=ROOT, stdout=sys.stderr, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {tag} exited with code {proc.returncode}")
    result = json.loads((out / "result.json").read_text())
    result["out"] = out
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_digests(path: Path, prefix: str, digests: dict[str, str]) -> list[str]:
    """Compare round digests with the ones recorded in ``path`` under the
    same prefix (workload and seed), then record the new ones."""
    known = json.loads(path.read_text()) if path.exists() else {}
    bad = []
    for rnd, digest in digests.items():
        key = f"{prefix}/{rnd}"
        if known.setdefault(key, digest) != digest:
            bad.append(rnd)
    path.write_text(json.dumps(known, indent=0, sort_keys=True))
    return bad


def machine() -> dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def count_failed(res: dict, bad_rounds: list[str]) -> int:
    """Samples that failed a check, plus every sample of a round whose digest
    differs from an earlier run of the same seed."""
    failed, bad = set(res["failed_idx"]), {int(r) for r in bad_rounds}
    return sum(1 for i, rnd in enumerate(res["sample_rounds"]) if i in failed or rnd in bad)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "topovox").is_dir():
        raise SystemExit(f"no topovox sources under {ROOT / 'src'}")
    STATE.mkdir(exist_ok=True)
    run_dir = STATE / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    base = {"workload": workload, "seed": seed}
    try:
        if not trace:
            res = spawn(run_dir, "main", **base, seconds=seconds, trace=False)
            setups = [res["setup_s"]]
            while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
                setups.append(spawn(run_dir, f"setup{len(setups)}", **base, setup_only=True, trace=False)["setup_s"])
            workers = [res]
        else:
            plain = spawn(run_dir, "untraced", **base, seconds=seconds / 2, trace=False)
            res = spawn(run_dir, "traced", **base, rounds=plain["rounds"], trace=True)
            workers = [plain, res]

        prefix = f"{workload}/{res['plan_id']}/{seed}"
        failed = attempted = 0
        for w in workers:
            bad = check_digests(STATE / "digests.json", prefix, w["digests"])
            failed += count_failed(w, bad)
            attempted += w["attempted"]
            for reason in w["failures"][:10] + [f"round {r}: digest differs from an earlier run" for r in bad]:
                print(f"FAILED: {reason}", file=sys.stderr)

        if not trace:
            lat = res["latencies"]
            metrics = {
                "samples_per_s": ((attempted - failed) / res["loop_s"], "1/s", len(lat)),
                "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
                "setup_s": (statistics.median(setups), "s", len(setups)),
            }
            extra = {"sample_s": {"p50": statistics.median(lat), "p90": percentile(lat, 90), "n": len(lat)},
                     "deform_stagnated": res["counts"].get("deform.stagnated", 0),
                     "round_s": res["round_s"], "setup_s": setups}
        else:
            import layers

            spans = json.loads((res["out"] / "spans.json").read_text())
            metrics = layers.layer_metrics(spans, res, plain)
            extra = {"shares": layers.shares(spans, res["work_s"])}
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "extra": extra, "versions": res["versions"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {**machine(), **out["versions"]}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit, n) in out["metrics"].items():
        print(f"{name:<40} {value:>14.6g} {unit:<6} n={n}")
    failed_ratio = out["failed"] / out["attempted"]
    print(f"{'failed_ratio':<40} {failed_ratio:>14.6g} {'-':<6} n={out['attempted']}")
    for key, value in out["extra"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
