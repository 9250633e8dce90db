"""One benchmark run in a fresh process; ``run.py`` starts it.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the workload, seed, output directory, the monotonic time the
process was started, whether to trace, and either a time budget
(``seconds``, checked between rounds) or an exact number of rounds
(``rounds``).  A round is one pass over the workload's configs (``gen-*``)
or one block of files (``verify-noisy``).  With ``setup_only`` the worker
stops where the first timed call would start.  Results go to
``result.json`` in the output directory, spans (traced runs) to
``spans.json``.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import topovox  # noqa: E402
from topovox import deform, morphology, noise, pipeline, seeds  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def install_tracer(t: tracing.Tracer) -> None:
    """Wrap each public function at the name its consumer module binds."""
    def deform_report(tr, span, args, result):
        _, report = result
        tr.counts["deform.accepted_flips"] += report.accepted_flips
        tr.counts["deform.rejected_moves"] += report.rejected_removals + report.rejected_placements

    t.wrap(pipeline, "generate_dataset", "pipeline.generate")
    t.wrap(pipeline, "verify_sample", "pipeline.verify_sample")
    t.wrap(pipeline, "betti_numbers", lambda a: f"homology.betti.verify.{a[0].ndim}d")
    t.wrap(pipeline, "deform_volume_preserving", "deform", deform_report)
    t.wrap(pipeline, "homology_safe_dilate", "morphology.safe_dilate")
    t.wrap(pipeline, "noise_field", "noise")
    t.wrap(pipeline, "write_voxels", "pipeline.write", tracing.file_bytes)
    t.wrap(pipeline, "read_voxels", "pipeline.read", tracing.file_bytes)
    t.wrap(pipeline, "file_checksum", "pipeline.checksum", tracing.file_bytes)
    t.wrap(pipeline, "cavity_label", "labels")
    t.wrap(pipeline, "betti_disjoint_union", "labels")
    t.wrap(deform, "is_local_flip_safe", "homology.gate.deform")
    t.wrap(deform, "betti_numbers", "homology.betti.recheck")
    t.wrap(deform, "noise_field", "noise")
    t.wrap(morphology, "is_local_flip_safe", "homology.gate.dilate")
    t.wrap(morphology, "dilate", "morphology.dilate")
    t.wrap(seeds, "rasterize_implicit", "seeds.rasterize")
    t.wrap(seeds, "rasterize_tube", "seeds.rasterize")
    t.wrap(seeds, "place_with_spacing", "seeds.place")
    t.wrap(seeds, "blit", "seeds.blit")
    # the benchmark's own set-up calls of verify-noisy
    t.wrap(noise, "noise_field", "noise")
    t.wrap(workloads, "build_noisy_inputs", "bench.setup")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    name, seed = spec["workload"], spec["seed"]
    out = Path(spec["out_dir"])
    plan = workloads.WORKLOADS[name]
    counts: Counter = Counter()
    tr = tracing.Tracer() if spec["trace"] else None
    if tr is not None:
        install_tracer(tr)
    probe = workloads.EngineProbe()

    work_start = time.perf_counter()
    if name == "verify-noisy":
        corpus = workloads.build_noisy_inputs(seed, out / "inputs", plan["blocks"], plan["sides"])
    first_call = time.monotonic()
    result = {"setup_s": first_call - spec["spawned"]}
    if spec.get("setup_only"):
        (out / "result.json").write_text(json.dumps(result))
        return 0

    samples: list[workloads.Sample] = []
    limit = spec.get("rounds")
    rounds, round_s = 0, []
    loop_start = time.perf_counter()
    deadline = loop_start + spec.get("seconds", 0)
    while rounds < limit if limit is not None else (rounds == 0 or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        if name == "verify-noisy":
            samples.extend(workloads.verify_round(corpus, rounds))
        else:
            samples.extend(workloads.gen_round(plan, seed, rounds, out / "gen", probe, counts))
        round_s.append(time.perf_counter() - t0)
        rounds += 1
    loop_end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.uninstall()
    if tr is not None:
        tr.uninstall()
        tr.counts.update(counts)
        tr.dump(out / "spans.json")

    digests = {}
    if name == "verify-noisy":
        failures = [workloads.check_verify_sample(s) for s in samples]
    else:
        failures = [workloads.check_gen_sample(out / "gen", s) for s in samples]
        for rnd in range(rounds):
            digests[str(rnd)] = workloads.tree_digest(out / "gen" / f"r{rnd:04d}")

    result.update(
        rounds=rounds,
        loop_s=loop_end - loop_start,
        round_s=round_s,
        work_s=loop_end - work_start,
        latencies=[s.seconds for s in samples],
        failures=[f for f in failures if f],
        failed_idx=[i for i, f in enumerate(failures) if f],
        sample_rounds=[s.round for s in samples],
        attempted=len(samples),
        digests=digests,
        plan_id=hashlib.sha256(repr(plan).encode()).hexdigest()[:12],
        peak_rss_mb=rss_mb,
        counts=dict(counts),
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "topovox": topovox.__version__},
    )
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
