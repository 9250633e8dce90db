"""Per-layer metrics from the spans and counts of a traced run.

Names follow ``<module>.<group>.<quantity>``; ``BENCHMARK.json`` lists the
same names under ``per_layer``.  A metric of a layer the workload does not
reach reads 0.
"""
from __future__ import annotations

import statistics

import tracer

VERIFY_DIMS = ("2d", "3d", "4d")
GATES = ("deform", "dilate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict, traced: dict, plain: dict) -> dict[str, tuple[float, str, int]]:
    """``doc`` is the span dump of the traced run; ``traced`` and ``plain``
    are the worker results of the traced run and of its untraced twin."""
    agg, counts = tracer.aggregate(doc), doc["counts"]

    def rec(name: str) -> dict:
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def count(key: str) -> int:
        return int(counts.get(key, 0))

    m: dict[str, tuple[float, str, int]] = {}
    for d in VERIFY_DIMS:
        r = rec(f"homology.betti.verify.{d}")
        n = r["calls"]
        m[f"homology.betti.verify.{d}.calls"] = (n, "count", n)
        m[f"homology.betti.verify.{d}.self_s"] = (r["self_s"], "s", n)
        m[f"homology.betti.verify.{d}.s_per_call"] = (_ratio(r["s"], n), "s", n)
    r = rec("homology.betti.recheck")
    m["homology.betti.recheck.calls"] = (r["calls"], "count", r["calls"])
    m["homology.betti.recheck.self_s"] = (r["self_s"], "s", r["calls"])
    for g in GATES:
        span = f"homology.gate.{g}"
        r = rec(span)
        n = r["calls"]
        m[f"{span}.calls"] = (n, "count", n)
        m[f"{span}.self_s"] = (r["self_s"], "s", n)
        m[f"{span}.us_per_call"] = (_ratio(r["s"], n) * 1e6, "us", n)
        m[f"{span}.accept_ratio"] = (_ratio(count(f"{span}.true"), n), "ratio", n)

    r = rec("deform")
    flips, rejected = count("deform.accepted_flips"), count("deform.rejected_moves")
    drift = count("deform.raised.TopologyDriftError")
    m["deform.self_s"] = (r["self_s"], "s", r["calls"])
    m["deform.s_per_move"] = (_ratio(r["s"], flips), "s", flips)
    m["deform.accepted_flips"] = (flips, "count", r["calls"])
    m["deform.rejected_moves"] = (rejected, "count", r["calls"])
    m["deform.accept_ratio"] = (_ratio(flips, flips + rejected), "ratio", flips + rejected)
    m["deform.stagnated"] = (count("deform.stagnated"), "count", r["calls"])
    m["deform.drift"] = (drift, "count", r["calls"])

    for name in ("morphology.safe_dilate", "morphology.dilate"):
        m[f"{name}.self_s"] = (rec(name)["self_s"], "s", rec(name)["calls"])
    for name in ("seeds.rasterize", "seeds.place", "noise", "labels"):
        r = rec(name)
        m[f"{name}.calls"] = (r["calls"], "count", r["calls"])
        m[f"{name}.self_s"] = (r["self_s"], "s", r["calls"])
    place_failed = count("seeds.place.raised.PlacementExhaustedError") + count("seeds.place.raised.PlacementError")
    m["seeds.place.exhausted"] = (count("seeds.place.raised.PlacementExhaustedError"), "count", rec("seeds.place")["calls"])
    m["seeds.blit.self_s"] = (rec("seeds.blit")["self_s"], "s", rec("seeds.blit")["calls"])

    for name, span in (("generate", "pipeline.generate"), ("verify_sample", "pipeline.verify_sample")):
        m[f"pipeline.{name}.self_s"] = (rec(span)["self_s"], "s", rec(span)["calls"])
        dur = sorted(e - s for n, s, e in zip(doc["names"], doc["starts"], doc["ends"]) if n == span)
        for q in (50, 90):
            value = statistics.quantiles(dur, n=100, method="inclusive")[q - 1] if len(dur) > 1 else sum(dur)
            m[f"pipeline.{name}.s_p{q}"] = (value, "s", len(dur))
    for name in ("write", "read", "checksum"):
        r = rec(f"pipeline.{name}")
        m[f"pipeline.{name}.self_s"] = (r["self_s"], "s", r["calls"])
        m[f"pipeline.{name}.bytes"] = (count(f"pipeline.{name}.bytes"), "B", r["calls"])
    # Retries seen from outside: placements that gave up and deformations
    # that drifted.  A cut-out too large for the grid is retried inside
    # ``pipeline`` without crossing a traced call and is not counted.
    m["pipeline.retries"] = (place_failed + drift, "count", rec("pipeline.generate")["calls"])
    m["trace.overhead_ratio"] = (traced["work_s"] / plain["work_s"] - 1.0, "ratio", 1)
    return m


def shares(doc: dict, work_s: float) -> dict[str, float]:
    """Self time of each layer group as a share of the traced work wall time."""
    groups: dict[str, float] = {}
    for name, r in tracer.aggregate(doc).items():
        parts = name.split(".")
        if parts[0] == "homology":
            key = ".".join(parts[:3])
        elif parts[0] == "pipeline":
            key = name
        else:
            key = parts[0]
        groups[key] = groups.get(key, 0.0) + r["self_s"]
    groups["untraced"] = work_s - sum(groups.values())
    return {k: round(v / work_s, 4) for k, v in sorted(groups.items(), key=lambda kv: -kv[1])}
