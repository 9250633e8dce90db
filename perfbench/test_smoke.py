"""Toy-size smoke test of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py

It drives each workload's code path once at toy size and checks that a
tampered label or digest is counted as a failed sample.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from topovox.grid import BinaryGrid  # noqa: E402
from topovox.homology import betti_numbers  # noqa: E402

TOY_GEN = (
    workloads.GenConfig("2d", {"dims": (32, 32), "deform_iterations": 5, "dilate_iterations": 1}, 1),
    workloads.GenConfig("3d", {"dims": (24, 24, 24), "max_objects": 1}, 1),
    workloads.GenConfig("4d", {"dims": (12, 12, 12, 12), "max_objects": 1}, 1, ("embed",)),
)


def _failed(samples, failures, bad_rounds=()):
    res = {"failed_idx": [i for i, f in enumerate(failures) if f],
           "sample_rounds": [s.round for s in samples]}
    return run.count_failed(res, list(bad_rounds))


@pytest.fixture
def probe():
    p = workloads.EngineProbe()
    yield p
    p.uninstall()


def test_reference_labels_agree_with_engine():
    rng = np.random.default_rng(0)
    for k in range(40):
        ndim = 2 + k % 2
        a = rng.random((int(rng.integers(3, 10)),) * ndim) < rng.uniform(0.2, 0.8)
        assert workloads.reference_betti(a) == betti_numbers(BinaryGrid(a))


def test_gen_round_checks_and_tampering(tmp_path, probe, monkeypatch):
    monkeypatch.setenv("TOPOVOX_OUT", str(tmp_path / "unused"))  # restored afterwards
    out = tmp_path / "gen"
    samples = workloads.gen_round(TOY_GEN, 3, 0, out, probe, Counter())
    assert len(samples) == 5
    failures = [workloads.check_gen_sample(out, s) for s in samples]
    assert failures == [None] * 5
    assert _failed(samples, failures) == 0

    digest = workloads.tree_digest(out / "r0000")
    again = tmp_path / "again"
    workloads.gen_round(TOY_GEN, 3, 0, again, probe, Counter())
    assert workloads.tree_digest(again / "r0000") == digest

    record = tmp_path / "digests.json"
    assert run.check_digests(record, "toy/3", {"0": digest}) == []
    bad = run.check_digests(record, "toy/3", {"0": "0" * 64})
    assert bad == ["0"] and _failed(samples, failures, bad) == 5

    manifest = out / samples[2].where / "sample_0000.json"
    doc = json.loads(manifest.read_text())
    doc["label"]["betti"][0] += 1
    manifest.write_text(json.dumps(doc))
    failures = [workloads.check_gen_sample(out, s) for s in samples]
    assert failures[2] and "label" in failures[2]
    assert _failed(samples, failures) == 1


def test_verify_path_checks_and_tampering(tmp_path):
    corpus = workloads.build_noisy_inputs(5, tmp_path, 1, (10, 11))
    samples = workloads.verify_round(corpus, 0)
    assert len(samples) == 4
    failures = [workloads.check_verify_sample(s) for s in samples]
    assert failures == [None] * 4

    manifest = corpus[0][1][1]
    doc = json.loads(manifest.read_text())
    doc["label"]["betti"][1] += 1
    manifest.write_text(json.dumps(doc))
    samples = workloads.verify_round(corpus, 0)
    failures = [workloads.check_verify_sample(s) for s in samples]
    assert [bool(f) for f in failures] == [False, True, False, False]
    assert _failed(samples, failures) == 1


def test_tracer_self_time_and_counts():
    class Mod:
        @staticmethod
        def inner(x):
            return x > 0

        @staticmethod
        def outer(x):
            return Mod.inner(x)

    t = tracer.Tracer()
    t.wrap(Mod, "inner", "inner")
    t.wrap(Mod, "outer", "outer")
    assert Mod.outer(1) is True and Mod.outer(-1) is False
    t.uninstall()
    agg = tracer.aggregate({"names": t.names, "starts": t.starts, "ends": t.ends, "parents": t.parents})
    assert agg["inner"]["calls"] == agg["outer"]["calls"] == 2
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["s"] - agg["inner"]["s"])
    assert t.counts["inner.true"] == t.counts["outer.true"] == 1
