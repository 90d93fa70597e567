"""The traced run must change no result, and must leave bftprob as it found it.

Run with `python -m pytest benchmarks/tests` from the repository root.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bftprob  # noqa: E402
from bftprob import FailureParams, ProtocolConfig, SimConfig, chain, cli, protocols, sim  # noqa: E402
from bftprob.prob import Pmf  # noqa: E402

import tracing  # noqa: E402
from tracing import LAYER_METRICS, SpanLog, layer_metrics, traced  # noqa: E402

FP = FailureParams(0.1, 0.05)
CONFIGS = [
    ProtocolConfig("pbft", 7, 2),
    ProtocolConfig("bft-smart", 7, 2),
    ProtocolConfig("zyzzyva", 7, 2),
    ProtocolConfig("sbft", 6, 1, 1),
]
REQUESTS = 2 * sim.CHUNK + 5


def _models():
    return [protocols.model_trace(cfg, FP) for cfg in CONFIGS]


def _campaigns():
    return [sim.run_campaign(SimConfig(cfg, FP, REQUESTS, 99)) for cfg in CONFIGS]


def test_traced_and_untraced_runs_agree():
    plain_models, plain_stats = _models(), _campaigns()
    # Chunks are memoized per SimConfig; start cold so the traced campaigns
    # really sample their streams again.
    sim._run_chunk.cache_clear()
    log = SpanLog()
    with traced(log):
        traced_models, traced_stats = _models(), _campaigns()

    for a, b in zip(plain_models, traced_models):
        assert a.phase_names() == b.phase_names()
        for (_, pa), (_, pb) in zip(a.phases, b.phases):
            assert np.array_equal(pa.mass, pb.mass)
        assert dict(a.path_success) == dict(b.path_success)
        assert a.primary_quorum_prob == b.primary_quorum_prob
    for a, b in zip(plain_stats, traced_stats):
        assert a.phase_stats == b.phase_stats
        assert dict(a.success) == dict(b.success)
        assert dict(a.success_ci) == dict(b.success_ci)
        assert np.array_equal(a.final_counts, b.final_counts)

    metrics = layer_metrics(log, sim.CHUNK)
    assert metrics["protocols.model_trace.calls"] == len(CONFIGS)
    assert metrics["prob.Pmf.count"] > 0
    assert metrics["sim.chunks"] == 3 * len(CONFIGS)


def test_wrappers_are_removed_on_exit():
    names = [(bftprob, "crash_step"), (chain, "crash_step"), (protocols, "crash_step"),
             (protocols, "model_trace"), (sim, "run_campaign"), (cli, "run_campaign"),
             (cli, "model_trace"), (cli, "main"), (Pmf, "__post_init__")]
    before = [getattr(obj, attr) for obj, attr in names]
    with pytest.raises(RuntimeError):
        with traced(SpanLog()):
            assert protocols.crash_step is not before[2]
            raise RuntimeError("leave the block early")
    assert [getattr(obj, attr) for obj, attr in names] == before


def test_self_time_excludes_children(monkeypatch):
    ticks = iter([0, 2_000_000_000, 5_000_000_000, 10_000_000_000])
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))
    log = SpanLog()
    outer = log.open("chain.crash_step")
    inner = log.open("prob.Pmf")
    log.close(inner)
    log.close(outer)
    metrics = layer_metrics(log, sim.CHUNK)
    assert metrics["chain.crash_step.self_s"] == pytest.approx(7.0)
    assert metrics["prob.Pmf.self_s"] == pytest.approx(3.0)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    produced = set(layer_metrics(SpanLog(), sim.CHUNK))
    produced |= {"cli.bytes_written", "cli.record_rows", "trace.overhead_frac"}
    assert produced == {name for name, _, _ in LAYER_METRICS}
