"""Simulator determinism, crash semantics, and model agreement."""

import numpy as np
import pytest

from bftprob import (
    DomainError,
    FailureParams,
    ProtocolConfig,
    SimConfig,
    compare_to_model,
    model_trace,
    run_campaign,
    simulate_request,
    validate_model,
)
from bftprob.sim import CHUNK, _run_chunk


def _sim(proto="pbft", n=4, f=1, c=0, pl=0.1, pc=0.1, requests=2000, seed=7):
    return SimConfig(ProtocolConfig(proto, n, f, c), FailureParams(pl, pc), requests, seed)


class TestDeterminism:
    def test_same_request_twice(self):
        sim = _sim()
        a = simulate_request(sim, 5)
        b = simulate_request(sim, 5)
        assert np.array_equal(a.highest_phase, b.highest_phase)
        assert np.array_equal(a.crash_step, b.crash_step)
        assert a.path == b.path and a.success_quorum == b.success_quorum

    def test_campaign_repeatable(self):
        a = run_campaign(_sim())
        b = run_campaign(_sim())
        for sa, sb in zip(a.phase_stats, b.phase_stats):
            assert sa == sb
        assert dict(a.success) == dict(b.success)

    def test_seed_changes_results(self):
        a = run_campaign(_sim(seed=1))
        b = run_campaign(_sim(seed=2))
        assert any(sa.mean != sb.mean for sa, sb in zip(a.phase_stats, b.phase_stats))

    def test_chunk_order_irrelevant(self):
        # Chunk streams are independently keyed, so any processing order
        # yields the same aggregate.
        sim = _sim(requests=3 * CHUNK)
        forward = run_campaign(sim)
        totals: dict[str, float] = {}
        for chunk_index in reversed(range(3)):
            res = _run_chunk(sim, chunk_index, detail=False)
            for name, arr in res.values.items():
                totals[name] = totals.get(name, 0.0) + float(arr.astype(float).sum())
        for st in forward.phase_stats:
            assert totals[st.name] / sim.requests == pytest.approx(st.mean, abs=1e-12)

    def test_request_outside_campaign(self):
        with pytest.raises(DomainError):
            simulate_request(_sim(requests=10), 10)


class TestFailureFreeAndDead:
    @pytest.mark.parametrize(
        "proto,n,f,c", [("pbft", 4, 1, 0), ("bft-smart", 4, 1, 0), ("zyzzyva", 4, 1, 0), ("sbft", 4, 1, 0)]
    )
    def test_no_failures_everything_completes(self, proto, n, f, c):
        stats = run_campaign(_sim(proto, n, f, c, pl=0.0, pc=0.0, requests=500))
        for name, rate in stats.success.items():
            if name in ("happy", "liveness", "fast", "combined"):
                assert rate == 1.0, name

    def test_dead_links_stop_at_sender(self):
        stats = run_campaign(_sim("pbft", pl=1.0, pc=0.0, requests=500))
        assert stats.stat("C1").mean == 0.0
        assert stats.stat("N3").mean == 0.0
        assert stats.success["happy"] == 0.0

    def test_single_request_degenerate_interval(self):
        stats = run_campaign(_sim(requests=1, pl=0.0, pc=0.0))
        st = stats.stat("N3")
        assert st.ci_lo == st.ci_hi == st.mean


class TestRecords:
    def test_pbft_crash_caps_progress(self):
        sim = _sim("pbft", n=4, f=1, pl=0.1, pc=0.25, requests=400, seed=3)
        # Phase indices: C1=1 N1=2 C2=3 N2=4 C3=5 N3=6; a crash at chain
        # step k leaves the replica at the preceding collection state.
        for rid in range(120):
            rec = simulate_request(sim, rid)
            for replica in range(4):
                crash = rec.crash_step[replica]
                high = rec.highest_phase[replica]
                if crash >= 1:
                    assert high == 2 * crash - 1
                else:
                    assert high in (0, 1, 2, 3, 4, 5, 6)

    def test_smart_phase_two_skip_allowed(self):
        sim = _sim("bft-smart", n=4, f=1, pl=0.15, pc=0.2, requests=400, seed=11)
        saw_skip = False
        for rid in range(400):
            rec = simulate_request(sim, rid)
            for replica in range(4):
                crash = rec.crash_step[replica]
                high = rec.highest_phase[replica]
                if crash == 1:
                    assert high == 1
                elif crash == 2:
                    # Removed from the commit broadcast, but the documented
                    # 2f+1-commit fallback can still finish the request.
                    assert high != 4
                    saw_skip = saw_skip or high >= 5
        assert saw_skip

    def test_zyzzyva_paths_recorded(self):
        sim = _sim("zyzzyva", n=4, f=1, pl=0.1, pc=0.05, requests=400, seed=5)
        paths = {simulate_request(sim, rid).path for rid in range(200)}
        assert "fast" in paths
        assert paths <= {"fast", "slow", "none"}

    def test_phase_names_exposed(self):
        rec = simulate_request(_sim(requests=10), 0)
        assert rec.phase_names[0] == "start"
        assert "N3" in rec.phase_names


class TestModelAgreement:
    # Tight agreement lives in the acceptance suite; these are quick
    # sanity passes at modest trial counts.
    @pytest.mark.parametrize(
        "proto,n,f,c,pl,pc",
        [
            ("pbft", 7, 2, 0, 0.1, 0.05),
            ("bft-smart", 7, 2, 0, 0.1, 0.05),
            ("zyzzyva", 7, 2, 0, 0.05, 0.02),
            ("sbft", 6, 1, 1, 0.05, 0.02),
        ],
    )
    def test_full_phase_coverage(self, proto, n, f, c, pl, pc):
        check = validate_model(_sim(proto, n, f, c, pl, pc, requests=60_000, seed=20260811))
        assert check.coverage >= 0.9, [r for r in check.rows if not r.covered]

    def test_trivial_point_exact(self):
        check = validate_model(_sim(pl=0.0, pc=0.0, requests=200))
        assert check.coverage == 1.0
        for row in check.rows:
            assert row.observed == pytest.approx(row.predicted, abs=1e-12)

    @pytest.mark.parametrize(
        "proto,n,f,c", [("pbft", 7, 2, 0), ("bft-smart", 7, 2, 0), ("zyzzyva", 7, 2, 0), ("sbft", 6, 1, 1)]
    )
    def test_sim_and_model_name_the_same_phases(self, proto, n, f, c):
        # compare_to_model skips any name the model lacks, so a renamed
        # phase would silently drop a check.
        chunks = []
        sim = _sim(proto, n, f, c, requests=100)
        stats = run_campaign(sim, record_sink=lambda start, res, valid: chunks.append(res))
        (res,) = chunks
        trace = model_trace(sim.config, sim.failures)
        assert tuple(name for name in res.values if name != "Cp") == trace.phase_names()
        assert res.final_name == stats.final_phase == trace.phase_names()[-1]
        assert set(res.success) == set(trace.path_success)
        assert ("Cp" in res.values) == (trace.primary_quorum_prob is not None)

    def test_trace_of_another_protocol_rejected(self):
        stats = run_campaign(_sim("pbft", n=7, f=2, pl=0.1, pc=0.05, requests=2000, seed=1))
        other = model_trace(ProtocolConfig("zyzzyva", 7, 2), stats.sim.failures)
        with pytest.raises(DomainError, match="zyzzyva"):
            compare_to_model(stats, other)

    def test_negative_control_wrong_quorum(self):
        # Comparing against a model with the wrong fault budget must fail
        # loudly: same n, different quorum thresholds everywhere.
        sim = _sim("pbft", n=10, f=3, pl=0.1, pc=0.05, requests=40_000, seed=9)
        stats = run_campaign(sim)
        wrong = model_trace(ProtocolConfig("pbft", 10, 2), sim.failures)
        check = compare_to_model(stats, wrong)
        assert check.coverage < 0.5


class TestConfigValidation:
    def test_requests_positive(self):
        with pytest.raises(DomainError):
            _sim(requests=0)
