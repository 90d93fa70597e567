"""Protocol models: trivial cases, exhaustive oracles, structural checks."""

import numpy as np
import pytest

from oracles import binom_pmf, crash_chain_enumeration, pbft_no_links_enumeration, smart_skip_reference

from bftprob import (
    DomainError,
    FailureParams,
    ProtocolConfig,
    model_trace,
    pbft_crash_only,
    pbft_model,
    sbft_model,
    smart_model,
    zyzzyva_model,
)
from bftprob.chain import thinning_matrix
from bftprob.prob import MASS_TOL, NormalizationError, Pmf
from bftprob.protocols import MAX_REPLICAS, _finalize


class TestProtocolConfig:
    def test_quorum_bound(self):
        with pytest.raises(DomainError):
            ProtocolConfig("pbft", 3, 1)

    def test_sbft_exact_size(self):
        ProtocolConfig("sbft", 6, 1, 1)
        with pytest.raises(DomainError):
            ProtocolConfig("sbft", 5, 1, 1)

    def test_collectors_only_for_sbft(self):
        with pytest.raises(DomainError):
            ProtocolConfig("pbft", 4, 1, 1)

    def test_unknown_protocol(self):
        with pytest.raises(DomainError):
            ProtocolConfig("raft", 5, 1)

    def test_negative_budgets(self):
        with pytest.raises(DomainError):
            ProtocolConfig("pbft", 4, -1)

    def test_case_normalized(self):
        assert ProtocolConfig("PBFT", 4, 1).protocol == "pbft"

    def test_replica_ceiling(self):
        # Past the ceiling, configs that are otherwise valid are rejected.
        assert MAX_REPLICAS == 1000
        for proto in ("pbft", "bft-smart", "zyzzyva"):
            ProtocolConfig(proto, 1000, 333)
            with pytest.raises(DomainError, match="at most 1000"):
                ProtocolConfig(proto, 1001, 333)
        ProtocolConfig("sbft", 1000, 333, 0)
        with pytest.raises(DomainError, match="at most 1000"):
            ProtocolConfig("sbft", 1001, 332, 2)

    def test_model_guard(self):
        with pytest.raises(DomainError):
            smart_model(ProtocolConfig("pbft", 4, 1), FailureParams(0, 0))


class TestCrashOnly:
    def test_no_failures(self):
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), 0.0)
        assert trace.final.prob(4) == 1.0
        assert trace.path_success["happy"] == 1.0

    def test_certain_crash(self):
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), 1.0)
        assert trace.path_success["happy"] == 0.0

    @pytest.mark.parametrize("p_c", [0.1, 0.3])
    def test_exhaustive_enumeration(self, p_c):
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), p_c)
        expected = crash_chain_enumeration(4, p_c)
        for pmf, exp in zip([trace.phase(n) for n in ("N1", "N2", "N3")], expected):
            assert np.allclose(pmf.mass, exp, atol=1e-12)

    def test_primary_exemption_flag(self):
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), 0.2, exclude_primary=True)
        assert trace.phase("N1").support_max == 3
        for k in range(4):
            assert trace.phase("N1").prob(k) == pytest.approx(binom_pmf(3, 0.8, k), rel=1e-12)


class TestPbftModel:
    def test_no_failures(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.0, 0.0))
        assert trace.final.prob(4) == pytest.approx(1.0, abs=1e-12)
        assert trace.path_success["happy"] == pytest.approx(1.0, abs=1e-12)

    def test_dead_links(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(1.0, 0.0))
        assert trace.phase("C1").prob(0) == 1.0
        assert trace.path_success["happy"] == 0.0

    def test_first_phase_matches_primary_exempt_chain(self):
        fp = FailureParams(0.0, 0.17)
        full = pbft_model(ProtocolConfig("pbft", 4, 1), fp)
        bare = pbft_crash_only(ProtocolConfig("pbft", 4, 1), 0.17, exclude_primary=True)
        assert np.allclose(full.phase("N1").mass, bare.phase("N1").mass, atol=1e-12)

    @pytest.mark.parametrize("p_c", [0.1, 0.3])
    def test_no_link_failures_matches_enumeration(self, p_c):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.0, p_c))
        expected = pbft_no_links_enumeration(4, 1, p_c)
        for name, exp in expected.items():
            got = trace.phase(name).mass
            assert np.allclose(got, exp[: len(got)], atol=1e-12), name
            assert np.allclose(exp[len(got):], 0.0, atol=0)

    def test_tail_clamped_at_one(self):
        # Tails of normalized masses used to overshoot by an ulp here
        # (liveness 1.0000000000000002).
        trace = pbft_model(ProtocolConfig("pbft", 100, 33), FailureParams(1e-9, 0.03))
        for value in trace.path_success.values():
            assert 0.0 <= value <= 1.0

    def test_liveness_weaker_than_happy(self):
        trace = pbft_model(ProtocolConfig("pbft", 10, 3), FailureParams(0.15, 0.1))
        assert trace.path_success["liveness"] >= trace.path_success["happy"]

    def test_primary_quorum_probability(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.0, 0.0))
        assert trace.primary_quorum_prob == pytest.approx(1.0, abs=1e-12)
        dead = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(1.0, 0.0))
        assert dead.primary_quorum_prob == 0.0

    def test_every_phase_normalized(self):
        trace = pbft_model(ProtocolConfig("pbft", 13, 4), FailureParams(0.2, 0.1))
        for name, pmf in trace.phases:
            assert float(pmf.mass.sum()) == pytest.approx(1.0, abs=1e-9), name


class TestSmartModel:
    def test_no_failures(self):
        trace = smart_model(ProtocolConfig("bft-smart", 4, 1), FailureParams(0.0, 0.0))
        assert trace.path_success["happy"] == pytest.approx(1.0, abs=1e-12)
        assert trace.phase("C2").prob(4) == pytest.approx(1.0, abs=1e-12)

    def test_dead_links(self):
        trace = smart_model(ProtocolConfig("bft-smart", 4, 1), FailureParams(1.0, 0.0))
        assert trace.path_success["happy"] == 0.0

    def test_prepare_quorum_stricter_than_pbft(self):
        # Without the pre-prepare optimization a write quorum needs one more
        # message, so with crash-free replicas the chain can only lag PBFT.
        fp = FailureParams(0.2, 0.0)
        pb = pbft_model(ProtocolConfig("pbft", 4, 1), fp)
        sm = smart_model(ProtocolConfig("bft-smart", 4, 1), fp)
        assert sm.phase("C2").mean() <= pb.phase("C2").mean() + 1e-12

    def test_pattern_differences_shift_success_both_ways(self):
        # The stricter write quorum costs relative to PBFT, the
        # 2f+1-commit fallback pays; which one wins depends on the rates.
        mild = FailureParams(0.1, 0.05)
        assert (
            smart_model(ProtocolConfig("bft-smart", 7, 2), mild).path_success["happy"]
            > pbft_model(ProtocolConfig("pbft", 7, 2), mild).path_success["happy"]
        )
        harsh = FailureParams(0.25, 0.05)
        assert (
            smart_model(ProtocolConfig("bft-smart", 10, 3), harsh).path_success["happy"]
            < pbft_model(ProtocolConfig("pbft", 10, 3), harsh).path_success["happy"]
        )


# The acceptance grid's rates, plus p_l = 1; p_l = 0 makes every live
# p_skip exactly 1, and p_c = 0 leaves the write rows unthinned.
SKIP_PL = (0.0, 0.05, 0.1, 0.2, 0.4, 1.0)
SKIP_PC = (0.0, 0.05, 0.1, 0.2, 0.4)


@pytest.mark.parametrize("n", [4, 7, 10, 13, 31, 100])
def test_smart_skip_path_matches_per_m_reference(n):
    # The batched thinning against one thinning matrix and one convolution
    # per N_2 count: within 1e-15 everywhere, and within 1e-12 relative on
    # every entry the small-count tails are summed from.
    config = ProtocolConfig("bft-smart", n, (n - 1) // 3)
    for pl in SKIP_PL:
        for pc in SKIP_PC:
            fp = FailureParams(pl, pc)
            trace = smart_model(config, fp)
            for name, expected in smart_skip_reference(config, fp).items():
                got = trace.phase(name).mass
                assert np.max(np.abs(got - expected)) <= 1e-15, (pl, pc, name)
                tail = expected >= 1e-290
                rel = np.abs(got[tail] - expected[tail]) / expected[tail]
                assert rel.max(initial=0.0) <= 1e-12, (pl, pc, name)
                assert np.all(got[~tail] < 1e-280), (pl, pc, name)


class TestZyzzyvaModel:
    def test_no_failures(self):
        trace = zyzzyva_model(ProtocolConfig("zyzzyva", 4, 1), FailureParams(0.0, 0.0))
        assert trace.path_success["fast"] == pytest.approx(1.0, abs=1e-12)
        assert trace.path_success["slow"] == pytest.approx(0.0, abs=1e-12)

    def test_dead_links(self):
        trace = zyzzyva_model(ProtocolConfig("zyzzyva", 4, 1), FailureParams(1.0, 0.0))
        assert trace.path_success["fast"] == 0.0
        assert trace.path_success["slow"] == 0.0

    def test_client_states_are_bernoulli(self):
        trace = zyzzyva_model(ProtocolConfig("zyzzyva", 4, 1), FailureParams(0.1, 0.05))
        for name in ("C2_fast", "C2_slow", "C4"):
            assert trace.phase(name).support_max == 1

    def test_fast_path_needs_perfect_broadcast(self):
        for pl in (0.0, 0.05, 0.1, 0.2):
            for pc in (0.0, 0.05, 0.1):
                trace = zyzzyva_model(ProtocolConfig("zyzzyva", 4, 1), FailureParams(pl, pc))
                perfect_broadcast = binom_pmf(3, 1.0 - pl, 3)
                assert trace.path_success["fast"] <= perfect_broadcast + 1e-12

    def test_paths_disjoint(self):
        trace = zyzzyva_model(ProtocolConfig("zyzzyva", 7, 2), FailureParams(0.1, 0.02))
        combined = trace.path_success["combined"]
        assert combined == pytest.approx(
            trace.path_success["fast"] + trace.path_success["slow"], abs=1e-12
        )
        assert 0.0 <= combined <= 1.0


class TestSbftModel:
    def test_no_failures_minimal(self):
        trace = sbft_model(ProtocolConfig("sbft", 4, 1, 0), FailureParams(0.0, 0.0))
        assert trace.path_success["fast"] == pytest.approx(1.0, abs=1e-12)

    def test_dead_links_with_spare_collector(self):
        trace = sbft_model(ProtocolConfig("sbft", 6, 1, 1), FailureParams(1.0, 0.0))
        assert trace.path_success["fast"] == 0.0
        assert trace.path_success["slow"] == 0.0

    def test_combined_is_additive_with_single_collector(self):
        trace = sbft_model(ProtocolConfig("sbft", 7, 2, 0), FailureParams(0.08, 0.03))
        assert trace.path_success["combined"] == pytest.approx(
            trace.path_success["fast"] + trace.path_success["slow"], abs=1e-12
        )

    def test_combined_below_additive_with_spare_collectors(self):
        trace = sbft_model(ProtocolConfig("sbft", 9, 2, 1), FailureParams(0.05, 0.02))
        additive = trace.path_success["fast"] + trace.path_success["slow"]
        assert trace.path_success["combined"] <= min(additive, 1.0)
        assert trace.path_success["combined"] >= trace.path_success["fast"]

    def test_spare_collectors_help(self):
        # Extra collectors add redundancy at every aggregation step.
        fp = FailureParams(0.1, 0.05)
        small = sbft_model(ProtocolConfig("sbft", 4, 1, 0), fp)
        spare = sbft_model(ProtocolConfig("sbft", 6, 1, 1), fp)
        assert spare.path_success["fast"] > small.path_success["fast"]

    def test_every_phase_normalized(self):
        trace = sbft_model(ProtocolConfig("sbft", 9, 2, 1), FailureParams(0.15, 0.1))
        for name, pmf in trace.phases:
            assert float(pmf.mass.sum()) == pytest.approx(1.0, abs=1e-9), name


def _max_config(protocol: str, n: int) -> ProtocolConfig:
    """Largest fault budget for n; SBFT with c=0, so n = 3f+1 exactly."""
    return ProtocolConfig(protocol, n, (n - 1) // 3, 0)


class TestSbftFastBound:
    # At c=0 SBFT's fast path needs Zyzzyva's fast quorum (3f+1 of the same
    # N_1 holders) and then more, while Zyzzyva also pays one client crash
    # draw: fast_sbft <= fast_zyzzyva / (1 - p_c).  A fast path computed as
    # 1 - P(0) breaks this at large n with cancellation noise.
    @pytest.mark.parametrize("n", [4, 7, 31, 100, 301, 601])
    def test_below_zyzzyva(self, n):
        for pl in (0.01, 0.05, 0.2):
            for pc in (0.0, 0.01, 0.1):
                fp = FailureParams(pl, pc)
                sbft = sbft_model(_max_config("sbft", n), fp).path_success["fast"]
                zyz = zyzzyva_model(_max_config("zyzzyva", n), fp).path_success["fast"]
                assert sbft <= zyz / (1.0 - pc) * (1.0 + 1e-12), (pl, pc, sbft, zyz)


class TestLargeN:
    """The documented domain reaches ~1,000 replicas."""

    @pytest.mark.parametrize("n", [601, 1000])
    def test_all_models(self, n):
        fp = FailureParams(0.05, 0.01)
        traces = {}
        for protocol in ("pbft", "bft-smart", "zyzzyva", "sbft"):
            # Each emitted phase passes the MASS_TOL check or this raises.
            traces[protocol] = model_trace(_max_config(protocol, n), fp)
            for path, value in traces[protocol].path_success.items():
                assert 0.0 <= value <= 1.0, (protocol, path, value)
        bound = traces["zyzzyva"].path_success["fast"] / (1.0 - fp.p_c)
        assert traces["sbft"].path_success["fast"] <= bound * (1.0 + 1e-12)

    def test_sbft_builds_each_thinning_matrix_once(self):
        thinning_matrix.cache_clear()
        sbft_model(_max_config("sbft", 301), FailureParams(0.05, 0.01))
        info = thinning_matrix.cache_info()
        # Supports 0..n and 0..c+1, one p_c: two builds, every other use a hit.
        assert info.misses == info.currsize == 2
        assert info.hits > 0


class TestSuccessProbability:
    def test_full_house(self):
        from bftprob import Pmf, PhaseTrace

        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.0, 0.0))
        assert trace.final.tail(3) == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(1.0, 0.0))
        assert trace.final.tail(1) == 0.0

    def test_binomial_tail(self):
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), 0.1)
        # First phase is Binomial(4, 0.9); check through a fresh trace whose
        # final phase is that distribution via the no-op chain.
        direct = 4 * 0.9**3 * 0.1 + 0.9**4
        assert trace.phase("N1").tail(3) == pytest.approx(direct, abs=1e-12)
        assert direct == pytest.approx(0.9477, abs=1e-12)

    def test_negative_threshold(self):
        # Every count reaches a threshold at or below 0.
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), 0.1)
        assert trace.final.tail(-1) == 1.0


class TestTraceInterface:
    def test_phase_lookup(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.1, 0.1))
        assert trace.phase("C1").support_max == 3
        with pytest.raises(KeyError):
            trace.phase("C9")

    def test_phase_names_ordered(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.1, 0.1))
        assert trace.phase_names() == ("C1", "N1", "C2", "N2", "C3", "N3")

    def test_path_success_immutable(self):
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.1, 0.1))
        with pytest.raises(TypeError):
            trace.path_success["happy"] = 2.0

    def test_dispatch(self):
        trace = model_trace(ProtocolConfig("zyzzyva", 4, 1), FailureParams(0.0, 0.0))
        assert trace.config.protocol == "zyzzyva"


class TestFinalize:
    """_finalize validates each phase once and scales out its drift."""

    @staticmethod
    def _twice_validated(mass):
        # Reference in numpy: clip only when an entry lies outside [0, 1],
        # then divide by the clipped total.
        mass = np.array(mass, dtype=float)
        if mass.min() < 0.0 or mass.max() > 1.0:
            mass = np.clip(mass, 0.0, 1.0)
        return mass / float(mass.sum())

    @pytest.mark.parametrize("drift", [-0.999 * MASS_TOL, -3e-13, 0.0, 1e-16, 0.999 * MASS_TOL])
    def test_same_bytes_as_two_validations(self, drift):
        rng = np.random.default_rng(7)
        masses = [rng.dirichlet(np.ones(k)) * (1.0 + drift) for k in (2, 5, 40, 302)]
        # Entries within 1e-12 of [0, 1] are clipped into it first.
        masses += [np.array([0.0, 1.0 + 1e-13, 0.0]), np.array([-1e-13, 0.5, 0.5 + drift])]
        phases = [(f"P{i}", mass) for i, mass in enumerate(masses)]
        for (name, pmf), (_, mass) in zip(_finalize(phases), phases):
            assert pmf.mass.tobytes() == self._twice_validated(mass).tobytes(), name
            assert not pmf.mass.flags.writeable

    def test_drift_past_tolerance_raises(self):
        with pytest.raises(NormalizationError):
            _finalize([("N1", np.array([0.5, 0.5]) * (1.0 + 2 * MASS_TOL))])
        with pytest.raises(NormalizationError):
            _finalize([("N1", np.array([0.5, 0.5]) * (1.0 - 2 * MASS_TOL))])

    def test_out_of_range_entry_raises(self):
        with pytest.raises(DomainError):
            _finalize([("N1", np.array([-0.1, 1.1]))])
        with pytest.raises(DomainError):
            _finalize([("N1", np.array([0.0, 1.0])), ("N2", np.array([1.5, -0.5]))])
