"""Stability, timeout, asymptote, sweep, and gradient tools."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import binom_pmf, bisection_crossing

import bftprob.analysis as analysis
from bftprob import (
    DomainError,
    FailureParams,
    ProtocolConfig,
    SweepGrid,
    gradient_field,
    model_trace,
    pbft_model,
    quorum_asymptote,
    quorum_success,
    stability_boundary,
    stability_crossing,
    sweep,
    timeout_for_boundary,
)
from bftprob.analysis import _difference_grid, chained_boundaries


class TestStabilityBoundary:
    def test_full_strength_quorum(self):
        assert stability_boundary(8, 25, 25) == pytest.approx(81 / 600, abs=1e-12)
        assert stability_boundary(8, 25, 25) == pytest.approx(0.135, abs=1e-12)

    def test_minimal_system(self):
        assert stability_boundary(1, 4, 4) == pytest.approx(4 / 12, abs=1e-12)

    def test_depleted_membership(self):
        assert stability_boundary(8, 25, 17) == pytest.approx(1 / 272, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            stability_boundary(1, 4, 1.0)
        with pytest.raises(DomainError):
            stability_boundary(1, 4, 5.0)

    def test_nan_expected_rejected(self):
        with pytest.raises(DomainError, match="nan"):
            stability_boundary(1, 4, float("nan"))

    @pytest.mark.parametrize("f", [100, -5, -1, 2, 1.0, 1.5, True])
    def test_fault_budget_outside_domain(self, f):
        # n=4 admits f in {0, 1}: a non-negative integer with 3f+1 <= n.
        with pytest.raises(DomainError, match="f must be"):
            stability_boundary(f, 4, 3.0)

    def test_fault_budget_edges_accepted(self):
        assert stability_boundary(0, 4, 3.0) == 0.0
        assert stability_boundary(np.int64(1), 4, 3.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_chained_from_trace(self):
        trace = pbft_model(ProtocolConfig("pbft", 25, 8), FailureParams(0.0, 0.0))
        rates = chained_boundaries(trace)
        # With perfect links E[N1] = 24, so the first quorum boundary is
        # ((9 - 1)^2) / (24 * 23).
        assert rates["N1"] == pytest.approx(64 / 552, abs=1e-9)
        assert set(rates) == {"N1", "N2"}

    def test_crossing_location(self):
        b = stability_crossing(ProtocolConfig("pbft", 25, 8), 0.0)
        assert 0.05 < b < 0.12
        # Self-consistency: at the crossing the tightest phase boundary
        # equals the operating link failure rate.
        trace = pbft_model(ProtocolConfig("pbft", 25, 8), FailureParams(b, 0.0))
        assert min(chained_boundaries(trace).values()) == pytest.approx(b, abs=1e-6)


CROSSING_N = (4, 7, 10, 13, 25, 31, 100)
CROSSING_PC = (0.0, 0.005, 0.01, 0.03, 0.05, 0.07, 0.1)


class TestCrossingSolver:
    """stability_crossing's false-position search against 60-step bisection."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        inner = analysis.model_trace

        def counted(config, fp):
            calls.append(fp.p_l)
            return inner(config, fp)

        monkeypatch.setattr(analysis, "model_trace", counted)
        return calls

    @pytest.mark.parametrize("n", CROSSING_N)
    def test_matches_bisection(self, evaluations, n):
        config = ProtocolConfig("pbft", n, (n - 1) // 3)
        for p_c in CROSSING_PC:
            evaluations.clear()
            got = stability_crossing(config, p_c)
            assert len(evaluations) <= 16, (p_c, len(evaluations))
            assert 0.0 < got < 1.0
            assert abs(got - bisection_crossing(config, p_c)) <= 1e-12

    def test_already_crossed_returns_zero(self, evaluations):
        # E[N1] < 1 at p_c = 0.9, so every chained boundary is 0.
        config = ProtocolConfig("pbft", 4, 1)
        assert stability_crossing(config, 0.9) == 0.0
        assert bisection_crossing(config, 0.9) == 0.0
        assert evaluations == [1e-9]

    def test_never_crossed_returns_one(self, evaluations):
        # Zyzzyva's C1 holds the primary, so E[C1] stays just above 1 as
        # p_l -> 1 and its boundary grows without bound.
        config = ProtocolConfig("zyzzyva", 4, 1)
        assert stability_crossing(config, 0.0, phases=("C1",)) == 1.0
        assert bisection_crossing(config, 0.0, phases=("C1",)) == 1.0
        assert evaluations == [1e-9, 1.0 - 1e-9]


class TestTimeout:
    def test_median_is_mu(self):
        est = timeout_for_boundary(100.0, 10.0, 0.5)
        assert est.at_rate_quantile == pytest.approx(100.0, abs=1e-9)
        assert est.at_complement_quantile == pytest.approx(100.0, abs=1e-9)

    def test_ten_percent_boundary(self):
        est = timeout_for_boundary(100.0, 10.0, 0.1)
        assert est.at_rate_quantile == pytest.approx(87.18, abs=0.01)
        assert est.at_complement_quantile == pytest.approx(112.82, abs=0.01)

    def test_conventions_mirror(self):
        est = timeout_for_boundary(100.0, 10.0, 0.25)
        assert est.at_rate_quantile + est.at_complement_quantile == pytest.approx(200.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            timeout_for_boundary(100.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            timeout_for_boundary(100.0, 10.0, 1.0)

    @pytest.mark.parametrize("mu, sigma", [(100.0, float("nan")), (100.0, float("inf")),
                                           (float("nan"), 10.0), (float("inf"), 10.0),
                                           (float("-inf"), 10.0)])
    def test_non_finite_rejected(self, mu, sigma):
        with pytest.raises(DomainError):
            timeout_for_boundary(mu, sigma, 0.1)


class TestQuorumAsymptote:
    def test_below_threshold(self):
        assert quorum_asymptote(0.2, 2 / 3) == 1.0

    def test_above_threshold(self):
        assert quorum_asymptote(0.5, 2 / 3) == 0.0

    def test_knife_edge_rational(self):
        assert quorum_asymptote(Fraction(1, 3), Fraction(2, 3)) == 0.5

    def test_knife_edge_float(self):
        assert quorum_asymptote(1 / 3, 2 / 3) == 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            quorum_asymptote(1.2, 0.5)
        with pytest.raises(DomainError):
            quorum_asymptote(0.2, 1.0)


class TestQuorumSuccess:
    def test_reliable_links(self):
        assert quorum_success(3, 0.0, 2) == 1.0

    def test_dead_links(self):
        assert quorum_success(3, 1.0, 2) == 0.0

    def test_direct_sum(self):
        expected = sum(binom_pmf(6, 0.1, i) for i in range(3))
        assert quorum_success(6, 0.1, 4) == pytest.approx(expected, abs=1e-12)
        assert quorum_success(6, 0.1, 4) == pytest.approx(0.98415, abs=1e-5)

    def test_unreachable_quorum(self):
        assert quorum_success(4, 0.1, 5) == 0.0

    def test_negative_quorum(self):
        with pytest.raises(DomainError):
            quorum_success(4, 0.1, -1)

    def test_converges_to_limit(self):
        # Two-thirds quorums: certain success below p = 1/3, certain
        # failure above, a coin flip on the knife edge.
        for n in (400, 1000):
            k = -(-2 * n // 3)  # ceil(2n/3)
            assert quorum_success(n, 0.2, k) > 0.99
            assert quorum_success(n, 0.5, k) < 0.01
        n = 3000
        k = -(-2 * n // 3)
        assert abs(quorum_success(n, 1 / 3, k) - 0.5) < 0.05


class TestSweep:
    def test_trivial_success(self):
        grid = SweepGrid("pbft", (0.0,), (0.0,), n=4, f=1)
        rows = sweep(grid)
        assert len(rows) == 1
        assert rows[0].success == pytest.approx(1.0, abs=1e-12)
        assert rows[0].path == "happy"

    def test_dead_links(self):
        rows = sweep(SweepGrid("pbft", (1.0,), (0.0,), n=4, f=1))
        assert rows[0].success == 0.0

    def test_matches_individual_calls(self):
        pls = (0.0, 0.1, 0.2)
        pcs = (0.0, 0.05, 0.1)
        rows = sweep(SweepGrid("pbft", pls, pcs, n=10, f=3))
        assert len(rows) == 9
        for row in rows:
            trace = pbft_model(ProtocolConfig("pbft", 10, 3), FailureParams(row.p_l, row.p_c))
            assert row.success == pytest.approx(trace.path_success["happy"], abs=0)

    def test_row_ordering(self):
        rows = sweep(SweepGrid("pbft", (0.2, 0.0), (0.1, 0.0), n_values=(7, 4)))
        keys = [(r.n, r.p_c, r.p_l, r.path) for r in rows]
        assert keys == sorted(keys)

    def test_client_protocol_paths(self):
        rows = sweep(SweepGrid("zyzzyva", (0.1,), (0.0,), n=4, f=1))
        assert [r.path for r in rows] == ["combined", "fast", "slow"]

    def test_error_rows_keep_sweeping(self):
        rows = sweep(SweepGrid("sbft", (0.0,), (0.0,), n_values=(5, 6), c=1))
        assert rows[0].error is not None and rows[0].n == 5
        assert rows[-1].error is None and rows[-1].n == 6

    def test_liveness_threshold(self):
        grid = SweepGrid("pbft", (0.2,), (0.1,), n=4, f=1, threshold="liveness")
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.2, 0.1))
        assert sweep(grid)[0].success == pytest.approx(trace.path_success["liveness"], abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepGrid("pbft", (), (0.0,), n=4)
        with pytest.raises(DomainError):
            SweepGrid("pbft", (0.5,), (1.5,), n=4)
        with pytest.raises(DomainError):
            SweepGrid("pbft", (0.5,), (0.5,))


class TestGradientField:
    def test_bilinear_recovered_exactly(self):
        # Central differences are exact for affine-in-each-variable surfaces.
        step = 0.01
        field = _difference_grid(
            lambda p_l, p_c: 0.3 + 0.5 * p_l - 0.2 * p_c + 0.1 * p_l * p_c,
            (0.2, 0.5), (0.3, 0.6), step,
        )
        for i, p_c in enumerate((0.2, 0.5)):
            for j, p_l in enumerate((0.3, 0.6)):
                assert field.d_dpl[i, j] == pytest.approx(0.5 + 0.1 * p_c, abs=1e-10)
                assert field.d_dpc[i, j] == pytest.approx(-0.2 + 0.1 * p_l, abs=1e-10)

    def test_flat_saturated_region(self):
        # Far inside the stable region the surface is flat at 1.
        grid = SweepGrid("pbft", (0.0,), (0.0,), n=25, f=8)
        field = gradient_field(grid, step=0.005)
        assert abs(field.d_dpl[0, 0]) < 1e-3
        assert abs(field.d_dpc[0, 0]) < 1e-3

    def test_link_rate_dominates_past_boundary(self):
        # Moderate link failures with few crashes: the link axis drives the
        # success surface.
        grid = SweepGrid("pbft", (0.15,), (0.02,), n=40, f=13)
        field = gradient_field(grid, step=0.005)
        assert abs(field.d_dpl[0, 0]) > abs(field.d_dpc[0, 0])

    def test_degenerate_step(self):
        grid = SweepGrid("pbft", (0.1,), (0.1,), n=4, f=1)
        with pytest.raises(DomainError):
            gradient_field(grid, step=0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf])
    def test_non_finite_step(self, step):
        def value(p_l, p_c):
            raise AssertionError("model evaluated")

        with pytest.raises(DomainError, match="step"):
            _difference_grid(value, (0.05,), (0.1,), step)
        grid = SweepGrid("pbft", (0.1,), (0.05,), n=4, f=1)
        with pytest.raises(DomainError, match="step"):
            gradient_field(grid, step=step)

    def test_needs_single_n(self):
        grid = SweepGrid("pbft", (0.1,), (0.1,), n_values=(4, 7))
        with pytest.raises(DomainError):
            gradient_field(grid)


class TestSweepGridResolution:
    def test_f_derived_for_quorum_protocols(self):
        grid = SweepGrid("pbft", (0.0,), (0.0,), n_values=(4, 7, 10, 13))
        assert [grid.resolve_config(n).f for n in (4, 7, 10, 13)] == [1, 2, 3, 4]

    def test_f_derived_for_sbft(self):
        grid = SweepGrid("sbft", (0.0,), (0.0,), n_values=(6,), c=1)
        assert grid.resolve_config(6).f == 1

    def test_sbft_requires_exact_fit(self):
        grid = SweepGrid("sbft", (0.0,), (0.0,), n_values=(7,), c=1)
        with pytest.raises(DomainError):
            grid.resolve_config(7)
