"""Binomial primitives against exact-rational and high-precision oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binom_pmf, scalar_binom_range

import bftprob
from bftprob import (
    DomainError,
    FailureParams,
    NormalizationError,
    Pmf,
    binom_range,
    normal_quantile,
    pmf_binomial,
)
from bftprob.prob import LOG_FACTORIAL_FILE, MASS_TOL, binom_ranges, binom_rows, table_ranges


def exact_binom(n: int, p: Fraction, k: int) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def _row(n: int, p: float) -> np.ndarray:
    return binom_rows([n], p)[0]


class TestBinomPmf:
    """Single binom_rows rows against exact values; the domain checks are
    those of the scalar reference `oracles.binom_pmf`."""

    def test_symmetric_half(self):
        assert _row(4, 0.5)[2] == pytest.approx(0.375, abs=1e-15)

    def test_all_successes(self):
        assert _row(3, 0.9)[3] == pytest.approx(0.729, abs=1e-12)

    def test_exact_rational_value(self):
        # 210 * (3/10)^4 * (7/10)^6 = 0.200120949 exactly
        expected = float(exact_binom(10, Fraction(3, 10), 4))
        assert expected == 0.200120949
        assert _row(10, 0.3)[4] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 17, 40])
    @pytest.mark.parametrize("p_frac", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)])
    def test_matches_exact_rationals(self, n, p_frac):
        row = _row(n, float(p_frac))
        for k in range(n + 1):
            assert row[k] == pytest.approx(
                float(exact_binom(n, p_frac, k)), rel=1e-11, abs=1e-300
            )

    def test_matches_scipy(self):
        for n in (3, 25, 200, 1000):
            ks = np.arange(0, n + 1, max(1, n // 7))
            ref = scipy.stats.binom.pmf(ks, n, 0.37)
            assert np.allclose(_row(n, 0.37)[ks], ref, rtol=1e-9)

    def test_large_n_no_underflow(self):
        # The central mass at n=1000 must come out finite and positive.
        assert _row(1000, 0.9)[900] > 0.01
        assert _row(1000, 0.5)[500] > 0.02

    def test_degenerate_p(self):
        assert _row(5, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert _row(5, 1.0).tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("n,p,k", [(4, 0.5, 5), (4, 0.5, -1), (4, 1.5, 2), (4, -0.1, 2), (-1, 0.5, 0)])
    def test_domain_errors(self, n, p, k):
        with pytest.raises(DomainError):
            binom_pmf(n, p, k)

    def test_reflection_symmetry(self):
        for n in (7, 31, 64):
            for p in (0.1, 0.3, 0.5, 0.9):
                a, b = _row(n, p), _row(n, 1.0 - p)[::-1]
                for k in range(n + 1):
                    assert math.isclose(a[k], b[k], rel_tol=1e-12, abs_tol=1e-15)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_mass_sums_to_one(self, p):
        totals = binom_rows(np.arange(61), p).sum(axis=1)
        assert totals == pytest.approx(np.ones(61), abs=1e-12)


class TestBinomRange:
    def test_two_of_three(self):
        # 3 * 0.81 * 0.1 + 0.729
        assert binom_range(3, 0.9, 2, 3) == pytest.approx(0.972, abs=1e-12)

    def test_certain_all(self):
        assert binom_range(5, 1.0, 5, 5) == 1.0

    def test_lo_beyond_trials(self):
        assert binom_range(4, 0.2, 5, 9) == 0.0

    def test_upper_bound_clamped(self):
        assert binom_range(3, 0.4, 1, 100) == pytest.approx(binom_range(3, 0.4, 1, 3), abs=0)

    def test_full_range_is_one(self):
        for n in (1, 13, 60):
            for p in (0.1, 0.5, 0.9):
                assert binom_range(n, p, 0, n) == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_one(self):
        # Accumulated float error must be clamped away.
        for y in range(1, 120):
            assert 0.0 <= binom_range(y, 0.88, 1, y) <= 1.0

    def test_errors(self):
        with pytest.raises(DomainError):
            binom_range(4, 0.5, 3, 2)
        with pytest.raises(DomainError):
            binom_range(4, 0.5, -1, 2)
        with pytest.raises(DomainError):
            binom_range(-2, 0.5, 0, 1)


def test_log_factorial_table_is_scipy_gammaln():
    # The binomial grid must reproduce scipy's log-gamma bit for bit.
    table = np.load(LOG_FACTORIAL_FILE)
    assert len(table) == 2048
    assert np.array_equal(table, scipy.special.gammaln(np.arange(len(table)) + 1.0))


def test_import_and_evaluation_leave_scipy_unloaded():
    # scipy.special alone costs ~22 MB and ~0.3 s of every process start.
    code = (
        "import sys\n"
        "from bftprob import FailureParams, ProtocolConfig, model_trace\n"
        "model_trace(ProtocolConfig('pbft', 4, 1), FailureParams(0.05, 0.01))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bftprob.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestBinomRows:
    def test_rows_match_scalar(self):
        trials = np.array([0, 3, 7, 30, 200])
        rates = np.array([0.4, 0.05, 0.5, 0.91, 0.37])
        rows = binom_rows(trials, rates)
        assert rows.shape == (5, 201)
        for row, n, p in zip(rows, trials, rates):
            for k in range(201):
                expected = binom_pmf(int(n), float(p), k) if k <= n else 0.0
                assert row[k] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_shared_rate_and_width(self):
        # One rate for every row; the width is max(trials) + 1.
        rows = binom_rows(np.arange(6), 0.3)
        assert rows.shape == (6, 6)
        expected = [binom_pmf(5, 0.3, k) for k in range(6)]
        assert rows[5].tolist() == pytest.approx(expected, rel=1e-12)
        assert rows[2, 3:].tolist() == [0.0, 0.0, 0.0]

    def test_degenerate_rates_are_point_masses(self):
        rows = binom_rows(np.array([2, 3, 3, 4]), np.array([0.0, 1.0, 0.5, 1.0]))
        assert rows[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert rows[1].tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert rows[3].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("trials", [[0, 3, 301, 7, 301], np.arange(302), [5]])
    def test_only_degenerate_rates_give_exact_point_masses(self, trials):
        # A scalar 0 or 1, or a vector of only 0s and 1s, is written
        # directly: each row is exactly one 1.0 at count 0 or at its
        # trials, zeros elsewhere, with no log(0) on the way.
        trials = np.asarray(trials)
        rows = np.arange(len(trials))
        mixed = np.resize([0.0, 1.0, 1.0], len(trials))
        with np.errstate(divide="raise", invalid="raise"):
            for p in (0.0, 1.0, np.zeros(len(trials)), np.ones(len(trials)), mixed):
                expected = np.zeros((len(trials), trials.max() + 1))
                expected[rows, np.where(np.broadcast_to(p, trials.shape) == 1.0, trials, 0)] = 1.0
                assert binom_rows(trials, p).tobytes() == expected.tobytes()

    def test_beyond_log_factorial_table(self):
        # Log-space terms near log(3000!) ~ 2e4 carry ~1e-12 relative error.
        row = binom_rows([3000], 0.5)[0]
        assert row[1500] == pytest.approx(binom_pmf(3000, 0.5, 1500), rel=1e-9)
        assert float(row.sum()) == pytest.approx(1.0, abs=MASS_TOL)

    def test_large_n_no_underflow(self):
        row = binom_rows([1000], 0.9)[0]
        assert row[900] == pytest.approx(binom_pmf(1000, 0.9, 900), rel=1e-10)
        assert float(row.sum()) == pytest.approx(1.0, abs=1e-12)


# Rates 0 and 1 take the point-mass path.  Counts up to 60 keep a call below
# the 4,096 entries past which binom_rows masks exp; counts up to 301 take
# the masked branch, which must give the bits of a one-row, unmasked call.
_RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _trials(draw):
    """Trial counts shaped as the models pass them: a run of counts, the
    commit kernels' max(counts - 1, 0), SBFT's repeated collector count, or
    an unsorted vector with repeats."""
    top = draw(st.integers(0, 60) | st.integers(61, 301))
    counts = np.arange(top + 1)
    kind = draw(st.sampled_from(["run", "minus one", "repeated", "unsorted"]))
    if kind == "run":
        return counts
    if kind == "minus one":
        return np.maximum(counts - 1, 0)
    if kind == "repeated":
        return np.full(len(counts), draw(st.integers(0, 5)))
    return np.array(draw(st.lists(st.integers(0, top), min_size=1, max_size=40)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trials(), _RATES, st.data())
def test_scalar_and_vector_rates_agree_bit_for_bit(trials, p, data):
    rates = np.array(data.draw(st.lists(_RATES, min_size=len(trials), max_size=len(trials))))
    # A rate of 0 or 1 is evaluated at a stand-in rate, never as log(0).
    with np.errstate(divide="raise", invalid="raise"):
        shared = binom_rows(trials, p)
        assert shared.tobytes() == binom_rows(trials, np.full(len(trials), p)).tobytes()
        rows = binom_rows(trials, rates)
        for row, t, rate in zip(rows, trials, rates):
            assert row[: t + 1].tobytes() == binom_rows([t], rate)[0].tobytes()
            assert not row[t + 1 :].any()


class TestBinomRanges:
    @pytest.mark.parametrize("k_lo,k_hi", [(0, 5), (0, 100), (2, 4), (3, 100), (9, 100), (70, 90)])
    @pytest.mark.parametrize("p", [0.0, 0.12, 0.5, 0.95, 1.0])
    def test_matches_scalar(self, k_lo, k_hi, p):
        # The scalar windowing and clamping in oracles is the per-count
        # reference for the vector form.
        trials = np.arange(121)
        got = binom_ranges(trials, p, k_lo, k_hi)
        for t in trials:
            expected = scalar_binom_range(int(t), p, k_lo, k_hi)
            assert got[t] == pytest.approx(expected, rel=1e-13, abs=1e-16)
            if expected in (0.0, 1.0):
                assert got[t] == expected

    def test_never_exceeds_one(self):
        got = binom_ranges(np.arange(1, 400), 0.88, 1, 400)
        assert np.all((0.0 <= got) & (got <= 1.0))

    def test_empty_trials(self):
        got = binom_ranges([], 0.5, 0, 1)
        assert got.dtype == np.float64 and got.shape == (0,)
        with pytest.raises(DomainError):
            binom_ranges([], 1.5, 0, 1)

    def test_errors(self):
        with pytest.raises(DomainError):
            binom_ranges(np.arange(4), 0.5, 3, 2)
        with pytest.raises(DomainError):
            binom_ranges(np.arange(4), 0.5, -1, 2)
        with pytest.raises(DomainError):
            binom_ranges(np.array([-2, 1]), 0.5, 0, 1)
        with pytest.raises(DomainError):
            binom_ranges(np.arange(4), 1.5, 0, 1)


class TestTableRanges:
    @pytest.mark.parametrize("q", [0.0, 1.0, 0.3])
    def test_bit_identical_to_binom_ranges(self, q):
        # Every window with t <= 40, over the trial vectors the models use:
        # all counts, counts less one (floored at 0), and a shorter prefix.
        table = binom_rows(np.arange(41), q)
        counts = np.arange(41)
        for trials in (counts, np.maximum(counts - 1, 0), counts[:17]):
            for k_lo in range(43):
                for k_hi in range(k_lo, 43):
                    got = table_ranges(table, trials, k_lo, k_hi)
                    expected = binom_ranges(trials, q, k_lo, k_hi)
                    assert got.tobytes() == expected.tobytes(), (k_lo, k_hi)

    def test_empty_trials(self):
        got = table_ranges(binom_rows(np.arange(5), 0.3), [], 0, 1)
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_rows_are_binom_rows(self):
        table = binom_rows(np.arange(41), 0.3)
        for t in range(41):
            assert table[t, : t + 1].tobytes() == binom_rows([t], 0.3)[0].tobytes()


class TestPmfBinomial:
    def test_point_masses(self):
        assert pmf_binomial(3, 0.0).mass.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert pmf_binomial(3, 1.0).mass.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_two_fair_coins(self):
        assert pmf_binomial(2, 0.5).mass.tolist() == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_matches_scalar(self):
        pmf = pmf_binomial(9, 0.23)
        for k in range(10):
            assert pmf.prob(k) == pytest.approx(binom_pmf(9, 0.23, k), rel=1e-12)


def _cdf_oracle(z: float) -> float:
    """Standard normal CDF through mpmath's independent erf series."""
    mpmath.mp.dps = 30
    return float(0.5 * (1 + mpmath.erf(mpmath.mpf(z) / mpmath.sqrt(2))))


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_ninety_percent(self):
        assert normal_quantile(0.9) == pytest.approx(1.2815516, abs=1e-7)

    def test_symmetry(self):
        assert normal_quantile(0.1) == pytest.approx(-normal_quantile(0.9), abs=1e-10)

    def test_roundtrip_against_series_cdf(self):
        for z in np.linspace(-4.0, 4.0, 33):
            prob = _cdf_oracle(float(z))
            assert normal_quantile(prob) == pytest.approx(float(z), abs=1e-7)

    def test_tails(self):
        for prob in (1e-9, 1e-4, 0.02, 0.98, 1.0 - 1e-4):
            assert _cdf_oracle(normal_quantile(prob)) == pytest.approx(prob, rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            normal_quantile(bad)


def _quantile_oracle(prob: float) -> mpmath.mpf:
    """The z with Phi(z) = prob, as a 50-digit mpmath root of log ncdf (the
    logarithm keeps Newton's stopping test meaningful in the far tail)."""
    with mpmath.workdps(50):
        p = mpmath.mpf(prob)
        if p > 0.5:
            return -_quantile_oracle(1 - p)
        start = -mpmath.sqrt(-2 * mpmath.log(p))
        return mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(x)) - mpmath.log(p), start)


@pytest.mark.parametrize("prob", [5e-324, 1e-300, 1e-30, 1e-15, 1e-6, 0.995, 1.0 - 1e-10])
def test_normal_quantile_matches_mpmath_root(prob):
    """Full double precision from the subnormal tail to 1 - 1e-10."""
    ref = _quantile_oracle(prob)
    assert float(abs((normal_quantile(prob) - ref) / ref)) <= 1e-15


class TestPmfType:
    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            Pmf(np.array([-0.5, 1.5]))

    def test_rejects_bad_total(self):
        with pytest.raises(NormalizationError):
            Pmf(np.array([0.4, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(DomainError):
            Pmf(np.array([bad, 1.0]))
        with pytest.raises(DomainError):
            Pmf(np.array([0.5, bad, 0.5]))

    def test_entries_within_tolerance_are_clipped(self):
        # Entries up to 1e-12 outside [0, 1] are float noise: they are
        # clipped, and construction scales by the clipped total.
        raw = np.array([-1e-12, 0.5, 0.5 + 1e-12])
        pmf = Pmf(raw)
        clipped = np.array([0.0, 0.5, 0.5 + 1e-12])
        assert pmf.mass.tobytes() == (clipped / clipped.sum()).tobytes()
        assert raw[0] == -1e-12  # the caller's array is left as it was
        assert Pmf(np.array([1.0 + 5e-13, 0.0])).mass.tolist() == [1.0, 0.0]

    def test_mass_is_read_only(self):
        pmf = pmf_binomial(3, 0.5)
        with pytest.raises(ValueError):
            pmf.mass[0] = 1.0

    def test_point_and_tail(self):
        pmf = Pmf.point(2, 5)
        assert pmf.support_max == 5
        assert pmf.tail(0) == 1.0
        assert pmf.tail(2) == 1.0
        assert pmf.tail(3) == 0.0
        assert pmf.mean() == 2.0

    def test_tail_clamped_to_unit_interval(self):
        # A tail of normalized masses that sums past 1 by an ulp reads as 1.
        pmf = Pmf(np.array([0.0, 0.2, 0.7, 0.1]))
        assert float(pmf.mass[1:].sum()) > 1.0
        assert pmf.tail(1) == 1.0

    def test_renormalized_fixes_tiny_drift(self):
        # Construction scales out drift within MASS_TOL.
        drift = np.array([0.5, 0.5 - 2e-10])
        pmf = Pmf(drift)
        assert pmf.mass.tobytes() == (drift / drift.sum()).tobytes()
        assert float(pmf.mass.sum()) == pytest.approx(1.0, abs=1e-16)


class TestFailureParams:
    def test_valid(self):
        fp = FailureParams(0.1, 0.9)
        assert fp.p_l == 0.1 and fp.p_c == 0.9

    @pytest.mark.parametrize("pl,pc", [(-0.1, 0.0), (0.0, 1.1), (float("nan"), 0.0)])
    def test_invalid(self, pl, pc):
        with pytest.raises(DomainError):
            FailureParams(pl, pc)
