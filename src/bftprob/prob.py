"""Binomial primitives and dense probability mass functions.

Everything downstream (phase chaining, protocol models, analysis) is built on
the helpers here.  Binomial terms are evaluated in log space, so replica
counts up to the 1,000 that `ProtocolConfig` admits neither overflow nor
underflow to zero prematurely; no arbitrary-precision arithmetic is used or
needed.  One path computes binomial masses, `binom_rows`; every range
probability is a window sum over its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "MASS_TOL",
    "DomainError",
    "NormalizationError",
    "FailureParams",
    "Pmf",
    "binom_range",
    "binom_ranges",
    "binom_rows",
    "table_ranges",
    "pmf_binomial",
    "normal_quantile",
]

# A distribution may drift from unit mass by at most this much before it is
# treated as a composition bug rather than float noise.
MASS_TOL = 1e-9

_ENTRY_TOL = 1e-12


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class NormalizationError(ArithmeticError):
    """A distribution's total mass drifted beyond tolerance."""


def _check_prob(p: float, name: str = "p") -> float:
    p = float(p)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p!r}")
    return p


@dataclass(frozen=True)
class FailureParams:
    """Failure rates: p_l drops a single message, p_c knocks a process out
    of one whole phase."""

    p_l: float
    p_c: float

    def __post_init__(self) -> None:
        _check_prob(self.p_l, "p_l")
        _check_prob(self.p_c, "p_c")


@dataclass(frozen=True, eq=False)
class Pmf:
    """Dense, validated pmf over the integer support 0..support_max.

    Supports never exceed ~1,001 points, so a dense array beats any sparse
    representation for the matrix compositions built on top.  Instances are
    immutable; the mass array is marked read-only.

    Construction checks every entry against [0, 1] and the total against
    MASS_TOL (raising NormalizationError).  The protocol models chain raw
    mass arrays through their kernel matrices and validate each phase they
    emit once, as `Pmf(mass).renormalized()`: every emitted phase, and every
    result of a public operator, passes these checks while intermediates
    skip them.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mass, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("mass must be a non-empty 1-d array")
        if (arr < -_ENTRY_TOL).any() or (arr > 1.0 + _ENTRY_TOL).any():
            raise DomainError("mass entries must lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise NormalizationError(
                f"mass sums to {total!r}; drift exceeds {MASS_TOL}"
            )
        np.clip(arr, 0.0, 1.0, out=arr)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    @classmethod
    def point(cls, k: int, support_max: int) -> "Pmf":
        """Point mass at k on the support 0..support_max."""
        if not 0 <= k <= support_max:
            raise DomainError(f"point {k} outside support 0..{support_max}")
        mass = np.zeros(support_max + 1)
        mass[k] = 1.0
        return cls(mass)

    @property
    def support_max(self) -> int:
        return len(self.mass) - 1

    def prob(self, k: int) -> float:
        if 0 <= k <= self.support_max:
            return float(self.mass[k])
        return 0.0

    def tail(self, k: int) -> float:
        """P(X >= k)."""
        if k <= 0:
            return 1.0
        if k > self.support_max:
            return 0.0
        # Renormalized masses can sum past 1 by an ulp.
        return min(max(float(self.mass[k:].sum()), 0.0), 1.0)

    def mean(self) -> float:
        return float(np.arange(len(self.mass)) @ self.mass)

    def renormalized(self) -> "Pmf":
        """Scale out residual float drift (at most MASS_TOL by invariant).

        The result is not validated again: every entry x is in [0, x_sum],
        so x / x_sum lies in [0, 1], and the new sum is 1 to a few ulp.
        """
        mass = self.mass / float(self.mass.sum())
        mass.flags.writeable = False
        out = object.__new__(type(self))
        object.__setattr__(out, "mass", mass)
        return out


# log(t!) for t < 2048, exactly as scipy.special.gammaln(t + 1.0) gives it,
# so binomial rows reproduce the scipy-based arithmetic bit for bit without
# importing scipy.special (~25 MB and ~0.3 s per process).  Regenerate with
# np.save(LOG_FACTORIAL_FILE, scipy.special.gammaln(np.arange(2048) + 1.0)).
LOG_FACTORIAL_FILE = Path(__file__).with_name("log_factorial.npy")


@lru_cache(maxsize=1)
def _log_factorial_table() -> np.ndarray:
    table = np.load(LOG_FACTORIAL_FILE)
    table.flags.writeable = False
    return table


def _log_factorials(size: int) -> np.ndarray:
    """log(t!) for t = 0..size; math.lgamma past the table."""
    table = _log_factorial_table()
    if size < len(table):
        return table[: size + 1]
    return np.concatenate([table, [math.lgamma(t + 1.0) for t in range(len(table), size + 1)]])


def binom_rows(trials, p) -> np.ndarray:
    """Matrix whose row i is Binomial(trials[i], p[i]) over 0..max(trials).

    p is one rate or one per row, and entries past trials[i] are zero.
    Every row is evaluated in log space from one shared log-factorial table,
    loaded on first use.  Inputs are not validated: this is the unchecked
    path under the kernel matrices of the models and every binomial range.
    """
    trials = np.asarray(trials, dtype=np.intp)
    p = np.asarray(p, dtype=float)
    top = int(trials.max())
    k = np.arange(top + 1)
    lg = _log_factorials(top)
    # Degenerate rates would put log(0) into the sum; they are point masses,
    # written over rows evaluated at a harmless stand-in rate.
    degenerate = (p == 0.0) | (p == 1.0)
    rate = np.where(degenerate, 0.5, p)
    if rate.ndim:
        rate = rate[:, None]
    below = trials[:, None] - k  # t - k, negative past the row's trials
    logs = lg[trials][:, None] - lg[k]
    logs -= lg[np.abs(below)]
    logs += k * np.log(rate)
    logs += below * np.log1p(-rate)
    logs[below < 0] = -np.inf
    rows = np.exp(logs, out=logs)
    if degenerate.any():
        zero, one = np.broadcast_to(p == 0.0, trials.shape), np.broadcast_to(p == 1.0, trials.shape)
        rows[zero | one] = 0.0
        rows[zero, 0] = 1.0
        rows[one, trials[one]] = 1.0
    return rows


def _window_sums(rows: np.ndarray, trials: np.ndarray, k_lo: int, k_hi: int) -> np.ndarray:
    """Entry i is P(k_lo <= Binomial(trials[i], p) <= k_hi), from rows[i],
    that law's masses at counts k_lo..min(k_hi, max(trials)), clamped as
    binom_ranges documents."""
    out = np.clip(rows.sum(axis=1), 0.0, 1.0)
    if k_lo == 0:
        out[trials <= k_hi] = 1.0
    return out


def binom_ranges(trials, p: float, k_lo: int, k_hi: int) -> np.ndarray:
    """Entry i is P(k_lo <= Binomial(trials[i], p) <= k_hi), a window sum
    over the full binom_rows(trials, p) rows.

    k_hi is clamped to trials[i]: quorum bounds are routinely written
    against the full replica count even when fewer trials exist.  A range
    covering every count gives exactly 1, and a k_lo beyond trials[i] means
    the quorum is unreachable and gives 0 rather than an error.
    """
    trials = np.asarray(trials, dtype=np.intp)
    if trials.size and int(trials.min()) < 0:
        raise DomainError("trial counts must be non-negative")
    if k_lo < 0:
        raise DomainError(f"k_lo must be non-negative, got {k_lo}")
    if k_lo > k_hi:
        raise DomainError(f"empty range [{k_lo}, {k_hi}]")
    _check_prob(p)
    rows = binom_rows(trials, p)[:, k_lo : k_hi + 1]
    return _window_sums(rows, trials, k_lo, k_hi)


def table_ranges(table: np.ndarray, trials, k_lo: int, k_hi: int) -> np.ndarray:
    """binom_ranges(trials, p, k_lo, k_hi) read from `table`, whose row t is
    Binomial(t, p) over counts 0..len(table)-1, i.e. binom_rows(arange(top + 1), p).

    Equal to binom_ranges bit for bit, since every entry is the same
    elementwise log-space term.  A model builds one table per evaluation and
    reads all its quorum rates on p from it.  Inputs are not validated.
    """
    trials = np.asarray(trials, dtype=np.intp)
    rows = table[trials, k_lo : min(k_hi, int(trials.max())) + 1]
    return _window_sums(rows, trials, k_lo, k_hi)


def binom_range(n: int, p: float, k_lo: int, k_hi: int) -> float:
    """Probability of between k_lo and k_hi successes in n trials, inclusive:
    binom_ranges for one trial count."""
    return float(binom_ranges([int(n)], p, int(k_lo), int(k_hi))[0])


def pmf_binomial(n: int, p: float) -> Pmf:
    """Binomial(n, p) as a dense Pmf over 0..n."""
    n = int(n)
    if n < 0:
        raise DomainError(f"trial count must be non-negative, got {n}")
    _check_prob(p)
    return Pmf(binom_rows([n], p)[0])


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# Rational approximation coefficients for the inverse normal CDF
# (P. Acklam's algorithm; absolute error ~1.15e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF: the z with Phi(z) = prob.

    Rational approximation refined by one Newton step on the erf relation
    Phi(z) = (1 + erf(z/sqrt 2))/2; absolute error well under 1e-8.
    """
    prob = float(prob)
    if math.isnan(prob) or not 0.0 < prob < 1.0:
        raise DomainError(f"prob must lie in (0, 1), got {prob!r}")

    if prob < _P_LOW:
        q = math.sqrt(-2.0 * math.log(prob))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    elif prob <= 1.0 - _P_LOW:
        q = prob - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / (
            ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log1p(-prob))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )

    # One Newton step: x -= (Phi(x) - prob) / phi(x).
    density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if density > 0.0:
        x -= (_normal_cdf(x) - prob) / density
    return x
