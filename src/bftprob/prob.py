"""Binomial primitives and dense probability mass functions.

Everything downstream (phase chaining, protocol models, analysis) is built on
the helpers here.  Binomial terms are evaluated in log space, so replica
counts up to the 1,000 that `ProtocolConfig` admits neither overflow nor
underflow to zero prematurely; no arbitrary-precision arithmetic is used or
needed.  One path computes binomial masses, `binom_rows`; every range
probability is a window sum over its rows.

The rate-independent half of those rows, log C(t, k) and t - k, comes from
one table over counts 0..T that the process keeps.  It grows to the largest
count a call has needed, never past MAX_REPLICAS, and holds 2 (T+1)^2
float64 entries: about 1.4 MiB at T = 301 and 15.3 MiB at T = 1,000.  A
grown table is built in full and marked read-only before it replaces the
old one, so threads share it safely.  Rows past MAX_REPLICAS are built per
call, for the requested trials only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "MASS_TOL",
    "MAX_REPLICAS",
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

    Construction checks the smallest and largest entry against [0, 1],
    within 1e-12, so a NaN or infinite entry raises DomainError as well; it
    checks the total against MASS_TOL (raising NormalizationError), and
    clips to [0, 1] only when an entry lies outside.  The protocol models
    chain raw mass arrays through their kernel matrices and validate each
    phase they emit once, as `Pmf(mass).renormalized()`: every emitted
    phase, and every result of a public operator, passes these checks while
    intermediates skip them.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mass, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("mass must be a non-empty 1-d array")
        lo, hi = arr.min(), arr.max()
        # Written so that a NaN entry, which fails every comparison, raises.
        if not (lo >= -_ENTRY_TOL and hi <= 1.0 + _ENTRY_TOL):
            raise DomainError("mass entries must lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise NormalizationError(
                f"mass sums to {total!r}; drift exceeds {MASS_TOL}"
            )
        if lo < 0.0 or hi > 1.0:
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


# Largest replica count of the documented domain, re-exported by protocols.
# A model evaluation holds dense (n+1) x (n+1) kernels, the simulator counts
# deliveries in uint16, and the shared coefficient table stops at this count.
MAX_REPLICAS = 1_000
# exp(x) is exactly +0.0 for x <= _EXP_ZERO: e^-746 is below half the
# smallest subnormal double.
_EXP_ZERO = -746.0


def _coefficients(trials: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The rate-independent half of binom_rows(trials, p) over counts
    k = 0..top: log C(t, k) for each t in trials, -inf past t, and t - k as
    float64."""
    k = np.arange(top + 1)
    lg = _log_factorials(top)
    below = trials[:, None] - k  # t - k, negative past the row's trials
    coef = lg[trials][:, None] - lg[k]
    coef -= lg[np.abs(below)]
    coef[below < 0] = -np.inf
    return coef, below.astype(float)


# _coefficients(arange(T + 1), T), read-only; replaced whole, under the lock.
_table = (np.empty((0, 0)), np.empty((0, 0)))
_table_lock = threading.Lock()


def _coefficient_rows(trials: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """_coefficients(trials, top), sliced or gathered from the shared table,
    which first grows to counts 0..top if it holds fewer.  A run of counts
    trials[0]..top is sliced, not copied."""
    if top > MAX_REPLICAS:
        return _coefficients(trials, top)
    global _table
    table = _table
    if len(table[0]) <= top:
        with _table_lock:
            table = _table
            if len(table[0]) <= top:
                table = _coefficients(np.arange(top + 1), top)
                for part in table:
                    part.flags.writeable = False
                _table = table
    rows, lo = trials, int(trials[0])
    if top - lo + 1 == len(trials) and (np.diff(trials) == 1).all():
        rows = slice(lo, top + 1)  # a run of counts: slice, do not copy
    return table[0][rows, : top + 1], table[1][rows, : top + 1]


def binom_rows(trials, p) -> np.ndarray:
    """Matrix whose row i is Binomial(trials[i], p[i]) over 0..max(trials).

    p is one rate or one per row, and entries past trials[i] are zero.
    Every row is exp(log C(t, k) + k log p + (t - k) log1p(-p)), to the
    same bits whether its rate is passed as the one scalar or as its entry
    of a vector.  A rate of 0 or 1 makes the row a point mass, at 0 or at
    trials[i], which is written directly and never evaluated: a scalar rate
    is tested for that as a Python float, and a vector's degenerate rows are
    found once, so only its other rows go through log space.  log C(t, k),
    -inf past the row's trials, and t - k are sliced (for a run of counts)
    or gathered from the shared table, so a call only adds the two rate
    terms and takes exp.  The table grows to counts 0..max(trials), never
    past MAX_REPLICAS, unless every rate is degenerate; over counts 0..T it
    holds 1.4 MiB at T = 301 and 15.3 MiB at T = 1,000.  A call past
    MAX_REPLICAS builds its own rows, for its trials only.  Inputs are not
    validated: this is the unchecked path under the kernel matrices of the
    models and every binomial range.
    """
    trials = np.asarray(trials, dtype=np.intp)
    top = int(trials.max())
    p = np.asarray(p, dtype=float)
    if p.ndim:
        degenerate = (p == 0.0) | (p == 1.0)
        dead = np.flatnonzero(degenerate)
        if not len(dead):
            return _log_space_rows(trials, top, p[:, None])
        live, at_top = np.flatnonzero(~degenerate), p[dead] == 1.0
    else:
        p = float(p)
        if p != 0.0 and p != 1.0:
            return _log_space_rows(trials, top, p)
        dead, live, at_top = np.arange(len(trials)), (), p == 1.0
    rows = np.zeros((len(trials), top + 1))
    if len(live):
        rows[live] = _log_space_rows(trials[live], top, p[live, None])
    rows[dead, np.where(at_top, trials[dead], 0)] = 1.0
    return rows


def _log_space_rows(trials: np.ndarray, top: int, rate) -> np.ndarray:
    """binom_rows(trials, rate) over counts 0..top for rates strictly
    between 0 and 1: one scalar, or a column with one rate per row."""
    coef, below = _coefficient_rows(trials, top)
    logs = coef + np.arange(top + 1) * np.log(rate)
    logs += below * np.log1p(-rate)
    if logs.size < 4096:  # here the mask below costs more than it saves
        return np.exp(logs, out=logs)
    # exp is several times slower where its result underflows to zero (all
    # of each row past its trials, and far tails at large n); those entries
    # are written as the zero that exp would give.
    zero = logs <= _EXP_ZERO
    rows = np.exp(logs, out=logs, where=~zero)
    np.copyto(rows, 0.0, where=zero)
    return rows


def _window_sums(rows: np.ndarray, trials: np.ndarray, k_lo: int, k_hi: int) -> np.ndarray:
    """Entry i is P(k_lo <= Binomial(trials[i], p) <= k_hi), from rows[i],
    that law's masses at counts k_lo..min(k_hi, max(trials)), clamped as
    binom_ranges documents."""
    out = rows.sum(axis=1)
    np.minimum(out, 1.0, out=out)  # a sum of non-negative masses is >= +0
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
    if not trials.size:
        return np.zeros(0)
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
    rows = table[trials, k_lo : min(k_hi, int(trials.max(initial=0))) + 1]
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
