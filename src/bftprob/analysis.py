"""Stability boundaries, timeout tuning, quorum asymptotics, and sweeps.

Built purely on the protocol models; everything here is deterministic and
cheap enough to evaluate over grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .prob import DomainError, FailureParams, _check_prob, binom_ranges, normal_quantile
from .protocols import PROTOCOLS, SBFT, PhaseTrace, ProtocolConfig, model_trace

__all__ = [
    "stability_boundary",
    "chained_boundaries",
    "stability_crossing",
    "TimeoutEstimate",
    "timeout_for_boundary",
    "quorum_asymptote",
    "quorum_success",
    "SweepGrid",
    "SweepRow",
    "sweep",
    "GradientField",
    "gradient_field",
]


def stability_boundary(f: int, n: int, expected_prev: float) -> float:
    """Failure rate past which expected link losses can defeat a quorum phase.

    ((f+1) - (n - E))^2 / (E (E - 1)) with E the expected number of nodes
    still active after the previous phase.  f must be an integer with
    0 <= f and 3f+1 <= n.
    """
    if isinstance(f, bool) or not isinstance(f, (int, np.integer)) or f < 0 or 3 * f + 1 > n:
        raise DomainError(f"f must be an integer with 0 <= f and 3f+1 <= n={n}, got {f!r}")
    if not expected_prev > 1.0:  # also rejects NaN
        raise DomainError(f"expected_prev must exceed 1, got {expected_prev}")
    if expected_prev > n:
        raise DomainError(f"expected_prev {expected_prev} exceeds n={n}")
    margin = (f + 1) - (n - expected_prev)
    return margin * margin / (expected_prev * (expected_prev - 1.0))


def chained_boundaries(trace: PhaseTrace, phases: Sequence[str] = ("N1", "N2")) -> dict[str, float]:
    """Per-quorum-phase boundary rates, using each E[N_{i-1}] from the trace."""
    cfg = trace.config
    out = {}
    for name in phases:
        expected = trace.phase(name).mean()
        if expected <= 1.0:
            out[name] = 0.0
        else:
            out[name] = stability_boundary(cfg.f, cfg.n, expected)
    return out


def stability_crossing(config: ProtocolConfig, p_c: float = 0.0,
                       phases: Sequence[str] = ("N1", "N2")) -> float:
    """Link failure rate where p_l meets the tightest chained boundary.

    Solves p = min_i boundary_i(E[N_{i-1}](p)) on [1e-9, 1 - 1e-9]; to the
    left the expected losses cannot defeat any quorum phase, to the right
    they can.  0.0 means the boundary is already crossed at 1e-9, 1.0 that
    it is never crossed.  The root is found by Illinois false position
    (Dowell & Jarratt 1971), with a bisection step whenever two steps in a
    row fail to halve the bracket, until the bracket is within 4 ulp: 9-16
    model evaluations for the PBFT crossings with n <= 100.
    """
    def gap(pl: float) -> float:
        trace = model_trace(config, FailureParams(pl, p_c))
        return min(chained_boundaries(trace, phases).values()) - pl

    lo, hi = 1e-9, 1.0 - 1e-9
    g_lo = gap(lo)
    if g_lo <= 0.0:
        return 0.0
    g_hi = gap(hi)
    if g_hi >= 0.0:
        return 1.0
    # Invariant: g_lo > 0 > g_hi.  `side` is the end the last false-position
    # step moved (+1 lo, -1 hi); bisection steps leave it alone.  Each
    # false-position point is nudged one ulp toward the other end, so near
    # the root, where gap is float noise, it tends to land past the root and
    # the stale end moves in too.
    side, misses, target = 0, 0, 0.5 * (hi - lo)
    while hi - lo > 4.0 * math.ulp(hi):
        x = (lo * g_hi - hi * g_lo) / (g_hi - g_lo) + side * math.ulp(hi)
        false_position = misses < 2 and lo < x < hi
        if not false_position:
            x, misses = 0.5 * (lo + hi), 0
        g = gap(x)
        if g == 0.0:
            return x
        moved = 1 if g > 0.0 else -1
        if moved > 0:
            lo, g_lo = x, g
        else:
            hi, g_hi = x, g
        if false_position:
            if moved == side:  # Illinois: the same end moved twice running
                if side > 0:
                    g_hi *= 0.5
                else:
                    g_lo *= 0.5
            side = moved
        if hi - lo <= target:
            misses, target = 0, 0.5 * (hi - lo)
        else:
            misses += 1
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TimeoutEstimate:
    """Both readings of the delay-quantile timeout, labeled.

    at_rate_quantile: t with P(delay <= t) = boundary_rate (reproduces the
    often-quoted lower figure).  at_complement_quantile: t with
    P(delay > t) = boundary_rate, i.e. the timeout whose miss probability
    equals the boundary rate.  The two disagree whenever rate != 0.5; both
    are emitted so either reading can be compared.  They are mirror images
    about mu, since Phi^-1(1 - r) = -Phi^-1(r): at_complement_quantile is
    mu - sigma z with z = Phi^-1(r), which stays accurate for rates so
    small that 1 - r rounds to 1.
    """

    mu: float
    sigma: float
    boundary_rate: float
    at_rate_quantile: float
    at_complement_quantile: float


def timeout_for_boundary(mu: float, sigma: float, boundary_rate: float) -> TimeoutEstimate:
    """Translate a stability boundary into a timeout for normal delays."""
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu}")
    if not 0.0 < sigma < math.inf:  # also rejects NaN
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 < boundary_rate < 1.0:
        raise DomainError(f"boundary_rate must lie in (0, 1), got {boundary_rate}")
    z_rate = normal_quantile(boundary_rate)
    return TimeoutEstimate(
        mu=mu,
        sigma=sigma,
        boundary_rate=boundary_rate,
        at_rate_quantile=mu + sigma * z_rate,
        at_complement_quantile=mu - sigma * z_rate,
    )


def quorum_asymptote(p, q) -> float:
    """Limit of the quorum success probability as n grows.

    1 if p < 1-q, 0 if p > 1-q, 0.5 on the knife edge.  Exact arithmetic is
    used when both arguments are Fractions; floats compare within 1e-12.
    """
    if not 0.0 <= float(p) <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if not 0.0 < float(q) < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if isinstance(p, (Fraction, int)) and isinstance(q, (Fraction, int)):
        gap, tol = (1 - Fraction(q)) - Fraction(p), 0
    else:
        gap, tol = (1.0 - float(q)) - float(p), 1e-12
    if gap > tol:
        return 1.0
    if gap < -tol:
        return 0.0
    return 0.5


def quorum_success(n: int, p: float, k: int) -> float:
    """Exact probability that a quorum of k out of n incoming messages
    survives independent omission with probability p.

    Computed as the probability of at least k deliveries, each with
    probability 1 - p.  k beyond n means the quorum is unreachable and
    yields 0.
    """
    _check_prob(p)
    if k < 0:
        raise DomainError(f"quorum size must be non-negative, got {k}")
    if k > n:
        return 0.0
    return float(binom_ranges([n], 1.0 - p, k, n)[0])


@dataclass(frozen=True)
class SweepGrid:
    """Grid of operating points for one protocol.

    n_values defaults to (n,).  When f is None it is derived per n as the
    largest valid fault budget (exact fit required for SBFT).  threshold
    picks which success probability non-client protocols report.
    """

    protocol: str
    p_l_values: tuple[float, ...]
    p_c_values: tuple[float, ...]
    n: int | None = None
    n_values: tuple[int, ...] | None = None
    f: int | None = None
    c: int = 0
    threshold: str = "happy"

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise DomainError(f"unknown protocol {self.protocol!r}")
        if not self.p_l_values or not self.p_c_values:
            raise DomainError("p_l_values and p_c_values must be non-empty")
        for p in (*self.p_l_values, *self.p_c_values):
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"failure rate {p} outside [0, 1]")
        if self.n is None and self.n_values is None:
            raise DomainError("either n or n_values is required")
        if self.threshold not in ("happy", "liveness"):
            raise DomainError("threshold must be 'happy' or 'liveness'")

    def replica_counts(self) -> tuple[int, ...]:
        return self.n_values if self.n_values is not None else (self.n,)

    def resolve_config(self, n: int) -> ProtocolConfig:
        if self.f is not None:
            f = self.f
        elif self.protocol == SBFT:
            f, rem = divmod(n - 1 - 2 * self.c, 3)
            if rem != 0:
                raise DomainError(f"no integral f with n={n}, c={self.c}")
        else:
            f = (n - 1) // 3
        return ProtocolConfig(self.protocol, n, f, self.c)


@dataclass(frozen=True)
class SweepRow:
    n: int
    f: int | None
    c: int
    p_l: float
    p_c: float
    path: str
    success: float | None
    error: str | None = None


def sweep(grid: SweepGrid) -> list[SweepRow]:
    """One row per grid point per path, ordered by (n, p_c, p_l, path).

    Invalid configurations become row-level error entries; the sweep
    continues.
    """
    rows: list[SweepRow] = []
    for n in grid.replica_counts():
        for p_c in grid.p_c_values:
            for p_l in grid.p_l_values:
                try:
                    cfg = grid.resolve_config(n)
                    trace = model_trace(cfg, FailureParams(p_l, p_c))
                except DomainError as exc:
                    rows.append(SweepRow(n, grid.f, grid.c, p_l, p_c, "error", None, str(exc)))
                    continue
                if "happy" in trace.path_success:
                    paths = [(grid.threshold, trace.path_success[grid.threshold])]
                else:
                    paths = [(name, trace.path_success[name]) for name in ("fast", "slow", "combined")]
                for path, value in paths:
                    rows.append(SweepRow(n, cfg.f, cfg.c, p_l, p_c, path, value))
    rows.sort(key=lambda r: (r.n, r.p_c, r.p_l, r.path))
    return rows


@dataclass(frozen=True, eq=False)
class GradientField:
    """Success surface over (p_c, p_l) with finite-difference gradients."""

    p_c_values: np.ndarray
    p_l_values: np.ndarray
    success: np.ndarray  # shape (len(p_c), len(p_l))
    d_dpc: np.ndarray
    d_dpl: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.success, self.d_dpc, self.d_dpl):
            if not np.all(np.isfinite(arr)):
                raise DomainError("gradient field contains non-finite entries")


def _difference_grid(value, p_c_values, p_l_values, step: float) -> GradientField:
    """Central differences of value(p_l, p_c) over the grid, one-sided where
    p +/- step would leave [0, 1]."""
    if not 0.0 < step < math.inf:  # also rejects NaN
        raise DomainError(f"step must be finite and positive, got {step}")

    def diff(p_l: float, p_c: float, which: str) -> float:
        p = p_c if which == "p_c" else p_l
        lo = max(p - step, 0.0)
        hi = min(p + step, 1.0)
        if hi == lo:
            raise DomainError("step too large for the probability domain")
        if which == "p_c":
            return (value(p_l, hi) - value(p_l, lo)) / (hi - lo)
        return (value(hi, p_c) - value(lo, p_c)) / (hi - lo)

    pcs = np.asarray(p_c_values, dtype=float)
    pls = np.asarray(p_l_values, dtype=float)
    success = np.empty((len(pcs), len(pls)))
    d_dpc = np.empty_like(success)
    d_dpl = np.empty_like(success)
    for i, p_c in enumerate(pcs):
        for j, p_l in enumerate(pls):
            success[i, j] = value(p_l, p_c)
            d_dpc[i, j] = diff(p_l, p_c, "p_c")
            d_dpl[i, j] = diff(p_l, p_c, "p_l")
    return GradientField(pcs, pls, success, d_dpc, d_dpl)


def gradient_field(grid: SweepGrid, step: float = 0.005) -> GradientField:
    """Finite-difference gradient of success over the (p_c, p_l) grid."""
    counts = grid.replica_counts()
    if len(counts) != 1:
        raise DomainError("gradient_field needs a single replica count")
    cfg = grid.resolve_config(counts[0])

    def value(p_l: float, p_c: float) -> float:
        trace = model_trace(cfg, FailureParams(p_l, p_c))
        if "happy" in trace.path_success:
            return trace.path_success[grid.threshold]
        return trace.path_success["combined"]

    return _difference_grid(value, grid.p_c_values, grid.p_l_values, step)
