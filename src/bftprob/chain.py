"""Composition operators that chain per-phase conditional kernels.

A phase step is a row-stochastic kernel matrix K (row y: the pmf of the
next count given count y), applied as `prior @ K`.  The crash step's K is
the binomial thinning matrix, cached per (support_max, p_c); the models
build their link-loss kernels with `prob.binom_rows`.

The closure-based operators `total_probability`, `joint_via_kernel`,
`total_probability_joint` and `convolve` have no caller in the package.
They are kept, with the `Kernel`, `Kernel2` and `JointDistribution` types of
their signatures, only because the benchmark's tracer
(`benchmarks/tracing.py`) binds them by name.  Each evaluates a Kernel (any
callable from a count to a Pmf) once per count with nonzero prior mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .prob import MASS_TOL, DomainError, NormalizationError, Pmf, _check_prob, binom_rows

__all__ = [
    "Kernel",
    "Kernel2",
    "JointDistribution",
    "crash_step",
    "thinning_matrix",
    "total_probability",
    "joint_via_kernel",
    "total_probability_joint",
    "convolve",
]

Kernel = Callable[[int], Pmf]
Kernel2 = Callable[[int, int], Pmf]


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint pmf over a pair of phase counts, indexed [y, z]."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise DomainError("probs must be a non-empty 2-d array")
        if not (arr.min() >= -1e-12 and arr.max() <= 1.0 + 1e-12):  # NaN fails
            raise DomainError("joint entries must lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise NormalizationError(f"joint mass sums to {total!r}")
        np.clip(arr, 0.0, 1.0, out=arr)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)


@lru_cache(maxsize=8)
def thinning_matrix(support_max: int, p_c: float) -> np.ndarray:
    """Crash-step kernel on 0..support_max: row c is Binomial(c, 1 - p_c).
    Read-only; a model applies the same few (support_max, p_c) again and
    again, so a bounded number of them are cached."""
    mat = binom_rows(np.arange(support_max + 1), 1.0 - p_c)
    mat.flags.writeable = False
    return mat


def thin(mass: np.ndarray, p_c: float) -> np.ndarray:
    """Crash step on raw masses: one pmf (1-d) or a stack of row pmfs (2-d)."""
    return mass @ thinning_matrix(mass.shape[-1] - 1, p_c)


def crash_step(prior: Pmf, p_c: float) -> Pmf:
    """Thin a count distribution by independent per-process survival.

    Each of the c processes counted by the prior survives with probability
    1 - p_c, so the result mixes Binomial(c, 1-p_c) rows over the prior.
    The support is unchanged.
    """
    _check_prob(p_c, "p_c")
    return Pmf(thin(prior.mass, p_c))


def total_probability(kernel: Kernel, prior: Pmf) -> Pmf:
    """Mix a kernel over a prior: result(x) = sum_y kernel(y)(x) * prior(y).

    Conditioning values with zero prior mass are skipped, so the kernel
    need not be defined there.
    """
    out: np.ndarray | None = None
    for y, weight in enumerate(prior.mass):
        if weight == 0.0:
            continue
        piece = kernel(y)
        if out is None:
            out = np.zeros(len(piece.mass))
        elif len(piece.mass) != len(out):
            raise DomainError(
                f"kernel support changed at y={y}: "
                f"{len(piece.mass) - 1} != {len(out) - 1}"
            )
        out += weight * piece.mass
    assert out is not None  # prior sums to 1, so some weight was nonzero
    return Pmf(out)


def joint_via_kernel(prior: Pmf, kernel: Kernel) -> JointDistribution:
    """Joint over (y, z) with joint(y, z) = prior(y) * kernel(y)(z)."""
    rows: list[np.ndarray | None] = [None] * len(prior.mass)
    width: int | None = None
    for y, weight in enumerate(prior.mass):
        if weight == 0.0:
            continue
        piece = kernel(y)
        if width is None:
            width = len(piece.mass)
        elif len(piece.mass) != width:
            raise DomainError(f"kernel support changed at y={y}")
        rows[y] = weight * piece.mass
    assert width is not None
    probs = np.zeros((len(prior.mass), width))
    for y, row in enumerate(rows):
        if row is not None:
            probs[y] = row
    return JointDistribution(probs)


def total_probability_joint(kernel2: Kernel2, joint: JointDistribution) -> Pmf:
    """Mix a two-parent kernel over a joint distribution."""
    out: np.ndarray | None = None
    probs = joint.probs
    for y in range(probs.shape[0]):
        row = probs[y]
        for z in np.nonzero(row)[0]:
            piece = kernel2(y, int(z))
            if out is None:
                out = np.zeros(len(piece.mass))
            elif len(piece.mass) != len(out):
                raise DomainError(f"kernel support changed at (y={y}, z={z})")
            out += row[z] * piece.mass
    assert out is not None
    return Pmf(out)


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Distribution of the sum of two independent counts."""
    return Pmf(np.convolve(a.mass, b.mass))
