"""Brute-force enumeration oracles shared by the unit and acceptance tests.

These deliberately reconstruct distributions from raw coin patterns rather
than through the library's composition operators.  `record_writer_reference`
is the per-row text formatter `simulate --record` used before its byte
tables, kept as the reference for the log's bytes.  `binom_pmf` and
`scalar_binom_range` are the scalar binomial helpers the package once
exported, kept as per-count references for `binom_rows` and `binom_ranges`.
"""

import itertools
import math

import numpy as np

from bftprob.prob import DomainError, _check_prob, binom_rows


def binom_pmf(n: int, p: float, k: int) -> float:
    """Probability of exactly k successes in n independent trials.

    Evaluated as exp(log C(n,k) + k log p + (n-k) log(1-p)); safe for n up
    to ~1,000 where direct factorials would overflow.
    """
    n = int(n)
    k = int(k)
    if n < 0:
        raise DomainError(f"trial count must be non-negative, got {n}")
    if k < 0 or k > n:
        raise DomainError(f"success count {k} outside 0..{n}")
    _check_prob(p)
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    log_term = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    return math.exp(log_term)


def scalar_binom_range(n: int, p: float, k_lo: int, k_hi: int) -> float:
    """Probability of between k_lo and k_hi successes (inclusive).

    k_hi is clamped to n: quorum bounds are routinely written against the
    full replica count even when fewer trials exist.  A k_lo beyond n means
    the quorum is unreachable and yields 0 rather than an error.
    """
    n = int(n)
    k_lo = int(k_lo)
    k_hi = int(k_hi)
    if n < 0:
        raise DomainError(f"trial count must be non-negative, got {n}")
    if k_lo < 0:
        raise DomainError(f"k_lo must be non-negative, got {k_lo}")
    if k_lo > k_hi:
        raise DomainError(f"empty range [{k_lo}, {k_hi}]")
    _check_prob(p)
    if k_lo > n:
        return 0.0
    k_hi = min(k_hi, n)
    if k_lo == 0 and k_hi == n:
        return 1.0
    mass = binom_rows([n], p)[0]
    total = float(mass[k_lo : k_hi + 1].sum())
    return min(max(total, 0.0), 1.0)


def crash_chain_enumeration(n: int, p_c: float, phases: int = 3):
    """Survival-count marginals by enumerating every crash pattern.

    Each process draws one survival coin per phase; a process is active
    after phase i iff its first i coins all came up alive.
    """
    marginals = [np.zeros(n + 1) for _ in range(phases)]
    for pattern in itertools.product((0, 1), repeat=n * phases):
        weight = 1.0
        for bit in pattern:
            weight *= (1.0 - p_c) if bit else p_c
        for i in range(phases):
            active = 0
            for proc in range(n):
                coins = pattern[proc * phases : proc * phases + i + 1]
                active += all(coins)
            marginals[i][active] += weight
    return marginals


def pbft_no_links_enumeration(n: int, f: int, p_c: float):
    """Full-chain marginals at p_l=0 by enumerating every crash pattern.

    Replicas draw three chain-step coins, the primary two (it is assumed up
    through its broadcast).  Quorum guards apply: nobody prepares unless at
    least 2f replicas hold the broadcast, nobody commits unless more than
    2f nodes are still broadcasting.
    """
    reps = n - 1
    names = ["N1", "C2", "N2", "C3", "N3"]
    marginals = {name: np.zeros(n + 1) for name in names}
    for pattern in itertools.product((0, 1), repeat=reps * 3):
        w_rep = 1.0
        for bit in pattern:
            w_rep *= (1.0 - p_c) if bit else p_c
        for pri in itertools.product((0, 1), repeat=2):
            weight = w_rep
            for bit in pri:
                weight *= (1.0 - p_c) if bit else p_c
            alive = [pattern[r * 3 : r * 3 + 3] for r in range(reps)]
            n1 = [r for r in range(reps) if alive[r][0]]
            c2 = set(n1) | {"primary"} if len(n1) >= 2 * f else set()
            n2 = set()
            for member in c2:
                coin = pri[0] if member == "primary" else alive[member][1]
                if coin:
                    n2.add(member)
            c3 = n2 if len(n2) > 2 * f else set()
            n3 = set()
            for member in c3:
                coin = pri[1] if member == "primary" else alive[member][2]
                if coin:
                    n3.add(member)
            marginals["N1"][len(n1)] += weight
            marginals["C2"][len(c2)] += weight
            marginals["N2"][len(n2)] += weight
            marginals["C3"][len(c3)] += weight
            marginals["N3"][len(n3)] += weight
    return marginals


def bisection_crossing(config, p_c: float, phases=("N1", "N2")) -> float:
    """stability_crossing by 60 bisection steps on [1e-9, 1 - 1e-9].

    The solver stability_crossing used before its false-position search,
    kept as the reference root: each step halves the bracket around the
    sign change of min_i boundary_i(E[N_{i-1}](p_l)) - p_l.
    """
    from bftprob import FailureParams, model_trace
    from bftprob.analysis import chained_boundaries

    def gap(pl: float) -> float:
        trace = model_trace(config, FailureParams(pl, p_c))
        return min(chained_boundaries(trace, phases).values()) - pl

    lo, hi = 1e-9, 1.0 - 1e-9
    if gap(lo) <= 0.0:
        return 0.0
    if gap(hi) >= 0.0:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def record_writer_reference(log):
    """Record sink that appends each chunk's per-replica rows to the text file `log`.

    One f-string per row; the suffix after "request,replica," is looked up
    by (phase, crash step, path) code.
    """
    from bftprob.sim import PATH_NAMES

    def sink(start: int, res, valid: int) -> None:
        highest, crash, path = res.highest[:valid], res.crash[:valid], res.path[:valid]
        steps = int(crash.max(initial=-1)) + 2  # crash steps -1 (none) .. max
        table = [f"{phase},{step if step >= 0 else ''},{name}\n"
                 for phase in res.phase_names for step in range(-1, steps - 1)
                 for name in PATH_NAMES]
        codes = (highest.astype(np.int64) * steps + crash + 1) * len(PATH_NAMES) + path[:, None]
        log.write("".join([
            f"{rid},{replica},{table[code]}"
            for rid, row in enumerate(codes.tolist(), start)
            for replica, code in enumerate(row)
        ]))

    return sink
