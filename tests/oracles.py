"""Brute-force enumeration oracles shared by the unit and acceptance tests.

These deliberately reconstruct distributions from raw coin patterns rather
than through the library's composition operators.  `record_writer_reference`
is the per-row text formatter `simulate --record` used before its byte
tables, kept as the reference for the log's bytes.  `binom_pmf` and
`scalar_binom_range` are the scalar binomial helpers the package once
exported, kept as per-count references for `binom_rows` and `binom_ranges`.
`binom_rows_reference` is `binom_rows` as it was before the shared
coefficient table: every call evaluates its rows from scratch, so it is the
bit-for-bit reference for the table's slices, gathers and growth.
`smart_skip_reference` is BFT-SMaRt's commit step as the model computed it
before its batched thinning: one binomial thinning matrix and one
convolution per N_2 count.
"""

import itertools
import math

import numpy as np

from bftprob.prob import DomainError, _check_prob, _log_factorials, binom_rows


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


def binom_rows_reference(trials, p) -> np.ndarray:
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


def smart_skip_reference(config, fp) -> dict[str, np.ndarray]:
    """BFT-SMaRt's C_3 and N_3, finalized as the model emits them, by the
    per-m formula: the joint law of (N_1, N_2) is the write kernel thinned
    by the crash matrix, and for each N_2 = m with p_skip(m) > 0 the
    y+1-m candidates of column m are thinned by a Binomial(., p_skip(m))
    matrix (unless p_skip(m) is 1) and convolved with the member row."""
    from bftprob.chain import thin
    from bftprob.prob import Pmf, table_ranges

    n, th, pc = config.n, config.thresholds(), fp.p_c
    counts = np.arange(n + 1)
    table = binom_rows(counts, 1.0 - fp.p_l)
    n1 = thin(table[n - 1, :n], pc)
    p2 = table_ranges(table, counts[:n], th["write_from_others"], n)
    write = binom_rows(counts[:n] + 1, p2)
    joint = n1[:, None] * thin(write, pc)  # P(N1 = y, N2 = m)
    n2 = joint.sum(axis=0)
    p_member = table_ranges(table, np.maximum(counts - 1, 0), th["commit_from_others"], n)
    p_skip = table_ranges(table, counts, th["commit_skip"], n)
    members = binom_rows(counts, p_member)
    dead = p_skip == 0.0
    c3 = np.where(dead, n2, 0.0) @ members
    for m in np.flatnonzero(~dead):
        skippers = joint[m - 1 :, m]
        if p_skip[m] < 1.0:
            skippers = skippers @ binom_rows(np.arange(len(skippers)), p_skip[m])
        c3 += np.convolve(members[m, : m + 1], skippers)
    n3 = thin(c3, pc)
    return {"C3": Pmf(c3).mass, "N3": Pmf(n3).mass}


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
