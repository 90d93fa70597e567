"""Analytic happy-path models for PBFT, BFT-SMaRt, Zyzzyva, and SBFT.

Each model walks the protocol's communication pattern as an alternating
chain of link-failure collection steps (C_i) and crash thinning steps (N_i),
emitting the per-phase count distributions and the path success
probabilities.  Crashes follow the rule stated on `prob.FailureParams`,
exceptions included; within a phase, message deliveries are independent
Bernoulli trials with success 1 - p_l.

Every step is a dense row-stochastic kernel matrix, built once per
evaluation, and the step is `prior @ K` on raw mass arrays: binomial rows
come from `prob.binom_rows`, and crash steps use the cached
`chain.thinning_matrix`.  Each evaluation builds one Binomial(t, 1 - p_l)
table for t = 0..n; C_1 is a row of it, and every quorum rate on 1 - p_l is
a window sum over its rows (`prob.table_ranges`).  Each phase a PhaseTrace
emits is one Pmf, validated and normalized once when it is built.  Where a
step conditions on two earlier phases, the joint law is a matrix.  SBFT's
relay is factored per value of one parent, the relay count.  BFT-SMaRt's
commit thins every column of its joint at that column's own skip rate in
one pass (`chain.thin_columns`) and adds the members by one product.

Quorum thresholds live in per-protocol tables derived from the config; the
four models differ only in pattern wiring and those thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .chain import crash_step, thin, thin_columns, thinning_matrix
from .prob import (
    MAX_REPLICAS,
    DomainError,
    FailureParams,
    Pmf,
    binom_rows,
    pmf_binomial,
    table_ranges,
)

__all__ = [
    "PBFT",
    "BFT_SMART",
    "ZYZZYVA",
    "SBFT",
    "PROTOCOLS",
    "MAX_REPLICAS",
    "ProtocolConfig",
    "PhaseTrace",
    "pbft_crash_only",
    "pbft_model",
    "smart_model",
    "zyzzyva_model",
    "sbft_model",
    "model_trace",
]

PBFT = "pbft"
BFT_SMART = "bft-smart"
ZYZZYVA = "zyzzyva"
SBFT = "sbft"
PROTOCOLS = (PBFT, BFT_SMART, ZYZZYVA, SBFT)


@dataclass(frozen=True)
class ProtocolConfig:
    """Replica count n, fault budget f, and (for SBFT) collector surplus c."""

    protocol: str
    n: int
    f: int
    c: int = 0

    def __post_init__(self) -> None:
        proto = self.protocol.lower()
        object.__setattr__(self, "protocol", proto)
        if proto not in PROTOCOLS:
            raise DomainError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}")
        if self.f < 0 or self.c < 0:
            raise DomainError("f and c must be non-negative")
        if self.n > MAX_REPLICAS:
            raise DomainError(f"n must be at most {MAX_REPLICAS}, got n={self.n}")
        if proto == SBFT:
            if self.n != 3 * self.f + 2 * self.c + 1:
                raise DomainError(
                    f"sbft requires n = 3f+2c+1, got n={self.n}, f={self.f}, c={self.c}"
                )
        else:
            if self.c != 0:
                raise DomainError(f"collector surplus c only applies to sbft, got c={self.c}")
            if self.n < 3 * self.f + 1:
                raise DomainError(
                    f"{proto} requires n >= 3f+1, got n={self.n}, f={self.f}"
                )

    def thresholds(self) -> Mapping[str, int]:
        """Per-protocol quorum table; the extension point for new patterns."""
        f, c = self.f, self.c
        if self.protocol == PBFT:
            table = {
                # own prepare and the pre-prepare both count toward 2f+1
                "prepare_from_others": 2 * f - 1,
                "primary_prepare": 2 * f,
                "commit_from_others": 2 * f,
                "happy": 2 * f + 1,
                "liveness": f + 1,
            }
        elif self.protocol == BFT_SMART:
            table = {
                # pre-prepare does not count, own write does
                "write_from_others": 2 * f,
                "commit_from_others": 2 * f,
                "commit_skip": 2 * f + 1,
                "happy": 2 * f + 1,
                "liveness": f + 1,
            }
        elif self.protocol == ZYZZYVA:
            table = {
                "fast_quorum": 3 * f + 1,
                "slow_quorum_lo": 2 * f + 1,
                "slow_quorum_hi": 3 * f,
                "ack_quorum": 2 * f + 1,
            }
        else:  # SBFT
            table = {
                "collectors": c + 1,
                "fast_quorum": 3 * f + c + 1,
                "slow_quorum_lo": 2 * f + c + 1,
                "slow_quorum_hi": 3 * f + c,
                "fast_exec": f + 1,
                "slow_commit": 2 * f + c + 1,
                "slow_exec_from_others": f,
            }
        return MappingProxyType(table)


@dataclass(frozen=True)
class PhaseTrace:
    """Ordered per-phase count distributions plus path success probabilities."""

    config: ProtocolConfig
    failures: FailureParams
    phases: tuple[tuple[str, Pmf], ...]
    path_success: Mapping[str, float]
    primary_quorum_prob: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "path_success", MappingProxyType(dict(self.path_success)))

    def phase(self, name: str) -> Pmf:
        for phase_name, pmf in self.phases:
            if phase_name == name:
                return pmf
        raise KeyError(f"no phase named {name!r}")

    def phase_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.phases)

    @property
    def final(self) -> Pmf:
        return self.phases[-1][1]


def _require_protocol(config: ProtocolConfig, expected: str) -> None:
    if config.protocol != expected:
        raise DomainError(
            f"config is for {config.protocol!r}; this model requires {expected!r}"
        )


def _finalize(phases: list[tuple[str, np.ndarray]]) -> tuple[tuple[str, Pmf], ...]:
    # The chain runs on raw masses; each emitted phase becomes one Pmf
    # here, which validates it and scales out its drift.
    return tuple((name, Pmf(mass)) for name, mass in phases)


def _bernoulli(p: float) -> np.ndarray:
    return np.array([1.0 - p, p])


def pbft_crash_only(config: ProtocolConfig, p_c: float, exclude_primary: bool = False) -> PhaseTrace:
    """Three-phase crash-failure chain with reliable links.

    Pure survival accounting: N_1 draws one Bernoulli per replica, each
    later phase thins the previous survivors again.  `exclude_primary`
    switches the first phase to n-1 trials (primary assumed up); the
    default keeps all n replicas in play.
    """
    _require_protocol(config, PBFT)
    n, f = config.n, config.f
    trials = n - 1 if exclude_primary else n
    n1 = pmf_binomial(trials, 1.0 - p_c)
    n2 = crash_step(n1, p_c)
    n3 = crash_step(n2, p_c)
    return PhaseTrace(
        config=config,
        failures=FailureParams(0.0, p_c),
        phases=(("N1", n1), ("N2", n2), ("N3", n3)),
        path_success={"happy": n3.tail(2 * f + 1)},
    )


def pbft_model(config: ProtocolConfig, fp: FailureParams) -> PhaseTrace:
    """Full PBFT happy-path chain under link and crash failures.

    The primary is assumed up through its pre-prepare broadcast, so C_1
    counts the other n-1 replicas; it rejoins the chain in phase two via
    the primary-quorum event and is subject to crash draws from then on.
    """
    _require_protocol(config, PBFT)
    n = config.n
    pl, pc = fp.p_l, fp.p_c
    th = config.thresholds()
    q = 1.0 - pl
    table = binom_rows(np.arange(n + 1), q)  # row t: Binomial(t, q)
    holders = np.arange(n)  # N_1 counts the n-1 non-primary replicas

    c1 = table[n - 1, :n]
    n1 = thin(c1, pc)

    # The primary needs 2f prepares out of the y broadcasters; every other
    # holder needs 2f-1 beyond its own, so neither can succeed for y < 2f.
    primary = table_ranges(table, holders, th["primary_prepare"], n)
    p2 = table_ranges(table, np.maximum(holders - 1, 0), max(th["prepare_from_others"], 0), n)
    replicas = binom_rows(holders, p2)
    # C_2 counts the primary too: it adds one where its quorum event holds.
    c2 = np.zeros(n + 1)
    c2[:-1] = (n1 * (1.0 - primary)) @ replicas
    c2[1:] += (n1 * primary) @ replicas
    n2 = thin(c2, pc)

    # A node needs 2f commits beyond its own, impossible unless more than
    # 2f nodes are still broadcasting.
    senders = np.arange(n + 1)
    p3 = table_ranges(table, np.maximum(senders - 1, 0), th["commit_from_others"], n)
    c3 = n2 @ binom_rows(senders, p3)
    n3 = thin(c3, pc)

    phases = _finalize(
        [("C1", c1), ("N1", n1), ("C2", c2), ("N2", n2), ("C3", c3), ("N3", n3)]
    )
    final = phases[-1][1]
    return PhaseTrace(
        config=config,
        failures=fp,
        phases=phases,
        path_success={
            "happy": final.tail(th["happy"]),
            "liveness": final.tail(th["liveness"]),
        },
        primary_quorum_prob=float(n1 @ primary),
    )


def smart_model(config: ProtocolConfig, fp: FailureParams) -> PhaseTrace:
    """BFT-SMaRt happy-path chain.

    Differs from PBFT in two ways: the pre-prepare does not count toward
    the write quorum (so the primary collects like everyone else and C_2
    runs over n_1 + 1 candidates), and a node that missed the write quorum
    can still finish by collecting 2f+1 commits, which makes the commit
    phase condition jointly on (N_1, N_2).
    """
    _require_protocol(config, BFT_SMART)
    n = config.n
    pl, pc = fp.p_l, fp.p_c
    th = config.thresholds()
    q = 1.0 - pl
    counts = np.arange(n + 1)
    table = binom_rows(counts, q)  # row t: Binomial(t, q)

    c1 = table[n - 1, :n]
    n1 = thin(c1, pc)

    # y broadcast holders plus the primary all collect from y writers.
    p2 = table_ranges(table, counts[:n], th["write_from_others"], n)
    c2 = n1 @ binom_rows(counts[:n] + 1, p2)
    n2 = thin(c2, pc)

    # m commit broadcasters each finish with p_member(m); the other y+1-m
    # candidates may skip the write quorum by collecting 2f+1 full commits,
    # each with p_skip(m).  Where p_skip(m) = 0 nobody skips, so C_3 mixes
    # the member rows over N_2 alone.
    p_member = table_ranges(table, np.maximum(counts - 1, 0), th["commit_from_others"], n)
    p_skip = table_ranges(table, counts, th["commit_skip"], n)
    members = binom_rows(counts, p_member)
    live = np.flatnonzero(p_skip)
    c3 = np.where(p_skip == 0.0, n2, 0.0) @ members
    if len(live):
        # Elsewhere, given N_2 = m, the y+1-m candidates have the law of
        # column m of the joint P(N1 = y, N2 = m), and they skip at
        # p_skip(m).  Only rows y >= live[0] - 1 of the joint reach a live
        # column, and only they are built: a write row thinned by crashes
        # is Binomial(y+1, p2(y) (1 - p_c)).  Zero rows pad it past
        # y = n-1, where the gather below reads the counts a column lacks.
        lo = live[0] - 1
        width = n - lo  # candidate counts 0..n-live[0]
        joint = np.zeros((2 * width, n + 1))
        np.multiply(n1[lo:, None], binom_rows(counts[lo:n] + 1, p2[lo:] * (1.0 - pc)),
                    out=joint[:width])
        candidates = joint[np.arange(width)[:, None] + live - 1 - lo, live]
        skippers = thin_columns(candidates, p_skip[live])
        # C_3 adds the members to the skippers: one product over m gives
        # entry [s, x] for s skippers and x members, and C_3 sums it along
        # its anti-diagonals s + x (a view of the zero-padded product whose
        # rows are one entry shorter).
        mixed = np.zeros((width, n + 1 + width))
        mixed[:, : n + 1] = skippers @ members[live]
        c3 += mixed.ravel()[: width * (n + width)].reshape(width, n + width)[:, : n + 1].sum(axis=0)
    n3 = thin(c3, pc)

    phases = _finalize(
        [("C1", c1), ("N1", n1), ("C2", c2), ("N2", n2), ("C3", c3), ("N3", n3)]
    )
    final = phases[-1][1]
    return PhaseTrace(
        config=config,
        failures=fp,
        phases=phases,
        path_success={
            "happy": final.tail(th["happy"]),
            "liveness": final.tail(th["liveness"]),
        },
    )


def zyzzyva_model(config: ProtocolConfig, fp: FailureParams) -> PhaseTrace:
    """Zyzzyva client-driven fast/slow paths.

    The order-holder pool includes the primary (it ordered the request), so
    C_1 = 1 + Binomial(n-1, 1-p_l).  The client is a protocol participant:
    it takes one crash draw per phase it is active in (response collection,
    certificate broadcast, ack collection), with the same p_c as replicas.
    """
    _require_protocol(config, ZYZZYVA)
    n = config.n
    pl, pc = fp.p_l, fp.p_c
    th = config.thresholds()
    q = 1.0 - pl
    client_up = 1.0 - pc
    counts = np.arange(n + 1)
    table = binom_rows(counts, q)  # row t: Binomial(t, q)

    c1 = np.concatenate([[0.0], table[n - 1, :n]])
    n1 = thin(c1, pc)

    fast_quorum = float(n1 @ table_ranges(table, counts, th["fast_quorum"], n))
    lo, hi = th["slow_quorum_lo"], th["slow_quorum_hi"]
    slow_branch = float(n1 @ table_ranges(table, counts, lo, hi)) if lo <= hi else 0.0

    fast = client_up * fast_quorum
    c2_fast = _bernoulli(fast)
    c2_slow = _bernoulli(client_up * slow_branch)

    # Certificate broadcast: the client must also survive the send phase.
    cert = client_up * slow_branch * client_up
    c3 = cert * table[n]
    c3[0] += 1.0 - cert
    n3 = thin(c3, pc)

    ack = float(n3 @ table_ranges(table, counts, th["ack_quorum"], n))
    slow = ack * client_up
    c4 = _bernoulli(slow)

    phases = _finalize(
        [
            ("C1", c1),
            ("N1", n1),
            ("C2_fast", c2_fast),
            ("C2_slow", c2_slow),
            ("C3", c3),
            ("N3", n3),
            ("C4", c4),
        ]
    )
    return PhaseTrace(
        config=config,
        failures=fp,
        phases=phases,
        path_success={"fast": fast, "slow": slow, "combined": fast + slow},
    )


def sbft_model(config: ProtocolConfig, fp: FailureParams) -> PhaseTrace:
    """SBFT six-phase chain with c+1 collectors and fast/slow paths.

    The order-holder pool includes the primary, as for Zyzzyva.  Collector
    phases are Bernoulli counts over the c+1 collectors; rebroadcast phases
    produce shifted binomials (holders plus newly reached replicas).  The
    phase-two branches are disjoint per collector (fast quorum in
    [3f+c+1, n], slow in [2f+c+1, 3f+c]); the slow chain's fifth phase
    conditions jointly on (N_1, N_4).
    """
    _require_protocol(config, SBFT)
    n = config.n
    pl, pc = fp.p_l, fp.p_c
    th = config.thresholds()
    m = th["collectors"]
    q = 1.0 - pl
    counts = np.arange(n + 1)
    table = binom_rows(counts, q)  # row t: Binomial(t, q)

    c1 = np.concatenate([[0.0], table[n - 1, :n]])
    n1 = thin(c1, pc)

    def collectors(p_each: np.ndarray) -> np.ndarray:
        """Row y: Binomial(m, p_each[y]) collectors succeed."""
        return binom_rows(np.full(len(p_each), m), p_each)

    pf = table_ranges(table, counts, th["fast_quorum"], n)
    lo, hi = th["slow_quorum_lo"], th["slow_quorum_hi"]
    ps = table_ranges(table, counts, lo, hi) if lo <= hi else np.zeros(n + 1)
    pn = np.maximum(1.0 - pf - ps, 0.0)

    # Collector rebroadcast from j holders: they keep the certificate, and
    # each of the other n-j replicas gets it unless all j copies drop.  One
    # array of these rates serves the rebroadcast and the relay below, so
    # both use the same bits for each j.
    holders = np.arange(m + 1)
    reach = 1.0 - pl**holders
    spread = binom_rows(n - holders, reach)
    rebroadcast = np.zeros((m + 1, n + 1))
    for j in holders:
        rebroadcast[j, j:] = spread[j, : n + 1 - j]
    fast_exec = collectors(table_ranges(table, counts, th["fast_exec"], n))
    slow_commit = collectors(table_ranges(table, counts, th["slow_commit"], n))
    # A collector's own reply is free: f more from the other z-1.
    slow_exec = collectors(
        table_ranges(table, np.maximum(counts - 1, 0), th["slow_exec_from_others"], n)
    )
    slow_exec[0] = 0.0
    slow_exec[0, 0] = 1.0
    # Row k: C_3 of either chain given k collectors at C_2.
    c3_from = thinning_matrix(m, pc) @ rebroadcast

    # Fast chain: shares -> rebroadcast -> execution acks.
    c2f = n1 @ collectors(pf)
    n2f = thin(c2f, pc)
    c3f = n2f @ rebroadcast
    n3f = thin(c3f, pc)
    c4f = n3f @ fast_exec
    fast_from = thin(c3_from, pc) @ fast_exec  # row k: C_4_fast given k

    # Slow chain.  Its first stages do not depend on the order-holder count
    # y; the fifth-phase relay reaches only the y - j remaining holders, so
    # it is mixed per relay count j over the joint law of (N_1, N_4).
    start = collectors(ps)  # row y: slow-quorum collector count
    c2s = n1 @ start
    n2s = thin(c2s, pc)
    c3s = n2s @ rebroadcast
    n3s = thin(c3s, pc)
    c4s = n3s @ slow_commit
    n4s = thin(c4s, pc)
    n4_from = thin(thin(c3_from, pc) @ slow_commit, pc)  # row k: N_4_slow given k
    joint = n1[:, None] * (start @ n4_from)  # P(N1 = y, N4_slow = j)
    # Row x: P(some collector executes), P(none does), given C_5 = x.
    outcomes = np.stack([slow_exec[:, 1:].sum(axis=1), slow_exec[:, 0]], axis=1)
    exec_given = thinning_matrix(n, pc) @ outcomes
    c5 = np.zeros(n + 1)
    relay_given = np.empty((n + 1, m + 1, 2))  # [y, j, outcome]
    for j in holders:
        # Row r: r receivers.  One holder reaches at 1 - p_l, bit for bit q,
        # so the table already holds those rows.
        relay = table[:n, :n] if j == 1 else binom_rows(np.arange(n - j + 1), reach[j])
        receivers = np.maximum(counts - j, 0)
        c5[j:] += np.bincount(receivers, weights=joint[:, j], minlength=n - j + 1) @ relay
        relay_given[:, j] = (relay @ exec_given[j:])[receivers]
    n5 = thin(c5, pc)
    c6 = n5 @ slow_exec
    slow_given = np.einsum("kj,yjo->yko", n4_from, relay_given)  # [y, k, outcome]
    slow = float(n1 @ (start * slow_given[:, :, 0]).sum(axis=1))

    # Exact P(no path | y): the phase-two branches split the collectors
    # three ways (fast / slow / neither); downstream the two chains are
    # independent given those counts.
    dead = np.zeros(n + 1)
    for kf in range(m + 1):
        for ks in range(m - kf + 1):
            split = math.comb(m, kf) * math.comb(m - kf, ks) * pf**kf * ps**ks * pn ** (m - kf - ks)
            dead += split * fast_from[kf, 0] * slow_given[:, ks, 1]
    combined = 1.0 - float(n1 @ dead)

    phases = _finalize(
        [
            ("C1", c1),
            ("N1", n1),
            ("C2_fast", c2f),
            ("N2_fast", n2f),
            ("C3_fast", c3f),
            ("N3_fast", n3f),
            ("C4_fast", c4f),
            ("C2_slow", c2s),
            ("N2_slow", n2s),
            ("C3_slow", c3s),
            ("N3_slow", n3s),
            ("C4_slow", c4s),
            ("N4_slow", n4s),
            ("C5", c5),
            ("N5", n5),
            ("C6", c6),
        ]
    )
    # Path probabilities are tails summed from the small side, so rare
    # events at large n are not lost to cancellation in 1 - P(0).
    fast = dict(phases)["C4_fast"].tail(1)
    return PhaseTrace(
        config=config,
        failures=fp,
        phases=phases,
        path_success={"fast": fast, "slow": slow, "combined": combined},
    )


_MODEL_FNS = {
    PBFT: pbft_model,
    BFT_SMART: smart_model,
    ZYZZYVA: zyzzyva_model,
    SBFT: sbft_model,
}


def model_trace(config: ProtocolConfig, fp: FailureParams) -> PhaseTrace:
    """Dispatch to the analytic model matching the config's protocol."""
    return _MODEL_FNS[config.protocol](config, fp)
