"""Seeded happy-path simulator used as the Monte Carlo oracle.

Phase-stepped, no time axis: each request walks the protocol's message
pattern, dropping every point-to-point delivery independently with p_l and
drawing one crash Bernoulli per process per chain step with p_c.  A crash
drawn at step i removes the process from every later phase's sender and
receiver sets; quorum counting follows the analytic models exactly (own
messages and the pre-prepare count where the protocol says they do).

Determinism: requests are simulated in fixed-size chunks; each chunk draws
from a Philox stream keyed by blake2b(seed, chunk index), and every chunk
consumes a fixed, canonical layout of uniforms: one CHUNK x row-shape array
per step (maximal message rectangles, masked afterwards), laid end to end.
A chunk is evaluated in request blocks.  Philox is counter-based, so each
block seeks exactly to its slice of every array and draws only that slice;
blocks run on a thread pool and are joined in request order.  Results are
therefore bit-identical regardless of block size, worker count, evaluation
order, or which subset of requests is inspected.

Memory: with D draws per request (2n^2 + 3n - 2 for PBFT, 2n^2 + 4n - 2
for BFT-SMaRt, 6n + 2 for Zyzzyva, 7nm + 5n + 2m - 1 for SBFT with
m = c + 1 collectors), a block holds b requests, b the largest power of two
in [4, CHUNK] with b * D <= 2**18.  A worker's draws take 8 * b * D bytes:
at most 2 MB while D <= 2**16, and 32 * D bytes beyond (64 n^2 bytes for
PBFT), plus one byte per draw of the block's largest array for masks.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, fields
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .prob import DomainError, FailureParams, normal_quantile
from .protocols import (
    BFT_SMART,
    PBFT,
    SBFT,
    ZYZZYVA,
    PhaseTrace,
    ProtocolConfig,
    model_trace,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = [
    "CHUNK",
    "SimConfig",
    "SimRecord",
    "PhaseStat",
    "CampaignStats",
    "CheckRow",
    "ModelCheck",
    "simulate_request",
    "run_campaign",
    "compare_to_model",
    "validate_model",
]

# Requests per RNG chunk.  Part of the stream layout: changing it changes
# the draws assigned to each request.
CHUNK = 1 << 14

PATH_NAMES = ("none", "happy", "fast", "slow")

# Two-sided confidence level of every campaign interval.
CONFIDENCE = 0.99


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: protocol config, failure rates, size, seed."""

    config: ProtocolConfig
    failures: FailureParams
    requests: int
    seed: int

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise DomainError(f"requests must be >= 1, got {self.requests}")


@dataclass(frozen=True)
class SimRecord:
    """Per-request outcome: how far each replica got, where it crashed."""

    request_id: int
    highest_phase: np.ndarray  # per replica, index into phase_names
    crash_step: np.ndarray  # chain step of the removing crash draw, -1 if none
    phase_names: tuple[str, ...]
    path: str
    success_quorum: bool  # final count reached 2f+1 (or a path completed)
    success_liveness: bool  # final count reached f+1; for Zyzzyva and SBFT, success_quorum


@dataclass(frozen=True)
class PhaseStat:
    name: str
    mean: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class CampaignStats:
    """Aggregated campaign results with confidence intervals."""

    sim: SimConfig
    phase_stats: tuple[PhaseStat, ...]
    final_phase: str
    final_counts: np.ndarray  # empirical pmf of the final phase count
    success: Mapping[str, float]
    success_ci: Mapping[str, tuple[float, float]]
    interval_type: str = "normal+continuity"

    def __post_init__(self) -> None:
        object.__setattr__(self, "success", MappingProxyType(dict(self.success)))
        object.__setattr__(self, "success_ci", MappingProxyType(dict(self.success_ci)))

    def stat(self, name: str) -> PhaseStat:
        for st in self.phase_stats:
            if st.name == name:
                return st
        raise KeyError(name)


@dataclass(frozen=True)
class CheckRow:
    name: str
    predicted: float
    observed: float
    ci_lo: float
    ci_hi: float
    covered: bool


@dataclass(frozen=True)
class ModelCheck:
    """Model prediction vs campaign frequency, phase by phase."""

    sim: SimConfig
    rows: tuple[CheckRow, ...]
    coverage: float


def _chunk_key(seed: int, chunk_index: int) -> np.ndarray:
    packed = struct.pack("<QQ", seed & 0xFFFFFFFFFFFFFFFF, chunk_index)
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def _cut(p: float) -> np.uint64:
    """Integer cut on 53-bit draws: k >= _cut(p) exactly when k * 2**-53 >= p.

    Generator.random returns (x >> 11) * 2**-53 for each 64-bit Philox
    output x, and p * 2**53 is exact, so comparing the integers k = x >> 11
    with ceil(p * 2**53) decides every link and crash draw as the floats do.
    """
    return np.uint64(math.ceil(p * 2.0**53))


def _received(u: np.ndarray, senders: np.ndarray, cut: np.uint64,
              self_offset: int | None = None) -> np.ndarray:
    """Messages each receiver gets from the live senders.

    u (G, S, R) holds the link draws and senders (G, S) marks who sends;
    s -> r is delivered when u[:, s, r] >= cut.  With self_offset, sender s
    is receiver s + self_offset and its message to itself does not count.
    The count is one batched product of the sender mask with the delivery
    bytes, accumulated in the narrowest integer that cannot wrap.
    """
    g, s_count, r_count = u.shape
    delivered = u >= cut
    if self_offset is not None:
        # Flat index of (s, s + self_offset) is s * (R + 1) + self_offset.
        delivered.reshape(g, -1)[:, self_offset :: r_count + 1] = False
    weights = senders.astype(np.uint8 if s_count < 256 else np.uint16)
    return np.matmul(weights[:, None, :], delivered.view(np.uint8))[:, 0]


@dataclass(frozen=True)
class _ChunkResult:
    """Raw per-request arrays for a run of consecutive requests of one chunk:
    phase counts (final phase last), path flags, an index into PATH_NAMES,
    and with detail the per-replica highest phase and crash step."""

    values: dict[str, np.ndarray]
    success: dict[str, np.ndarray]
    path: np.ndarray
    highest: np.ndarray | None = None
    crash: np.ndarray | None = None
    phase_names: tuple[str, ...] = ()

    @property
    def final_name(self) -> str:
        return next(reversed(self.values))


def _result(values: dict[str, np.ndarray], success: dict[str, np.ndarray],
            members: dict[str, np.ndarray] | None = None,
            crashes: Sequence[tuple[np.ndarray, np.ndarray]] = ()) -> _ChunkResult:
    """One block's result.  path is the first path in PATH_NAMES order whose
    flag is set.  members maps each detail phase, in chain order, to its
    (G, n) membership mask, and crashes lists (was-member, crashed) masks in
    step order; highest is then the last phase a replica reached (0 for
    "start"), and crash the first step that removed it (-1 for none)."""
    path = np.zeros(len(next(iter(success.values()))), dtype=np.int8)
    for code in range(len(PATH_NAMES) - 1, 0, -1):
        if PATH_NAMES[code] in success:
            path[success[PATH_NAMES[code]]] = code
    if members is None:
        return _ChunkResult(values, success, path)
    highest = np.zeros(next(iter(members.values())).shape, dtype=np.int8)
    for phase, member in enumerate(members.values(), 1):
        highest = np.where(member, np.int8(phase), highest)
    crash = np.full(highest.shape, -1, dtype=np.int8)
    for step, (was_member, crashed) in enumerate(crashes, 1):
        hit = was_member & crashed & (crash < 0)
        crash = np.where(hit, np.int8(step), crash)
    return _ChunkResult(values, success, path, highest, crash, ("start", *members))


def _join(parts: list[_ChunkResult]) -> _ChunkResult:
    """Concatenate the results of consecutive blocks, in order."""
    if len(parts) == 1:
        return parts[0]
    joined = {}
    for field in fields(_ChunkResult):
        items = [getattr(part, field.name) for part in parts]
        first = items[0]
        if isinstance(first, dict):
            joined[field.name] = {k: np.concatenate([item[k] for item in items]) for k in first}
        elif isinstance(first, np.ndarray):
            joined[field.name] = np.concatenate(items)
        else:  # None, or the phase names every block shares
            joined[field.name] = first
    return _ChunkResult(**joined)


# Each protocol has a draw layout, listing the per-request shape of every
# uniform array in the order the chunk stream lays them out, and a block
# sampler that maps one block's arrays (each of shape (G, *row shape)) to
# outcomes.  Block samplers see 53-bit integer draws and the cuts
# pl = _cut(p_l) and pc = _cut(p_c): `u >= pl` is a delivered message,
# `u < pc` a crash.  A sampler computes only its protocol's events and
# returns _result(values, success), plus, with detail, its membership masks
# and crash draws; _result derives the path and per-replica arrays.
_Layout = tuple[tuple[int, ...], ...]


def _pbft_draws(cfg: ProtocolConfig) -> _Layout:
    n = cfg.n
    return ((n - 1,), (n - 1,), (n - 1, n), (n,), (n, n), (n,))


def _pbft_block(cfg: ProtocolConfig, pl: np.uint64, pc: np.uint64,
                u: list[np.ndarray], detail: bool) -> _ChunkResult:
    th = cfg.thresholds()
    u_pp, u_cr1, u_prep, u_cr2, u_com, u_cr3 = u
    g = len(u_pp)

    got_pp = u_pp >= pl  # replicas 1..n-1
    cr1 = u_cr1 < pc
    n1 = got_pp & ~cr1

    cnt = _received(u_prep, n1, pl, self_offset=1)
    c2_repl = n1 & (cnt[:, 1:] >= max(th["prepare_from_others"], 0))
    cp = cnt[:, 0] >= th["primary_prepare"]
    c2 = np.concatenate([cp[:, None], c2_repl], axis=1)
    cr2 = u_cr2 < pc
    n2 = c2 & ~cr2

    cnt3 = _received(u_com, n2, pl, self_offset=0)
    c3 = n2 & (cnt3 >= th["commit_from_others"])
    cr3 = u_cr3 < pc
    n3 = c3 & ~cr3

    n3_cnt = n3.sum(axis=1)
    values = {
        "C1": got_pp.sum(axis=1),
        "N1": n1.sum(axis=1),
        "Cp": cp.astype(np.int8),
        "C2": c2.sum(axis=1),
        "N2": n2.sum(axis=1),
        "C3": c3.sum(axis=1),
        "N3": n3_cnt,
    }
    success = {"happy": n3_cnt >= th["happy"], "liveness": n3_cnt >= th["liveness"]}
    if not detail:
        return _result(values, success)
    pad = np.zeros((g, 1), dtype=bool)
    c1 = np.concatenate([pad, got_pp], axis=1)
    # The primary holds the request and is assumed up through its
    # broadcast, so it enters the chain at the N1 stage.
    members = {"C1": c1, "N1": np.concatenate([~pad, n1], axis=1),
               "C2": c2, "N2": n2, "C3": c3, "N3": n3}
    crashes = [(c1, np.concatenate([pad, cr1], axis=1)), (c2, cr2), (c3, cr3)]
    return _result(values, success, members, crashes)


def _smart_draws(cfg: ProtocolConfig) -> _Layout:
    n = cfg.n
    return ((n - 1,), (n - 1,), (n, n), (n,), (n, n), (n,))


def _smart_block(cfg: ProtocolConfig, pl: np.uint64, pc: np.uint64,
                 u: list[np.ndarray], detail: bool) -> _ChunkResult:
    th = cfg.thresholds()
    u_pp, u_cr1, u_write, u_cr2, u_com, u_cr3 = u
    g = len(u_pp)

    got_pp = u_pp >= pl
    cr1 = u_cr1 < pc
    n1 = got_pp & ~cr1
    one = np.ones((g, 1), dtype=bool)
    pool = np.concatenate([one, n1], axis=1)  # primary plus broadcast holders

    cnt = _received(u_write, pool, pl, self_offset=0)
    c2 = pool & (cnt >= th["write_from_others"])
    cr2 = u_cr2 < pc
    n2 = c2 & ~cr2

    cnt3 = _received(u_com, n2, pl, self_offset=0)
    # Members of the write quorum need 2f more commits; everyone else in
    # the pool may still finish on a full 2f+1 commit quorum.
    c3 = (n2 & (cnt3 >= th["commit_from_others"])) | (
        pool & ~n2 & (cnt3 >= th["commit_skip"])
    )
    cr3 = u_cr3 < pc
    n3 = c3 & ~cr3

    n3_cnt = n3.sum(axis=1)
    values = {
        "C1": got_pp.sum(axis=1),
        "N1": n1.sum(axis=1),
        "C2": c2.sum(axis=1),
        "N2": n2.sum(axis=1),
        "C3": c3.sum(axis=1),
        "N3": n3_cnt,
    }
    success = {"happy": n3_cnt >= th["happy"], "liveness": n3_cnt >= th["liveness"]}
    if not detail:
        return _result(values, success)
    pad = np.zeros((g, 1), dtype=bool)
    c1 = np.concatenate([pad, got_pp], axis=1)
    members = {"C1": c1, "N1": pool, "C2": c2, "N2": n2, "C3": c3, "N3": n3}
    crashes = [(c1, np.concatenate([pad, cr1], axis=1)), (c2, cr2), (c3, cr3)]
    return _result(values, success, members, crashes)


def _zyzzyva_draws(cfg: ProtocolConfig) -> _Layout:
    n = cfg.n
    # Order, crash, response, client crashes (phases 2-4), certificate,
    # crash, ack.
    return ((n - 1,), (n,), (n,), (3,), (n,), (n,), (n,))


def _zyzzyva_block(cfg: ProtocolConfig, pl: np.uint64, pc: np.uint64,
                   u: list[np.ndarray], detail: bool) -> _ChunkResult:
    th = cfg.thresholds()
    u_pp, u_cr1, u_resp, u_client, u_cert, u_cr3, u_ack = u
    g = len(u_pp)

    one = np.ones((g, 1), dtype=bool)
    pool = np.concatenate([one, u_pp >= pl], axis=1)  # order holders incl. primary
    cr1 = u_cr1 < pc
    n1 = pool & ~cr1

    responses = n1 & (u_resp >= pl)
    k = responses.sum(axis=1)
    alive2 = u_client[:, 0] >= pc
    alive3 = u_client[:, 1] >= pc
    alive4 = u_client[:, 2] >= pc

    fast = alive2 & (k >= th["fast_quorum"])
    branch = alive2 & (k >= th["slow_quorum_lo"]) & (k <= th["slow_quorum_hi"])
    cert = branch & alive3

    got_cert = cert[:, None] & (u_cert >= pl)  # commit certificate reaches anyone
    cr3 = u_cr3 < pc
    n3 = got_cert & ~cr3
    acks = n3 & (u_ack >= pl)
    slow = cert & alive4 & (acks.sum(axis=1) >= th["ack_quorum"])

    values = {
        "C1": pool.sum(axis=1),
        "N1": n1.sum(axis=1),
        "C2_fast": fast.astype(np.int8),
        "C2_slow": branch.astype(np.int8),
        "C3": got_cert.sum(axis=1),
        "N3": n3.sum(axis=1),
        "C4": slow.astype(np.int8),
    }
    success = {"fast": fast, "slow": slow, "combined": fast | slow}
    if not detail:
        return _result(values, success)
    members = {"C1": pool, "N1": n1, "C3": got_cert, "N3": n3}
    return _result(values, success, members, [(pool, cr1), (got_cert, cr3)])


def _sbft_draws(cfg: ProtocolConfig) -> _Layout:
    n, m = cfg.n, cfg.thresholds()["collectors"]
    return ((n - 1,), (n,), (n, m), (m,), (n, m), (n,), (n, m), (n, m), (n,), (n, m),
            (m,), (n, m), (n,), (n, m))


def _sbft_block(cfg: ProtocolConfig, pl: np.uint64, pc: np.uint64,
                u: list[np.ndarray], detail: bool) -> _ChunkResult:
    n = cfg.n
    th = cfg.thresholds()
    slots = np.arange(n)[None, :]
    (u_pp, u_cr1, u_share, u_cr2, u_b3f, u_cr3f, u_a4f, u_b3s, u_cr3s, u_a4s, u_cr4s,
     u_b5, u_cr5, u_a6) = u
    g = len(u_pp)

    one = np.ones((g, 1), dtype=bool)
    pool = np.concatenate([one, u_pp >= pl], axis=1)
    cr1 = u_cr1 < pc
    n1 = pool & ~cr1
    n1_cnt = n1.sum(axis=1)

    # Phase 2: every order holder sends its signature share to each collector.
    cnt2 = _received(u_share, n1, pl)  # (g, m)
    c2f = cnt2 >= th["fast_quorum"]
    c2s = (cnt2 >= th["slow_quorum_lo"]) & (cnt2 <= th["slow_quorum_hi"])
    coll_up = u_cr2 >= pc
    n2f = c2f & coll_up
    n2s = c2s & coll_up

    def rebroadcast(holders: np.ndarray, links: np.ndarray, receiver_count: np.ndarray) -> np.ndarray:
        # holders (g, m) certificate-carrying collectors; receivers are
        # canonical slots (later phases depend only on counts).
        reached = _received(links.transpose(0, 2, 1), holders, pl) > 0  # (g, n)
        picked = reached & (slots < receiver_count[:, None])
        return holders.sum(axis=1) + picked.sum(axis=1)

    def thin(count: np.ndarray, u: np.ndarray) -> np.ndarray:
        return ((u >= pc) & (slots < count[:, None])).sum(axis=1)

    def collector_counts(sender_count: np.ndarray, links: np.ndarray) -> np.ndarray:
        return _received(links, slots < sender_count[:, None], pl)  # (g, m)

    # Fast path: rebroadcast to everyone, then f+1 execution acks.
    n2f_cnt = n2f.sum(axis=1)
    c3f_cnt = rebroadcast(n2f, u_b3f, n - n2f_cnt)
    n3f_cnt = thin(c3f_cnt, u_cr3f)
    c4f = collector_counts(n3f_cnt, u_a4f) >= th["fast_exec"]
    fast = c4f.any(axis=1)

    # Slow path: rebroadcast, 2f+c+1 commit shares, relay to the remaining
    # order holders, then f more execution acks beyond a collector's own.
    n2s_cnt = n2s.sum(axis=1)
    c3s_cnt = rebroadcast(n2s, u_b3s, n - n2s_cnt)
    n3s_cnt = thin(c3s_cnt, u_cr3s)
    c4s = collector_counts(n3s_cnt, u_a4s) >= th["slow_commit"]
    n4s = c4s & (u_cr4s >= pc)
    n4s_cnt = n4s.sum(axis=1)
    c5_cnt = rebroadcast(n4s, u_b5, np.maximum(n1_cnt - n4s_cnt, 0))
    n5_cnt = thin(c5_cnt, u_cr5)
    cnt6 = collector_counts(np.maximum(n5_cnt - 1, 0), u_a6)
    c6 = (cnt6 >= th["slow_exec_from_others"]) & (n5_cnt >= 1)[:, None]
    slow = c6.any(axis=1)

    values = {
        "C1": pool.sum(axis=1),
        "N1": n1_cnt,
        "C2_fast": c2f.sum(axis=1),
        "N2_fast": n2f_cnt,
        "C3_fast": c3f_cnt,
        "N3_fast": n3f_cnt,
        "C4_fast": c4f.sum(axis=1),
        "C2_slow": c2s.sum(axis=1),
        "N2_slow": n2s_cnt,
        "C3_slow": c3s_cnt,
        "N3_slow": n3s_cnt,
        "C4_slow": c4s.sum(axis=1),
        "N4_slow": n4s_cnt,
        "C5": c5_cnt,
        "N5": n5_cnt,
        "C6": c6.sum(axis=1),
    }
    success = {"fast": fast, "slow": slow, "combined": fast | slow}
    if not detail:
        return _result(values, success)
    # Replica-resolved states exist only for the first chain steps; the
    # collector/rebroadcast phases are tracked on canonical count slots.
    members = {"C1": pool, "N1": n1, "C3_slot": slots < c3s_cnt[:, None],
               "N5_slot": slots < n5_cnt[:, None]}
    return _result(values, success, members, [(pool, cr1)])


_Draws = Callable[[ProtocolConfig], _Layout]
_Block = Callable[[ProtocolConfig, np.uint64, np.uint64, list[np.ndarray], bool], _ChunkResult]

_SAMPLERS: dict[str, tuple[_Draws, _Block]] = {
    PBFT: (_pbft_draws, _pbft_block),
    BFT_SMART: (_smart_draws, _smart_block),
    ZYZZYVA: (_zyzzyva_draws, _zyzzyva_block),
    SBFT: (_sbft_draws, _sbft_block),
}

# Draws one block may hold, over all of its arrays.
_BLOCK_DRAWS = 1 << 18


def _block_requests(cfg: ProtocolConfig) -> int:
    """Requests per block: the largest power of two in [4, CHUNK] whose
    draws fit in _BLOCK_DRAWS.  A multiple of 4, so every block starts on a
    Philox counter boundary, and a divisor of CHUNK."""
    per_request = sum(math.prod(shape) for shape in _SAMPLERS[cfg.protocol][0](cfg))
    block = CHUNK
    while block > 4 and block * per_request > _BLOCK_DRAWS:
        block //= 2
    return block


def _pool() -> Executor:
    """This process's worker pool; a forked child builds its own, since the
    parent's worker threads do not exist in it."""
    return _process_pool(os.getpid())


@lru_cache(maxsize=1)
def _process_pool(pid: int) -> Executor:
    from concurrent.futures import ThreadPoolExecutor

    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="bftprob-sim")


def _sample(sim: SimConfig, chunk_index: int, lo: int, hi: int, detail: bool) -> _ChunkResult:
    """Requests [lo, hi) of one chunk, widened to whole blocks; lo lies on
    a block edge.

    Blocks run on the worker pool.  Each draws its slice of every array
    from that slice's exact offset in the chunk stream.
    """
    cfg = sim.config
    draws, block_sampler = _SAMPLERS[cfg.protocol]
    layout = draws(cfg)
    sizes = [math.prod(shape) for shape in layout]
    offsets = [CHUNK * sum(sizes[:i]) for i in range(len(sizes))]
    block = _block_requests(cfg)
    key = _chunk_key(sim.seed, chunk_index)
    pl, pc = _cut(sim.failures.p_l), _cut(sim.failures.p_c)

    def run(start: int) -> _ChunkResult:
        # Philox emits 4 outputs per counter step, so counter c resumes the
        # stream at output 4c; every offset here is a multiple of 4.
        bits = np.random.Philox(key=key, counter=0)
        at = 0
        u = []
        for shape, offset, size in zip(layout, offsets, sizes):
            bits.advance((offset + start * size - at) // 4)
            raw = bits.random_raw(block * size)
            raw >>= 11
            u.append(raw.reshape((block,) + shape))
            at = offset + (start + block) * size
        return block_sampler(cfg, pl, pc, u, detail)

    return _join(list(_pool().map(run, range(lo, hi, block))))


# Results are treated as read-only by all callers.  _request_block spares
# simulate_request a re-sample when it inspects several requests of one
# block.  Nothing in this package calls _run_chunk: it is kept as the
# whole-chunk entry point for tests, and its cache for the cache_clear() of
# the benchmark's tests.
@lru_cache(maxsize=2)
def _run_chunk(sim: SimConfig, chunk_index: int, detail: bool) -> _ChunkResult:
    return _sample(sim, chunk_index, 0, CHUNK, detail)


@lru_cache(maxsize=2)
def _request_block(sim: SimConfig, chunk_index: int, start: int) -> _ChunkResult:
    return _sample(sim, chunk_index, start, start + 1, detail=True)


def simulate_request(sim: SimConfig, request_index: int) -> SimRecord:
    """Deterministic outcome of one request under (seed, request_index)."""
    if not 0 <= request_index < sim.requests:
        raise DomainError(f"request index {request_index} outside 0..{sim.requests - 1}")
    chunk_index, offset = divmod(request_index, CHUNK)
    start = offset - offset % _block_requests(sim.config)
    res = _request_block(sim, chunk_index, start)
    row = offset - start
    assert res.highest is not None and res.crash is not None
    success = res.success
    quorum = bool(success["happy" if "happy" in success else "combined"][row])
    liveness = bool(success["liveness"][row]) if "liveness" in success else quorum
    return SimRecord(
        request_id=request_index,
        highest_phase=res.highest[row].copy(),
        crash_step=res.crash[row].copy(),
        phase_names=res.phase_names,
        path=PATH_NAMES[int(res.path[row])],
        success_quorum=quorum,
        success_liveness=liveness,
    )


def _interval(mean: float, sd: float, count: int, z: float) -> tuple[float, float]:
    if count <= 1:
        return (mean, mean)
    half = z * sd / np.sqrt(count) + 0.5 / count  # continuity-corrected normal
    return (mean - half, mean + half)


RecordSink = Callable[[int, _ChunkResult, int], None]


def run_campaign(sim: SimConfig, record_sink: RecordSink | None = None) -> CampaignStats:
    """Aggregate `sim.requests` independent requests into campaign stats.

    record_sink, if given, receives (start_index, chunk_result, valid_count)
    for each chunk, in chunk order; the result's arrays carry per-replica
    detail and cover at least the chunk's first valid_count requests.
    """
    detail = record_sink is not None
    requests = sim.requests
    chunks = (requests + CHUNK - 1) // CHUNK

    # Integer totals, exact below 2**53; each mean is one division.
    sums: dict[str, int] = {}
    sumsq: dict[str, int] = {}
    succ_counts: dict[str, int] = {}
    final_hist = np.zeros(2, dtype=np.int64)
    final_name = ""

    for chunk_index in range(chunks):
        valid = min(requests - chunk_index * CHUNK, CHUNK)
        res = _sample(sim, chunk_index, 0, valid, detail)
        final_name = res.final_name
        for name, arr in res.values.items():
            vals = arr[:valid].astype(np.int64, copy=False)
            sums[name] = sums.get(name, 0) + int(vals.sum())
            sumsq[name] = sumsq.get(name, 0) + int((vals * vals).sum())
        for name, arr in res.success.items():
            succ_counts[name] = succ_counts.get(name, 0) + int(arr[:valid].sum())
        counts = np.bincount(res.values[final_name][:valid], minlength=2)
        if len(counts) > len(final_hist):
            final_hist, counts = counts, final_hist
        final_hist[: len(counts)] += counts
        if record_sink is not None:
            record_sink(chunk_index * CHUNK, res, valid)

    z = normal_quantile(0.5 + CONFIDENCE / 2.0)
    stats = []
    for name, total in sums.items():
        mean = total / requests
        var = max(sumsq[name] / requests - mean * mean, 0.0)
        sd = float(np.sqrt(var * requests / max(requests - 1, 1)))
        lo, hi = _interval(mean, sd, requests, z)
        stats.append(PhaseStat(name, mean, lo, hi))

    success = {}
    success_ci = {}
    for name, count in succ_counts.items():
        p = count / requests
        sd = float(np.sqrt(p * (1.0 - p)))
        success[name] = p
        success_ci[name] = _interval(p, sd, requests, z)

    return CampaignStats(
        sim=sim,
        phase_stats=tuple(stats),
        final_phase=final_name,
        final_counts=final_hist / requests,
        success=success,
        success_ci=success_ci,
    )


def _predictions(trace: PhaseTrace) -> dict[str, float]:
    preds = {name: pmf.mean() for name, pmf in trace.phases}
    if trace.primary_quorum_prob is not None:
        preds["Cp"] = trace.primary_quorum_prob
    return preds


def compare_to_model(stats: CampaignStats, trace: PhaseTrace) -> ModelCheck:
    """Check that campaign intervals cover the analytic predictions."""
    if trace.config.protocol != stats.sim.config.protocol:
        raise DomainError(f"trace is for {trace.config.protocol!r}; the campaign "
                          f"simulated {stats.sim.config.protocol!r}")
    preds = _predictions(trace)
    rows: list[CheckRow] = []
    for st in stats.phase_stats:
        if st.name not in preds:
            continue
        predicted = preds[st.name]
        rows.append(
            CheckRow(
                name=st.name,
                predicted=predicted,
                observed=st.mean,
                ci_lo=st.ci_lo,
                ci_hi=st.ci_hi,
                covered=st.ci_lo <= predicted <= st.ci_hi,
            )
        )
    for name, observed in stats.success.items():
        if name not in trace.path_success:
            continue
        predicted = trace.path_success[name]
        lo, hi = stats.success_ci[name]
        rows.append(CheckRow(name, predicted, observed, lo, hi, lo <= predicted <= hi))
    coverage = sum(r.covered for r in rows) / len(rows)
    return ModelCheck(sim=stats.sim, rows=tuple(rows), coverage=coverage)


def validate_model(sim: SimConfig) -> ModelCheck:
    """Run a campaign and compare it against the matching analytic model."""
    stats = run_campaign(sim)
    trace = model_trace(sim.config, sim.failures)
    return compare_to_model(stats, trace)
