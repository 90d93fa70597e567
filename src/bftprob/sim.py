"""Seeded happy-path simulator used as the Monte Carlo oracle.

Phase-stepped, no time axis: each request walks the protocol's message
pattern, dropping every point-to-point delivery independently with p_l and
drawing one crash Bernoulli per process per chain step with p_c.  Crashes
follow the rule stated on `prob.FailureParams`, exceptions included;
quorum counting follows the analytic models exactly (own messages and the
pre-prepare count where the protocol says they do).

Determinism: requests are simulated in fixed-size chunks; each chunk draws
from a Philox stream keyed by blake2b(seed, chunk index), and every chunk
consumes a fixed, canonical layout of uniforms: one CHUNK x row-shape array
per step (maximal message rectangles, masked afterwards), laid end to end.
A chunk is evaluated in request blocks.  Philox is counter-based, so each
block seeks exactly to its slice of every array and draws only that slice,
and skips an array whose rate is 0 or 1, which decides alike on every draw.
Results are therefore bit-identical regardless of block size, worker count,
evaluation order, or which subset of requests is inspected.

Layout: the draw format is decided in one place, the block driver
(`_block_sampler`).  A block's draws arrive request-major, (G, *row shape)
for G requests, and the driver turns each array into an event mask as soon
as it is drawn, by one rule, u >= _cut(rate): a delivered message for a link
array, a replica still up for a crash array.  The mask is receiver-major,
(*row shape, G), with requests innermost, so a count is a sum of contiguous
rows and a message count one einsum over senders.  The samplers see only
these masks, and only the detail arrays go back to (G, n), once per block.
Where a block holds fewer requests than a phase has receivers (PBFT and
BFT-SMaRt from n = 65), the transpose costs more than the sum; summing such
link masks request-major instead is a change to the driver and `_received`
alone, since those samplers pass their message masks to `_received`
untouched.

Memory: with D draws per request (2n^2 + 3n - 2 for PBFT, 2n^2 + 4n - 2
for BFT-SMaRt, 6n + 2 for Zyzzyva, 7nm + 5n + 2m - 1 for SBFT with
m = c + 1 collectors), a block holds b requests, b the largest power of two
in [4, CHUNK] with b * D <= 2**20 draws and b * n <= 2**16 rows.  A
worker's masks take one byte per draw, b * D bytes: at most 1 MiB while
D <= 2**18, and 4 * D bytes beyond (8 n^2 bytes for PBFT).  Each array is
drawn in pieces of 2**14 values, compared straight into its mask, so its
8-byte draws are held one 128 KiB piece at a time; the mask's transpose
adds one more byte per draw of that array.  One PBFT detail block peaks
under tracemalloc at 1.76 MiB at n = 7, 1.04 MiB at n = 150 and 11.5 MiB
at n = 1000.  A campaign keeps at most two chunks of blocks outstanding:
the one it waits on and the one the pool samples ahead.  The calling thread
adds each block to the campaign's histograms as it arrives, one int64
histogram of counts 0..n per phase, phases * (n + 1) * 8 bytes (16 phases
for SBFT, about 125 KiB at n = 1000); it hands the block to the record sink
if there is one, and drops it: no chunk is ever joined.
With detail, a block's (b, n) int8 `highest` and `crash` arrays take two
bytes per replica and request, so the two chunks of them that can be
outstanding take 64 KiB per replica, about 63 MiB at n = 1000.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import struct
from collections import deque
from dataclasses import dataclass
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
    from concurrent.futures import Executor, Future

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


def _integer(name: str, value: object) -> int:
    """value as an int; a bool or a non-integer raises DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: protocol config, failure rates, size, and a
    seed in [0, 2**64).  requests and seed take any integer but a bool, and
    are stored as int."""

    config: ProtocolConfig
    failures: FailureParams
    requests: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("requests", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.requests < 1:
            raise DomainError(f"requests must be >= 1, got {self.requests}")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class SimRecord:
    """Per-request outcome: how far each replica got, where it crashed."""

    request_id: int
    highest_phase: np.ndarray  # per replica, index into phase_names
    # per replica, 1-based position of the removing draw in the protocol's
    # list of replica crash draws (Zyzzyva's 2 is N3), -1 if none
    crash_step: np.ndarray
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
    # empirical pmf of the final phase count, over counts 0 up to the
    # largest one seen, and at least 0..1
    final_counts: np.ndarray
    success: Mapping[str, float]
    success_ci: Mapping[str, tuple[float, float]]

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
    packed = struct.pack("<QQ", seed, chunk_index)
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def _cut(p: float) -> np.uint64:
    """Integer cut on 53-bit draws: k >= _cut(p) exactly when k * 2**-53 >= p.

    Generator.random returns (x >> 11) * 2**-53 for each 64-bit Philox
    output x, and p * 2**53 is exact, so comparing the integers k = x >> 11
    with ceil(p * 2**53) decides every link and crash draw as the floats do.
    The block driver compares the raw outputs x with _cut(p) << 11 instead,
    which decides alike: for an integer c < 2**53, x >> 11 >= c exactly when
    x >= c << 11.
    """
    return np.uint64(math.ceil(p * 2.0**53))


def _counter(k: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned type that holds a count of k flags."""
    return np.uint8 if k < 256 else np.uint16


def _count(mask: np.ndarray) -> np.ndarray:
    """Set flags per request of a receiver-major (k, G) mask."""
    return mask.view(np.uint8).sum(axis=0, dtype=_counter(len(mask)))


def _received(delivered: np.ndarray, senders: np.ndarray,
              self_offset: int | None = None) -> np.ndarray:
    """Messages each receiver gets from the live senders, as (R, G) counts.

    delivered (S, R, G) marks each delivered link s -> r and senders (S, G)
    who sends.  With self_offset, sender s is receiver s + self_offset and
    its message to itself does not count.  One einsum sums over senders, in
    the narrowest integer that cannot wrap.
    """
    counts = np.einsum("sg,srg->rg", senders.view(np.uint8), delivered.view(np.uint8),
                       dtype=_counter(len(senders)))
    if self_offset is not None:
        s = np.arange(len(senders))
        counts[s + self_offset] -= senders & delivered[s, s + self_offset]
    return counts


@dataclass(frozen=True)
class _BlockResult:
    """Raw per-request arrays for one block of consecutive requests: phase
    counts (final phase last; uint8, or uint16 where a count sums 256 flags
    or more), path flags, an index into PATH_NAMES, and with detail the
    per-replica highest phase and crash step, (requests, n) int8."""

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
            members: dict[str, np.ndarray], crashes: Sequence[tuple[np.ndarray, np.ndarray]],
            detail: bool) -> _BlockResult:
    """One block's result.  path is the first path in PATH_NAMES order whose
    flag is set.  With detail, members maps each detail phase, in chain
    order, to its receiver-major (n, G) membership mask, and crashes lists
    (was-member, up) masks in step order; highest is then the last phase a
    replica reached (0 for "start"), and crash the first step that removed
    it (-1 for none).  Both are built (n, G) and returned request-major,
    (G, n)."""
    path = np.zeros(len(next(iter(success.values()))), dtype=np.int8)
    for code in range(len(PATH_NAMES) - 1, 0, -1):
        if PATH_NAMES[code] in success:
            path[success[PATH_NAMES[code]]] = code
    if not detail:
        return _BlockResult(values, success, path)
    # Phases and steps count up, so the last phase reached is the largest
    # member phase, and a first hit lifts a crash from -1 to its step.
    # Plain arithmetic on 0/1 bytes: masked writes cost ten times as much.
    highest = np.zeros(next(iter(members.values())).shape, dtype=np.int8)
    for phase, member in enumerate(members.values(), 1):
        np.maximum(highest, member.view(np.int8) * np.int8(phase), out=highest)
    crash = np.full(highest.shape, -1, dtype=np.int8)
    for step, (was_member, up) in enumerate(crashes, 1):
        hit = was_member & ~up & (crash < 0)
        crash += hit.view(np.int8) * np.int8(step + 1)
    return _BlockResult(values, success, path, highest.T.copy(), crash.T.copy(),
                        ("start", *members))


# Each protocol has a draw layout, listing every uniform array in the order
# the chunk stream lays them out, each as its kind (LINK or CRASH) and
# per-request shape, and a block sampler that states the protocol's message
# pattern on one block's events.  The driver (_block_sampler) hands it one
# receiver-major bool mask per array, (*row shape, G): True is a delivered
# message for a LINK array and a replica still up for a CRASH array.  Every
# mask after that stays receiver-major, (replica, G), so counts sum over
# contiguous rows.  A sampler returns (values, success, members, crashes):
# its phase counts and path flags, and its membership masks and (was-member,
# up) crash steps, from which _result derives the path and, with detail,
# the per-replica arrays.
LINK, CRASH = "link", "crash"
_Layout = tuple[tuple[str, tuple[int, ...]], ...]
_Events = tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict[str, np.ndarray],
                list[tuple[np.ndarray, np.ndarray]]]


def _pbft_draws(cfg: ProtocolConfig) -> _Layout:
    n = cfg.n
    return ((LINK, (n - 1,)), (CRASH, (n - 1,)), (LINK, (n - 1, n)), (CRASH, (n,)),
            (LINK, (n, n)), (CRASH, (n,)))


def _pbft_block(cfg: ProtocolConfig, events: list[np.ndarray]) -> _Events:
    th = cfg.thresholds()
    got_pp, up1, prep, up2, com, up3 = events  # got_pp, up1: replicas 1..n-1
    one = np.ones((1, got_pp.shape[-1]), dtype=bool)

    n1 = got_pp & up1
    cnt = _received(prep, n1, self_offset=1)
    c2_repl = n1 & (cnt[1:] >= max(th["prepare_from_others"], 0))
    cp = cnt[0] >= th["primary_prepare"]
    c2 = np.concatenate([cp[None], c2_repl])
    n2 = c2 & up2

    cnt3 = _received(com, n2, self_offset=0)
    c3 = n2 & (cnt3 >= th["commit_from_others"])
    n3 = c3 & up3

    n3_cnt = _count(n3)
    values = {
        "C1": _count(got_pp),
        "N1": _count(n1),
        "Cp": cp.view(np.uint8),
        "C2": _count(c2),
        "N2": _count(n2),
        "C3": _count(c3),
        "N3": n3_cnt,
    }
    success = {"happy": n3_cnt >= th["happy"], "liveness": n3_cnt >= th["liveness"]}
    c1 = np.concatenate([~one, got_pp])
    # The primary holds the request and is assumed up through its
    # broadcast, so it enters the chain at the N1 stage.
    members = {"C1": c1, "N1": np.concatenate([one, n1]),
               "C2": c2, "N2": n2, "C3": c3, "N3": n3}
    crashes = [(c1, np.concatenate([one, up1])), (c2, up2), (c3, up3)]
    return values, success, members, crashes


def _smart_draws(cfg: ProtocolConfig) -> _Layout:
    n = cfg.n
    return ((LINK, (n - 1,)), (CRASH, (n - 1,)), (LINK, (n, n)), (CRASH, (n,)),
            (LINK, (n, n)), (CRASH, (n,)))


def _smart_block(cfg: ProtocolConfig, events: list[np.ndarray]) -> _Events:
    th = cfg.thresholds()
    got_pp, up1, write, up2, com, up3 = events
    one = np.ones((1, got_pp.shape[-1]), dtype=bool)

    n1 = got_pp & up1
    pool = np.concatenate([one, n1])  # primary plus broadcast holders
    cnt = _received(write, pool, self_offset=0)
    c2 = pool & (cnt >= th["write_from_others"])
    n2 = c2 & up2

    cnt3 = _received(com, n2, self_offset=0)
    # Members of the write quorum need 2f more commits; everyone else in
    # the pool may still finish on a full 2f+1 commit quorum.
    c3 = (n2 & (cnt3 >= th["commit_from_others"])) | (
        pool & ~n2 & (cnt3 >= th["commit_skip"])
    )
    n3 = c3 & up3

    n3_cnt = _count(n3)
    values = {
        "C1": _count(got_pp),
        "N1": _count(n1),
        "C2": _count(c2),
        "N2": _count(n2),
        "C3": _count(c3),
        "N3": n3_cnt,
    }
    success = {"happy": n3_cnt >= th["happy"], "liveness": n3_cnt >= th["liveness"]}
    c1 = np.concatenate([~one, got_pp])
    members = {"C1": c1, "N1": pool, "C2": c2, "N2": n2, "C3": c3, "N3": n3}
    crashes = [(c1, np.concatenate([one, up1])), (c2, up2), (c3, up3)]
    return values, success, members, crashes


def _zyzzyva_draws(cfg: ProtocolConfig) -> _Layout:
    n = cfg.n
    # Order, crash, response, client crashes (phases 2-4), certificate,
    # crash, ack.
    return ((LINK, (n - 1,)), (CRASH, (n,)), (LINK, (n,)), (CRASH, (3,)), (LINK, (n,)),
            (CRASH, (n,)), (LINK, (n,)))


def _zyzzyva_block(cfg: ProtocolConfig, events: list[np.ndarray]) -> _Events:
    th = cfg.thresholds()
    got_order, up1, response, client_up, cert_link, up3, ack = events
    one = np.ones((1, got_order.shape[-1]), dtype=bool)

    pool = np.concatenate([one, got_order])  # order holders incl. primary
    n1 = pool & up1

    responses = n1 & response
    k = _count(responses)
    alive2, alive3, alive4 = client_up

    fast = alive2 & (k >= th["fast_quorum"])
    branch = alive2 & (k >= th["slow_quorum_lo"]) & (k <= th["slow_quorum_hi"])
    cert = branch & alive3

    got_cert = cert & cert_link  # commit certificate reaches anyone
    n3 = got_cert & up3
    acks = n3 & ack
    slow = cert & alive4 & (_count(acks) >= th["ack_quorum"])

    values = {
        "C1": _count(pool),
        "N1": _count(n1),
        "C2_fast": fast.view(np.uint8),
        "C2_slow": branch.view(np.uint8),
        "C3": _count(got_cert),
        "N3": _count(n3),
        "C4": slow.view(np.uint8),
    }
    success = {"fast": fast, "slow": slow, "combined": fast | slow}
    members = {"C1": pool, "N1": n1, "C3": got_cert, "N3": n3}
    return values, success, members, [(pool, up1), (got_cert, up3)]


def _sbft_draws(cfg: ProtocolConfig) -> _Layout:
    n, m = cfg.n, cfg.thresholds()["collectors"]
    return ((LINK, (n - 1,)), (CRASH, (n,)), (LINK, (n, m)), (CRASH, (m,)), (LINK, (n, m)),
            (CRASH, (n,)), (LINK, (n, m)), (LINK, (n, m)), (CRASH, (n,)), (LINK, (n, m)),
            (CRASH, (m,)), (LINK, (n, m)), (CRASH, (n,)), (LINK, (n, m)))


def _sbft_block(cfg: ProtocolConfig, events: list[np.ndarray]) -> _Events:
    n = cfg.n
    th = cfg.thresholds()
    slots = np.arange(n)[:, None]
    (got_order, up1, share, coll_up, b3f, up3f, a4f, b3s, up3s, a4s, up4s,
     b5, up5, a6) = events
    one = np.ones((1, got_order.shape[-1]), dtype=bool)

    pool = np.concatenate([one, got_order])
    n1 = pool & up1
    n1_cnt = _count(n1)

    # Phase 2: every order holder sends its signature share to each collector.
    cnt2 = _received(share, n1)  # (m, g)
    c2f = cnt2 >= th["fast_quorum"]
    c2s = (cnt2 >= th["slow_quorum_lo"]) & (cnt2 <= th["slow_quorum_hi"])
    n2f = c2f & coll_up
    n2s = c2s & coll_up

    def rebroadcast(holders: np.ndarray, links: np.ndarray, receiver_count: np.ndarray) -> np.ndarray:
        # holders (m, g) certificate-carrying collectors send along links
        # (n, m, g); receivers are canonical slots (later phases depend
        # only on counts).
        reached = _received(links.transpose(1, 0, 2), holders) > 0  # (n, g)
        picked = reached & (slots < receiver_count)
        return _count(holders) + _count(picked)

    def thin(count: np.ndarray, up: np.ndarray) -> np.ndarray:
        return _count(up & (slots < count))

    def collector_counts(sender_count: np.ndarray, links: np.ndarray) -> np.ndarray:
        return _received(links, slots < sender_count)  # (m, g)

    # Fast path: rebroadcast to everyone, then f+1 execution acks.  Unsigned
    # counts are widened before a difference: n may not fit a collector
    # count's uint8, and a difference may go negative.
    n2f_cnt = _count(n2f)
    c3f_cnt = rebroadcast(n2f, b3f, n - n2f_cnt.astype(np.int32))
    n3f_cnt = thin(c3f_cnt, up3f)
    c4f = collector_counts(n3f_cnt, a4f) >= th["fast_exec"]
    fast = c4f.any(axis=0)

    # Slow path: rebroadcast, 2f+c+1 commit shares, relay to the remaining
    # order holders, then f more execution acks beyond a collector's own.
    n2s_cnt = _count(n2s)
    c3s_cnt = rebroadcast(n2s, b3s, n - n2s_cnt.astype(np.int32))
    n3s_cnt = thin(c3s_cnt, up3s)
    c4s = collector_counts(n3s_cnt, a4s) >= th["slow_commit"]
    n4s = c4s & up4s
    n4s_cnt = _count(n4s)
    c5_cnt = rebroadcast(n4s, b5, np.maximum(n1_cnt.astype(np.int32) - n4s_cnt, 0))
    n5_cnt = thin(c5_cnt, up5)
    cnt6 = collector_counts(np.maximum(n5_cnt.astype(np.int32) - 1, 0), a6)
    c6 = (cnt6 >= th["slow_exec_from_others"]) & (n5_cnt >= 1)
    slow = c6.any(axis=0)

    values = {
        "C1": _count(pool),
        "N1": n1_cnt,
        "C2_fast": _count(c2f),
        "N2_fast": n2f_cnt,
        "C3_fast": c3f_cnt,
        "N3_fast": n3f_cnt,
        "C4_fast": _count(c4f),
        "C2_slow": _count(c2s),
        "N2_slow": n2s_cnt,
        "C3_slow": c3s_cnt,
        "N3_slow": n3s_cnt,
        "C4_slow": _count(c4s),
        "N4_slow": n4s_cnt,
        "C5": c5_cnt,
        "N5": n5_cnt,
        "C6": _count(c6),
    }
    success = {"fast": fast, "slow": slow, "combined": fast | slow}
    # Replica-resolved states exist only for the first chain steps; the
    # collector/rebroadcast phases are tracked on canonical count slots.
    members = {"C1": pool, "N1": n1, "C3_slot": slots < c3s_cnt, "N5_slot": slots < n5_cnt}
    return values, success, members, [(pool, up1)]


_Draws = Callable[[ProtocolConfig], _Layout]
_Block = Callable[[ProtocolConfig, list[np.ndarray]], _Events]

_SAMPLERS: dict[str, tuple[_Draws, _Block]] = {
    PBFT: (_pbft_draws, _pbft_block),
    BFT_SMART: (_smart_draws, _smart_block),
    ZYZZYVA: (_zyzzyva_draws, _zyzzyva_block),
    SBFT: (_sbft_draws, _sbft_block),
}

# Draws one block covers, over all of its arrays; (request, replica) rows
# one block holds; and draws taken from the stream in one call.
_BLOCK_DRAWS = 1 << 20
_BLOCK_ROWS = 1 << 16
_PIECE = 1 << 14


def _block_requests(cfg: ProtocolConfig) -> int:
    """Requests per block: the largest power of two in [4, CHUNK] whose
    draws fit in _BLOCK_DRAWS and whose rows, requests times n, fit in
    _BLOCK_ROWS, which bounds what the record sink formats in one call.  A
    multiple of 4, so every block starts on a Philox counter boundary, and
    a divisor of CHUNK.  Pieces of _PIECE draws keep the bigger blocks'
    8-byte draws small."""
    per_request = sum(math.prod(shape) for _, shape in _SAMPLERS[cfg.protocol][0](cfg))
    block = CHUNK
    while block > 4 and (block * per_request > _BLOCK_DRAWS or block * cfg.n > _BLOCK_ROWS):
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


def _block_sampler(sim: SimConfig, chunk_index: int,
                   detail: bool) -> tuple[int, Callable[[int], _BlockResult]]:
    """The block size, and a function that samples the block of one chunk
    starting at a given request.

    Each block draws its slice of every array from that slice's exact
    offset in the chunk stream, in pieces of _PIECE values, and turns it
    into a receiver-major event mask, (*row shape, G), as it is drawn:
    u >= _cut(rate), compared on the raw outputs as x >= _cut(rate) << 11.
    An array whose rate is 0 or 1 is not drawn, since every draw would
    decide alike: its mask is constant, True where the rate is 0.
    """
    cfg = sim.config
    draws, block_sampler = _SAMPLERS[cfg.protocol]
    layout = draws(cfg)
    sizes = [math.prod(shape) for _, shape in layout]
    offsets = [CHUNK * sum(sizes[:i]) for i in range(len(sizes))]
    block = _block_requests(cfg)
    key = _chunk_key(sim.seed, chunk_index)
    rates = {LINK: sim.failures.p_l, CRASH: sim.failures.p_c}

    def run(start: int) -> _BlockResult:
        # Philox emits 4 outputs per counter step, so counter c resumes the
        # stream at output 4c; every offset here is a multiple of 4.
        bits = np.random.Philox(key=key, counter=0)
        at = 0
        events = []
        for (kind, shape), offset, size in zip(layout, offsets, sizes):
            rate = rates[kind]
            if rate in (0.0, 1.0):
                events.append(np.full((*shape, block), rate == 0.0))
                continue
            bits.advance((offset + start * size - at) // 4)
            at = offset + (start + block) * size
            # The stream runs on from piece to piece, so 8-byte draws are
            # held one piece at a time.
            cut, mask = _cut(rate) << np.uint64(11), np.empty(block * size, dtype=bool)
            for i in range(0, len(mask), _PIECE):
                piece = mask[i:i + _PIECE]
                np.greater_equal(bits.random_raw(len(piece)), cut, out=piece)
            events.append(mask.reshape(block, size).T.copy().reshape(*shape, block))
        return _result(*block_sampler(cfg, events), detail)

    return block, run


def _sample(sim: SimConfig, chunk_index: int, hi: int, detail: bool) -> tuple[_BlockResult, ...]:
    """The blocks of requests [0, hi) of one chunk, in order, widened to
    whole blocks.  Blocks run on the worker pool."""
    block, run = _block_sampler(sim, chunk_index, detail)
    return tuple(_pool().map(run, range(0, hi, block)))


# Results are treated as read-only by all callers.  _request_block spares
# simulate_request a re-sample when it inspects several requests of one
# block.  Nothing in this package calls _run_chunk: it is kept as the
# whole-chunk entry point for tests, and its cache for the cache_clear() of
# the benchmark's tests.
@lru_cache(maxsize=2)
def _run_chunk(sim: SimConfig, chunk_index: int, detail: bool) -> tuple[_BlockResult, ...]:
    return _sample(sim, chunk_index, CHUNK, detail)


@lru_cache(maxsize=2)
def _request_block(sim: SimConfig, chunk_index: int, start: int) -> _BlockResult:
    return _block_sampler(sim, chunk_index, True)[1](start)


def simulate_request(sim: SimConfig, request_index: int) -> SimRecord:
    """Deterministic outcome of one request under (seed, request_index).
    request_index takes any integer but a bool, and is stored as int."""
    request_index = _integer("request_index", request_index)
    if not 0 <= request_index < sim.requests:
        raise DomainError(f"request_index {request_index} outside 0..{sim.requests - 1}")
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


RecordSink = Callable[[int, _BlockResult, int], None]


def run_campaign(sim: SimConfig, record_sink: RecordSink | None = None) -> CampaignStats:
    """Aggregate `sim.requests` independent requests into campaign stats.

    Blocks run on the worker pool, which is kept one chunk ahead: the blocks
    of chunk k + 1 are submitted before the campaign waits on chunk k, so at
    most two chunks of blocks are outstanding.  The calling thread adds each
    block, in request order, while the pool samples, to one int64 histogram
    of counts 0..n per phase.  Each mean and sample variance comes from the
    exact integer moments of its histogram, and final_counts is the final
    phase's histogram over counts 0 up to the largest one seen, and at
    least 0..1.

    record_sink, if given, receives (start, block, valid) for each block as
    it arrives, in request order, on the calling thread while the pool
    samples: start is the index of the block's first request, and valid the
    number of its rows, from the first, that lie inside the campaign.  The
    block carries per-replica detail.  If the sink or a block raises, the
    blocks not yet started are cancelled and the error propagates.
    """
    detail = record_sink is not None
    requests = sim.requests
    size = sim.config.n + 1
    chunks = (requests + CHUNK - 1) // CHUNK
    pool = _pool()

    # Every count lies in 0..n; the histograms keep the phases' order, so
    # the final phase's comes last.
    hists: dict[str, np.ndarray] = {}
    succ_counts: dict[str, int] = {}

    def add(res: _BlockResult, valid: int) -> None:
        """Add the first `valid` requests of a block's result."""
        for name, arr in res.values.items():
            hist = hists.setdefault(name, np.zeros(size, dtype=np.int64))
            hist += np.bincount(arr[:valid], minlength=size)
        for name, arr in res.success.items():
            succ_counts[name] = succ_counts.get(name, 0) + int(arr[:valid].sum())

    def submit(chunk_index: int) -> deque[Future[_BlockResult]]:
        block, run = _block_sampler(sim, chunk_index, detail)
        valid = min(requests - chunk_index * CHUNK, CHUNK)
        return deque(pool.submit(run, start) for start in range(0, valid, block))

    current: deque[Future[_BlockResult]] = deque()
    ahead = submit(0)
    try:
        for chunk_index in range(chunks):
            current, ahead = ahead, submit(chunk_index + 1) if chunk_index + 1 < chunks else deque()
            start = chunk_index * CHUNK
            while current:
                # A future holds its result, so each is dropped once added.
                res = current.popleft().result()
                valid = min(requests - start, len(res.path))
                add(res, valid)
                if record_sink is not None:
                    record_sink(start, res, valid)
                start += len(res.path)
    finally:
        for future in (*current, *ahead):
            future.cancel()

    z = normal_quantile(0.5 + CONFIDENCE / 2.0)
    counts = np.arange(size, dtype=np.int64)
    stats = []
    for name, hist in hists.items():
        # The exact integer sum and sum of squares; each mean is one division.
        mean = int(hist @ counts) / requests
        var = max(int(hist @ counts**2) / requests - mean * mean, 0.0)
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

    final_name, final = next(reversed(hists.items()))
    seen = max(int(np.flatnonzero(final)[-1]) + 1, 2)
    return CampaignStats(
        sim=sim,
        phase_stats=tuple(stats),
        final_phase=final_name,
        final_counts=final[:seen] / requests,
        success=success,
        success_ci=success_ci,
    )


def compare_to_model(stats: CampaignStats, trace: PhaseTrace) -> ModelCheck:
    """Check that campaign intervals cover the analytic predictions: a row
    for each phase mean, then for each path success, that the model names.
    Phase and path names are disjoint, so one map holds every prediction."""
    if trace.config.protocol != stats.sim.config.protocol:
        raise DomainError(f"trace is for {trace.config.protocol!r}; the campaign "
                          f"simulated {stats.sim.config.protocol!r}")
    predicted = {name: pmf.mean() for name, pmf in trace.phases}
    if trace.primary_quorum_prob is not None:
        predicted["Cp"] = trace.primary_quorum_prob
    predicted.update(trace.path_success)
    observed = [(st.name, st.mean, st.ci_lo, st.ci_hi) for st in stats.phase_stats]
    observed += [(name, p, *stats.success_ci[name]) for name, p in stats.success.items()]
    rows = [CheckRow(name, predicted[name], mean, lo, hi, lo <= predicted[name] <= hi)
            for name, mean, lo, hi in observed if name in predicted]
    coverage = sum(r.covered for r in rows) / len(rows)
    return ModelCheck(sim=stats.sim, rows=tuple(rows), coverage=coverage)


def validate_model(sim: SimConfig) -> ModelCheck:
    """Run a campaign and compare it against the matching analytic model."""
    stats = run_campaign(sim)
    trace = model_trace(sim.config, sim.failures)
    return compare_to_model(stats, trace)
