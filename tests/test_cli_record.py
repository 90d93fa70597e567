"""`simulate --record` bytes against the per-row reference formatter.

The log's bytes are compared with `oracles.record_writer_reference` over
real block results of every protocol, request ids that gain a digit at a
chunk edge, at a block edge and inside a block, partial last chunks and the
all-crash and all-loss corners.  The manifest hash and the largest block
anywhere in the domain are checked for bounded memory.
"""

import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from oracles import record_writer_reference

import bftprob.cli as cli
from bftprob import FailureParams, ProtocolConfig
from bftprob import sim as sim_module
from bftprob.cli import main
from bftprob.protocols import PROTOCOLS, SBFT
from bftprob.sim import CHUNK, SimConfig, _BlockResult, _block_requests, run_campaign

# 64 requests per BFT-SMaRt n=13 block.
SMALL_BLOCK_DRAWS = 1 << 15


def _blocks(protocol, n, f, c, p_l, p_c, requests, seed=7):
    """(start, result, valid) of every block a campaign hands its record sink."""
    calls = []
    sim = SimConfig(ProtocolConfig(protocol, n, f, c), FailureParams(p_l, p_c), requests, seed)
    run_campaign(sim, record_sink=lambda start, res, valid: calls.append((start, res, valid)))
    return calls


def _assert_same_bytes(calls):
    new, ref = io.BytesIO(), io.StringIO()
    sink, ref_sink = cli._record_writer(new), record_writer_reference(ref)
    for call in calls:
        sink(*call)
        ref_sink(*call)
    assert ref.getvalue()
    assert new.getvalue() == ref.getvalue().encode()


@pytest.mark.parametrize("protocol, n, f, c", [
    ("pbft", 4, 1, 0), ("bft-smart", 7, 2, 0), ("zyzzyva", 4, 1, 0),
    ("sbft", 6, 1, 1), ("sbft", 8, 1, 2),
    ("pbft", 13, 4, 0), ("bft-smart", 11, 3, 0),  # two-digit replica ids
])
def test_every_protocol_matches_reference(protocol, n, f, c):
    _assert_same_bytes(_blocks(protocol, n, f, c, 0.15, 0.1, 3000))


@pytest.mark.parametrize("protocol, n, f, c", [
    ("pbft", 4, 1, 0), ("bft-smart", 4, 1, 0), ("zyzzyva", 4, 1, 0), ("sbft", 6, 1, 1),
])
@pytest.mark.parametrize("p_l, p_c", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
def test_certain_failures_match_reference(protocol, n, f, c, p_l, p_c):
    calls = _blocks(protocol, n, f, c, p_l, p_c, 500)
    if p_c == 1.0 and p_l == 0.0:
        # Every replica that draws a crash coin crashes at its first draw.
        assert (calls[0][1].crash[:500] >= 0).any()
    _assert_same_bytes(calls)


def test_campaign_past_100000_matches_reference():
    # Ids cross 9,999 -> 10,000 inside chunk 0 and 99,999 -> 100,000 inside
    # chunk 6, whose 1,701 valid requests make a partial last chunk.  The
    # sink is called once per block, in request order.
    calls = _blocks("pbft", 4, 1, 0, 0.1, 0.05, 100_005)
    block = _block_requests(ProtocolConfig("pbft", 4, 1))
    starts = [start for chunk in range(0, 100_005, CHUNK)
              for start in range(chunk, min(chunk + CHUNK, 100_005), block)]
    assert [start for start, _, _ in calls] == starts and len(calls) == 25
    assert all(len(res.path) == block for _, res, _ in calls)
    assert [valid for _, _, valid in calls] == [block] * 24 + [100_005 - 6 * CHUNK]
    _assert_same_bytes(calls)


def _shifted(calls, offset):
    return [(start + offset, res, valid) for start, res, valid in calls]


@pytest.mark.parametrize("edge", [10_000, 100_000])
def test_digit_change_at_chunk_edge(monkeypatch, edge):
    # The blocks on either side of the chunk edge, with ids shifted so that
    # they gain a digit where chunk 1's first block begins.
    monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
    calls = [call for call in _blocks("bft-smart", 13, 4, 0, 0.1, 0.05, CHUNK + 900)
             if CHUNK - 128 <= call[0] < CHUNK + 128]
    assert [start for start, _, _ in calls] == list(range(CHUNK - 128, CHUNK + 128, 64))
    _assert_same_bytes(_shifted(calls, edge - CHUNK))


@pytest.mark.parametrize("edge", [10_000, 100_000])
def test_digit_change_at_block_edge(monkeypatch, edge):
    # Ids gain a digit where one sink call ends and the next begins, inside
    # a chunk; the last block is partial.
    monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
    calls = _blocks("bft-smart", 13, 4, 0, 0.1, 0.05, 200)
    assert [(start, valid) for start, _, valid in calls] == [(0, 64), (64, 64), (128, 64), (192, 8)]
    _assert_same_bytes(_shifted(calls, edge - 64))


@pytest.mark.parametrize("edge", [10_000, 100_000])
def test_digit_change_inside_block(edge):
    (_, res, valid), = _blocks("pbft", 13, 4, 0, 0.1, 0.05, 500)
    assert len(res.path) > valid == 500
    _assert_same_bytes([(edge - 3 * 64, res, valid)])


def test_simulate_writes_reference_log(tmp_path):
    log = tmp_path / "log.csv"
    args = ["--protocol", "sbft", "-n", "8", "-f", "1", "-c", "2", "--pl", "0.1",
            "--pc", "0.05", "--requests", "2000", "--seed", "4"]
    assert main(["simulate", *args, "--record", str(log)]) == 0
    ref = io.StringIO()
    ref.write("request_id,replica,phase_reached,crash_phase,path\n")
    sink = record_writer_reference(ref)
    for call in _blocks("sbft", 8, 1, 2, 0.1, 0.05, 2000, seed=4):
        sink(*call)
    assert log.read_bytes() == ref.getvalue().encode()


def _domain():
    """Every configuration from 4 to 1,000 replicas; SBFT at n = 3f+2c+1
    with c <= 8."""
    for n in range(4, 1001):
        for protocol in PROTOCOLS:
            if protocol != SBFT:
                yield ProtocolConfig(protocol, n, (n - 1) // 3)
        for c in range(9):
            if (n - 1 - 2 * c) % 3 == 0 and n - 1 - 2 * c >= 0:
                yield ProtocolConfig(SBFT, n, (n - 1 - 2 * c) // 3, c)


def test_block_rows_bounded():
    # The record sink formats one block per call, so its buffers follow
    # the rows of the largest block: Zyzzyva's 64 requests at n = 682.
    rows = {cfg: _block_requests(cfg) * cfg.n for cfg in _domain()}
    assert max(rows.values()) == 43_648 <= 2**16
    assert rows[ProtocolConfig("zyzzyva", 682, 227)] == 43_648


def test_largest_block_memory_bounded():
    # A synthetic block of 43,648 rows at the widest row format: SBFT's
    # phase names, 64 requests of 12-digit ids that gain a digit inside the
    # block, and 682 replicas.  The sink only reads these three arrays.
    rng = np.random.default_rng(0)
    requests, n = 64, 682
    names = ("start", "C1", "N1", "C3_slot", "N5_slot")
    res = _BlockResult({}, {}, rng.integers(0, 4, requests).astype(np.int8),
                       rng.integers(0, len(names), (requests, n)).astype(np.int8),
                       rng.choice([-1, 1], (requests, n)).astype(np.int8), names)
    bound = 16 << 20
    with open(os.devnull, "wb") as log:
        sink = cli._record_writer(log)
        tracemalloc.start()
        try:
            sink(10**12 - 32, res, requests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB"


def test_manifest_hash_streamed(tmp_path):
    path = tmp_path / "big.csv"
    payload = os.urandom(5 << 20)
    path.write_bytes(payload)
    tracemalloc.start()
    try:
        cli._write_manifest(str(path), "simulate-record", {"seed": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    manifest = json.loads((tmp_path / "big.csv.manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(payload).hexdigest()
    assert peak < 3 << 20  # a 1 MiB block, not the 5 MiB file
