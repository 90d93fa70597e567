"""`simulate --record` bytes against the per-row reference formatter.

The log's bytes are compared with `oracles.record_writer_reference` over
real chunk results of every protocol, request ids that gain a digit inside a
chunk, at a chunk edge and at a slice edge, partial last chunks and the
all-crash and all-loss corners.  The manifest hash and one full chunk at
n=100 are checked for bounded memory.
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
from bftprob.cli import main
from bftprob.sim import CHUNK, SimConfig, _ChunkResult, run_campaign


def _chunks(protocol, n, f, c, p_l, p_c, requests, seed=7):
    """(start, result, valid) of every chunk a campaign hands its record sink."""
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
    _assert_same_bytes(_chunks(protocol, n, f, c, 0.15, 0.1, 3000))


@pytest.mark.parametrize("protocol, n, f, c", [
    ("pbft", 4, 1, 0), ("bft-smart", 4, 1, 0), ("zyzzyva", 4, 1, 0), ("sbft", 6, 1, 1),
])
@pytest.mark.parametrize("p_l, p_c", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
def test_certain_failures_match_reference(protocol, n, f, c, p_l, p_c):
    calls = _chunks(protocol, n, f, c, p_l, p_c, 500)
    if p_c == 1.0 and p_l == 0.0:
        # Every replica that draws a crash coin crashes at its first draw.
        assert (calls[0][1].crash[:500] >= 0).any()
    _assert_same_bytes(calls)


def test_campaign_past_100000_matches_reference():
    # Ids cross 9,999 -> 10,000 inside chunk 0 and 99,999 -> 100,000 inside
    # chunk 6, whose 1,701 valid requests make a partial last chunk.
    calls = _chunks("pbft", 4, 1, 0, 0.1, 0.05, 100_005)
    assert len(calls) == 7 and calls[-1][2] == 100_005 - 6 * CHUNK
    _assert_same_bytes(calls)


@pytest.mark.parametrize("edge", [10_000, 100_000])
def test_digit_change_at_chunk_edge(edge):
    (_, first, _), (_, second, _) = _chunks("bft-smart", 13, 4, 0, 0.1, 0.05, CHUNK + 900)
    _assert_same_bytes([(edge - 700, first, 700), (edge, second, 900)])


@pytest.mark.parametrize("edge", [10_000, 100_000])
def test_digit_change_at_slice_edge(monkeypatch, edge):
    monkeypatch.setattr(cli, "_SLICE_ROWS", 13 * 64)  # 64 requests per slice
    (_, res, _), = _chunks("pbft", 13, 4, 0, 0.1, 0.05, 1000)
    _assert_same_bytes([(edge - 3 * 64, res, 1000)])


def test_simulate_writes_reference_log(tmp_path):
    log = tmp_path / "log.csv"
    args = ["--protocol", "sbft", "-n", "8", "-f", "1", "-c", "2", "--pl", "0.1",
            "--pc", "0.05", "--requests", "2000", "--seed", "4"]
    assert main(["simulate", *args, "--record", str(log)]) == 0
    ref = io.StringIO()
    ref.write("request_id,replica,phase_reached,crash_phase,path\n")
    sink = record_writer_reference(ref)
    for call in _chunks("sbft", 8, 1, 2, 0.1, 0.05, 2000, seed=4):
        sink(*call)
    assert log.read_bytes() == ref.getvalue().encode()


def test_full_chunk_at_n100_memory_bounded():
    # Synthetic PBFT-shaped detail: the sink only reads these three arrays.
    rng = np.random.default_rng(0)
    n = 100
    res = _ChunkResult({}, {}, rng.integers(0, 2, CHUNK).astype(np.int8),
                       rng.integers(0, 7, (CHUNK, n)).astype(np.int8),
                       rng.integers(-1, 6, (CHUNK, n)).astype(np.int8),
                       ("start", "C1", "N1", "C2", "N2", "C3", "N3"))
    # One (requests, n, width) buffer for the whole chunk: width 5 + 3 + 15.
    whole_chunk = CHUNK * n * 23
    bound = 16 << 20
    assert whole_chunk > 2 * bound
    with open(os.devnull, "wb") as log:
        sink = cli._record_writer(log)
        tracemalloc.start()
        try:
            sink(0, res, CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound


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
