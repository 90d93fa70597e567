"""Block sampling: results do not depend on worker count or block size,
single requests match their campaign rows, and memory stays bounded."""

import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bftprob import FailureParams, ProtocolConfig, SimConfig, run_campaign, simulate_request
from bftprob import sim as sim_module
from bftprob.sim import CHUNK, _block_requests, _cut, _received, _sample

CONFIGS = [
    ProtocolConfig("pbft", 7, 2),
    ProtocolConfig("bft-smart", 7, 2),
    ProtocolConfig("zyzzyva", 7, 2),
    ProtocolConfig("sbft", 6, 1, 1),
]
SMALL_BLOCK_DRAWS = 1 << 12  # 32 requests per PBFT n=7 block


def _sim(cfg, requests=CHUNK, seed=4242, pl=0.1, pc=0.05):
    return SimConfig(cfg, FailureParams(pl, pc), requests, seed)


def _arrays(res):
    out = {f"values/{k}": v for k, v in res.values.items()}
    out.update({f"success/{k}": v for k, v in res.success.items()})
    out.update(path=res.path, highest=res.highest, crash=res.crash)
    return out


@pytest.fixture
def workers(monkeypatch):
    """Run blocks on a pool of the given size for the rest of the test."""
    pools = []

    def use(count):
        pool = ThreadPoolExecutor(max_workers=count)
        pools.append(pool)
        monkeypatch.setattr(sim_module, "_pool", lambda: pool)

    yield use
    for pool in pools:
        pool.shutdown(wait=True)


class TestInvariance:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.protocol)
    def test_workers_and_block_size_do_not_change_results(self, cfg, workers, monkeypatch):
        sim = _sim(cfg)
        results = {}
        for block_draws in (sim_module._BLOCK_DRAWS, SMALL_BLOCK_DRAWS):
            monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", block_draws)
            for count in (1, 2):
                workers(count)
                res = _sample(sim, 1, 0, CHUNK, detail=True)
                results[(_block_requests(cfg), count)] = _arrays(res)
        assert len({block for block, _ in results}) == 2
        (_, reference), *others = results.items()
        for key, arrays in others:
            assert arrays.keys() == reference.keys()
            for name, values in reference.items():
                assert values.dtype == arrays[name].dtype, (key, name)
                assert np.array_equal(values, arrays[name]), (key, name)

    def test_more_workers_than_cores_with_fast_switching(self, workers, monkeypatch):
        monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
        sim = _sim(CONFIGS[0])
        workers(1)
        reference = _arrays(_sample(sim, 0, 0, CHUNK, detail=True))
        workers(len(os.sched_getaffinity(0)) + 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = _arrays(_sample(sim, 0, 0, CHUNK, detail=True))
        finally:
            sys.setswitchinterval(interval)
        for name, values in reference.items():
            assert np.array_equal(values, stressed[name]), name

    @pytest.mark.parametrize("block_draws", [None, SMALL_BLOCK_DRAWS], ids=["default", "small"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.protocol)
    def test_request_matches_campaign_rows(self, cfg, block_draws, monkeypatch):
        if block_draws is not None:
            monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", block_draws)
        sim_module._request_block.cache_clear()
        valid_last = 100
        sim = _sim(cfg, requests=CHUNK + valid_last)
        block = _block_requests(cfg)
        chunks = {}

        def keep(start, res, valid):
            chunks[start] = (res, valid)

        run_campaign(sim, record_sink=keep)
        assert sorted(chunks) == [0, CHUNK]
        last_block = valid_last - 1 - (valid_last - 1) % block
        picks = [*range(40), block - 1, CHUNK, CHUNK + last_block, CHUNK + valid_last - 1]
        for rid in picks:
            start = rid - rid % CHUNK
            res, valid = chunks[start]
            row = rid - start
            assert row < valid
            rec = simulate_request(sim, rid)
            assert np.array_equal(rec.highest_phase, res.highest[row]), rid
            assert np.array_equal(rec.crash_step, res.crash[row]), rid
            assert rec.path == sim_module.PATH_NAMES[res.path[row]], rid
            if cfg.protocol in ("pbft", "bft-smart"):
                quorum, liveness = res.success["happy"][row], res.success["liveness"][row]
            else:
                quorum = liveness = res.success["combined"][row]
            assert (rec.success_quorum, rec.success_liveness) == (quorum, liveness), rid

    def test_partial_chunk_samples_only_valid_blocks(self, monkeypatch):
        monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
        cfg = CONFIGS[0]
        draws, block_sampler = sim_module._SAMPLERS[cfg.protocol]
        calls = []

        def counting(*args):
            calls.append(len(args[3][0]))
            return block_sampler(*args)

        monkeypatch.setitem(sim_module._SAMPLERS, cfg.protocol, (draws, counting))
        block = _block_requests(cfg)
        run_campaign(_sim(cfg, requests=CHUNK + 100))
        assert calls == [block] * (CHUNK // block + -(-100 // block))


class TestKernels:
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.05, 0.1, 0.5, 1 - 2**-53, 1.0])
    def test_cut_matches_float_draws(self, p):
        raw = np.random.Philox(key=np.array([7, 8], dtype=np.uint64)).random_raw(4096)
        floats = (raw >> 11) * (1.0 / 2**53)
        edges = np.array([0, 1, 2**52, 2**53 - 1, int(np.ceil(p * 2**53)),
                          max(int(np.ceil(p * 2**53)) - 1, 0)], dtype=np.uint64)
        ints = np.concatenate([raw >> 11, edges])
        floats = np.concatenate([floats, edges * (1.0 / 2**53)])
        assert np.array_equal(ints >= _cut(p), floats >= p)

    @pytest.mark.parametrize("senders,receivers,offset",
                             [(6, 7, 1), (7, 7, 0), (5, 2, None), (300, 300, 0)])
    def test_received_matches_masked_sum(self, senders, receivers, offset):
        rng = np.random.default_rng(senders)
        g = 8
        u = rng.integers(0, 2**53, (g, senders, receivers), dtype=np.uint64)
        live = rng.random((g, senders)) < 0.9
        live[0] = True  # a full row of senders: counts reach 255 and beyond
        cut = _cut(0.002)
        delivered = live[:, :, None] & (u >= cut)
        if offset is not None:
            for s in range(senders):
                delivered[:, s, s + offset] = False
        assert np.array_equal(_received(u, live, cut, offset), delivered.sum(axis=1))


def test_large_n_chunk_memory_is_bounded():
    # A full PBFT chunk at n=150 holds 2 x (16384, 149..150, 150) link
    # draws; sampled whole it needs about 2.8 GB.
    sim = _sim(ProtocolConfig("pbft", 150, 49), requests=CHUNK)
    tracemalloc.start()
    try:
        res = _sample(sim, 0, 0, CHUNK, detail=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.values["N3"]) == CHUNK
    assert peak < 2**30, f"peak {peak / 2**20:.0f} MB"
    pool_threads = [t for t in threading.enumerate() if t.name.startswith("bftprob-sim")]
    assert 0 < len(pool_threads) <= len(os.sched_getaffinity(0))
