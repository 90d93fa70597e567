"""Block sampling: results do not depend on worker count or block size,
single requests match their campaign rows, and memory stays bounded."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import bftprob
from bftprob import FailureParams, ProtocolConfig, SimConfig, run_campaign, simulate_request
from bftprob import sim as sim_module
from bftprob.sim import CHUNK, _block_requests, _chunk_key, _cut, _received, _sample

CONFIGS = [
    ProtocolConfig("pbft", 7, 2),
    ProtocolConfig("bft-smart", 7, 2),
    ProtocolConfig("zyzzyva", 7, 2),
    ProtocolConfig("sbft", 6, 1, 1),
]
SMALL_BLOCK_DRAWS = 1 << 12  # 32 requests per PBFT n=7 block


def _sim(cfg, requests=CHUNK, seed=4242, pl=0.1, pc=0.05):
    return SimConfig(cfg, FailureParams(pl, pc), requests, seed)


def _arrays(blocks):
    """Every array of a run of blocks, joined in request order."""
    parts = {}
    for res in blocks:
        arrays = {f"values/{k}": v for k, v in res.values.items()}
        arrays.update({f"success/{k}": v for k, v in res.success.items()})
        arrays.update(path=res.path, highest=res.highest, crash=res.crash)
        for name, values in arrays.items():
            parts.setdefault(name, []).append(values)
    return {name: None if values[0] is None else np.concatenate(values)
            for name, values in parts.items()}


def _assert_same_arrays(blocks, ref):
    arrays, expected = _arrays(blocks), _arrays(ref)
    assert arrays.keys() == expected.keys()
    assert {res.phase_names for res in blocks} == {res.phase_names for res in ref}
    for name, values in expected.items():
        if values is None:
            assert arrays[name] is None, name
        else:
            assert values.dtype == arrays[name].dtype, name
            assert np.array_equal(values, arrays[name]), name


def _assert_same_stats(stats, ref):
    assert stats.phase_stats == ref.phase_stats
    assert stats.final_phase == ref.final_phase
    assert np.array_equal(stats.final_counts, ref.final_counts)
    assert dict(stats.success) == dict(ref.success)
    assert dict(stats.success_ci) == dict(ref.success_ci)


def _drawn_slice_by_slice(sim, chunk_index, lo, hi, detail):
    """The blocks of requests [lo, hi) of a chunk, every array drawn whatever
    its rate and turned into its receiver-major event mask by u >= _cut(rate)."""
    cfg = sim.config
    draws, block_sampler = sim_module._SAMPLERS[cfg.protocol]
    block = _block_requests(cfg)
    rates = {sim_module.LINK: sim.failures.p_l, sim_module.CRASH: sim.failures.p_c}
    parts = []
    for start in range(lo, hi, block):
        events, offset = [], 0
        for kind, shape in draws(cfg):
            size = math.prod(shape)
            bits = np.random.Philox(key=_chunk_key(sim.seed, chunk_index))
            bits.advance((offset + start * size) // 4)
            u = (bits.random_raw(block * size) >> 11).reshape((block, *shape))
            events.append(np.moveaxis(u >= _cut(rates[kind]), 0, -1))
            offset += CHUNK * size
        parts.append(sim_module._result(*block_sampler(cfg, events), detail))
    return tuple(parts)


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
                res = _sample(sim, 1, CHUNK, detail=True)
                results[(_block_requests(cfg), count)] = _arrays(res)
        assert len({block for block, _ in results}) == 2
        (_, reference), *others = results.items()
        for key, arrays in others:
            assert arrays.keys() == reference.keys()
            for name, values in reference.items():
                assert values.dtype == arrays[name].dtype, (key, name)
                assert np.array_equal(values, arrays[name]), (key, name)

    @pytest.mark.parametrize("piece", [12, 4 * 7 * 31])
    @pytest.mark.parametrize("detail", [False, True], ids=["aggregate", "detail"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.protocol)
    def test_piece_edges_do_not_change_draws(self, cfg, detail, piece, monkeypatch):
        # Pieces that end inside a request's row and inside an array, with
        # a short last piece, draw what one call per array draws.
        monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
        monkeypatch.setattr(sim_module, "_PIECE", piece)
        hi = 3 * _block_requests(cfg)
        for p_l, p_c in [(0.1, 0.05), (0.0, 0.05)]:
            sim = _sim(cfg, pl=p_l, pc=p_c)
            _assert_same_arrays(_sample(sim, 1, hi, detail),
                                _drawn_slice_by_slice(sim, 1, 0, hi, detail))

    def test_more_workers_than_cores_with_fast_switching(self, workers, monkeypatch):
        monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
        sim = _sim(CONFIGS[0])
        workers(1)
        reference = _arrays(_sample(sim, 0, CHUNK, detail=True))
        workers(len(os.sched_getaffinity(0)) + 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = _arrays(_sample(sim, 0, CHUNK, detail=True))
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
        blocks = {}

        def keep(start, res, valid):
            blocks[start] = (res, valid)

        run_campaign(sim, record_sink=keep)
        assert list(blocks) == [*range(0, CHUNK, block), *range(CHUNK, CHUNK + valid_last, block)]
        last_block = valid_last - 1 - (valid_last - 1) % block
        picks = [*range(40), block - 1, CHUNK, CHUNK + last_block, CHUNK + valid_last - 1]
        for rid in picks:
            start = rid - rid % block
            res, valid = blocks[start]
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

        def counting(cfg, events):
            calls.append(events[0].shape[-1])
            return block_sampler(cfg, events)

        monkeypatch.setitem(sim_module._SAMPLERS, cfg.protocol, (draws, counting))
        block = _block_requests(cfg)
        run_campaign(_sim(cfg, requests=CHUNK + 100))
        assert calls == [block] * (CHUNK // block + -(-100 // block))


class TestCampaignLoop:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.protocol)
    def test_sink_and_worker_count_do_not_change_stats(self, cfg, workers):
        sim = _sim(cfg, requests=2 * CHUNK + 5)
        reference = run_campaign(sim)
        _assert_same_stats(run_campaign(sim, record_sink=lambda start, res, valid: None), reference)
        workers(1)
        _assert_same_stats(run_campaign(sim), reference)
        _assert_same_stats(run_campaign(sim, record_sink=lambda start, res, valid: None), reference)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.protocol)
    def test_stats_count_exactly_the_valid_rows(self, cfg):
        # Two chunks, the second ending inside a block: the totals are those
        # of the rows the sink is told are valid, to the last bit.
        sim = _sim(cfg, requests=CHUNK + 100)
        parts = {}

        def keep(start, res, valid):
            for name, arr in (*res.values.items(), *res.success.items()):
                parts.setdefault(name, []).append(arr[:valid])

        stats = run_campaign(sim, record_sink=keep)
        rows = {name: np.concatenate(arrays).astype(np.int64) for name, arrays in parts.items()}
        assert len(rows[stats.final_phase]) == sim.requests
        for st in stats.phase_stats:
            assert st.mean == int(rows[st.name].sum()) / sim.requests, st.name
        for name, rate in stats.success.items():
            assert rate == int(rows[name].sum()) / sim.requests, name
        final = np.bincount(rows[stats.final_phase], minlength=2)
        assert len(stats.final_counts) == len(final)
        assert np.array_equal(stats.final_counts, final / sim.requests)

    def test_failing_sink_cancels_prefetched_blocks(self, workers, monkeypatch):
        cfg = CONFIGS[0]
        workers(1)
        pool = sim_module._pool()
        draws, block_sampler = sim_module._SAMPLERS[cfg.protocol]
        per_chunk = CHUNK // _block_requests(cfg)
        release = threading.Event()
        calls = []

        def gated(cfg, events):
            calls.append(events[0].shape[-1])
            if len(calls) > 2 * per_chunk:  # a block of the third chunk holds the worker
                assert release.wait(60)
            return block_sampler(cfg, events)

        def sink(start, res, valid):
            if start + len(res.path) == 2 * CHUNK:
                raise RuntimeError("sink failed on the last block of chunk 2")

        monkeypatch.setitem(sim_module._SAMPLERS, cfg.protocol, (draws, gated))
        try:
            with pytest.raises(RuntimeError, match="chunk 2"):
                run_campaign(_sim(cfg, requests=4 * CHUNK), record_sink=sink)
        finally:
            release.set()
        pool.shutdown(wait=True)
        # Chunk 3 was submitted before chunk 2 was awaited; every block of
        # chunk 2 had run, at most chunk 3's first block had started when the
        # sink raised, and the rest never ran.
        assert 2 * per_chunk <= len(calls) <= 2 * per_chunk + 1


class TestRateSkip:
    """At a rate of 0 or 1 an array is not drawn: its event mask is constant,
    and must equal the mask that its draws would give."""

    RATES = [(p_l, p_c) for p_l in (0.0, 0.1, 1.0) for p_c in (0.0, 0.05, 1.0)
             if p_l in (0.0, 1.0) or p_c in (0.0, 1.0)]

    @pytest.mark.parametrize("detail", [False, True], ids=["aggregate", "detail"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.protocol)
    def test_skipped_draws_match_drawn_arrays(self, cfg, detail, monkeypatch):
        monkeypatch.setattr(sim_module, "_BLOCK_DRAWS", SMALL_BLOCK_DRAWS)
        hi = 3 * _block_requests(cfg)
        for p_l, p_c in self.RATES:
            sim = _sim(cfg, pl=p_l, pc=p_c)
            _assert_same_arrays(_sample(sim, 1, hi, detail),
                                _drawn_slice_by_slice(sim, 1, 0, hi, detail))

    def test_skipped_arrays_are_not_drawn(self, monkeypatch):
        # The driver seeks once per drawn array, then draws it in pieces:
        # the values drawn after each seek are one array's.
        cfg = CONFIGS[0]
        sizes = []
        philox = np.random.Philox

        class Counting:
            def __init__(self, **kwargs):
                self.bits = philox(**kwargs)

            def advance(self, delta):
                sizes.append(0)
                self.bits.advance(delta)

            def random_raw(self, size):
                sizes[-1] += size
                return self.bits.random_raw(size)

        monkeypatch.setattr(np.random, "Philox", Counting)
        block = _block_requests(cfg)
        n = cfg.n
        _sample(_sim(cfg, pl=0.1, pc=0.0), 0, block, detail=False)
        assert sizes == [block * (n - 1), block * (n - 1) * n, block * n * n]


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
        # Every mask is receiver-major: delivered (S, R, G), senders (S, G)
        # and the counts (R, G).  Blocks of 4 and 8 requests put fewer and
        # more requests than receivers in a mask.
        rng = np.random.default_rng(senders)
        for g in (4, 8):
            delivered = rng.random((senders, receivers, g)) < 0.998
            live = rng.random((senders, g)) < 0.9
            live[:, 0] = True  # a full row of senders: counts reach 255 and beyond
            expected = live[:, None, :] & delivered
            if offset is not None:
                for s in range(senders):
                    expected[s, s + offset] = False
            counts = _received(delivered, live, offset)
            assert counts.shape == (receivers, g)
            assert np.array_equal(counts, expected.sum(axis=0)), g


def test_large_n_chunk_memory_is_bounded():
    # A full PBFT chunk at n=150 holds 2 x (16384, 149..150, 150) link
    # draws; sampled whole it needs about 2.8 GB.
    sim = _sim(ProtocolConfig("pbft", 150, 49), requests=CHUNK)
    tracemalloc.start()
    try:
        blocks = _sample(sim, 0, CHUNK, detail=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(res.values["N3"]) for res in blocks) == CHUNK
    assert peak < 2**30, f"peak {peak / 2**20:.0f} MB"
    pool_threads = [t for t in threading.enumerate() if t.name.startswith("bftprob-sim")]
    assert 0 < len(pool_threads) <= len(os.sched_getaffinity(0))


@pytest.mark.parametrize("protocol", ["pbft", "bft-smart"])
def test_large_n_block_memory_is_bounded(protocol):
    # One detail block at n=1000 holds 4 requests of about 2 million draws
    # each.  Drawn in pieces, its 8-byte draws never take more than one
    # piece; drawn a whole array at a time, they would take 32 MB.
    sim = _sim(ProtocolConfig(protocol, 1000, 333))
    block, run = sim_module._block_sampler(sim, 0, True)
    assert block == 4
    tracemalloc.start()
    try:
        res = run(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.highest.shape == (block, 1000)
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("p_l,p_c", [(0.1, 0.05), (0.3, 0.5)])
def test_draw_at_the_cut_is_an_event(monkeypatch, p_l, p_c):
    # A draw equal to the cut delivers its message or keeps its replica up;
    # one below it does not.  Random draws hit the cut with probability
    # 2**-53, so the driver is fed raw outputs that sit on it, or one under
    # it: the largest output whose 53-bit draw is below the cut.
    cfg = CONFIGS[0]
    sim = _sim(cfg, pl=p_l, pc=p_c)
    draws, block_sampler = sim_module._SAMPLERS[cfg.protocol]
    seen = []

    def keep(cfg, events):
        seen.append(events)
        return block_sampler(cfg, events)

    monkeypatch.setitem(sim_module._SAMPLERS, cfg.protocol, (draws, keep))
    for below in (0, 1):
        cuts = iter((int(_cut(rate)) << 11) - below for rate in (p_l, p_c) * 3)

        class AtCut:
            # The driver seeks once per drawn array and draws it in pieces,
            # so each seek moves on to the next array's cut.
            def __init__(self, **kwargs):
                self.cut = None

            def advance(self, delta):
                self.cut = next(cuts)

            def random_raw(self, size):
                return np.full(size, self.cut, dtype=np.uint64)

        monkeypatch.setattr(np.random, "Philox", AtCut)
        sim_module._block_sampler(sim, 0, True)[1](0)
        assert next(cuts, None) is None
        events = seen.pop()
        assert [mask.shape[:-1] for mask in events] == [shape for _, shape in draws(cfg)]
        assert all(mask.all() if below == 0 else not mask.any() for mask in events)


def test_import_and_model_trace_start_no_pool():
    # The worker pool is built on the first campaign: a process that only
    # evaluates models loads no concurrent.futures and starts no thread.
    code = (
        "import sys, threading\n"
        "from bftprob import FailureParams, ProtocolConfig, model_trace\n"
        "model_trace(ProtocolConfig('pbft', 4, 1), FailureParams(0.05, 0.01))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'concurrent'),\n"
        "      threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bftprob.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[]", "1"]


def test_simulate_request_starts_no_pool():
    # One request is sampled on the calling thread: no pool, no thread.
    code = (
        "import sys, threading\n"
        "from bftprob import FailureParams, ProtocolConfig, SimConfig, simulate_request\n"
        "sim = SimConfig(ProtocolConfig('pbft', 7, 2), FailureParams(0.1, 0.05), 100, 3)\n"
        "rec = simulate_request(sim, 42)\n"
        "print(rec.request_id,\n"
        "      sorted(name for name in sys.modules if name.split('.')[0] == 'concurrent'),\n"
        "      threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bftprob.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["42", "[]", "1"]
