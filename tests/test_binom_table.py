"""The shared coefficient table under `prob.binom_rows`.

Every row must equal `oracles.binom_rows_reference`, the evaluation from
scratch, bit for bit: across trial-vector shapes and rates, while the table
grows and is sliced, and past its ceiling.  The models must give the same
bytes either way, the table must stay within its documented memory, and
threads that grow it at the same time must see whole tables.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import binom_rows_reference

from bftprob import chain, prob, protocols
from bftprob.analysis import quorum_success
from bftprob.prob import MAX_REPLICAS, FailureParams, binom_rows, pmf_binomial
from bftprob.protocols import PROTOCOLS, SBFT, ProtocolConfig, model_trace

MiB = 2**20
RATES = (0.0, 1.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1e-6, 0.95)


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty table, as in a new process; the old one is restored after."""
    monkeypatch.setattr(prob, "_table", (np.empty((0, 0)), np.empty((0, 0))))


def table_counts() -> int:
    return len(prob._table[0])


def trial_vectors(n: int) -> dict[str, np.ndarray]:
    """Trial vectors whose largest count is n (all zero aside)."""
    vectors = {
        "shifted": np.arange(max(n - 40, 0), n + 1),
        "descending": n - np.arange(min(n, 40) + 1),
        "repeated": np.full(7, n),
        "non-monotone": np.array([n // 2, 0, n, 1, max(n - 1, 0), n // 3, n // 2]),
        "run out of order": np.r_[max(n - 9, 0), n, max(n - 8, 1) : n],
        "all zero": np.zeros(5, dtype=int),
        "length 1": np.array([n]),
    }
    if n <= MAX_REPLICAS:  # past it, (n+1)^2 rows cost hundreds of MB
        vectors["arange"] = np.arange(n + 1)
        vectors["permuted"] = np.random.default_rng(n).permutation(n + 1)
    return vectors


def assert_matches_reference(n: int) -> None:
    for name, trials in trial_vectors(n).items():
        per_row = np.resize(RATES, len(trials))
        for p in (*RATES, per_row, per_row[::-1]):
            got = binom_rows(trials, p)
            assert np.array_equal(got, binom_rows_reference(trials, p)), (n, name, p)
            assert got.flags.writeable and not np.shares_memory(got, prob._table[0])


def test_rows_match_reference_while_the_table_grows(fresh_table):
    # 4 builds counts 0..4, 1,000 grows the table to the ceiling, 4 and 31
    # slice it, and 3,000 builds its own rows without touching it.
    for n, counts in ((4, 5), (1000, 1001), (4, 1001), (31, 1001), (3000, 1001)):
        assert_matches_reference(n)
        assert table_counts() == counts, n


def test_table_grows_only_to_the_counts_a_call_needs(fresh_table):
    binom_rows([3, 1], 0.5)
    assert table_counts() == 4
    binom_rows(np.arange(31), 0.5)
    assert table_counts() == 31
    binom_rows([7], 0.5)
    assert table_counts() == 31
    binom_rows([MAX_REPLICAS + 1], 0.5)
    assert table_counts() == 31
    for part in prob._table:
        assert not part.flags.writeable


def model_bytes(trace) -> bytes:
    """Every phase mass and path value of a trace, as raw bytes."""
    parts = [name.encode() + pmf.mass.tobytes() for name, pmf in trace.phases]
    parts += [name.encode() + np.float64(value).tobytes() for name, value in trace.path_success.items()]
    if trace.primary_quorum_prob is not None:
        parts.append(np.float64(trace.primary_quorum_prob).tobytes())
    return b"|".join(parts)


def grid_configs(n: int) -> list[ProtocolConfig]:
    """The three fixed-pattern protocols at n, and SBFT with c = 0 and c = 1
    at the largest n' = 3f+2c+1 <= n."""
    configs = [ProtocolConfig(p, n, (n - 1) // 3) for p in PROTOCOLS if p != SBFT]
    for c in (0, 1):
        f = (n - 1 - 2 * c) // 3
        configs.append(ProtocolConfig(SBFT, 3 * f + 2 * c + 1, f, c))
    return configs


def evaluate(configs, rates=(0.0, 1e-6, 0.05, 0.5, 1.0)) -> list[bytes]:
    chain.thinning_matrix.cache_clear()
    return [model_bytes(model_trace(cfg, FailureParams(pl, pc)))
            for cfg in configs for pl in rates for pc in rates]


def test_models_match_reference_rows_byte_for_byte(monkeypatch):
    configs = [cfg for n in (4, 5, 7, 13, 31, 100, 301) for cfg in grid_configs(n)]
    got = evaluate(configs)
    for module in (prob, protocols, chain):
        monkeypatch.setattr(module, "binom_rows", binom_rows_reference)
    try:
        expected = evaluate(configs)
    finally:
        chain.thinning_matrix.cache_clear()
    assert len(got) == len(expected) == 35 * 25
    mismatched = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not mismatched


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda: quorum_success(3000, 1 / 3, 2000),
    lambda: pmf_binomial(5000, 0.5),
])
def test_calls_past_the_ceiling_stay_small(call):
    call()  # loads the log-factorial table
    counts = table_counts()
    assert traced_peak(call) < 1 * MiB
    assert table_counts() == counts


# tracemalloc peaks of one warm evaluation at n = 1,000 before the table,
# when every call rebuilt its coefficients (numpy 2.4.6).
PEAK_BEFORE_TABLE_MIB = {"pbft": 53.6, "bft-smart": 53.6, "zyzzyva": 30.6, "sbft": 46.1}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_warm_evaluation_at_the_ceiling(protocol):
    cfg = ProtocolConfig(protocol, MAX_REPLICAS, (MAX_REPLICAS - 1) // 3)
    fp = FailureParams(0.05, 0.01)
    model_trace(cfg, fp)
    assert prob._table[0].size <= (MAX_REPLICAS + 1) ** 2
    assert prob._table[1].size <= (MAX_REPLICAS + 1) ** 2
    peak = traced_peak(lambda: model_trace(cfg, fp))
    assert peak <= PEAK_BEFORE_TABLE_MIB[protocol] * MiB


def test_concurrent_growth_matches_serial(fresh_table):
    # More threads than cores, switching often, all growing one fresh table.
    sizes = (31, 100, 202, 301)
    configs = {n: [ProtocolConfig(p, n, (n - 1) // 3) for p in PROTOCOLS] for n in sizes}
    serial = {n: evaluate(cfgs, (0.05, 0.5)) for n, cfgs in configs.items()}
    prob._table = (np.empty((0, 0)), np.empty((0, 0)))
    chain.thinning_matrix.cache_clear()
    start = threading.Barrier(len(sizes))
    results = {}

    def run(n):
        start.wait()
        results[n] = [model_bytes(model_trace(cfg, FailureParams(pl, pc)))
                      for cfg in configs[n] for pl in (0.05, 0.5) for pc in (0.05, 0.5)]

    threads = [threading.Thread(target=run, args=(n,)) for n in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
    assert table_counts() == 302  # the largest growth is the one that stays


def test_a_waiting_grower_keeps_the_larger_table(fresh_table):
    # A caller that found the table too small and then waited for the lock
    # must not replace the larger table another caller built meanwhile.
    larger = prob._coefficients(np.arange(302), 301)
    with prob._table_lock:
        waiter = threading.Thread(target=binom_rows, args=([100], 0.5))
        waiter.start()
        waiter.join(timeout=0.2)  # it blocks on the lock we hold
        prob._table = larger
    waiter.join()
    assert prob._table is larger


def test_exp_underflows_to_zero_past_the_cutoff():
    # binom_rows writes 0.0 for these entries instead of calling exp.
    x = np.concatenate([np.linspace(prob._EXP_ZERO - 1000.0, prob._EXP_ZERO, 100_001), [-np.inf]])
    assert not np.exp(x).any()
