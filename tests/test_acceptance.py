"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo
criterion simulates 10^6 requests per grid point and takes a few minutes;
everything else finishes in seconds.
"""

import numpy as np
import pytest

from oracles import binom_pmf, crash_chain_enumeration

from bftprob import (
    FailureParams,
    ProtocolConfig,
    SimConfig,
    compare_to_model,
    model_trace,
    pbft_crash_only,
    pbft_model,
    quorum_asymptote,
    run_campaign,
    smart_model,
    stability_crossing,
    timeout_for_boundary,
)
from bftprob.cli import EXIT_OK, main
from bftprob.sim import CHUNK, _run_chunk

GRID_N = (4, 7, 10, 13)
GRID_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)

MC_SEED = 20260811
MC_TRIALS = 1_000_000
MC_RATES = (0.0, 0.05, 0.1, 0.2)
MC_CONFIGS = (
    ("pbft", 7, 2, 0, ("happy",)),
    ("bft-smart", 7, 2, 0, ("happy",)),
    ("zyzzyva", 7, 2, 0, ("fast", "slow")),
    ("sbft", 6, 1, 1, ("fast", "slow")),
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def grid_traces():
    """Every protocol over the shared (n, p_l, p_c) acceptance grid."""
    traces = {}
    for n in GRID_N:
        f = (n - 1) // 3
        for proto in ("pbft", "bft-smart", "zyzzyva", "sbft"):
            cfg = ProtocolConfig(proto, n, f, 0)
            for p_l in GRID_RATES:
                for p_c in GRID_RATES:
                    traces[(proto, n, p_l, p_c)] = model_trace(cfg, FailureParams(p_l, p_c))
    return traces


def test_criterion_1_normalization(grid_traces):
    worst = 0.0
    for trace in grid_traces.values():
        for _, pmf in trace.phases:
            worst = max(worst, abs(float(pmf.mass.sum()) - 1.0))
    _report(1, "normalization", worst <= 1e-9, f"worst drift {worst:.2e}")


def test_criterion_2_crash_only_exact_oracle():
    worst = 0.0
    for p_c in (0.1, 0.3):
        trace = pbft_crash_only(ProtocolConfig("pbft", 4, 1), p_c)
        expected = crash_chain_enumeration(4, p_c)
        for pmf, exp in zip([trace.phase(nm) for nm in ("N1", "N2", "N3")], expected):
            worst = max(worst, float(np.max(np.abs(pmf.mass - exp))))
    _report(2, "crash-only exact oracle", worst <= 1e-12, f"worst entry gap {worst:.2e}")


def test_criterion_3_monte_carlo_oracle():
    failures = []
    worst_sigma = 0.0
    for proto, n, f, c, metrics in MC_CONFIGS:
        cfg = ProtocolConfig(proto, n, f, c)
        for p_l in MC_RATES:
            for p_c in MC_RATES:
                fp = FailureParams(p_l, p_c)
                stats = run_campaign(SimConfig(cfg, fp, MC_TRIALS, MC_SEED))
                trace = model_trace(cfg, fp)
                for metric in metrics:
                    predicted = trace.path_success[metric]
                    observed = stats.success[metric]
                    sigma = (predicted * (1.0 - predicted) / MC_TRIALS) ** 0.5
                    if sigma == 0.0:
                        ok = observed == predicted
                        gap = abs(observed - predicted)
                    else:
                        gap = abs(observed - predicted) / sigma
                        worst_sigma = max(worst_sigma, gap)
                        ok = gap <= 3.0
                    if not ok:
                        failures.append((proto, p_l, p_c, metric, predicted, observed, gap))
    _report(
        3,
        "monte carlo oracle (3 standard errors at 1e6 trials)",
        not failures,
        f"worst {worst_sigma:.2f} sigma" if not failures else f"misses: {failures}",
    )


def _replication_coverage(proto, model_fn, requests):
    cfg = ProtocolConfig(proto, 10, 3)
    covered = 0
    points = [round(0.01 * i, 2) for i in range(31)]  # 0.00 .. 0.30
    for p_l in points:
        fp = FailureParams(p_l, 0.0)
        stats = run_campaign(SimConfig(cfg, fp, requests, MC_SEED + 1))
        check = compare_to_model(stats, model_fn(cfg, fp))
        row = next(r for r in check.rows if r.name == "N3")
        covered += row.covered
    return covered, len(points)


def test_criterion_4_paper_scale_replication():
    got_pbft, total = _replication_coverage("pbft", pbft_model, 5000)
    got_smart, _ = _replication_coverage("bft-smart", smart_model, 1000)
    ok = got_pbft >= 0.95 * total and got_smart >= 0.95 * total
    _report(
        4,
        "paper-scale replication (99% intervals cover P(reach N3))",
        ok,
        f"pbft {got_pbft}/{total} covered, bft-smart {got_smart}/{total} covered",
    )


def test_criterion_5_printed_numbers():
    est = timeout_for_boundary(100.0, 10.0, 0.1)
    timeout_ok = abs(est.at_rate_quantile - 87.18) <= 0.01
    asymptote_ok = (
        quorum_asymptote(0.2, 2 / 3) == 1.0
        and quorum_asymptote(0.5, 2 / 3) == 0.0
        and quorum_asymptote(1 / 3, 2 / 3) == 0.5
    )
    _report(
        5,
        "printed-number reproduction",
        timeout_ok and asymptote_ok,
        f"timeout {est.at_rate_quantile:.4f} ms, asymptotes "
        f"{quorum_asymptote(0.2, 2/3)}/{quorum_asymptote(0.5, 2/3)}/{quorum_asymptote(1/3, 2/3)}",
    )


def test_criterion_6_stability_boundary_shape():
    cfg = ProtocolConfig("pbft", 25, 8)
    boundary = stability_crossing(cfg, 0.0)

    def success(p_l: float) -> float:
        return pbft_model(cfg, FailureParams(p_l, 0.0)).path_success["happy"]

    drop_before = success(boundary - 0.06) - success(boundary - 0.02)
    drop_across = success(boundary - 0.02) - success(boundary + 0.02)
    _report(
        6,
        "stability boundary shape",
        drop_across > drop_before,
        f"boundary {boundary:.4f}, drop below {drop_before:.4f}, across {drop_across:.4f}",
    )


def test_criterion_7_scaling_dip_and_convergence():
    sizes = list(range(4, 101, 3))
    values = []
    for n in sizes:
        trace = pbft_model(ProtocolConfig("pbft", n, (n - 1) // 3), FailureParams(0.12, 0.0))
        values.append(trace.path_success["happy"])
    arr = np.array(values)
    i_min = int(arr.argmin())
    dip = 0 < i_min < len(arr) - 1 and arr[0] > arr[i_min] and arr[-1] > arr[i_min]
    tail = pbft_model(ProtocolConfig("pbft", 100, 33), FailureParams(0.05, 0.0)).path_success["happy"]
    _report(
        7,
        "scaling dip and convergence",
        dip and tail > 0.999,
        f"dip at n={sizes[i_min]} ({arr[i_min]:.4f}), success(n=100, p_l=0.05)={tail:.6f}",
    )


def test_criterion_8_monotonicity_and_dominance(grid_traces):
    slack = 1e-12
    violations = []
    for (proto, n, p_l, p_c), trace in grid_traces.items():
        for name, value in trace.path_success.items():
            if name == "slow":
                # The slow branch only engages once the fast quorum fails,
                # so its marginal rises from zero with the failure rates;
                # overall success is what must be monotone.
                continue
            # Non-increasing in p_l at fixed p_c, and vice versa.
            for higher in GRID_RATES:
                if higher > p_l:
                    other = grid_traces[(proto, n, higher, p_c)].path_success[name]
                    if other > value + slack:
                        violations.append((proto, n, name, "p_l", p_l, higher))
                if higher > p_c:
                    other = grid_traces[(proto, n, p_l, higher)].path_success[name]
                    if other > value + slack:
                        violations.append((proto, n, name, "p_c", p_c, higher))
    dominance_bad = []
    for n in GRID_N:
        f = (n - 1) // 3
        for p_l in GRID_RATES:
            for p_c in GRID_RATES:
                fast = grid_traces[("zyzzyva", n, p_l, p_c)].path_success["fast"]
                perfect_broadcast = binom_pmf(n - 1, 1.0 - p_l, n - 1)
                if fast > perfect_broadcast + slack:
                    dominance_bad.append((n, p_l, p_c, fast, perfect_broadcast))
    ok = not violations and not dominance_bad
    _report(
        8,
        "monotonicity and fast-path dominance",
        ok,
        "no violations" if ok else f"monotonicity {violations[:3]}, dominance {dominance_bad[:3]}",
    )


def test_criterion_9_determinism(tmp_path):
    base = [
        "simulate", "--protocol", "bft-smart", "-n", "7", "-f", "2",
        "--pl", "0.1", "--pc", "0.05", "--requests", "4000", "--seed", "1234",
    ]
    outputs = []
    for name in ("first", "second"):
        stats = tmp_path / f"{name}.csv"
        record = tmp_path / f"{name}.log.csv"
        assert main(base + ["--output", str(stats), "--record", str(record)]) == EXIT_OK
        outputs.append((stats.read_bytes(), record.read_bytes()))
    cli_ok = outputs[0] == outputs[1]

    val = []
    for name in ("va", "vb"):
        out = tmp_path / f"{name}.csv"
        code = main([
            "validate", "--protocol", "pbft", "-n", "4", "-f", "1",
            "--pl-values", "0,0.1", "--pc-values", "0.05",
            "--requests", "4000", "--seed", "77", "--output", str(out),
        ])
        assert code == EXIT_OK
        val.append(out.read_bytes())
    validate_ok = val[0] == val[1]

    # Chunked streams are independently keyed, so any evaluation schedule
    # (here: reversed) reproduces the same aggregate bit for bit.
    sim = SimConfig(ProtocolConfig("pbft", 4, 1), FailureParams(0.1, 0.05), 3 * CHUNK, 55)
    forward = run_campaign(sim)
    totals = {}
    for chunk_index in reversed(range(3)):
        res = _run_chunk(sim, chunk_index, detail=False)
        for name, arr in res.values.items():
            totals[name] = totals.get(name, 0.0) + float(arr.astype(float).sum())
    schedule_ok = all(
        totals[st.name] / sim.requests == st.mean for st in forward.phase_stats
    )
    _report(
        9,
        "determinism (byte-identical reruns, schedule-independent)",
        cli_ok and validate_ok and schedule_ok,
        f"cli {cli_ok}, validate {validate_ok}, schedule {schedule_ok}",
    )
