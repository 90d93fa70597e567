"""bftprob benchmark: one workload, one seed, one process, one thread.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It measures passes of the workload's
fixed work for about S seconds, checks every output against its reference,
and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (no tracing; the
benchmark's set-up time is measured in fresh processes first).  With
--trace 1 untraced and traced passes alternate, and the metrics are the
per-layer ones from the traced passes plus the tracing overhead.  Spans and
a full result record are written under .bench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
SETUP_RUNS = 7

# What a fresh process does before it is ready: import the package and
# return one tiny model evaluation.
SETUP_CODE = (
    "from bftprob import FailureParams, ProtocolConfig, model_trace\n"
    "model_trace(ProtocolConfig('pbft', 4, 1), FailureParams(0.05, 0.01))\n"
    "print('ready', flush=True)\n"
)


def measure_setup() -> list[float]:
    """Seconds from process launch to the first tiny evaluation returning."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up process failed (exit {child.returncode})")
    return samples


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is mapped."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "bftprob").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    with contextlib.suppress(OSError):
        cpu_model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                          if line.startswith("model name")), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
    }


def run_passes(workload, seconds: float, trace: bool, work_dir: Path):
    """Closed-loop passes until the next one would overrun `seconds`.

    With tracing, untraced and traced passes alternate, at least one each.
    Checks run between passes and are not timed.
    """
    from tracing import SpanLog, layer_metrics, traced
    from bftprob.sim import CHUNK

    passes, spent = [], 0.0
    while True:
        is_traced = trace and len(passes) % 2 == 1
        pass_dir = work_dir / f"pass-{len(passes)}"
        pass_dir.mkdir()
        log = SpanLog() if is_traced else None
        workload.on_op = log.next_op if is_traced else (lambda: None)
        start = time.perf_counter()
        with traced(log) if is_traced else contextlib.nullcontext():
            ops = workload.run_pass(pass_dir)
        wall = time.perf_counter() - start
        workload.on_op = lambda: None
        failures = workload.check(ops)
        for op in ops:
            op.output = None  # checked; keep the run's memory flat across passes
        layers = None
        if is_traced:
            layers = layer_metrics(log, CHUNK)
            layers.update(workload.layer_extras(ops))
        shutil.rmtree(pass_dir)
        passes.append({"traced": is_traced, "wall": wall, "ops": ops, "failures": failures,
                       "layers": layers, "log": log})
        spent += wall
        need_traced = trace and not any(p["traced"] for p in passes)
        if spent + wall > seconds and not need_traced:
            return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_seconds(passes) -> float:
    """Time of one pass of the fixed work: the sum, over the operations the
    benchmark issues, of each operation's median time across the passes.
    Per-operation medians keep a burst of contention that hits one operation
    in one pass out of the figure."""
    times: dict[str, list[float]] = {}
    for ops in passes:
        for op in ops:
            if op.top:
                times.setdefault(op.label, []).append(op.seconds)
    return sum(statistics.median(v) for v in times.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bftprob benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bftprob" / "__init__.py").is_file():
        print(f"error: no bftprob sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from tracing import LAYER_METRICS, write_spans
    from workloads import REFERENCE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = measure_setup() if not args.trace else []
        workload = WORKLOADS[args.workload](args.seed)
        warm_dir = work_dir / "warm-up"
        warm_dir.mkdir()
        workload.warm_up(warm_dir)
        passes = run_passes(workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    known = {(f["op"], f["check"]) for f in REFERENCE["known_findings"].get(args.workload, [])}
    failures = [(k, f) for k, p in enumerate(passes) for f in p["failures"]]
    errors = [(k, op) for k, p in enumerate(passes) for op in p["ops"] if op.error is not None]
    failed_ops = {(k, f.op) for k, f in failures} | {(k, op.label) for k, op in errors}
    attempted = sum(len(p["ops"]) for p in passes)
    correct = not errors and all((f.op, f.check) in known for _, f in failures)

    overhead = None
    if traced_passes:
        overhead = _median([p["wall"] for p in traced_passes]) / _median([p["wall"] for p in plain]) - 1.0
    env = environment(args)
    env["tracing_overhead"] = overhead

    latencies = [op.seconds * 1e3 for p in plain for op in p["ops"] if op.sample]
    if args.trace:
        values = {name: _median([p["layers"][name] for p in traced_passes]) for name in traced_passes[0]["layers"]}
        values["trace.overhead_frac"] = overhead
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": pass_seconds([p["ops"] for p in plain]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    prefix, tail = workload.latency_name, workload.latency_tail
    report = {f"{prefix}_p50_ms": (float(np.quantile(latencies, 0.5)), "ms")}
    if tail is not None:
        report[f"{prefix}_p{tail}_ms"] = (float(np.quantile(latencies, tail / 100)), "ms")
    report.update(workload.report([p["ops"] for p in plain], [p["wall"] for p in plain]))
    report["ops_failed_frac"] = (len(failed_ops) / attempted, "ratio")

    print(f"# bftprob benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(plain)} untraced + {len(traced_passes)} traced")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"# operation = one {workload.latency_op}; {len(latencies)} latency samples")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in report.items():
        print(f"report {name} = {value:.6g} {unit}")
    for row in REFERENCE["roadmap_baselines"].get(args.workload, []):
        if row["metric"] in report:
            value = report[row["metric"]][0]
            change = value / row["baseline"] - 1.0
            flag = "OUTSIDE NOISE" if abs(change) > REFERENCE["baseline_band"] else "within noise"
            print(f"baseline {row['row']}: roadmap {row['baseline']:g} {row['unit']}, "
                  f"measured {value:.4g} {row['unit']} ({change:+.0%}) {flag}")
    for k, f in failures:
        tag = "known finding" if (f.op, f.check) in known else "FAILURE"
        print(f"failure pass={k} op={f.op} check={f.check} [{tag}]: {f.detail}")
    for k, op in errors:
        print(f"failure pass={k} op={op.label} check=raised [FAILURE]: {op.error}")
    print(f"# ops failed {len(failed_ops)}/{attempted}")

    record = {"env": env, "metrics": metrics, "report": {k: v[0] for k, v in report.items()},
              "setup_samples_s": setup, "pass_walls_s": [p["wall"] for p in passes],
              "pass_traced": [p["traced"] for p in passes],
              "failures": [{"pass": k, "op": f.op, "check": f.check, "detail": f.detail,
                            "known": (f.op, f.check) in known} for k, f in failures]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    if traced_passes:
        write_spans(OUT / f"{stem}-spans.csv.gz", [p["log"] for p in traced_passes])

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
