"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs, runs one pass of fixed
work through bftprob's public API, and checks every output against a
reference after the pass, outside the timed region.  The load is a closed
loop: one caller issues the next operation when the previous one returns.

An operation is one model evaluation, one campaign or one CLI call.  It
fails if it raises, exits non-zero, or disagrees with its reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Public functions are called through their modules, so the traced run's
# rebinding of those module attributes sees every call.
from bftprob import analysis, cli, protocols, sim
from bftprob.analysis import SweepGrid, chained_boundaries
from bftprob.prob import MASS_TOL, FailureParams
from bftprob.protocols import PROTOCOLS, SBFT, ZYZZYVA, ProtocolConfig
from bftprob.sim import CHUNK, SimConfig, simulate_request

from tracing import sim_label

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
DEFAULT_SEED = REFERENCE["default_seed"]

# Monte Carlo frequencies must lie within this many standard errors of the
# model (plus one request of quantization); a false alarm is ~1e-6 per check.
SIGMA_BOUND = 5.0


def _load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Op:
    label: str
    seconds: float
    output: object = None
    error: str | None = None
    sample: bool = True  # counts toward the operation latency percentiles
    top: bool = True  # called by the benchmark itself, not from inside another op
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Failure:
    op: str
    check: str
    detail: str


def config_for(protocol: str, n: int) -> ProtocolConfig:
    """Largest fault budget for n; SBFT with c=0, so n = 3f+1 exactly."""
    return ProtocolConfig(protocol, n, (n - 1) // 3, 0)


def derive_seed(*parts) -> int:
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def trace_failures(label: str, trace) -> list[Failure]:
    """Criterion 1's mass bound on every phase, and path probabilities in
    [0, 1] up to the same float-noise bound (a tail summed from renormalized
    masses can exceed 1 by an ulp)."""
    out = []
    drift = max(abs(float(pmf.mass.sum()) - 1.0) for _, pmf in trace.phases)
    if drift > MASS_TOL:
        out.append(Failure(label, "mass-drift", f"worst phase drift {drift:.3g} > {MASS_TOL:g}"))
    for path, value in trace.path_success.items():
        if not -MASS_TOL <= value <= 1.0 + MASS_TOL:
            out.append(Failure(label, "path-range", f"{path}={value!r}"))
    return out


def sbft_bound_failure(label: str, sbft_trace, zyzzyva_trace, p_c: float) -> list[Failure]:
    """At c=0 SBFT's fast path needs Zyzzyva's fast quorum, so
    fast_sbft <= fast_zyzzyva / (1 - p_c) (Zyzzyva also pays a client draw)."""
    fast = sbft_trace.path_success["fast"]
    bound = zyzzyva_trace.path_success["fast"] / (1.0 - p_c)
    if fast <= bound * (1.0 + 1e-12):
        return []
    return [Failure(label, "sbft-fast-bound", f"sbft fast {fast:.3g} > zyzzyva fast/(1-p_c) {bound:.3g}")]


def success_failures(label: str, success: dict, requests: int, trace) -> list[Failure]:
    out = []
    for name, observed in success.items():
        predicted = trace.path_success[name]
        sigma = math.sqrt(predicted * (1.0 - predicted) / requests)
        if abs(observed - predicted) > SIGMA_BOUND * sigma + 1.0 / requests:
            out.append(Failure(label, "monte-carlo", f"{name}: observed {observed:.6g}, model {predicted:.6g}"))
    return out


def campaign_digest(success_counts: dict, final_counts: list[int]) -> str:
    """Digest of the stream-derived values of one campaign, not of any file."""
    return digest({"success": success_counts, "final": final_counts})


class Workload:
    name = ""
    latency_op = "operation"  # what one latency sample times
    latency_name = "op"  # prefix of the latency percentiles in the report
    # Tail percentile reported beside the median: the highest one that a run
    # of this workload leaves ten samples beyond (None: too few samples).
    latency_tail: int | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(derive_seed(self.name, seed))
        self.on_op = lambda: None  # the traced run points this at its span log
        self._first: dict[str, object] = {}

    def _time(self, label: str, fn, *args, sample: bool = True) -> Op:
        self.on_op()
        start = time.perf_counter()
        try:
            output, error = fn(*args), None
        except Exception as exc:  # an operation that raises is a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        return Op(label, time.perf_counter() - start, output, error, sample)

    def _repeatable(self, label: str, fingerprint) -> list[Failure]:
        """Every pass of a run must give the first pass's outputs."""
        first = self._first.setdefault(label, fingerprint)
        if first == fingerprint:
            return []
        return [Failure(label, "repeatable", "output differs from the run's first pass")]

    def _reference_digest(self, label: str, value: str) -> list[Failure]:
        if self.seed != DEFAULT_SEED:
            return []
        expected = REFERENCE["campaign_digests"][self.name][label]
        if value == expected:
            return []
        return [Failure(label, "stream-digest", f"{value[:12]} != recorded {expected[:12]}")]

    def warm_up(self, scratch: Path) -> None:
        """Untimed calls that load what the first timed pass would otherwise load."""
        raise NotImplementedError

    def run_pass(self, pass_dir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[Failure]:
        raise NotImplementedError

    def report(self, passes: list[list[Op]], walls: list[float]) -> dict[str, tuple[float, str]]:
        """Workload-specific named metrics, printed beside the end-to-end ones."""
        return {}

    def layer_extras(self, ops: list[Op]) -> dict[str, float]:
        """Per-layer metrics measured from the pass's outputs, not from spans."""
        return {"cli.bytes_written": 0, "cli.record_rows": 0}


class ModelLargeN(Workload):
    """model_trace for all four protocols on large dense supports."""

    name = "model-large-n"
    latency_op = "model evaluation"
    latency_name = "eval"
    SIZES = (100, 301)
    P_L, P_C = 0.05, 0.01

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        cases = [(p, n) for n in self.SIZES for p in PROTOCOLS]
        self.cases = [cases[i] for i in self.rng.permutation(len(cases))]
        self.fp = FailureParams(self.P_L, self.P_C)

    def warm_up(self, scratch: Path) -> None:
        for p in PROTOCOLS:
            protocols.model_trace(config_for(p, 4), self.fp)

    def run_pass(self, pass_dir: Path) -> list[Op]:
        return [self._time(f"{p}-n{n}", protocols.model_trace, config_for(p, n), self.fp) for p, n in self.cases]

    def check(self, ops: list[Op]) -> list[Failure]:
        out = []
        traces = {op.label: op.output for op in ops if op.error is None}
        for label, trace in traces.items():
            out += trace_failures(label, trace)
            masses = b"".join(pmf.mass.tobytes() for _, pmf in trace.phases)
            out += self._repeatable(label, (dict(trace.path_success), hashlib.sha256(masses).hexdigest()))
        for n in self.SIZES:
            sbft, zyz = traces.get(f"{SBFT}-n{n}"), traces.get(f"{ZYZZYVA}-n{n}")
            if sbft is not None and zyz is not None:
                out += sbft_bound_failure(f"{SBFT}-n{n}", sbft, zyz, self.P_C)
        return out

    def report(self, passes, walls):
        out = {}
        for n in self.SIZES:
            key = "model_s" if n == 301 else f"model_s_n{n}"
            for p in PROTOCOLS:
                times = [op.seconds for ops in passes for op in ops if op.label == f"{p}-n{n}"]
                out[f"{key}.{p}"] = (statistics.median(times), "s")
        return out


class AnalysisSmallN(Workload):
    """Many tiny model evaluations behind sweep, gradient_field and stability_crossing."""

    name = "analysis-small-n"
    latency_op = "model evaluation"
    latency_name = "eval"
    latency_tail = 99
    N_VALUES = (4, 7, 10, 13, 31)
    GRADIENT_N = 31
    CROSSING_N = (4, 7, 10, 13, 31, 100)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # p_l = 0 is always on the grid so the no-link-loss oracle applies.
        picks = self.rng.choice(np.arange(1, 31), 4, replace=False)
        self.p_l = (0.0,) + tuple(sorted(float(k) / 100 for k in picks))
        picks = self.rng.choice(np.arange(1, 21), 5, replace=False)
        self.p_c = tuple(sorted(float(k) / 200 for k in picks))
        self.crossing_pc = self.p_c[int(self.rng.integers(len(self.p_c)))]
        oracles = _load_oracles()
        self.oracle = {pc: oracles.pbft_no_links_enumeration(4, 1, pc) for pc in self.p_c}

    def warm_up(self, scratch: Path) -> None:
        for p in PROTOCOLS:
            analysis.sweep(SweepGrid(p, (0.1,), (0.01,), n=4))

    def run_pass(self, pass_dir: Path) -> list[Op]:
        ops: list[Op] = []
        inner = analysis.model_trace

        def probe(config, fp):
            # A bare timer around each evaluation: the only name the
            # untraced run rebinds, at two clock reads per evaluation.
            self.on_op()
            label = f"{config.protocol}-n{config.n}-pl{fp.p_l:g}-pc{fp.p_c:g}"
            start = time.perf_counter()
            try:
                trace = inner(config, fp)
            except Exception as exc:
                ops.append(Op(label, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}", top=False))
                raise
            ops.append(Op(label, time.perf_counter() - start, (config, fp, trace), top=False))
            return trace

        analysis.model_trace = probe
        try:
            for p in PROTOCOLS:
                grid = SweepGrid(p, self.p_l, self.p_c, n_values=self.N_VALUES)
                ops.append(self._time(f"sweep-{p}", analysis.sweep, grid, sample=False))
            for p in PROTOCOLS:
                grid = SweepGrid(p, self.p_l[::2], self.p_c[::2], n=self.GRADIENT_N)
                ops.append(self._time(f"gradient-{p}", analysis.gradient_field, grid, sample=False))
            for n in self.CROSSING_N:
                ops.append(self._time(f"crossing-n{n}", analysis.stability_crossing,
                                      config_for("pbft", n), self.crossing_pc, sample=False))
        finally:
            analysis.model_trace = inner
        return ops

    def _gap(self, n: int, p_l: float) -> float:
        trace = protocols.model_trace(config_for("pbft", n), FailureParams(p_l, self.crossing_pc))
        return min(chained_boundaries(trace).values()) - p_l

    def check(self, ops: list[Op]) -> list[Failure]:
        out = []
        evals = {}
        for op in ops:
            if op.sample and op.error is None:
                config, fp, trace = op.output
                evals[(config.protocol, config.n, fp.p_l, fp.p_c)] = trace
                out += trace_failures(op.label, trace)
        for (proto, n, p_l, p_c), trace in evals.items():
            label = f"{proto}-n{n}-pl{p_l:g}-pc{p_c:g}"
            if proto == SBFT and (ZYZZYVA, n, p_l, p_c) in evals:
                out += sbft_bound_failure(label, trace, evals[(ZYZZYVA, n, p_l, p_c)], p_c)
            if proto == "pbft" and n == 4 and p_l == 0.0 and p_c in self.oracle:
                for name, expected in self.oracle[p_c].items():
                    got = np.zeros(len(expected))
                    mass = trace.phase(name).mass
                    got[: len(mass)] = mass
                    gap = float(np.max(np.abs(got - expected)))
                    if gap > 1e-12:
                        out.append(Failure(label, "enumeration-oracle", f"{name} off by {gap:.3g}"))

        def value(proto, n, p_l, p_c, path):
            trace = evals.get((proto, n, p_l, p_c))
            return None if trace is None else trace.path_success[path]

        for op in ops:
            if op.sample or op.error is not None:
                continue
            proto = op.label.split("-", 1)[1]
            if op.label.startswith("sweep-"):
                rows = op.output
                bad = [r for r in rows if r.error is not None
                       or r.success != value(proto, r.n, r.p_l, r.p_c, r.path)]
                if bad:
                    out.append(Failure(op.label, "sweep-rows", f"{len(bad)} rows differ from their evaluation"))
                out += self._repeatable(op.label, [(r.n, r.p_l, r.p_c, r.path, r.success) for r in rows])
            elif op.label.startswith("gradient-"):
                fld = op.output
                path = "happy" if proto in ("pbft", "bft-smart") else "combined"
                for i, p_c in enumerate(fld.p_c_values):
                    for j, p_l in enumerate(fld.p_l_values):
                        expected = value(proto, self.GRADIENT_N, float(p_l), float(p_c), path)
                        if fld.success[i, j] != expected:
                            out.append(Failure(op.label, "gradient-value",
                                               f"success at p_l={p_l:g}, p_c={p_c:g} differs"))
                out += self._repeatable(op.label, (fld.success.tobytes(), fld.d_dpl.tobytes(), fld.d_dpc.tobytes()))
            else:
                n = int(op.label.split("-n")[1])
                x = op.output
                if 0.0 < x < 1.0 and not (self._gap(n, x - 1e-7) > 0.0 >= self._gap(n, x + 1e-7)):
                    out.append(Failure(op.label, "crossing-root", f"p_l={x:.9g} is not a sign change"))
                out += self._repeatable(op.label, x)
        return out

    def report(self, passes, walls):
        per_pass = statistics.median(sum(op.sample for op in ops) for ops in passes)
        return {"evals_per_pass": (per_pass, "count")}


class SimCampaign(Workload):
    """Aggregate-only Monte Carlo campaigns: criterion 3's configs plus PBFT at n=31."""

    name = "sim-campaign"
    latency_op = "campaign"
    latency_name = "campaign"
    latency_tail = 75
    P_L, P_C = 0.1, 0.05
    CONFIGS = (
        (ProtocolConfig("pbft", 7, 2), 8 * CHUNK),
        (ProtocolConfig("bft-smart", 7, 2), 8 * CHUNK),
        (ProtocolConfig("zyzzyva", 7, 2), 8 * CHUNK),
        (ProtocolConfig("sbft", 6, 1, 1), 8 * CHUNK),
        (ProtocolConfig("pbft", 31, 10), 2 * CHUNK),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        fp = FailureParams(self.P_L, self.P_C)
        self.sims = {sim_label(cfg): SimConfig(cfg, fp, requests, derive_seed(self.name, seed, sim_label(cfg)))
                     for cfg, requests in self.CONFIGS}
        self.traces = {label: protocols.model_trace(s.config, fp) for label, s in self.sims.items()}

    def warm_up(self, scratch: Path) -> None:
        sim.run_campaign(SimConfig(ProtocolConfig("pbft", 4, 1), FailureParams(self.P_L, self.P_C), 1000, 0))

    def _campaign(self, label: str):
        stats = sim.run_campaign(self.sims[label])
        return stats, sim.compare_to_model(stats, self.traces[label])

    def run_pass(self, pass_dir: Path) -> list[Op]:
        return [self._time(label, self._campaign, label) for label in self.sims]

    def check(self, ops: list[Op]) -> list[Failure]:
        out = []
        for op in ops:
            if op.error is not None:
                continue
            stats, _ = op.output
            requests = self.sims[op.label].requests
            out += success_failures(op.label, dict(stats.success), requests, self.traces[op.label])
            value = campaign_digest(
                {name: round(p * requests) for name, p in stats.success.items()},
                [round(x * requests) for x in stats.final_counts],
            )
            out += self._repeatable(op.label, value)
            out += self._reference_digest(op.label, value)
        return out

    def report(self, passes, walls):
        requests = sum(s.requests for s in self.sims.values())
        out = {"sim_kreq_per_s": (statistics.median(requests / w for w in walls) / 1e3, "kreq/s")}
        for label, config in self.sims.items():
            t = statistics.median(op.seconds for ops in passes for op in ops if op.label == label)
            out[f"sim_s_per_1e6.{label}"] = (t * 1e6 / config.requests, "s")
            out[f"sim_kreq_per_s.{label}"] = (config.requests / t / 1e3, "kreq/s")
        return out


class CliRecord(Workload):
    """`simulate --output --record` and `validate` through bftprob.cli.main."""

    name = "cli-record"
    latency_op = "CLI call"
    latency_name = "call"
    REQUESTS = 100_000
    VALIDATE_REQUESTS = 100_000
    MIN_COVERAGE = 0.9  # validate's own default floor
    INSPECTED = 4  # request indices replayed one by one

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sim_seed = derive_seed(self.name, seed, "simulate")
        self.sim = SimConfig(ProtocolConfig("pbft", 7, 2), FailureParams(0.1, 0.05), self.REQUESTS, self.sim_seed)
        self.trace = protocols.model_trace(self.sim.config, self.sim.failures)
        self.indices = sorted(int(i) for i in self.rng.choice(self.REQUESTS, self.INSPECTED, replace=False))
        self.pl_values = ",".join(f"{k / 100:g}" for k in sorted(self.rng.choice(np.arange(2, 21), 3, replace=False)))
        self.pc_values = ",".join(f"{k / 100:g}" for k in sorted(self.rng.choice(np.arange(1, 9), 2, replace=False)))
        self.validate_seed = derive_seed(self.name, seed, "validate")

    def _simulate_argv(self, out: Path, requests: int) -> list[str]:
        return ["simulate", "--protocol", "pbft", "-n", "7", "-f", "2", "--pl", "0.1", "--pc", "0.05",
                "--requests", str(requests), "--seed", str(self.sim_seed),
                "--output", str(out / "stats.csv"), "--record", str(out / "log.csv")]

    def _main(self, argv: list[str]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
        return {"code": code, "stdout": stdout.getvalue()}

    def warm_up(self, scratch: Path) -> None:
        self._main(self._simulate_argv(scratch, 1000))

    def run_pass(self, pass_dir: Path) -> list[Op]:
        validate = ["validate", "--protocol", "pbft", "-n", "7", "-f", "2",
                    "--pl-values", self.pl_values, "--pc-values", self.pc_values,
                    "--requests", str(self.VALIDATE_REQUESTS), "--seed", str(self.validate_seed),
                    "--output", str(pass_dir / "validate.csv")]
        ops = [self._time("simulate", self._main, self._simulate_argv(pass_dir, self.REQUESTS)),
               self._time("validate", self._main, validate)]
        for op in ops:
            op.facts["dir"] = pass_dir
        return ops

    @staticmethod
    def _manifest_failures(label: str, path: Path) -> list[Failure]:
        manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
        if manifest["sha256"] != hashlib.sha256(path.read_bytes()).hexdigest():
            return [Failure(label, "manifest", f"sha256 of {path.name} does not match its manifest")]
        return []

    def _check_simulate(self, op: Op) -> list[Failure]:
        out = []
        stats_path, log_path = op.facts["dir"] / "stats.csv", op.facts["dir"] / "log.csv"
        out += self._manifest_failures(op.label, stats_path)
        out += self._manifest_failures(op.label, log_path)
        n = self.sim.config.n
        # Stream the log, keeping only the inspected requests' rows, so the
        # check adds nothing to the process's peak memory.
        wanted = {rid * n + r for rid in self.indices for r in range(n)}
        picked, rows = {}, 0
        with log_path.open() as log:
            next(log)  # header
            for rows, line in enumerate(log, 1):
                if rows - 1 in wanted:
                    picked[rows - 1] = line.rstrip("\n")
        op.facts["rows"] = rows
        if rows != self.REQUESTS * n:
            out.append(Failure(op.label, "log-rows", f"{rows} rows, expected {self.REQUESTS * n}"))
            return out
        # Schedule invariance: one request simulated alone reproduces the
        # rows the whole campaign wrote for it.
        for rid in self.indices:
            rec = simulate_request(self.sim, rid)
            expected = [
                f"{rid},{r},{rec.phase_names[int(rec.highest_phase[r])]},"
                f"{int(rec.crash_step[r]) if rec.crash_step[r] >= 0 else ''},{rec.path}"
                for r in range(n)
            ]
            if [picked.get(rid * n + r) for r in range(n)] != expected:
                out.append(Failure(op.label, "schedule-invariance", f"request {rid} differs from its log rows"))
        success, final = {}, []
        for row in stats_path.read_text().splitlines()[1:]:
            metric, value = row.split(",")[8:10]
            if metric.startswith("success_"):
                success[metric[len("success_"):]] = float(value)
            elif metric.startswith("final_"):
                final.append(round(float(value) * self.REQUESTS))
        out += success_failures(op.label, success, self.REQUESTS, self.trace)
        value = campaign_digest({k: round(v * self.REQUESTS) for k, v in success.items()}, final)
        out += self._repeatable(op.label, value)
        out += self._reference_digest(op.label, value)
        return out

    def _check_validate(self, op: Op) -> list[Failure]:
        path = op.facts["dir"] / "validate.csv"
        out = self._manifest_failures(op.label, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        missed = [f"{r[8]}@p_l={float(r[4]):g},p_c={float(r[5]):g}" for r in rows if r[13] != "1"]
        coverage = 1.0 - len(missed) / len(rows)
        if coverage < self.MIN_COVERAGE:
            out.append(Failure(op.label, "validate-coverage",
                               f"coverage {coverage:.3f} < {self.MIN_COVERAGE}; uncovered: {', '.join(missed)}"))
        return out

    def check(self, ops: list[Op]) -> list[Failure]:
        out = []
        # Both calls write into the pass directory; count its bytes once.
        ops[0].facts["bytes"] = sum(p.stat().st_size for p in ops[0].facts["dir"].iterdir())
        for op in ops:
            if op.error is not None:
                continue
            if op.output["code"] != 0:
                out.append(Failure(op.label, "exit-code", f"exit {op.output['code']}: {op.output['stdout'][-200:]}"))
                continue
            try:
                out += self._check_simulate(op) if op.label == "simulate" else self._check_validate(op)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                out.append(Failure(op.label, "output-format", f"{type(exc).__name__}: {exc}"))
        return out

    def layer_extras(self, ops: list[Op]) -> dict[str, float]:
        return {"cli.bytes_written": ops[0].facts.get("bytes", 0), "cli.record_rows": ops[0].facts.get("rows", 0)}

    def report(self, passes, walls):
        rates = [op.facts.get("rows", 0) / op.seconds for ops in passes for op in ops if op.label == "simulate"]
        simulate = [op.seconds for ops in passes for op in ops if op.label == "simulate"]
        return {
            "record_rows_per_s": (statistics.median(rates), "rows/s"),
            "simulate_record_s": (statistics.median(simulate), "s"),
        }


WORKLOADS = {w.name: w for w in (ModelLargeN, AnalysisSmallN, SimCampaign, CliRecord)}
