"""Command-line surface: model evaluation, simulation, analysis, validation.

Every run that writes an output file also writes `<output>.manifest.json`
recording the subcommand, the fully resolved parameters, the tool version,
and a sha256 of the payload, so any manifest can be replayed to
byte-identical results.  Probabilities serialize with 17 significant
digits (lossless for float64).

Exit codes: 0 success, 2 argument/config error, 3 validation coverage below
the floor, 4 internal numeric error (normalization breach).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    SweepGrid,
    gradient_field,
    quorum_asymptote,
    stability_boundary,
    sweep,
    timeout_for_boundary,
)
from .prob import DomainError, FailureParams, NormalizationError
from .protocols import PROTOCOLS, ProtocolConfig, model_trace
from .sim import PATH_NAMES, SimConfig, compare_to_model, run_campaign

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COVERAGE = 3
EXIT_NUMERIC = 4


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _write_manifest(path: str, subcommand: str, params: dict) -> None:
    payload = Path(path).read_bytes()
    manifest = {
        "subcommand": subcommand,
        "parameters": {k: params[k] for k in sorted(params)},
        "seed": params.get("seed"),
        "version": __version__,
        "output": Path(path).name,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    Path(str(path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset options from --config JSON; explicit flag + file key is an error."""
    if getattr(args, "config", None) is None:
        return args
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read --config {args.config}: {exc}")
    if not isinstance(loaded, dict):
        parser.error("--config must contain a JSON object")
    for key, value in loaded.items():
        if not hasattr(args, key) or key == "config":
            parser.error(f"--config key {key!r} is not a parameter of this subcommand")
        if getattr(args, key) is not None:
            parser.error(f"{key!r} given both on the command line and in --config")
        setattr(args, key, value)
    return args


def _require(args: argparse.Namespace, parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"missing required option --{name.replace('_', '-')}")


def _defaults(args: argparse.Namespace, **values) -> None:
    for key, value in values.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _probs_list(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip() != "")


def _ints_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip() != "")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bftprob",
        description="Replica-state distributions for BFT happy paths under dynamic failures.",
    )
    parser.add_argument("--version", action="version", version=f"bftprob {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, sim: bool = False) -> None:
        p.add_argument("--protocol", choices=PROTOCOLS)
        p.add_argument("-n", type=int, dest="n")
        p.add_argument("-f", type=int, dest="f")
        p.add_argument("-c", type=int, dest="c")
        p.add_argument("--pl", type=float, dest="pl", help="link failure probability")
        p.add_argument("--pc", type=float, dest="pc", help="crash failure probability")
        p.add_argument("--config", help="JSON file of parameters (conflicts with flags are errors)")
        if sim:
            p.add_argument("--requests", type=int)
            p.add_argument("--seed", type=int)

    p_model = sub.add_parser("model", help="evaluate an analytic protocol model")
    add_common(p_model)
    p_model.add_argument("--output", help="write the phase distributions here")
    p_model.add_argument("--format", choices=("csv", "json"))

    p_sim = sub.add_parser("simulate", help="run a seeded simulation campaign")
    add_common(p_sim, sim=True)
    p_sim.add_argument("--output", help="write campaign statistics CSV here")
    p_sim.add_argument("--record", help="write per-request log CSV here")

    p_an = sub.add_parser("analyze", help="stability, timeout, asymptote, sweep, gradient")
    an_sub = p_an.add_subparsers(dest="mode", required=True)

    p_b = an_sub.add_parser("boundary", help="quorum stability boundary rate")
    p_b.add_argument("-n", type=int, dest="n")
    p_b.add_argument("-f", type=int, dest="f")
    p_b.add_argument("--expected", type=float, help="expected active count after the previous phase")
    p_b.add_argument("--config")

    p_t = an_sub.add_parser("timeout", help="timeout for a delay distribution and boundary rate")
    p_t.add_argument("--mu", type=float)
    p_t.add_argument("--sigma", type=float)
    p_t.add_argument("--rate", type=float)
    p_t.add_argument("--config")

    p_a = an_sub.add_parser("asymptote", help="large-n limit of quorum success")
    p_a.add_argument("--p", type=float, help="link failure probability")
    p_a.add_argument("--q", type=float, help="relative quorum size")
    p_a.add_argument("--config")

    p_s = an_sub.add_parser("sweep", help="success probabilities over a failure grid")
    p_s.add_argument("--protocol", choices=PROTOCOLS)
    p_s.add_argument("--n-values", dest="n_values")
    p_s.add_argument("-n", type=int, dest="n")
    p_s.add_argument("-f", type=int, dest="f")
    p_s.add_argument("-c", type=int, dest="c")
    p_s.add_argument("--pl-values", dest="pl_values")
    p_s.add_argument("--pc-values", dest="pc_values")
    p_s.add_argument("--threshold", choices=("happy", "liveness"))
    p_s.add_argument("--output")
    p_s.add_argument("--config")

    p_g = an_sub.add_parser("gradient", help="finite-difference gradient field of success")
    p_g.add_argument("--protocol", choices=PROTOCOLS)
    p_g.add_argument("-n", type=int, dest="n")
    p_g.add_argument("-f", type=int, dest="f")
    p_g.add_argument("-c", type=int, dest="c")
    p_g.add_argument("--pl-values", dest="pl_values")
    p_g.add_argument("--pc-values", dest="pc_values")
    p_g.add_argument("--step", type=float)
    p_g.add_argument("--threshold", choices=("happy", "liveness"))
    p_g.add_argument("--output")
    p_g.add_argument("--config")

    p_v = sub.add_parser("validate", help="compare simulation campaigns against the models")
    add_common(p_v, sim=True)
    p_v.add_argument("--pl-values", dest="pl_values")
    p_v.add_argument("--pc-values", dest="pc_values")
    p_v.add_argument("--min-coverage", type=float, dest="min_coverage")
    p_v.add_argument("--output")

    return parser


def _protocol_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ProtocolConfig:
    _require(args, parser, ["protocol", "n", "f"])
    _defaults(args, c=0)
    return ProtocolConfig(args.protocol, args.n, args.f, args.c)


def _cmd_model(args, parser) -> int:
    cfg = _protocol_config(args, parser)
    _require(args, parser, ["pl", "pc"])
    _defaults(args, format="csv")
    trace = model_trace(cfg, FailureParams(args.pl, args.pc))
    for name in sorted(trace.path_success):
        print(f"path {name} success={_fmt(trace.path_success[name])}")
    if trace.primary_quorum_prob is not None:
        print(f"primary quorum prob={_fmt(trace.primary_quorum_prob)}")
    if args.output:
        header = ["protocol", "n", "f", "c", "p_l", "p_c", "phase", "k", "prob"]
        base = [cfg.protocol, str(cfg.n), str(cfg.f), str(cfg.c), _fmt(args.pl), _fmt(args.pc)]
        rows = [header]
        records = []
        for phase, pmf in trace.phases:
            for k, prob in enumerate(pmf.mass):
                rows.append(base + [phase, str(k), _fmt(prob)])
                records.append(
                    dict(zip(header, [cfg.protocol, cfg.n, cfg.f, cfg.c,
                                      args.pl, args.pc, phase, k, float(prob)]))
                )
        if args.format == "csv":
            _write_text(args.output, _csv(rows))
        else:
            _write_text(args.output, json.dumps(records, indent=1) + "\n")
        _write_manifest(args.output, "model", {
            "protocol": cfg.protocol, "n": cfg.n, "f": cfg.f, "c": cfg.c,
            "pl": args.pl, "pc": args.pc, "format": args.format,
        })
    return EXIT_OK


def _sim_config(args, parser) -> SimConfig:
    cfg = _protocol_config(args, parser)
    _require(args, parser, ["pl", "pc", "requests", "seed"])
    return SimConfig(cfg, FailureParams(args.pl, args.pc), args.requests, args.seed)


def _record_writer(log):
    """Record sink that appends each chunk's per-replica rows to `log`.

    Everything in a row after "request,replica," depends only on (phase,
    crash step, path), so each chunk formats those suffixes once and looks
    them up by code.
    """

    def sink(start: int, res, valid: int) -> None:
        highest, crash, path = res.highest[:valid], res.crash[:valid], res.path[:valid]
        steps = int(crash.max(initial=-1)) + 2  # crash steps -1 (none) .. max
        table = [f"{phase},{step if step >= 0 else ''},{name}\n"
                 for phase in res.phase_names for step in range(-1, steps - 1)
                 for name in PATH_NAMES]
        codes = (highest.astype(np.int64) * steps + crash + 1) * len(PATH_NAMES) + path[:, None]
        log.write("".join([
            f"{rid},{replica},{table[code]}"
            for rid, row in enumerate(codes.tolist(), start)
            for replica, code in enumerate(row)
        ]))

    return sink


def _cmd_simulate(args, parser) -> int:
    sim = _sim_config(args, parser)
    if args.record:
        # Rows stream into a scratch file beside the log, which replaces the
        # log only once the campaign completes: a failed run leaves no
        # partial log and leaves any earlier log and manifest as they were.
        partial = f"{args.record}.{os.getpid()}.partial"
        try:
            with open(partial, "w") as log:
                log.write("request_id,replica,phase_reached,crash_phase,path\n")
                stats = run_campaign(sim, record_sink=_record_writer(log))
            os.replace(partial, args.record)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
    else:
        stats = run_campaign(sim)
    for name in sorted(stats.success):
        lo, hi = stats.success_ci[name]
        print(f"success {name}={_fmt(stats.success[name])} ci=({_fmt(lo)},{_fmt(hi)})")

    base_params = {
        "protocol": sim.config.protocol, "n": sim.config.n, "f": sim.config.f,
        "c": sim.config.c, "pl": sim.failures.p_l, "pc": sim.failures.p_c,
        "requests": sim.requests, "seed": sim.seed,
    }
    if args.output:
        base = [sim.config.protocol, str(sim.config.n), str(sim.config.f), str(sim.config.c),
                _fmt(sim.failures.p_l), _fmt(sim.failures.p_c), str(sim.requests), str(sim.seed)]
        rows = [["protocol", "n", "f", "c", "p_l", "p_c", "requests", "seed",
                 "metric", "value", "ci_lo", "ci_hi"]]
        for st in stats.phase_stats:
            rows.append(base + [st.name, _fmt(st.mean), _fmt(st.ci_lo), _fmt(st.ci_hi)])
        for name in sorted(stats.success):
            lo, hi = stats.success_ci[name]
            rows.append(base + [f"success_{name}", _fmt(stats.success[name]), _fmt(lo), _fmt(hi)])
        for k, freq in enumerate(stats.final_counts):
            rows.append(base + [f"final_{stats.final_phase}[{k}]", _fmt(freq), "", ""])
        _write_text(args.output, _csv(rows))
        _write_manifest(args.output, "simulate", base_params)
    if args.record:
        _write_manifest(args.record, "simulate-record", base_params)
    return EXIT_OK


def _cmd_analyze(args, parser) -> int:
    if args.mode == "boundary":
        _require(args, parser, ["n", "f", "expected"])
        rate = stability_boundary(args.f, args.n, args.expected)
        print(f"boundary rate={_fmt(rate)}")
        return EXIT_OK
    if args.mode == "timeout":
        _require(args, parser, ["mu", "sigma", "rate"])
        est = timeout_for_boundary(args.mu, args.sigma, args.rate)
        print(f"timeout at rate quantile={_fmt(est.at_rate_quantile)} ms")
        print(f"timeout at complement quantile={_fmt(est.at_complement_quantile)} ms")
        return EXIT_OK
    if args.mode == "asymptote":
        _require(args, parser, ["p", "q"])
        print(f"limit={_fmt(quorum_asymptote(args.p, args.q))}")
        return EXIT_OK

    _require(args, parser, ["protocol", "pl_values", "pc_values"])
    _defaults(args, c=0)
    pl_values = _probs_list(args.pl_values)
    pc_values = _probs_list(args.pc_values)
    if args.mode == "sweep":
        _defaults(args, threshold="happy")
        n_values = _ints_list(args.n_values) if args.n_values is not None else None
        grid = SweepGrid(
            protocol=args.protocol, p_l_values=pl_values, p_c_values=pc_values,
            n=args.n, n_values=n_values, f=args.f, c=args.c, threshold=args.threshold,
        )
        rows = [["n", "f", "c", "p_l", "p_c", "path", "success", "error"]]
        for r in sweep(grid):
            rows.append([
                str(r.n), "" if r.f is None else str(r.f), str(r.c),
                _fmt(r.p_l), _fmt(r.p_c), r.path,
                "" if r.success is None else _fmt(r.success),
                r.error or "",
            ])
        text = _csv(rows)
        if args.output:
            _write_text(args.output, text)
            _write_manifest(args.output, "analyze-sweep", {
                "protocol": args.protocol, "n": args.n, "n_values": args.n_values,
                "f": args.f, "c": args.c, "pl_values": list(pl_values),
                "pc_values": list(pc_values), "threshold": args.threshold,
            })
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if args.mode == "gradient":
        _require(args, parser, ["n"])
        _defaults(args, step=0.005, threshold="happy")
        grid = SweepGrid(
            protocol=args.protocol, p_l_values=pl_values, p_c_values=pc_values,
            n=args.n, f=args.f, c=args.c, threshold=args.threshold,
        )
        field = gradient_field(grid, step=args.step)
        rows = [["p_c", "p_l", "success", "d_dpc", "d_dpl"]]
        for i, p_c in enumerate(field.p_c_values):
            for j, p_l in enumerate(field.p_l_values):
                rows.append([
                    _fmt(p_c), _fmt(p_l), _fmt(field.success[i, j]),
                    _fmt(field.d_dpc[i, j]), _fmt(field.d_dpl[i, j]),
                ])
        text = _csv(rows)
        if args.output:
            _write_text(args.output, text)
            _write_manifest(args.output, "analyze-gradient", {
                "protocol": args.protocol, "n": args.n, "f": args.f, "c": args.c,
                "pl_values": list(pl_values), "pc_values": list(pc_values),
                "step": args.step,
            })
        else:
            sys.stdout.write(text)
        return EXIT_OK
    parser.error(f"unknown analyze mode {args.mode!r}")
    return EXIT_USAGE


def _cmd_validate(args, parser) -> int:
    _require(args, parser, ["protocol", "n", "f", "requests", "seed"])
    _defaults(args, c=0, min_coverage=0.9)
    pl_values = _probs_list(args.pl_values) if args.pl_values is not None else (args.pl,)
    pc_values = _probs_list(args.pc_values) if args.pc_values is not None else (args.pc,)
    if pl_values == (None,) or pc_values == (None,):
        parser.error("validate needs --pl/--pc or --pl-values/--pc-values")
    cfg = ProtocolConfig(args.protocol, args.n, args.f, args.c)

    rows = [["protocol", "n", "f", "c", "p_l", "p_c", "requests", "seed",
             "phase", "predicted", "observed", "ci_lo", "ci_hi", "covered"]]
    covered = 0
    total = 0
    for p_c in pc_values:
        for p_l in pl_values:
            sim = SimConfig(cfg, FailureParams(p_l, p_c), args.requests, args.seed)
            stats = run_campaign(sim)
            check = compare_to_model(stats, model_trace(cfg, sim.failures))
            for r in check.rows:
                covered += r.covered
                total += 1
                rows.append([
                    cfg.protocol, str(cfg.n), str(cfg.f), str(cfg.c),
                    _fmt(p_l), _fmt(p_c), str(args.requests), str(args.seed),
                    r.name, _fmt(r.predicted), _fmt(r.observed),
                    _fmt(r.ci_lo), _fmt(r.ci_hi), str(int(r.covered)),
                ])
    coverage = covered / total
    print(f"coverage={_fmt(coverage)} ({covered}/{total} phase checks)")
    if args.output:
        _write_text(args.output, _csv(rows))
        _write_manifest(args.output, "validate", {
            "protocol": cfg.protocol, "n": cfg.n, "f": cfg.f, "c": cfg.c,
            "pl_values": list(pl_values), "pc_values": list(pc_values),
            "requests": args.requests, "seed": args.seed,
            "min_coverage": args.min_coverage,
        })
    if coverage < args.min_coverage:
        print(f"coverage below floor {_fmt(args.min_coverage)}", file=sys.stderr)
        return EXIT_COVERAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args = _merge_config(args, parser)
    try:
        if args.command == "model":
            return _cmd_model(args, parser)
        if args.command == "simulate":
            return _cmd_simulate(args, parser)
        if args.command == "analyze":
            return _cmd_analyze(args, parser)
        if args.command == "validate":
            return _cmd_validate(args, parser)
    except NormalizationError as exc:
        print(f"internal numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
