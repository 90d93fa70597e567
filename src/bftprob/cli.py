"""Command-line surface: model evaluation, simulation, analysis, validation.

Every parameter is declared once, in `_PARAMS`: its flag, its converter and
its argparse extras.  `_COMMANDS` gives each subcommand its handler, its help
and, for each parameter it takes, a default, `REQUIRED`, or None (optional,
no default).  The parser, `--config` merging, the required checks and the
manifests all derive from these two tables, and each handler receives the
resolved parameters as one dict.

Parameters come from flags first, then from `--config FILE`, a JSON object
keyed by parameter name (`"n"`, `"pl_values"`, ...), then from defaults.  A
config value must have its parameter's JSON type: an integer for counts and
seeds, a number for rates, a string for names and paths (one of the flag's
choices where it has them), and for value lists a JSON list of numbers or
the flag's comma-separated text.  A null value counts as not given.  A key
that is not a parameter of the subcommand, or that is also given as a flag,
is an error.

Every run that writes an output file also writes `<output>.manifest.json`
recording the subcommand, the resolved parameters (all but the output
paths), the tool version, and a sha256 of the payload, hashed in 1 MiB
blocks so that no file is read whole.  `simulate --record` writes its
per-request, per-replica log as bytes assembled from uint8 tables, in
slices of whole requests that bound its buffers to a few MB.  A manifest's
`parameters` is a valid `--config` for its subcommand: rerunning with it and
output paths writes byte-identical files.  Probabilities serialize with 17
significant digits (lossless for float64).

Exit codes: 0 success, 2 argument/config error, 3 validation coverage below
the floor, 4 internal numeric error (normalization breach).
"""

from __future__ import annotations

import argparse
import contextlib
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
from .sim import PATH_NAMES, SimConfig, run_campaign, validate_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COVERAGE = 3
EXIT_NUMERIC = 4


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(rows: list[list]) -> str:
    """Floats with 17 significant digits, None as empty, the rest by str."""
    def cell(v) -> str:
        if v is None:
            return ""
        return _fmt(v) if isinstance(v, (float, np.floating)) else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in rows)


def _write_manifest(path: str, subcommand: str, params: dict) -> None:
    digest = hashlib.sha256()
    with open(path, "rb") as payload:
        for block in iter(lambda: payload.read(1 << 20), b""):
            digest.update(block)
    manifest = {
        "subcommand": subcommand,
        "parameters": {k: params[k] for k in sorted(params) if k not in ("output", "record")},
        "seed": params.get("seed"),
        "version": __version__,
        "output": Path(path).name,
        "sha256": digest.hexdigest(),
    }
    Path(str(path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _write_output(p: dict, subcommand: str, text: str) -> None:
    Path(p["output"]).write_text(text)
    _write_manifest(p["output"], subcommand, p)


def _value_list(item: type):
    """Converter for a list of `item`s, given as comma text or a JSON list."""

    def convert(value) -> tuple:
        if isinstance(value, str):
            value = [item(tok) for tok in value.split(",") if tok.strip()]
        elif not all(isinstance(v, _JSON_TYPES[item]) and not isinstance(v, bool) for v in value):
            raise TypeError(f"expected a list of {item.__name__}s")
        if not value:
            raise ValueError("empty list")
        return tuple(item(v) for v in value)

    convert.__name__ = f"{item.__name__} list"
    return convert


def _fraction(value) -> float:
    """A float in [0, 1]; NaN and anything outside raise ValueError."""
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{x!r} is outside [0, 1]")
    return x


_fraction.__name__ = "fraction"

# The JSON types a --config value may have, per converter.
_JSON_TYPES = {int: int, float: (int, float), _fraction: (int, float), str: str}
_int_list, _float_list = _value_list(int), _value_list(float)

# name -> (flag, converter, argparse extras)
_PARAMS = {
    "protocol": ("--protocol", str, {"choices": PROTOCOLS}),
    "n": ("-n", int, {}),
    "n_values": ("--n-values", _int_list, {}),
    "f": ("-f", int, {}),
    "c": ("-c", int, {}),
    "pl": ("--pl", float, {"help": "link failure probability"}),
    "pc": ("--pc", float, {"help": "crash failure probability"}),
    "pl_values": ("--pl-values", _float_list, {}),
    "pc_values": ("--pc-values", _float_list, {}),
    "requests": ("--requests", int, {}),
    "seed": ("--seed", int, {}),
    "threshold": ("--threshold", str, {"choices": ("happy", "liveness")}),
    "step": ("--step", float, {}),
    "min_coverage": ("--min-coverage", _fraction, {"help": "coverage floor in [0, 1]"}),
    "expected": ("--expected", float, {"help": "expected active count after the previous phase"}),
    "mu": ("--mu", float, {}),
    "sigma": ("--sigma", float, {}),
    "rate": ("--rate", float, {}),
    "p": ("--p", float, {"help": "link failure probability"}),
    "q": ("--q", float, {"help": "relative quorum size"}),
    "format": ("--format", str, {"choices": ("csv", "json")}),
    "output": ("--output", str, {"help": "write the result here"}),
    "record": ("--record", str, {"help": "write per-request log CSV here"}),
}

REQUIRED = object()


def _cmd_model(p: dict) -> int:
    cfg = ProtocolConfig(p["protocol"], p["n"], p["f"], p["c"])
    trace = model_trace(cfg, FailureParams(p["pl"], p["pc"]))
    for name in sorted(trace.path_success):
        print(f"path {name} success={_fmt(trace.path_success[name])}")
    if trace.primary_quorum_prob is not None:
        print(f"primary quorum prob={_fmt(trace.primary_quorum_prob)}")
    if p["output"]:
        header = ["protocol", "n", "f", "c", "p_l", "p_c", "phase", "k", "prob"]
        base = [cfg.protocol, cfg.n, cfg.f, cfg.c, p["pl"], p["pc"]]
        rows = [base + [phase, k, float(prob)]
                for phase, pmf in trace.phases for k, prob in enumerate(pmf.mass)]
        if p["format"] == "csv":
            text = _csv([header] + rows)
        else:
            text = json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"
        _write_output(p, "model", text)
    return EXIT_OK


# Rows per formatting slice of `_record_writer`: bounds its transient
# buffers to a few MB whatever the replica count.
_SLICE_ROWS = 1 << 17


def _byte_table(strings: list[str]) -> np.ndarray:
    """One uint8 row of ASCII bytes per string, NUL-padded to the longest."""
    encoded = [s.encode() for s in strings]
    table = np.zeros((len(encoded), max(map(len, encoded))), dtype=np.uint8)
    for row, text in zip(table, encoded):
        row[: len(text)] = np.frombuffer(text, dtype=np.uint8)
    return table


def _digit_columns(lo: int, hi: int) -> np.ndarray:
    """ASCII digits of lo .. hi-1, one row each, leading zeros as NUL."""
    ids = np.arange(lo, hi, dtype=np.int64)[:, None]
    powers = 10 ** np.arange(len(str(hi - 1)) - 1, -1, -1, dtype=np.int64)
    digits = (ids // powers % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][ids < powers[:-1]] = 0
    return digits


def _record_writer(log):
    """Record sink that appends each chunk's per-replica rows to `log`.

    `log` is a binary file.  Every byte of a row after "request,replica"
    depends only on (phase, crash step, path), so each chunk encodes those
    suffixes once as a NUL-padded uint8 table and looks them up by code.
    Rows are assembled in slices of whole requests, at most `_SLICE_ROWS`
    rows each: request-id digits, the replica's ",{r}" and the gathered
    suffix fill a (requests, n, width) byte buffer, whose non-NUL bytes are
    the rows in order.
    """

    def sink(start: int, res, valid: int) -> None:
        n = res.highest.shape[1]
        steps = int(res.crash[:valid].max(initial=-1)) + 2  # crash steps -1 (none) .. max
        suffixes = _byte_table([f",{phase},{step if step >= 0 else ''},{name}\n"
                                for phase in res.phase_names for step in range(-1, steps - 1)
                                for name in PATH_NAMES])
        replicas = _byte_table([f",{r}" for r in range(n)])
        per_slice = max(1, _SLICE_ROWS // n)
        for lo in range(0, valid, per_slice):
            hi = min(lo + per_slice, valid)
            codes = ((res.highest[lo:hi].astype(np.intp) * steps + res.crash[lo:hi] + 1)
                     * len(PATH_NAMES) + res.path[lo:hi, None])
            ids = _digit_columns(start + lo, start + hi)
            d, r = ids.shape[1], replicas.shape[1]
            buf = np.empty((hi - lo, n, d + r + suffixes.shape[1]), dtype=np.uint8)
            buf[:, :, :d] = ids[:, None]
            buf[:, :, d : d + r] = replicas
            buf[:, :, d + r :] = np.take(suffixes, codes, axis=0)
            log.write(buf[buf != 0])

    return sink


def _cmd_simulate(p: dict) -> int:
    sim = SimConfig(ProtocolConfig(p["protocol"], p["n"], p["f"], p["c"]),
                    FailureParams(p["pl"], p["pc"]), p["requests"], p["seed"])
    if p["record"]:
        # Rows stream into a scratch file beside the log, which replaces the
        # log only once the campaign completes: a failed run leaves no
        # partial log and leaves any earlier log and manifest as they were.
        partial = f"{p['record']}.{os.getpid()}.partial"
        try:
            with open(partial, "wb") as log:
                log.write(b"request_id,replica,phase_reached,crash_phase,path\n")
                stats = run_campaign(sim, record_sink=_record_writer(log))
            os.replace(partial, p["record"])
        finally:
            if os.path.exists(partial):
                os.remove(partial)
        _write_manifest(p["record"], "simulate-record", p)
    else:
        stats = run_campaign(sim)
    for name in sorted(stats.success):
        lo, hi = stats.success_ci[name]
        print(f"success {name}={_fmt(stats.success[name])} ci=({_fmt(lo)},{_fmt(hi)})")
    if p["output"]:
        base = [p[k] for k in ("protocol", "n", "f", "c", "pl", "pc", "requests", "seed")]
        rows = [["protocol", "n", "f", "c", "p_l", "p_c", "requests", "seed",
                 "metric", "value", "ci_lo", "ci_hi"]]
        rows += [base + [st.name, st.mean, st.ci_lo, st.ci_hi] for st in stats.phase_stats]
        rows += [base + [f"success_{name}", stats.success[name], *stats.success_ci[name]]
                 for name in sorted(stats.success)]
        rows += [base + [f"final_{stats.final_phase}[{k}]", float(freq), None, None]
                 for k, freq in enumerate(stats.final_counts)]
        _write_output(p, "simulate", _csv(rows))
    return EXIT_OK


def _cmd_boundary(p: dict) -> int:
    print(f"boundary rate={_fmt(stability_boundary(p['f'], p['n'], p['expected']))}")
    return EXIT_OK


def _cmd_timeout(p: dict) -> int:
    est = timeout_for_boundary(p["mu"], p["sigma"], p["rate"])
    print(f"timeout at rate quantile={_fmt(est.at_rate_quantile)} ms")
    print(f"timeout at complement quantile={_fmt(est.at_complement_quantile)} ms")
    return EXIT_OK


def _cmd_asymptote(p: dict) -> int:
    print(f"limit={_fmt(quorum_asymptote(p['p'], p['q']))}")
    return EXIT_OK


def _grid(p: dict, **extra) -> SweepGrid:
    return SweepGrid(protocol=p["protocol"], p_l_values=p["pl_values"],
                     p_c_values=p["pc_values"], n=p["n"], f=p["f"], c=p["c"],
                     threshold=p["threshold"], **extra)


def _write_or_print(p: dict, subcommand: str, rows: list[list]) -> int:
    if p["output"]:
        _write_output(p, subcommand, _csv(rows))
    else:
        sys.stdout.write(_csv(rows))
    return EXIT_OK


def _cmd_sweep(p: dict) -> int:
    rows = [["n", "f", "c", "p_l", "p_c", "path", "success", "error"]]
    rows += [[r.n, r.f, r.c, r.p_l, r.p_c, r.path, r.success, r.error]
             for r in sweep(_grid(p, n_values=p["n_values"]))]
    return _write_or_print(p, "analyze-sweep", rows)


def _cmd_gradient(p: dict) -> int:
    field = gradient_field(_grid(p), step=p["step"])
    rows = [["p_c", "p_l", "success", "d_dpc", "d_dpl"]]
    rows += [[p_c, p_l, field.success[i, j], field.d_dpc[i, j], field.d_dpl[i, j]]
             for i, p_c in enumerate(field.p_c_values)
             for j, p_l in enumerate(field.p_l_values)]
    return _write_or_print(p, "analyze-gradient", rows)


def _cmd_validate(p: dict) -> int:
    pl_values = p["pl_values"] or (p["pl"],)
    pc_values = p["pc_values"] or (p["pc"],)
    if None in pl_values + pc_values:
        raise DomainError("validate needs --pl/--pc or --pl-values/--pc-values")
    cfg = ProtocolConfig(p["protocol"], p["n"], p["f"], p["c"])

    rows = [["protocol", "n", "f", "c", "p_l", "p_c", "requests", "seed",
             "phase", "predicted", "observed", "ci_lo", "ci_hi", "covered"]]
    for p_c in pc_values:
        for p_l in pl_values:
            check = validate_model(SimConfig(cfg, FailureParams(p_l, p_c),
                                             p["requests"], p["seed"]))
            rows += [[cfg.protocol, cfg.n, cfg.f, cfg.c, p_l, p_c, p["requests"], p["seed"],
                      r.name, r.predicted, r.observed, r.ci_lo, r.ci_hi, int(r.covered)]
                     for r in check.rows]
    covered = sum(row[-1] for row in rows[1:])
    total = len(rows) - 1
    coverage = covered / total
    print(f"coverage={_fmt(coverage)} ({covered}/{total} phase checks)")
    if p["output"]:
        _write_output(p, "validate", _csv(rows))
    if coverage < p["min_coverage"]:
        print(f"coverage below floor {_fmt(p['min_coverage'])}", file=sys.stderr)
        return EXIT_COVERAGE
    return EXIT_OK


_PROTOCOL = {"protocol": REQUIRED, "n": REQUIRED, "f": REQUIRED, "c": 0}
_SIM = {**_PROTOCOL, "pl": REQUIRED, "pc": REQUIRED, "requests": REQUIRED, "seed": REQUIRED}
_GRID = {"protocol": REQUIRED, "n": None, "f": None, "c": 0, "pl_values": REQUIRED,
         "pc_values": REQUIRED, "threshold": "happy", "output": None}

# subcommand -> (handler, help, {parameter: default, REQUIRED or None})
_COMMANDS = {
    "model": (_cmd_model, "evaluate an analytic protocol model",
              {**_PROTOCOL, "pl": REQUIRED, "pc": REQUIRED, "output": None, "format": "csv"}),
    "simulate": (_cmd_simulate, "run a seeded simulation campaign",
                 {**_SIM, "output": None, "record": None}),
    "analyze boundary": (_cmd_boundary, "quorum stability boundary rate",
                         {"n": REQUIRED, "f": REQUIRED, "expected": REQUIRED}),
    "analyze timeout": (_cmd_timeout, "timeout for a delay distribution and boundary rate",
                        {"mu": REQUIRED, "sigma": REQUIRED, "rate": REQUIRED}),
    "analyze asymptote": (_cmd_asymptote, "large-n limit of quorum success",
                          {"p": REQUIRED, "q": REQUIRED}),
    "analyze sweep": (_cmd_sweep, "success probabilities over a failure grid",
                      {**_GRID, "n_values": None}),
    "analyze gradient": (_cmd_gradient, "finite-difference gradient field of success",
                         {**_GRID, "n": REQUIRED, "step": 0.005}),
    "validate": (_cmd_validate, "compare simulation campaigns against the models",
                 {**_SIM, "pl": None, "pc": None, "pl_values": None, "pc_values": None,
                  "min_coverage": 0.9, "output": None}),
}
_GROUP_HELP = {"analyze": "stability, timeout, asymptote, sweep, gradient"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bftprob",
        description="Replica-state distributions for BFT happy paths under dynamic failures.",
    )
    parser.add_argument("--version", action="version", version=f"bftprob {__version__}")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (_, help_text, spec) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            p_group = subparsers[""].add_parser(group, help=_GROUP_HELP[group])
            subparsers[group] = p_group.add_subparsers(dest="mode", required=True)
        p = subparsers[group].add_parser(leaf, help=help_text)
        for key in spec:
            flag, convert, extras = _PARAMS[key]
            p.add_argument(flag, dest=key, type=convert, **extras)
        p.add_argument("--config", help="JSON file of parameters (conflicts with flags are errors)")
        p.set_defaults(_command=name, _parser=p)
    return parser


def _from_json(key: str, value, parser: argparse.ArgumentParser):
    _, convert, extras = _PARAMS[key]
    if (not isinstance(value, bool) and isinstance(value, _JSON_TYPES.get(convert, (str, list)))
            and value in extras.get("choices", (value,))):
        with contextlib.suppress(TypeError, ValueError):
            return convert(value)
    parser.error(f"--config {key}: invalid {convert.__name__} value: {value!r}")


def _resolve(args: argparse.Namespace) -> dict:
    """Parameters from flags, then --config, then the subcommand's defaults."""
    parser, spec = args._parser, _COMMANDS[args._command][2]
    given = {key: getattr(args, key) for key in spec if getattr(args, key) is not None}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            parser.error("--config must contain a JSON object")
        for key, value in loaded.items():
            if key not in spec:
                parser.error(f"--config key {key!r} is not a parameter of this subcommand")
            if key in given:
                parser.error(f"{key!r} given both on the command line and in --config")
            if value is not None:
                given[key] = _from_json(key, value, parser)
    for key, default in spec.items():
        if given.setdefault(key, default) is REQUIRED:
            parser.error(f"missing required option {_PARAMS[key][0]}")
    for path in map(Path, filter(None, (given.get("output"), given.get("record")))):
        if path.is_dir() or not path.parent.is_dir():
            parser.error(f"cannot write {path}: "
                         f"{'is a directory' if path.is_dir() else 'no such directory'}")
    return given


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    params = _resolve(args)
    try:
        return _COMMANDS[args._command][0](params)
    except NormalizationError as exc:
        print(f"internal numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
