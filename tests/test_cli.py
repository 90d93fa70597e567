"""Command-line surface: round trips, determinism, exit codes, manifests."""

import argparse
import json
from pathlib import Path

import pytest

import bftprob.cli as cli
import bftprob.sim as sim
from bftprob import FailureParams, ProtocolConfig, pbft_model
from bftprob.cli import EXIT_COVERAGE, EXIT_OK, EXIT_USAGE, main


class TestModelCommand:
    def test_success_printed_byte_for_byte(self, capsys):
        assert main(["model", "--protocol", "pbft", "-n", "10", "-f", "3",
                     "--pl", "0.1", "--pc", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        trace = pbft_model(ProtocolConfig("pbft", 10, 3), FailureParams(0.1, 0.0))
        assert f"path happy success={trace.path_success['happy']:.17g}" in out

    def test_trivial_success_is_one(self, capsys):
        main(["model", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0", "--pc", "0"])
        assert "path happy success=1" in capsys.readouterr().out

    def test_sbft_size_constraint(self, capsys):
        code = main(["model", "--protocol", "sbft", "-n", "5", "-f", "1", "-c", "1",
                     "--pl", "0", "--pc", "0"])
        assert code == EXIT_USAGE
        assert "3f+2c+1" in capsys.readouterr().err

    def test_csv_output_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["model", "--protocol", "pbft", "-n", "4", "-f", "1",
              "--pl", "0.1", "--pc", "0.05", "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "protocol,n,f,c,p_l,p_c,phase,k,prob"
        trace = pbft_model(ProtocolConfig("pbft", 4, 1), FailureParams(0.1, 0.05))
        total_rows = sum(len(pmf.mass) for _, pmf in trace.phases)
        assert len(lines) == 1 + total_rows
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "model"
        assert manifest["parameters"]["n"] == 4
        assert len(manifest["sha256"]) == 64

    def test_json_output_mirrors_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "t.csv"
        out_json = tmp_path / "t.json"
        args = ["model", "--protocol", "zyzzyva", "-n", "4", "-f", "1",
                "--pl", "0.2", "--pc", "0.1"]
        main(args + ["--output", str(out_csv)])
        main(args + ["--output", str(out_json), "--format", "json"])
        records = json.loads(out_json.read_text())
        csv_rows = out_csv.read_text().splitlines()[1:]
        assert len(records) == len(csv_rows)
        first = records[0]
        assert csv_rows[0].startswith(f"{first['protocol']},{first['n']},{first['f']}")

    def test_replay_is_byte_identical(self, tmp_path):
        args = ["model", "--protocol", "pbft", "-n", "7", "-f", "2",
                "--pl", "0.13", "--pc", "0.07"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert ma["sha256"] == mb["sha256"]


class TestSimulateCommand:
    def test_same_seed_byte_identical(self, tmp_path):
        base = ["simulate", "--protocol", "pbft", "-n", "4", "-f", "1",
                "--pl", "0.1", "--pc", "0.05", "--requests", "500", "--seed", "99"]
        for name in ("x", "y"):
            main(base + ["--output", str(tmp_path / f"{name}.csv"),
                         "--record", str(tmp_path / f"{name}.log.csv")])
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.log.csv").read_bytes() == (tmp_path / "y.log.csv").read_bytes()

    def test_record_schema(self, tmp_path):
        log = tmp_path / "log.csv"
        main(["simulate", "--protocol", "zyzzyva", "-n", "4", "-f", "1",
              "--pl", "0.2", "--pc", "0.1", "--requests", "50", "--seed", "3",
              "--record", str(log)])
        lines = log.read_text().splitlines()
        assert lines[0] == "request_id,replica,phase_reached,crash_phase,path"
        assert len(lines) == 1 + 50 * 4

    def test_failed_campaign_leaves_earlier_log(self, tmp_path, monkeypatch):
        log = tmp_path / "log.csv"
        args = ["simulate", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0.1",
                "--pc", "0.05", "--seed", "5", "--record", str(log)]
        main(args + ["--requests", "50"])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_rows = cli._record_writer

        def failing_writer(out):
            sink = write_rows(out)

            def write_then_fail(start, res, valid):
                sink(start, res, valid)
                if start > 0:
                    raise RuntimeError("interrupted")

            return write_then_fail

        monkeypatch.setattr(cli, "_record_writer", failing_writer)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(args + ["--requests", "20000"])  # fails in its second chunk
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_zero_requests_rejected(self, capsys):
        code = main(["simulate", "--protocol", "pbft", "-n", "4", "-f", "1",
                     "--pl", "0", "--pc", "0", "--requests", "0", "--seed", "1"])
        assert code == EXIT_USAGE

    def test_summary_printed(self, capsys):
        main(["simulate", "--protocol", "pbft", "-n", "4", "-f", "1",
              "--pl", "0", "--pc", "0", "--requests", "20", "--seed", "1"])
        out = capsys.readouterr().out
        assert "success happy=1" in out


class TestAnalyzeCommand:
    def test_boundary(self, capsys):
        assert main(["analyze", "boundary", "-n", "25", "-f", "8", "--expected", "25"]) == EXIT_OK
        assert "rate=0.135" in capsys.readouterr().out

    @pytest.mark.parametrize("f", ["100", "-5"])
    def test_boundary_fault_budget_outside_domain(self, capsys, f):
        argv = ["analyze", "boundary", "-n", "4", f"-f={f}", "--expected", "3"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "error: f must be" in err

    @pytest.mark.parametrize("step", ["inf", "nan", "-inf"])
    def test_gradient_non_finite_step(self, capsys, step):
        argv = ["analyze", "gradient", "--protocol", "pbft", "-n", "4", "-f", "1",
                "--pl-values", "0.1", "--pc-values", "0.05", f"--step={step}"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "error: step must be" in err

    def test_timeout_both_conventions(self, capsys):
        main(["analyze", "timeout", "--mu", "100", "--sigma", "10", "--rate", "0.1"])
        out = capsys.readouterr().out
        assert "87.18" in out and "112.81" in out
        assert "rate quantile" in out and "complement quantile" in out

    def test_asymptote_cases(self, capsys):
        main(["analyze", "asymptote", "--p", "0.2", "--q", "0.6667"])
        assert "limit=1" in capsys.readouterr().out
        main(["analyze", "asymptote", "--p", "0.5", "--q", "0.6667"])
        assert "limit=0" in capsys.readouterr().out

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["analyze", "sweep", "--protocol", "pbft", "--n-values", "4,7",
              "--pl-values", "0,0.1", "--pc-values", "0", "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "n,f,c,p_l,p_c,path,success,error"
        assert len(lines) == 1 + 4

    def test_gradient_csv(self, tmp_path):
        out = tmp_path / "grad.csv"
        main(["analyze", "gradient", "--protocol", "pbft", "-n", "10", "-f", "3",
              "--pl-values", "0.1,0.2", "--pc-values", "0.05", "--output", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "p_c,p_l,success,d_dpc,d_dpl"
        assert len(lines) == 1 + 2


class TestValidateCommand:
    def test_trivial_grid_full_coverage(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
        code = main(["validate", "--protocol", "pbft", "-n", "4", "-f", "1",
                     "--pl-values", "0", "--pc-values", "0",
                     "--requests", "200", "--seed", "5", "--output", str(out)])
        assert code == EXIT_OK
        assert "coverage=1" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].endswith("phase,predicted,observed,ci_lo,ci_hi,covered")

    def test_moderate_grid_passes_floor(self):
        code = main(["validate", "--protocol", "pbft", "-n", "4", "-f", "1",
                     "--pl-values", "0,0.1", "--pc-values", "0.05",
                     "--requests", "20000", "--seed", "5"])
        assert code == EXIT_OK

    def test_mismatched_model_fails_floor(self, monkeypatch, capsys):
        # Negative control: wire the checker against the wrong fault budget.
        import bftprob.protocols as protocols

        def wrong_trace(config, fp):
            return protocols.pbft_model(ProtocolConfig("pbft", config.n, config.f - 1), fp)

        monkeypatch.setattr(sim, "model_trace", wrong_trace)
        code = main(["validate", "--protocol", "pbft", "-n", "10", "-f", "3",
                     "--pl-values", "0.1", "--pc-values", "0.05",
                     "--requests", "20000", "--seed", "5"])
        assert code == EXIT_COVERAGE
        assert "below floor" in capsys.readouterr().err


class TestConfigFile:
    def test_parameters_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "protocol": "pbft", "n": 4, "f": 1, "pl": 0.0, "pc": 0.0,
        }))
        assert main(["model", "--config", str(cfg)]) == EXIT_OK
        assert "success=1" in capsys.readouterr().out

    def test_flag_file_conflict_is_error(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"protocol": "pbft", "n": 4, "f": 1, "pl": 0.0, "pc": 0.0}))
        with pytest.raises(SystemExit) as err:
            main(["model", "--config", str(cfg), "--pl", "0.5"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            main(["model", "--config", str(cfg)])


class TestExitCodes:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["model", "--protocol", "pbft", "-n", "4"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_protocol(self):
        with pytest.raises(SystemExit) as err:
            main(["model", "--protocol", "raft", "-n", "4", "-f", "1",
                  "--pl", "0", "--pc", "0"])
        assert err.value.code == EXIT_USAGE


class TestReplicaCeiling:
    """n past MAX_REPLICAS exits 2 before any binomial table or chunk is built."""

    PAST = ["--protocol", "pbft", "-n", "1001", "-f", "1"]

    @pytest.mark.parametrize("argv", [
        ["model", "--pl", "0.1", "--pc", "0.1"],
        ["simulate", "--pl", "0.1", "--pc", "0.1", "--requests", "10", "--seed", "1"],
        ["validate", "--pl", "0.1", "--pc", "0.1", "--requests", "10", "--seed", "1"],
        ["analyze", "gradient", "--pl-values", "0.1", "--pc-values", "0.1"],
    ])
    def test_exits_2_before_allocating(self, monkeypatch, capsys, argv):
        import bftprob.chain as chain
        import bftprob.protocols as protocols

        def built(*args, **kwargs):
            raise AssertionError("work started past the replica ceiling")

        for module, name in ((protocols, "binom_rows"), (chain, "binom_rows"), (sim, "_sample")):
            monkeypatch.setattr(module, name, built)
        assert main(argv + self.PAST) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "error: n must be at most 1000, got n=1001" in err

    def test_sweep_row_error(self, capsys):
        assert main(["analyze", "sweep", "--protocol", "pbft", "--n-values", "7,1001",
                     "--pl-values", "0.1", "--pc-values", "0"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].startswith("7,2,0,0.10000000000000001,0,happy,") and rows[1].endswith(",")
        assert rows[2] == "1001,,0,0.10000000000000001,0,error,,n must be at most 1000, got n=1001"


def _usage_error(argv, capsys) -> str:
    """Run argv, expect exit 2 with one error line and no traceback."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    stderr = capsys.readouterr().err
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in stderr
    return errors[0]


SWEEP = ["analyze", "sweep", "--protocol", "pbft", "-n", "4"]


class TestTypedInput:
    @pytest.mark.parametrize("argv, config", [
        (["model", "--protocol", "pbft", "-f", "1", "--pl", "0.1", "--pc", "0"], {"n": "7"}),
        (["model", "--protocol", "pbft", "-n", "4", "-f", "1", "--pc", "0"], {"pl": "0.1"}),
        (SWEEP + ["--pc-values", "0"], {"pl_values": 0.1}),
        (SWEEP + ["--pc-values", "0"], {"pl_values": [0.1, "x"]}),
        (["model", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0"], {"pc": True}),
        (["model", "-n", "4", "-f", "1", "--pl", "0", "--pc", "0"], {"protocol": "raft"}),
    ], ids=["int-as-string", "rate-as-string", "list-as-number", "list-with-string",
            "rate-as-bool", "unknown-choice"])
    def test_wrong_json_type(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        key = next(iter(config))
        assert f"--config {key}: invalid" in _usage_error(argv + ["--config", str(cfg)], capsys)

    def test_bad_rate_list(self, capsys):
        line = _usage_error(SWEEP + ["--pl-values", "0.1,abc", "--pc-values", "0"], capsys)
        assert "--pl-values" in line

    def test_bad_count_list(self, capsys):
        argv = ["analyze", "sweep", "--protocol", "pbft", "--n-values", "x",
                "--pl-values", "0.1", "--pc-values", "0"]
        assert "--n-values" in _usage_error(argv, capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--mu", "nan"), ("--mu", "inf"), ("--mu", "-inf"), ("--sigma", "nan"), ("--sigma", "inf"),
    ])
    def test_non_finite_timeout_inputs(self, capsys, flag, value):
        values = {"--mu": "100", "--sigma": "10", flag: value}
        argv = ["analyze", "timeout", *(f"{k}={v}" for k, v in values.items()), "--rate", "0.1"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "7", "-0.1"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_min_coverage_outside_unit_interval(self, tmp_path, capsys, monkeypatch, value, via):
        def no_campaign(*args, **kwargs):
            raise AssertionError("campaign ran")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        argv = ["validate", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0.1",
                "--pc", "0", "--requests", "8", "--seed", "1"]
        if via == "flag":
            argv += ["--min-coverage", value]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"min_coverage": float(value)}))
            argv += ["--config", str(cfg)]
        assert "min" in _usage_error(argv, capsys)

    @pytest.mark.parametrize("value", ["0", "0.5", "1"])
    def test_min_coverage_bounds_accepted(self, value):
        argv = ["validate", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0.1",
                "--pc", "0", "--requests", "8", "--seed", "1", "--min-coverage", value]
        assert main(argv) in (EXIT_OK, EXIT_COVERAGE)

    def test_list_forms_agree(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        outputs = []
        for values in ("0,0.1", [0, 0.1]):
            cfg.write_text(json.dumps({"pl_values": values}))
            assert main(SWEEP + ["--pc-values", "0", "--config", str(cfg)]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert main(SWEEP + ["--pc-values", "0", "--pl-values", "0,0.1"]) == EXIT_OK
        assert outputs == [capsys.readouterr().out] * 2

    def test_empty_validate_grid(self, capsys):
        argv = ["validate", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl-values", ",",
                "--pc-values", "0.1", "--requests", "10", "--seed", "1"]
        assert "--pl-values" in _usage_error(argv, capsys)

    @pytest.mark.parametrize("flag", ["--output", "--record"])
    def test_unwritable_path(self, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "out.csv"
        argv = ["simulate", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0.1",
                "--pc", "0.05", "--requests", "10", "--seed", "1", flag, str(target)]
        assert f"error: cannot write {target}: " in _usage_error(argv, capsys)
        assert list(tmp_path.iterdir()) == []


class TestParameterTable:
    # Option strings of each subcommand, as the hand-written parser had them.
    OPTIONS = {
        "model": "--config --format --output --pc --pl --protocol -c -f -n",
        "simulate": "--config --output --pc --pl --protocol --record --requests --seed -c -f -n",
        "analyze boundary": "--config --expected -f -n",
        "analyze timeout": "--config --mu --rate --sigma",
        "analyze asymptote": "--config --p --q",
        "analyze sweep": "--config --n-values --output --pc-values --pl-values --protocol "
                         "--threshold -c -f -n",
        "analyze gradient": "--config --output --pc-values --pl-values --protocol --step "
                            "--threshold -c -f -n",
        "validate": "--config --min-coverage --output --pc --pc-values --pl --pl-values "
                    "--protocol --requests --seed -c -f -n",
    }

    @staticmethod
    def _subparsers(parser):
        return next((a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)), {})

    def test_option_strings_unchanged(self):
        found = {}
        for name, sub in self._subparsers(cli._build_parser()).items():
            for leaf, p in (self._subparsers(sub) or {"": sub}).items():
                found[f"{name} {leaf}".strip()] = " ".join(sorted(
                    s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")))
        assert found == self.OPTIONS

    @pytest.mark.parametrize("argv, expected", [
        (["model"], {"c": 0, "format": "csv"}),
        (["analyze", "sweep"], {"c": 0, "threshold": "happy"}),
        (["analyze", "gradient"], {"c": 0, "threshold": "happy", "step": 0.005}),
        (["validate"], {"c": 0, "min_coverage": 0.9}),
    ])
    def test_defaults(self, argv, expected):
        args = argv + ["--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0", "--pc", "0",
                       "--pl-values", "0", "--pc-values", "0", "--requests", "1", "--seed", "1"]
        known = cli._build_parser().parse_known_args(args)[0]
        resolved = cli._resolve(known)
        assert {k: resolved[k] for k in expected} == expected


REPLAY_CASES = {
    "model-csv": (["model", "--protocol", "pbft", "-n", "7", "-f", "2", "--pl", "0.13",
                   "--pc", "0.07"], ["out.csv"]),
    "model-json": (["model", "--protocol", "sbft", "-n", "6", "-f", "1", "-c", "1",
                    "--pl", "0.13", "--pc", "0.07", "--format", "json"], ["out.json"]),
    "simulate": (["simulate", "--protocol", "zyzzyva", "-n", "4", "-f", "1", "--pl", "0.1",
                  "--pc", "0.05", "--requests", "300", "--seed", "7"], ["out.csv", "log.csv"]),
    "analyze-sweep": (["analyze", "sweep", "--protocol", "pbft", "--n-values", "4,7",
                       "--pl-values", "0,0.1", "--pc-values", "0.05", "--threshold", "liveness"],
                      ["out.csv"]),
    "analyze-gradient": (["analyze", "gradient", "--protocol", "pbft", "-n", "7", "-f", "2",
                          "--pl-values", "0.1,0.2", "--pc-values", "0.05",
                          "--threshold", "liveness"], ["out.csv"]),
    "validate": (["validate", "--protocol", "pbft", "-n", "4", "-f", "1", "--pl", "0.1",
                  "--pc", "0.05", "--requests", "300", "--seed", "5"], ["out.csv"]),
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_manifest_replays_through_config(tmp_path, capsys, case):
    argv, names = REPLAY_CASES[case]
    words = argv[:2] if argv[0] == "analyze" else argv[:1]

    def run(directory, args):
        directory.mkdir()
        paths = [directory / name for name in names]
        flags = ["--output", str(paths[0])] + (["--record", str(paths[1])] if names[1:] else [])
        assert main(args + flags) == EXIT_OK
        return paths

    first = run(tmp_path / "first", argv)
    manifest = json.loads(Path(f"{first[0]}.manifest.json").read_text())
    assert manifest["subcommand"] == "-".join(words)
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(manifest["parameters"]))
    again = run(tmp_path / "again", words + ["--config", str(cfg)])
    for a, b in zip(first, again):
        assert a.read_bytes() == b.read_bytes()
        replayed = json.loads(Path(f"{b}.manifest.json").read_text())
        assert replayed["parameters"] == manifest["parameters"]
