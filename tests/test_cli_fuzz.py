"""Bounded fuzz of the CLI: bad flags and bad --config values exit 0, 2, 3 or 4.

Each example starts from a valid argv for one subcommand and replaces up to
three of its values, either on the command line or through a --config file.
Anything `main` raises other than SystemExit with code 0 or 2 fails the test.
An argv that gives --min-coverage, --mu, --sigma or --step a value outside
its domain, or -f a fault budget no replica count here admits, must exit 2;
besides the random draws, every such pair is also substituted into every
valid argv that takes its flag.
Replica counts stay at most 13 and campaigns at most 64 requests, so every
example is cheap.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bftprob.cli import main

EXIT_CODES = {0, 2, 3, 4}

# A valid invocation of every subcommand: command words, then flag -> value.
VALID = {
    ("model",): {"--protocol": "pbft", "-n": "4", "-f": "1", "-c": "0", "--pl": "0.1",
                 "--pc": "0.05", "--format": "csv"},
    ("simulate",): {"--protocol": "pbft", "-n": "4", "-f": "1", "--pl": "0.1", "--pc": "0.05",
                    "--requests": "16", "--seed": "1"},
    ("analyze", "boundary"): {"-n": "7", "-f": "2", "--expected": "6"},
    ("analyze", "timeout"): {"--mu": "100", "--sigma": "10", "--rate": "0.1"},
    ("analyze", "asymptote"): {"--p": "0.2", "--q": "0.6667"},
    ("analyze", "sweep"): {"--protocol": "zyzzyva", "--n-values": "4,7", "-c": "0",
                           "--pl-values": "0,0.1", "--pc-values": "0.05",
                           "--threshold": "happy"},
    ("analyze", "gradient"): {"--protocol": "sbft", "-n": "6", "-f": "1", "-c": "1",
                              "--pl-values": "0.1", "--pc-values": "0.05", "--step": "0.005",
                              "--threshold": "liveness"},
    ("validate",): {"--protocol": "bft-smart", "-n": "4", "-f": "1", "--pl-values": "0.1",
                    "--pc-values": "0,0.05", "--requests": "32", "--seed": "3",
                    "--min-coverage": "0.5"},
}

JUNK = ["", ",", " ", "nan", "inf", "-inf", "NaN", "1e309", "-1", "-0", "0", "1", "2",
        "1.5", "abc", "0.1,abc", ",,", "0x10", "[1]", "raft", "PBFT", "happy", "json",
        "sbft", "bft-smart", "liveness", "0.1,nan", "1,-1", "1e-320"]
# Flags whose value sets a cost: only small values, and junk, are drawn for them.
SIZED = {
    "-n": st.integers(-2, 13).map(str),
    "--n-values": st.lists(st.integers(-2, 13), max_size=3).map(lambda v: ",".join(map(str, v))),
    "--requests": st.integers(-2, 64).map(str),
}
ANY_TEXT = st.one_of(st.sampled_from(JUNK), st.text("0123456789.,-+eEnaifx ", max_size=8))
# Flags whose values must be finite, within [0, 1] or, for -f, within
# 0 <= 3f+1 <= n: edge values are drawn for them as often as any other text.
EDGE = {flag: st.sampled_from(["nan", "inf", "1.5"]) for flag in ("--min-coverage", "--mu", "--sigma")}
EDGE["--step"] = st.sampled_from(["nan", "inf"])
EDGE["-f"] = st.sampled_from(["-5", "100"])
# (flag, value) pairs that must exit 2 whatever else the argv holds.
REJECTED = {("--min-coverage", v) for v in ("nan", "inf", "1.5")} | {
    (flag, v) for flag in ("--mu", "--sigma", "--step") for v in ("nan", "inf")} | {
    ("-f", v) for v in ("-5", "100")}

# Any JSON value, kept small: integers up to 13 and strings of at most two
# characters, so no count that passes the type check is large.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 13), st.text("0123456789.,x", max_size=2),
              st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(JUNK[:3] + ["pbft"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner,
                                                                          max_size=2)),
    max_leaves=4,
)


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _flag_values(flag: str):
    if flag in SIZED:
        return st.one_of(SIZED[flag], st.sampled_from(JUNK))
    if flag in EDGE:
        return st.one_of(EDGE[flag], ANY_TEXT)
    return ANY_TEXT


@st.composite
def fuzzed_argv(draw):
    words, flags = draw(st.sampled_from(list(VALID.items())))
    values = dict(flags)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        values[flag] = draw(_flag_values(flag))
    return [*words, *(x for item in values.items() for x in item)]


@st.composite
def fuzzed_config(draw):
    words, flags = draw(st.sampled_from(list(VALID.items())))
    moved = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True))
    config = {flag.lstrip("-").replace("-", "_"): draw(JSON_VALUES) for flag in moved}
    argv = [*words, *(x for flag, value in flags.items() if flag not in moved
                      for x in (flag, value))]
    return argv, config


@settings(max_examples=250, deadline=None, derandomize=True)
@given(fuzzed_argv())
def test_fuzzed_flags_exit_cleanly(argv):
    code = _run(argv)
    assert code in EXIT_CODES
    if REJECTED & set(zip(argv, argv[1:])):
        assert code == 2


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_config())
def test_fuzzed_config_exits_cleanly(tmp_path, case):
    argv, config = case
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(config))
    assert _run(argv + ["--config", str(path)]) in EXIT_CODES


@pytest.mark.parametrize("words", VALID)
def test_valid_argv_succeed(words):
    argv = [*words, *(x for item in VALID[words].items() for x in item)]
    assert _run(argv) == 0


@pytest.mark.parametrize("words, flag, value", [
    (words, flag, value) for flag, value in sorted(REJECTED) for words in VALID if flag in VALID[words]])
def test_rejected_values_exit_2(words, flag, value):
    values = {**VALID[words], flag: value}
    assert _run([*words, *(x for item in values.items() for x in item)]) == 2
