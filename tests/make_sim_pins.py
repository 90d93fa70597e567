"""Write the simulator pins that test_sim_pins.py compares against.

A pin is the sha256 of the bytes that `bftprob simulate --output --record`
writes, for each case in CASES, on CHUNK + 100 requests, so that
one full chunk and one partial chunk are covered.  The simulator's stream
layout is part of its contract: any change to the draws a request sees, or
to how campaign statistics are aggregated and printed, moves a pin.

Usage, from the repository root:

    python tests/make_sim_pins.py [--src SRC] [OUT]

SRC is the source tree to import bftprob from (default: this checkout's
src).  OUT defaults to tests/data/sim_pins.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "tests" / "data" / "sim_pins.json"
SEED = 20261018
# (protocol, n, f, c, p_l, p_c): criterion 3's configurations at one
# interior rate point, then at rates of 0 and 1, where every draw of one
# kind decides the same way.
CASES = (
    ("pbft", 7, 2, 0, 0.1, 0.05),
    ("bft-smart", 7, 2, 0, 0.1, 0.05),
    ("zyzzyva", 7, 2, 0, 0.1, 0.05),
    ("sbft", 6, 1, 1, 0.1, 0.05),
    ("pbft", 7, 2, 0, 0.0, 0.05),
    ("bft-smart", 7, 2, 0, 0.1, 1.0),
    ("zyzzyva", 7, 2, 0, 1.0, 0.05),
    ("sbft", 6, 1, 1, 0.1, 0.0),
)


def case_key(protocol: str, n: int, f: int, c: int, p_l: float, p_c: float) -> str:
    return f"{protocol}/n{n}/f{f}/c{c}/pl{p_l!r}/pc{p_c!r}"


def simulate_digests(protocol: str, n: int, f: int, c: int, p_l: float,
                     p_c: float) -> dict[str, str]:
    """sha256 of the `--output` and `--record` files for one case."""
    from bftprob.cli import EXIT_OK, main
    from bftprob.sim import CHUNK

    with tempfile.TemporaryDirectory() as tmp:
        stats, record = Path(tmp) / "stats.csv", Path(tmp) / "log.csv"
        argv = ["simulate", "--protocol", protocol, "-n", str(n), "-f", str(f), "-c", str(c),
                "--pl", repr(p_l), "--pc", repr(p_c), "--requests", str(CHUNK + 100),
                "--seed", str(SEED), "--output", str(stats), "--record", str(record)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != EXIT_OK:
            raise RuntimeError(f"simulate exited {code} for "
                               f"{case_key(protocol, n, f, c, p_l, p_c)}")
        return {name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in (("output", stats), ("record", record))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("out", nargs="?", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    pins = {case_key(*case): simulate_digests(*case) for case in CASES}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
