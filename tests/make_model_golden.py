"""Write the model golden file that test_model_golden.py compares against.

The golden file pins every phase mass and path probability (and PBFT's
primary-quorum probability) of all four protocol models on the acceptance
grid (GRID_N x GRID_RATES^2), plus n in {31, 100, 301} at p_l=0.05,
p_c=0.01, plus SBFT with spare collectors (c > 0) on a small rate grid.  It was generated from the
per-count (closure-based) model implementation that preceded the
kernel-matrix core, so the test is an old-versus-new agreement check.

Usage, from the repository root:

    PYTHONPATH=src python tests/make_model_golden.py [OUT]
    PYTHONPATH=src python tests/make_model_golden.py --compare OTHER.npz

OUT defaults to tests/data/model_golden.npz.  With --compare, the grid is
evaluated and checked against OTHER (for instance a file written from
another checkout's src): the worst absolute gap and the number of entries
that are bit-identical are printed, and nothing is written.  The exit
status is 1 if an entry is missing from either side or changes shape.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from bftprob import FailureParams, ProtocolConfig, model_trace
from bftprob.protocols import PROTOCOLS

GRID_N = (4, 7, 10, 13)
GRID_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)
LARGE_N = (31, 100, 301)
LARGE_RATES = (0.05, 0.01)
# SBFT with spare collectors (n = 3f+2c+1), where the collector-count
# chains are more than Bernoulli.
SPARE_COLLECTORS = ((6, 1), (11, 2), (31, 3))
SPARE_RATES = (0.0, 0.05, 0.2)

DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "model_golden.npz"


def golden_cases():
    """(protocol, n, c, p_l, p_c) for every golden evaluation; f is the
    largest budget the protocol allows at n and c."""
    cases = [(p, n, 0, pl, pc) for n in GRID_N for p in PROTOCOLS
             for pl in GRID_RATES for pc in GRID_RATES]
    cases += [(p, n, 0) + LARGE_RATES for n in LARGE_N for p in PROTOCOLS]
    cases += [("sbft", n, c, pl, pc) for n, c in SPARE_COLLECTORS
              for pl in SPARE_RATES for pc in SPARE_RATES]
    return cases


def case_key(protocol: str, n: int, c: int, p_l: float, p_c: float) -> str:
    return f"{protocol}/n{n}/c{c}/pl{p_l!r}/pc{p_c!r}"


def evaluate(protocol: str, n: int, c: int, p_l: float, p_c: float):
    config = ProtocolConfig(protocol, n, (n - 1 - 2 * c) // 3, c)
    return model_trace(config, FailureParams(p_l, p_c))


def golden_entries(trace, key: str) -> dict[str, np.ndarray]:
    """One entry per phase (`key/phase/NAME`), per path (`key/path/NAME`)
    and, for PBFT, the primary-quorum probability (`key/primary_quorum`)."""
    out = {f"{key}/phase/{name}": np.asarray(pmf.mass) for name, pmf in trace.phases}
    paths = trace.path_success.items()
    out.update({f"{key}/path/{name}": np.array([value]) for name, value in paths})
    if trace.primary_quorum_prob is not None:
        out[f"{key}/primary_quorum"] = np.array([trace.primary_quorum_prob])
    return out


def load_golden(path: Path = DEFAULT_OUT) -> dict[str, np.ndarray]:
    """Entry name -> values, unpacked from the file's flat arrays."""
    with np.load(path) as data:
        names, bounds, values = data["names"], data["bounds"], data["values"]
    return {str(name): values[lo:hi] for name, lo, hi in zip(names, bounds[:-1], bounds[1:])}


def compare(entries: dict[str, np.ndarray], other: dict[str, np.ndarray]) -> int:
    """Print how far `entries` are from `other`; 1 if their layouts differ."""
    mismatched = sorted(set(entries) ^ set(other))
    mismatched += [k for k in entries.keys() & other.keys() if entries[k].shape != other[k].shape]
    common = [k for k in entries.keys() & other.keys() if entries[k].shape == other[k].shape]
    worst = max((float(np.max(np.abs(entries[k] - other[k]))) for k in common), default=0.0)
    identical = sum(entries[k].tobytes() == other[k].tobytes() for k in common)
    print(f"worst absolute gap {worst:.3g}; {identical} of {len(entries)} entries bit-identical")
    for key in mismatched:
        print(f"layout differs: {key}")
    return 1 if mismatched else 0


def main(argv: list[str]) -> int:
    entries: dict[str, np.ndarray] = {}
    for case in golden_cases():
        entries.update(golden_entries(evaluate(*case), case_key(*case)))
    if argv[:1] == ["--compare"]:
        if len(argv) != 2:
            print("usage: make_model_golden.py --compare OTHER.npz", file=sys.stderr)
            return 2
        return compare(entries, load_golden(Path(argv[1])))
    out_path = Path(argv[0]) if argv else DEFAULT_OUT
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # Three flat arrays rather than one npz member per entry: thousands of
    # small members would cost more in zip headers than in data.
    bounds = np.cumsum([0] + [len(v) for v in entries.values()])
    np.savez_compressed(out_path, names=np.array(list(entries)), bounds=bounds,
                        values=np.concatenate(list(entries.values())))
    print(f"wrote {len(entries)} entries ({bounds[-1]} values) to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
