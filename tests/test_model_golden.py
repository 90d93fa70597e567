"""Old-versus-new agreement: the kernel-matrix models reproduce, to 1e-12
absolute on every entry, the phase masses and path probabilities that the
per-count model implementation before them wrote to tests/data (see
make_model_golden.py)."""

import numpy as np
import pytest

from make_model_golden import case_key, evaluate, golden_cases, golden_entries, load_golden

TOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_file_covers_every_case(golden):
    keys = {case_key(*case) for case in golden_cases()}
    # An entry name is the case key (five fields) plus the entry's own.
    assert {"/".join(name.split("/")[:5]) for name in golden} == keys


@pytest.mark.parametrize("case", golden_cases(), ids=lambda case: case_key(*case))
def test_model_matches_golden(golden, case):
    key = case_key(*case)
    got = golden_entries(evaluate(*case), key)
    expected = {name: values for name, values in golden.items() if name.startswith(key + "/")}
    assert got.keys() == expected.keys()
    for name, values in expected.items():
        assert got[name].shape == values.shape, name
        gap = float(np.max(np.abs(got[name] - values)))
        assert gap <= TOL, f"{name}: off by {gap:.3g}"
