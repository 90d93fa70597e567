"""The simulator's output bytes are pinned: `simulate --output --record`
on CHUNK + 100 requests, and `validate --output` over a grid of rates on as
many, must hash to the values in tests/data/sim_pins.json for every protocol
(see make_sim_pins.py for how they were written)."""

import json

import pytest

from make_sim_pins import (
    CASES,
    DEFAULT_OUT,
    VALIDATE_CASES,
    case_key,
    simulate_digests,
    validate_digest,
    validate_key,
)


@pytest.fixture(scope="module")
def pins():
    return json.loads(DEFAULT_OUT.read_text())


def test_pins_cover_every_case(pins):
    assert set(pins) == ({case_key(*case) for case in CASES}
                         | {validate_key(*case) for case in VALIDATE_CASES})


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_key(*case))
def test_simulate_bytes_match_pins(pins, case):
    assert simulate_digests(*case) == pins[case_key(*case)]


@pytest.mark.parametrize("case", VALIDATE_CASES, ids=lambda case: validate_key(*case))
def test_validate_bytes_match_pins(pins, case):
    assert validate_digest(*case) == pins[validate_key(*case)]
