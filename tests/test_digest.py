"""The bit-identity digest (tests/digest.py) is deterministic in one process.
Its value is not pinned: a change that alters floats on purpose moves it."""

import digest


def test_two_calls_in_one_process_agree():
    first = digest.parts()
    assert len(first) == 18 and all(len(d) == 16 for d in first.values())
    assert digest.parts() == first
