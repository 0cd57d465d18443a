"""The bit-identity harness, tests/fingerprint_digest.py: a slice of its case
set runs, and a rerun in the same process prints the same digest."""

from fingerprint_digest import digest


def test_a_slice_of_the_digest_repeats():
    value, count = digest(quick=True)
    assert count == 11   # 10 episodes of the bundled instance and its oracle calls
    assert digest(quick=True) == (value, count)
