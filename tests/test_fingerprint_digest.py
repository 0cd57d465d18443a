"""The bit-identity harness, tests/fingerprint_digest.py: a slice of its case
set runs, a rerun in the same process prints the same digest, and --cases
prints one hash per case above that digest."""

from fingerprint_digest import digest, main


def test_a_slice_of_the_digest_repeats():
    value, count = digest(quick=True)
    assert count == 11   # 10 episodes of the bundled instance and its oracle calls
    assert digest(quick=True) == (value, count)


def test_cases_prints_one_hash_per_case_above_the_digest(capsys):
    main(["--quick", "--cases"])
    lines = capsys.readouterr().out.splitlines()
    main(["--quick"])
    assert lines[-1] == capsys.readouterr().out.strip()
    assert len(lines) == 12
    labels = [line.split("  ")[1] for line in lines[:-1]]
    assert labels[0] == "bundled/multinomial/T=10000/pdnrm/1"
    assert labels[-1] == "bundled/oracle"
    assert all(len(line.split("  ")[0]) == 16 for line in lines[:-1])
