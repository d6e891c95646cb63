"""Smoke test of `tests/differential.py`, the script that compares what two
source trees write."""

import differential


def test_two_runs_write_the_same_lines():
    progs = differential.programs(seeds=range(3))
    first = differential.lines(progs)
    assert first == differential.lines(progs)
    assert len(first) == len(progs) == 7
    for (name, _), text in zip(progs, first):
        assert text.startswith(f"{name} whyml=")
        assert "index.json=" in text
        assert ("equiv:" in text) == name.startswith("corpus:")
    by_name = {name: text for (name, _), text in zip(progs, first)}
    assert by_name["corpus:length.mlg"].endswith(" equiv:len=PASS/20/0/0")
