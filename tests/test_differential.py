"""A slice of the differential in tests/differential.py runs, prints the
same lines twice and calls every function the set-routing tests route.
It compares nothing across commits: that is a run of the script at each."""

import test_kernels
from differential import CALLS, lines


def test_slice_repeats_and_covers_every_routed_function():
    first = list(lines(seed=5, queries=2, sizes=(3, 6)))
    assert first == list(lines(seed=5, queries=2, sizes=(3, 6)))
    assert set(test_kernels._ROUTED) <= set(CALLS)
    answered = {line.split(" ")[0] for line in first if " = " in line}
    refused = {line.split(" ")[0] for line in first if " ! " in line}
    assert set(CALLS) <= answered and set(CALLS) <= refused
    commands = {line.split(" ")[1] for line in first if line.startswith("cli ")}
    assert commands == {"validate", "ci", "prob", "graph"}

