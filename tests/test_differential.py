"""A slice of the differential in tests/differential.py runs, prints the
same lines twice and calls every function the set-routing tests route and
every function that takes a kernel matrix, on every malformed matrix and at
each end of the spectrum's range, and reaches each block an event's
probability is read from.
It compares nothing across commits: that is a run of the script at each."""

import test_kernels
from differential import CALLS, EDGE_SIZES, KERNEL_CALLS, MALFORMED, lines


def test_slice_repeats_and_covers_every_routed_function():
    first = list(lines(seed=5, queries=2, sizes=(3, 6)))
    assert first == list(lines(seed=5, queries=2, sizes=(3, 6)))
    assert set(test_kernels._ROUTED) <= set(CALLS)
    answered = {line.split(" ")[0] for line in first if " = " in line}
    refused = {line.split(" ")[0] for line in first if " ! " in line}
    assert set(CALLS) <= answered and set(CALLS) <= refused
    commands = {line.split(" ")[1] for line in first if line.startswith("cli ")}
    assert commands == {"validate", "ci", "prob", "graph"}
    # Each block an event's probability is read from is reached, as the
    # formula dppci prob reports names it.
    route_lines = [line for line in first if line.split(" ")[2] == "route"]
    assert {line.split(" ")[0] for line in route_lines} == {
        "mixed_prob", "exact_prob", "inclusion_prob"}
    assert all(" = " in line for line in route_lines)
    cli_route = [line for line in first if line.startswith("cli prob ") and " route " in line]
    assert len(cli_route) == 12 and all(" = exit 0 " in line for line in cli_route)
    formulas = " ".join(cli_route)
    for block in ("(-1)^|B| det([[K_A, K_AB], [K_BA, K_B - I]])",
                  "det(L_R + diag(1_{R - A})) / det(L + I)", "det(K) = prod(eigenvalues of K)"):
        assert formulas.count(block) == 4  # a K and an L model at n = 3 and 6
    exact = " ".join(line for line in first if line.startswith("cli prob ") and "--exact" in line)
    assert "det(L_A) / det(L + I)" in exact


def test_slice_covers_every_kernel_input():
    first = list(lines(seed=5, queries=0, sizes=(3,)))
    # A kernel call's line is its name, the matrix's tag, then its answer.
    kernel_lines = [line.split(" ") for line in first if line.split(" ")[2] in ("=", "!")]
    assert {words[0] for words in kernel_lines if words[2] == "="} == set(KERNEL_CALLS)
    assert {words[0] for words in kernel_lines if words[2] == "!"} == set(KERNEL_CALLS)
    tags = {words[1] for words in kernel_lines}
    edges = {f"{kind}{n}-{end}{side}" for n in EDGE_SIZES
             for kind, end in (("K", "eps"), ("K", "1-eps"), ("L", "eps"))
             for side in ("-delta", "+delta")}
    assert tags == set(MALFORMED) | edges
    # Each through dppci validate and graph, as K and as L.
    commands = {tuple(line.split(" ")[1:5]) for line in first if line.startswith("cli ")}
    for tag in tags:
        assert {(c, tag, "--kind", k) for c in ("validate", "graph") for k in "KL"} <= commands
    assert not any(" = exit raised " in line for line in first)  # no command ends in a traceback
