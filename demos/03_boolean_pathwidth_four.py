"""The Boolean family: arity 5, pathwidth 4, exponentially long greedy walks.

Each expanded domain becomes a collection of 2 or 3 bits (one-hot mains,
two-hot intermediates); the 2-bit intermediate is reachable through both 00
and 11, which is what lets the wide minimisation constraint split into two
arity-5 halves.  A heavy penalty on adjacent intermediate codes keeps the
flank-reading shortcut honest: dropping it breaks the two-intermediate
fitness ceiling, and the checker produces the witness.
"""

import dataclasses

from ascentlab import (
    ExpandedLandscape,
    build_2by3,
    build_boolean_pw4,
    canonical_start,
    check_path_decomposition,
    decode_assignment,
    f_max,
    ordered_ascent,
    simulate_ascent,
    steepest_ascent,
)
from ascentlab.verification import padding_violation

n = 6
inst, codec, decomp, start = build_boolean_pw4(n)
report = check_path_decomposition(inst, decomp)
print(f"n={n}: {inst.n_vars} bits, {len(inst.constraints)} constraints, "
      f"max arity {inst.max_arity}, decomposition width {report.width}")

greedy = steepest_ascent(inst, start)
print(f"steepest walk from {''.join(map(str, start))}: "
      f"{greedy.length} steps (= 2 * f_max({n}) = {2 * f_max(n)})")

base = build_2by3(n)
sim = simulate_ascent(ordered_ascent(base, canonical_start("2by3", n)), ExpandedLandscape(base))
decoded = list(codec.decode_walk(greedy))
print(f"decoded walk equals the predicted simulation: {decoded == [list(s) for s in sim.states()]}")

print()
print("first four decoded states:")
for i, bits in enumerate(list(greedy.states())[:4]):
    pretty = " ".join(f"{lab}({code})" for lab, code in decode_assignment(codec, bits))
    print(f"  t={i}: {pretty}")

print()
print("what the adjacency penalty is for:")
small, small_codec, _, _ = build_boolean_pw4(2)
kept = tuple(c for c in small.constraints if not c.label.startswith("J~"))
stripped = dataclasses.replace(small, constraints=kept)
bad = padding_violation(stripped, ExpandedLandscape(build_2by3(2)), small_codec)
print(f"  without it (n=2): two-intermediate ceiling broken at "
      f"bits={tuple(bad['assignment'])}: {bad['got']} > {bad['ceiling']}")
