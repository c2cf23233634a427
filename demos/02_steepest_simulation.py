"""Intermediate-state padding: a steepest ascent that retraces an ordered one.

Inserting an intermediate state between every pair of adjacent states and
re-weighting the landscape makes the greedy (steepest) walk pass through the
exact same main states the ordered walk visited, one intermediate hop apart.
The expanded instance, `build_3by5(n) = pad(build_2by3(n))`, realizes the
padded fitness with constraints of arity at most 3.
"""

from ascentlab import (
    ExpandedLandscape,
    build_2by3,
    build_3by5,
    canonical_start,
    f_max,
    ordered_ascent,
    simulate_ascent,
    steepest_ascent,
    verify_steepest,
)

n = 4
base = build_2by3(n)
landscape = ExpandedLandscape(base)

base_trace = ordered_ascent(base, canonical_start("2by3", n))
predicted = simulate_ascent(base_trace, landscape)

expanded = build_3by5(n)
greedy = steepest_ascent(expanded, canonical_start("3by5", n))

print(f"base ordered ascent:   {base_trace.length} steps (= f_max({n}) = {f_max(n)})")
print(f"steepest on expansion: {greedy.length} steps (= 2 * f_max({n}))")
print(f"argmax ties along the walk: {greedy.tie_steps}")
print(f"traces identical: {predicted.steps == greedy.steps}")
print(f"independent full-neighborhood verification: {verify_steepest(expanded, greedy) is None}")

print()
print("side by side (first six states, even rows are the base walk):")
base_states = list(base_trace.states())
for i, state in enumerate(list(greedy.states())[:6]):
    labels = " ".join(expanded.domains[k].states[s] for k, s in enumerate(state))
    origin = ""
    if i % 2 == 0:
        b = base_states[i // 2]
        origin = "   <- base " + " ".join(base.domains[k].states[s] for k, s in enumerate(b))
    print(f"  t={i}: {labels:<18} fitness {landscape.fitness(state):>3}{origin}")
