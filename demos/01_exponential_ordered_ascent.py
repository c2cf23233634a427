"""The chain family: an ordered ascent that visits every fitness value.

The alternating 2/3-state chain carries geometrically growing weights, so the
improving move at the earliest possible position always gains exactly 1.
Starting from all-A, the ordered ascent therefore takes f_max(n) steps, and
f_max roughly doubles every time two positions are appended.
"""

import time

from ascentlab import build_2by3, canonical_start, f_max, ordered_ascent

print("chain length  ->  ascent steps (= f_max(n))")
for n in range(2, 21, 2):
    trace = ordered_ascent(build_2by3(n), canonical_start("2by3", n))
    assert trace.length == f_max(n) and trace.terminal
    print(f"  n={n:>3}          {trace.length:>8}")

print()
print("the first ten moves at n=6 (variable ids are 0-based):")
inst = build_2by3(6)
trace = ordered_ascent(inst, canonical_start("2by3", 6))
for i, rec in enumerate(trace.steps[:10]):
    labels = inst.domains[rec.var].states
    print(f"  step {i}: x{rec.var + 1} {labels[rec.src]} -> {labels[rec.dst]}   fitness {rec.fitness_after}")

print()
print("summary mode handles the exponential regime (n=40 has ~12.6M steps):")
t0 = time.perf_counter()
big = ordered_ascent(build_2by3(40), canonical_start("2by3", 40), record_steps=False)
print(f"  n=40: {big.length:,} steps, final fitness {big.final_fitness:,}, "
      f"{time.perf_counter() - t0:.2f}s")
