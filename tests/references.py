"""Whole-walk equality and brute-force extremes, for tests to compare against.

The verify checks compare walks state by state against the doubled ordered
walk; these helpers compare whole traces and scan whole assignment spaces,
which only the tests need.
"""

from __future__ import annotations

from ascentlab import AscentTrace


def traces_equivalent(a: AscentTrace, b: AscentTrace) -> bool:
    """Same walk regardless of the policy tag."""
    return (
        a.start == b.start
        and a.steps == b.steps
        and a.length == b.length
        and a.terminal == b.terminal
        and a.final == b.final
        and a.final_fitness == b.final_fitness
    )


def brute_force_extremes(instance) -> tuple[int, int, tuple[int, ...]]:
    """(min fitness, max fitness, one argmax) over the whole assignment space."""
    lo = hi = None
    best = None
    for x in instance.all_assignments():
        f = instance.fitness(x)
        if lo is None or f < lo:
            lo = f
        if hi is None or f > hi:
            hi = f
            best = x
    return lo, hi, best
