"""Whole-walk equality, brute-force extremes and instance surgery, for tests.

The verify checks compare walks state by state against the doubled ordered
walk; these helpers compare whole traces, scan whole assignment spaces and
strip constraints from instances, which only the tests need.
"""

from __future__ import annotations

from ascentlab import AscentTrace, VcspInstance


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


def without_constraints(instance: VcspInstance, prefix: str) -> VcspInstance:
    """Copy of the instance with all constraints whose label starts with prefix removed."""
    kept = tuple(c for c in instance.constraints if not c.label.startswith(prefix))
    if len(kept) == len(instance.constraints):
        raise ValueError(f"no constraint label starts with {prefix!r}")
    return VcspInstance(
        instance.domains, kept, instance.family, instance.base_n, instance.var_names
    )
