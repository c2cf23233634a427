"""Whole-walk equality, brute-force extremes, instance surgery and the plain
pathwidth rule, for tests.

The verify checks compare walks state by state against the doubled ordered
walk; these helpers compare whole traces, scan whole assignment spaces and
strip constraints from instances, which only the tests need.  The pathwidth
check remembers, within one call, which bag holds each scope;
`reference_pathwidth_report` is the same check without that memory.
"""

from __future__ import annotations

from ascentlab import AscentTrace, VcspInstance, verification
from ascentlab.model import check_hypergraph_decomposition


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


def reference_pathwidth_report(n_max: int) -> dict:
    """`check_pathwidth(n_max).to_json()` without `runtime_s`, each n's
    `verification.boolean_pw4_hypergraph(n)` put straight through
    `check_hypergraph_decomposition`, with no state kept from one n to the
    next: the plain rule that the check's remembered bags must agree with."""

    def fault(n):
        n_bits, edges, decomp = verification.boolean_pw4_hypergraph(n)
        if (max_arity := max(len(scope) for scope, _ in edges)) != 5:
            return f"max arity {max_arity} != 5", {"n": n, "max_arity": max_arity}
        report = check_hypergraph_decomposition(n_bits, edges, decomp)
        if not report.ok:
            return report.violation, {"n": n, "violation": report.violation}
        if report.width != 4:
            return f"width {report.width} != 4", {"n": n, "width": report.width}
        return None

    report = {"name": "pathwidth", "params": {"n_max": n_max}}
    for n in range(2, n_max + 1):
        found = fault(n)
        if found is not None:
            details, counterexample = found
            return {**report, "passed": False, "details": f"n={n}: {details}",
                    "counterexample": counterexample}
    return {**report, "passed": True, "details": f"arity 5 and width 4 hold for n=2..{n_max}",
            "counterexample": None}
