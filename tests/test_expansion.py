"""The intermediate-state expansion and its padded fitness oracle."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from ascentlab import (
    BuildError,
    DomainSpec,
    ExpandedLandscape,
    InvalidAssignmentError,
    ValuedConstraint,
    VcspInstance,
    build_2by3,
    canonical_start,
    ordered_ascent,
    pad,
    simulate_ascent,
    steepest_ascent,
)
from ascentlab.ascent import StepRecord
from relabelling import relabel

A, B, C = 0, 1, 2


def test_expanded_domains_and_transitions():
    ls = ExpandedLandscape(build_2by3(2))
    odd, even = ls.domains
    assert odd.states == ("A", "B", "sAB")
    assert odd.transitions == frozenset({(0, 2), (1, 2)})
    assert even.states == ("A", "B", "C", "sAB", "sBC")
    assert even.transitions == frozenset({(0, 3), (1, 3), (1, 4), (2, 4)})


def test_main_states_keep_their_ids():
    base = build_2by3(3)
    ls = ExpandedLandscape(base)
    for d, e in zip(base.domains, ls.domains):
        assert e.states[: d.size] == d.states
    walk = ordered_ascent(base, (B, A, B))
    assert simulate_ascent(walk, ls).start == (B, A, B)


def test_padded_fitness_examples():
    ls = ExpandedLandscape(build_2by3(2))
    assert ls.fitness((A, A)) == 0
    assert ls.fitness((2, A)) == 2  # intermediate at position 1
    assert ls.fitness((B, 3)) == 6  # intermediate at position 2


def test_all_main_assignments_scale_exactly():
    base = build_2by3(3)
    ls = ExpandedLandscape(base)
    for x in base.all_assignments():
        assert ls.fitness(x) == 7 * base.fitness(x)


def test_tied_completions_drop_the_bonus():
    # One free variable whose two completions have equal fitness.
    doms = (
        DomainSpec(("A", "B"), frozenset({(0, 1)})),
        DomainSpec(("A", "B"), frozenset({(0, 1)})),
    )
    base = VcspInstance(doms, (ValuedConstraint((1,), (0, 3), "u"),))
    ls = ExpandedLandscape(base)
    assert ls.fitness((2, A)) == 0  # completions tie at 0: no positional bonus
    assert ls.fitness((2, B)) == 5 * 3
    assert ls.fitness((A, 2)) == 1 + 5 * 0  # completions 0 vs 3 differ: bonus 1


def _ceiling(ls, x):
    """The two-intermediate ceiling at x, as `padding_defect` reports it for
    a value above every ceiling."""
    return ls.padding_defect(x, 10**9)["ceiling"]


def test_two_intermediates_take_the_scaled_minimum():
    base = build_2by3(2)
    ls = ExpandedLandscape(base)
    got = ls.fitness((2, 3))
    want = 5 * min(base.fitness((u, v)) for u in (A, B) for v in (A, B))
    assert got == want
    assert _ceiling(ls, (2, 3)) == got + 2 + 1  # both positional bonuses


def test_pair_ceiling_has_nonnegative_slack():
    base = build_2by3(4)
    ls = ExpandedLandscape(base)
    for x in itertools.product(*(range(d.size) for d in ls.domains)):
        inter = [k for k in range(4) if x[k] >= ls.doms[k].n_main]
        if len(inter) == 2:
            assert ls.fitness(x) <= _ceiling(ls, x)


def test_custom_order_moves_the_bonus():
    # The order (1, 0) is the identity order of the base with its two
    # variables swapped: position 2 comes first, so its bonus is n = 2.
    swapped = relabel(build_2by3(2), (1, 0))
    assert ExpandedLandscape(swapped).fitness((3, B)) == 2 + 5 * 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_steepest_on_the_padded_relabelling_simulates_the_reversed_ascent(n):
    # The ascent in the reversed order, padded: relabel the base by the order,
    # and steepest ascent on its padding retraces the identity-order walk of
    # the relabelled base, two moves for each of its moves.
    order = tuple(reversed(range(n)))
    base = relabel(build_2by3(n), order)
    start = tuple(canonical_start("2by3", n)[k] for k in order)
    walk = ordered_ascent(base, start)
    sim = simulate_ascent(walk, ExpandedLandscape(base))
    steepest = steepest_ascent(pad(base), start)
    assert steepest.steps == sim.steps and sim.length == 2 * walk.length > 0
    assert (steepest.terminal, steepest.final, steepest.final_fitness) == (
        sim.terminal,
        sim.final,
        sim.final_fitness,
    )


def test_simulation_doubles_the_trace():
    base = build_2by3(2)
    tr = ordered_ascent(base, (A, A))
    sim = simulate_ascent(tr, ExpandedLandscape(base))
    assert sim.length == 10 and sim.terminal
    assert sim.policy == "simulated" and sim.tie_steps == sim.ambiguous_steps == 0
    states = list(sim.states())
    assert states[:3] == [(A, A), (2, A), (B, A)]
    assert sim.fitness_values() == [2, 5, 6, 10, 12, 15, 16, 20, 22, 25]


def test_simulation_of_empty_trace():
    base = build_2by3(2)
    tr = ordered_ascent(base, (B, C))
    sim = simulate_ascent(tr, ExpandedLandscape(base))
    assert sim.length == 0 and sim.terminal and sim.final == (B, C)


def test_simulation_refuses_a_malformed_trace():
    base = build_2by3(3)
    landscape = ExpandedLandscape(base)
    tr = ordered_ascent(base, canonical_start("2by3", 3))
    first, second, *rest = tr.steps
    # Step 1 moves variable 1 from state B, but variable 1 is still in A.
    off_state = (first, StepRecord(1, B, A, second.fitness_after), *rest)
    with pytest.raises(BuildError, match=r"step 1 \(variable 1, 1 -> 0\) does not start"):
        simulate_ascent(dataclasses.replace(tr, steps=off_state), landscape)
    # A negative variable id must not index from the end.
    off_range = (first._replace(var=-3), second, *rest)
    with pytest.raises(BuildError, match=r"step 0 \(variable -3, 0 -> 1\) does not start"):
        simulate_ascent(dataclasses.replace(tr, steps=off_range), landscape)
    # Nor may one past the last: step 1 on variable n_vars = 3.
    past_end = (first, second._replace(var=3), *rest)
    with pytest.raises(BuildError, match=r"step 1 \(variable 3, 0 -> 1\) does not start"):
        simulate_ascent(dataclasses.replace(tr, steps=past_end), landscape)
    # A step that stays put, and A -> C, which {A, B, C} at an even variable
    # does not permit, are not moves.
    for bad, text in ((StepRecord(0, A, A, 1), "0 -> 0"), (first._replace(dst=C), "0 -> 2")):
        with pytest.raises(BuildError, match=rf"step 0 \(variable 0, {text}\) is not a permitted move"):
            simulate_ascent(dataclasses.replace(tr, steps=(bad, second, *rest)), landscape)
    with pytest.raises(InvalidAssignmentError, match="state -1 out of range for variable 2"):
        simulate_ascent(dataclasses.replace(tr, start=(A, A, -1)), landscape)
