"""Property tests on random small VCSPs: the engines against the from-scratch
checkers and replays, delta evaluation against full fitness, and the JSON
round trip."""

from __future__ import annotations

import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ascentlab import (
    DomainSpec,
    ValuedConstraint,
    VcspInstance,
    exhaustive_steepest_oracle,
    expand_landscape,
    first_improvement_ascent,
    instance_from_json,
    instance_to_json,
    ordered_ascent,
    simulate_ascent,
    steepest_ascent,
    verify_ordered,
)
from ascentlab.ascent import AscentTrace, StepRecord
from ascentlab.verification import traces_equivalent

SUMMARY_FIELDS = ("length", "terminal", "final", "final_fitness", "tie_steps", "ambiguous_steps")


def _moves(size: int, kind: str) -> frozenset[tuple[int, int]]:
    if kind == "path":
        return frozenset((s, s + 1) for s in range(size - 1))
    if kind == "complete":
        return frozenset((s, t) for s in range(size) for t in range(s + 1, size))
    return frozenset()  # a frozen variable


# A constraint scaled by 2^64 + 1 takes its values beyond the int64 range.
SCALES = (1, -1, 2**64 + 1)


@st.composite
def cases(draw):
    """(instance, start, order, step limit) with arity 1-3 and 2-4 states.

    Hypothesis draws the shape; the table entries come from a drawn seed,
    because its own integer lists lean so far toward zeros that most walks
    would end at the start.  Entries within -1..1 or -4..4 make ties and
    several improving states common.
    """
    n = draw(st.integers(1, 7))
    domains = []
    for _ in range(n):
        size = draw(st.integers(2, 4))
        kind = draw(st.sampled_from(("path", "complete", "empty")))
        domains.append(DomainSpec(tuple("ABCD"[:size]), _moves(size, kind)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from((1, 4)))
    constraints = []
    for i in range(draw(st.integers(0, 12))):
        arity = draw(st.integers(1, min(3, n)))
        scope = tuple(draw(st.permutations(range(n)))[:arity])
        cells = math.prod(domains[v].size for v in scope)
        scale = draw(st.sampled_from(SCALES))
        table = tuple(scale * rng.randint(-spread, spread) for _ in range(cells))
        constraints.append(ValuedConstraint(scope, table, f"c{i}"))
    inst = VcspInstance(tuple(domains), tuple(constraints))
    assert inst.validate() == []
    start = tuple(draw(st.integers(0, d.size - 1)) for d in domains)
    order = tuple(draw(st.permutations(range(n))))
    limit = draw(st.integers(0, 6))
    return inst, start, order, limit


PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _reference_fitness(inst: VcspInstance, x) -> int:
    """Fitness read straight from each constraint's raw values: the tensor
    index is the scope's states in row-major order over their domain sizes."""
    total = 0
    for c in inst.constraints:
        idx = 0
        for var in c.scope:
            idx = idx * inst.sizes[var] + x[var]
        total += c.values[idx]
    return total


@st.composite
def wide_cases(draw):
    """(instance, assignment) with scopes of arity 1-7 over 2-3 states and
    values up to 2^70 in size, so every arity group of the evaluation tables
    and the generic loop past them get random data."""
    n = draw(st.integers(1, 8))
    domains = []
    for _ in range(n):
        size = draw(st.integers(2, 3))
        domains.append(DomainSpec(tuple("ABC"[:size]), _moves(size, "complete")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    constraints = []
    for i in range(draw(st.integers(0, 8))):
        arity = draw(st.integers(1, min(7, n)))
        scope = tuple(draw(st.permutations(range(n)))[:arity])
        cells = math.prod(domains[v].size for v in scope)
        table = tuple(rng.randint(-(2**70), 2**70) for _ in range(cells))
        constraints.append(ValuedConstraint(scope, table, f"c{i}"))
    inst = VcspInstance(tuple(domains), tuple(constraints))
    assert inst.validate() == []
    x = tuple(draw(st.integers(0, d.size - 1)) for d in domains)
    return inst, x


@PROPERTY
@given(wide_cases())
def test_fitness_and_delta_equal_a_reference_evaluator(case):
    inst, x = case
    f = _reference_fitness(inst, x)
    assert inst.fitness(x) == f
    y = list(x)
    for k, dom in enumerate(inst.domains):
        for v in range(dom.size):
            y[k] = v
            want = _reference_fitness(inst, y) - f
            assert inst._delta(x, k, x[k], v) == want
            assert inst._reference_delta(x, k, v) == want
        y[k] = x[k]


def _is_prefix(limited, full, limit: int) -> bool:
    return (
        limited.steps == full.steps[:limit]
        and limited.length == min(limit, full.length)
        and limited.terminal == (limit >= full.length)
    )


@PROPERTY
@given(cases())
def test_steepest_equals_the_exhaustive_oracle(case):
    inst, start, _, limit = case
    for step_limit in (None, limit):
        engine = steepest_ascent(inst, start, step_limit=step_limit)
        oracle = exhaustive_steepest_oracle(inst, start, step_limit=step_limit)
        assert traces_equivalent(engine, oracle)
        assert engine.tie_steps == oracle.tie_steps


def _ordered_choices(inst, trace) -> list[tuple[int, int]]:
    """Per step, from full fitness evaluations: the state the moved variable
    should take (largest gain, then lowest id) and its number of improving
    states."""
    x = list(trace.start)
    choices = []
    for rec in trace.steps:
        f = inst.fitness(x)
        gains = {}
        for t in inst.domains[rec.var].adjacent(x[rec.var]):
            y = list(x)
            y[rec.var] = t
            gains[t] = inst.fitness(y) - f
        improving = [t for t, g in gains.items() if g > 0]
        choices.append((max(improving, key=lambda t: (gains[t], -t)), len(improving)))
        x[rec.var] = rec.dst
    return choices


@PROPERTY
@given(cases())
def test_ordered_agrees_with_the_from_scratch_checks(case):
    inst, start, order, _ = case
    trace = ordered_ascent(inst, start, order=order)
    assert verify_ordered(inst, trace, order) is None
    assert trace.terminal
    choices = _ordered_choices(inst, trace)
    assert [rec.dst for rec in trace.steps] == [t for t, _ in choices]
    assert trace.ambiguous_steps == sum(1 for _, count in choices if count > 1)


def _first_replay(inst, start, seed: int, step_limit: int | None) -> AscentTrace:
    """First-improvement ascent as documented, from full fitness calls: each
    step visits the ascending `neighbors(x)` list in the order of a
    Fisher-Yates shuffle drawn with `randrange(i, m)`, and takes the first
    move that raises the fitness."""
    rng = random.Random(seed)
    x = list(start)
    f = inst.fitness(x)
    steps = []
    while True:
        moves = inst.neighbors(x)
        m = len(moves)
        for i in range(m):
            j = rng.randrange(i, m)
            moves[i], moves[j] = moves[j], moves[i]
            k, t = moves[i]
            y = list(x)
            y[k] = t
            g = inst.fitness(y)
            if g > f:
                break
        else:
            terminal = True
            break
        if len(steps) == step_limit:
            terminal = False
            break
        steps.append(StepRecord(k, x[k], t, g))
        x, f = y, g
    return AscentTrace(
        start=tuple(start),
        steps=tuple(steps),
        length=len(steps),
        terminal=terminal,
        policy="first",
        tie_steps=0,
        ambiguous_steps=0,
        final=tuple(x),
        final_fitness=f,
    )


@PROPERTY
@given(cases(), st.integers(0, 2**32 - 1))
def test_first_improvement_equals_its_replay(case, seed):
    inst, start, _, limit = case
    for step_limit in (None, limit):
        engine = first_improvement_ascent(inst, start, step_limit=step_limit, seed=seed)
        assert engine == _first_replay(inst, start, seed, step_limit)


@PROPERTY
@given(cases())
def test_summary_mode_and_step_limits_agree_with_the_full_walk(case):
    inst, start, order, limit = case
    engines = (
        lambda **kw: steepest_ascent(inst, start, **kw),
        lambda **kw: ordered_ascent(inst, start, order=order, **kw),
        lambda **kw: first_improvement_ascent(inst, start, seed=limit, **kw),
    )
    for run in engines:
        full = run()
        summary = run(record_steps=False)
        assert summary.steps is None
        assert [getattr(summary, f) for f in SUMMARY_FIELDS] == [
            getattr(full, f) for f in SUMMARY_FIELDS
        ]
        assert _is_prefix(run(step_limit=limit), full, limit)


@PROPERTY
@given(cases())
def test_delta_equals_the_full_fitness_difference(case):
    inst, x, _, _ = case
    f = inst.fitness(x)
    for k in range(inst.n_vars):
        for v in range(inst.sizes[k]):
            y = list(x)
            y[k] = v
            assert inst._delta(x, k, x[k], v) == inst.fitness(y) - f


@PROPERTY
@given(cases())
def test_json_round_trip_gives_back_the_instance(case):
    inst = case[0]
    assert instance_from_json(json.loads(json.dumps(instance_to_json(inst)))) == inst


@PROPERTY
@given(cases())
def test_simulated_ascent_takes_its_fitness_from_the_expanded_landscape(case):
    inst, start, order, _ = case
    landscape = expand_landscape(inst, order)
    sim = simulate_ascent(ordered_ascent(inst, start, order=order), landscape)
    states = list(sim.states())
    assert sim.fitness_values() == [landscape.fitness(x) for x in states[1:]]
    assert sim.final == states[-1]
    assert sim.final_fitness == landscape.fitness(sim.final)
