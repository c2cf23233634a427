"""Engine behavior, trace verification, step limits, and trace export."""

from __future__ import annotations

import collections
import dataclasses
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ascentlab
from ascentlab import (
    AscentTrace,
    DomainSpec,
    ExpandedLandscape,
    ValuedConstraint,
    VcspInstance,
    build_2by3,
    build_3by5,
    build_family,
    canonical_start,
    exhaustive_steepest_oracle,
    f_max,
    first_improvement_ascent,
    ordered_ascent,
    steepest_ascent,
    trace_to_csv,
    trace_to_json,
    verify_ascent,
    verify_ordered,
    verify_steepest,
)
from ascentlab import ascent
from ascentlab.ascent import StepRecord, _Sparse, _blankets
from ascentlab.verification import padding_violation
from relabelling import relabel

A, B, C, D = 0, 1, 2, 3


def test_steepest_empty_trace_at_local_solution():
    inst = build_2by3(2)
    tr = steepest_ascent(inst, (B, C))
    assert tr.length == 0 and tr.terminal and tr.steps == ()
    assert tr.final == (B, C) and tr.final_fitness == 5


def test_steepest_first_step_takes_the_larger_gain():
    tr = steepest_ascent(build_2by3(2), (A, A))
    assert tr.steps[0] == StepRecord(var=1, src=A, dst=B, fitness_after=3)


def test_step_record_is_an_immutable_tuple_of_its_fields():
    rec = StepRecord(1, A, B, 3)
    assert rec == (1, A, B, 3) and hash(rec) == hash((1, A, B, 3))
    assert repr(rec) == "StepRecord(var=1, src=0, dst=1, fitness_after=3)"
    assert rec._asdict() == {"var": 1, "src": A, "dst": B, "fitness_after": 3}
    with pytest.raises(AttributeError):
        rec.var = 2


def test_steepest_on_expanded_instance_n2():
    tr = steepest_ascent(build_3by5(2), (A, A))
    assert tr.length == 10 == 2 * f_max(2)
    assert tr.terminal and tr.tie_steps == 0


class _CountingDeltas:
    """Delegates to a landscape and counts its `_delta` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _delta(self, x, k, s, t):
        self.calls += 1
        return self.inner._delta(x, k, s, t)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_ordered_walk_scans_each_move_once(n):
    # The walk repeats its local configurations: every step after the first
    # visit of a key replays a stored move, so the scans stay linear in n.
    landscape = _CountingDeltas(build_2by3(n))
    tr = ordered_ascent(landscape, canonical_start("2by3", n), record_steps=False)
    assert tr.length == f_max(n) and tr.terminal
    assert landscape.calls == 7 * n - 4


def _random_vcsp(seed: int) -> tuple[VcspInstance, tuple[int, ...]]:
    """An instance and start shaped like the benchmark's random VCSPs: 60
    variables of 2-4 states, 150 constraints of arity 1-3 and values in
    +-2^70, so blankets too big to tabulate and values beyond 2^63."""
    rng = random.Random(seed)
    domains = []
    for _ in range(60):
        size = rng.randint(2, 4)
        moves = {
            "path": {(s, s + 1) for s in range(size - 1)},
            "complete": {(s, t) for s in range(size) for t in range(s + 1, size)},
            "empty": set(),
        }[rng.choice(("path", "complete", "empty"))]
        domains.append(DomainSpec(tuple("ABCD"[:size]), frozenset(moves)))
    constraints = []
    for c in range(150):
        scope = tuple(rng.sample(range(60), rng.choice((1, 2, 2, 3, 3))))
        cells = math.prod(domains[v].size for v in scope)
        values = tuple(rng.randint(-(2**70), 2**70) for _ in range(cells))
        constraints.append(ValuedConstraint(scope, values, f"r{c}"))
    start = tuple(rng.randrange(d.size) for d in domains)
    return VcspInstance(tuple(domains), tuple(constraints)), start


MEMO_CASES = [
    pytest.param(
        lambda f=family, n=n: (build_family(f, n), canonical_start(f, n)), id=f"{family}-{n}"
    )
    for family in ("2by3", "3by5", "bool-pw4")
    for n in range(2, 7)
] + [
    pytest.param(lambda: _random_vcsp(17), id="random-vcsp"),
]


@pytest.mark.parametrize("make", MEMO_CASES)
def test_sparse_memo_walks_as_the_table(monkeypatch, make):
    # A cap of 0 sends every walk to the sparse dict; the walks must not change.
    landscape, start = make()
    walks = [steepest_ascent(landscape, start), ordered_ascent(landscape, start)]
    assert all(w.length > 0 for w in walks)
    monkeypatch.setattr(ascent, "_TABLE_SLOTS", 0)
    assert type(_blankets(landscape, list(start))[3]) is _Sparse
    assert [steepest_ascent(landscape, start), ordered_ascent(landscape, start)] == walks


def test_chain_families_tabulate_and_random_blankets_stay_sparse():
    for inst in (build_3by5(200), build_family("bool-pw4", 200)):
        assert type(_blankets(inst, [0] * inst.n_vars)[3]) is list
    inst, start = _random_vcsp(17)
    assert type(_blankets(inst, list(start))[3]) is _Sparse


_NO_MOVES = DomainSpec(("A", "B", "C"), frozenset())
SENTINEL_CASES = [
    pytest.param(VcspInstance((), ()), (), 0, id="no-variables"),
    pytest.param(
        VcspInstance(
            (_NO_MOVES, _NO_MOVES), (ValuedConstraint((0, 1), tuple(range(9)), "rising"),)
        ),
        (A, A),
        0,
        id="no-permitted-move",
    ),
    # Only variable 3 improves, so the first scan reaches position n-1.
    pytest.param(build_2by3(4), (B, C, A, B), 6, id="2by3-last-variable"),
]


@pytest.mark.parametrize("inst, start, length", SENTINEL_CASES)
def test_ordered_scan_stops_at_the_sentinel_of_either_memo(monkeypatch, inst, start, length):
    table = ordered_ascent(inst, start)
    assert table.length == length and table.terminal
    assert verify_ordered(inst, table) is None
    if length:
        assert ascent._improving_move(inst, start)[0] == table.steps[0].var == inst.n_vars - 1
    monkeypatch.setattr(ascent, "_TABLE_SLOTS", 0)
    assert type(_blankets(inst, list(start))[3]) is _Sparse
    sparse = ordered_ascent(inst, start)
    assert sparse == table
    assert verify_ordered(inst, sparse) is None


def _engine_stream(moves, landscape, start):
    """Each move the engine's stream offers from `start`, applied, as
    `(record, tied, ambiguous)`, read to the stream's end without `_walk`."""
    x = list(start)
    f = landscape.fitness(x)
    out = []
    for k, t, gain, tied, ambiguous in moves(landscape, x):
        f += gain
        out.append((StepRecord(k, x[k], t, f), tied, ambiguous))
        x[k] = t
    return out


@pytest.mark.parametrize(
    "engine, moves",
    [
        (steepest_ascent, ascent._steepest_moves),
        (ordered_ascent, ascent._ordered_moves),
        (
            functools.partial(first_improvement_ascent, seed=3),
            lambda landscape, x: ascent._first_moves(landscape, x, 3),
        ),
    ],
    ids=["steepest", "ordered", "first"],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda: (build_2by3(4), canonical_start("2by3", 4)),
        lambda: (build_family("bool-pw4", 4), canonical_start("bool-pw4", 4)),
        lambda: _random_vcsp(17),
    ],
    ids=["2by3-4", "bool-pw4-4", "random-vcsp"],
)
def test_a_step_limit_cuts_the_unlimited_walk(engine, moves, make):
    landscape, start = make()
    stream = _engine_stream(moves, landscape, start)
    full = engine(landscape, start)
    assert full.steps == tuple(rec for rec, _, _ in stream) and full.length > 0
    for limit in range(full.length + 2):
        cut = stream[:limit]
        x = list(start)
        for rec, _, _ in cut:
            x[rec.var] = rec.dst
        for record_steps in (True, False):
            tr = engine(landscape, start, step_limit=limit, record_steps=record_steps)
            assert tr.steps == (tuple(rec for rec, _, _ in cut) if record_steps else None)
            assert tr.length == len(cut)
            assert tr.final == tuple(x)
            assert tr.final_fitness == (
                cut[-1][0].fitness_after if cut else landscape.fitness(start)
            )
            assert tr.tie_steps == sum(tied for _, tied, _ in cut)
            assert tr.ambiguous_steps == sum(ambiguous for _, _, ambiguous in cut)
            assert tr.terminal == (limit >= full.length)


def test_ordered_prefers_the_earliest_variable():
    tr = ordered_ascent(build_2by3(2), (A, A))
    assert tr.steps[0] == StepRecord(var=0, src=A, dst=B, fitness_after=1)
    assert tr.length == 5
    assert tr.fitness_values() == [1, 2, 3, 4, 5]
    assert tr.terminal and tr.ambiguous_steps == 0


def test_ordered_empty_trace_at_local_solution():
    tr = ordered_ascent(build_2by3(2), (B, C))
    assert tr.length == 0 and tr.terminal


def test_ordered_respects_custom_order():
    # The reversed order is the identity order of the relabelled chain, whose
    # variable i is the chain's variable order[i]: the walk starts at the
    # chain's other end.
    order = (1, 0)
    swapped = relabel(build_2by3(2), order)
    tr = ordered_ascent(swapped, (A, A))
    assert order[tr.steps[0].var] == 1
    assert verify_ordered(swapped, tr) is None


def test_first_improvement_contract():
    inst = build_2by3(4)
    for seed in range(6):
        tr = first_improvement_ascent(inst, (A,) * 4, seed=seed)
        assert verify_ascent(inst, tr) is None
        assert tr.terminal
    again = first_improvement_ascent(inst, (A,) * 4, seed=3)
    assert again.steps == first_improvement_ascent(inst, (A,) * 4, seed=3).steps


def test_first_improvement_draws_its_first_move_uniformly():
    # From A every move of the one 4-state variable improves, so the first
    # step lands on whichever move the scan draws first.
    inst = VcspInstance(
        (DomainSpec(tuple("ABCD"), frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})),),
        (ValuedConstraint((0,), (0, 1, 2, 3)),),
    )
    firsts = [first_improvement_ascent(inst, (A,), seed=s).steps[0].dst for s in range(60)]
    assert all(firsts.count(t) >= 10 for t in (B, C, D))


def test_some_seed_finds_a_short_ascent():
    inst = build_2by3(4)
    lengths = {
        first_improvement_ascent(inst, (A,) * 4, seed=s).length for s in range(20)
    }
    assert min(lengths) < f_max(4) == 22


def test_step_limit_semantics():
    inst = build_2by3(2)
    tr = steepest_ascent(inst, (A, A), step_limit=0)
    assert tr.length == 0 and not tr.terminal
    tr = steepest_ascent(inst, (B, C), step_limit=0)
    assert tr.length == 0 and tr.terminal
    tr = ordered_ascent(inst, (A, A), step_limit=2)
    assert tr.length == 2 and not tr.terminal
    # A limit that is exactly enough still reports a terminal trace.
    tr = ordered_ascent(inst, (A, A), step_limit=5)
    assert tr.length == 5 and tr.terminal


def test_steepest_selects_from_the_improving_set():
    # x0 has two best targets B and C (gain 5); x1 and x2 tie for the
    # largest gain 9; x3 (gain 7) stops improving once x1 moves; x4 starts
    # improving (gain 6) only once x2 moves.
    fork = DomainSpec(("A", "B", "C"), frozenset({(0, 1), (0, 2)}))
    bit = DomainSpec(("A", "B"), frozenset({(0, 1)}))
    inst = VcspInstance(
        (fork, bit, bit, bit, bit),
        (
            ValuedConstraint((0,), (0, 5, 5), "fork"),
            ValuedConstraint((1,), (0, 9), "u1"),
            ValuedConstraint((2,), (0, 9), "u2"),
            ValuedConstraint((3,), (0, 7), "u3"),
            ValuedConstraint((1, 3), (0, 0, 0, -10), "x1 blocks x3"),
            ValuedConstraint((2, 4), (0, -1, 0, 6), "x2 unblocks x4"),
        ),
    )
    start = (A,) * 5
    # The limit exceeds the walk's length; it only stops a faulty walk.
    tr = steepest_ascent(inst, start, step_limit=5)
    assert tr.steps == (
        StepRecord(var=1, src=A, dst=B, fitness_after=9),  # lowest id wins the tie
        StepRecord(var=2, src=A, dst=B, fitness_after=18),
        StepRecord(var=4, src=A, dst=B, fitness_after=24),  # x3 is never chosen
        StepRecord(var=0, src=A, dst=B, fitness_after=29),  # lowest best target
    )
    assert tr.terminal and tr.final == (B, B, B, A, B)
    # Exactly the first step (across variables) and the last (within x0) tie.
    assert [steepest_ascent(inst, start, step_limit=i).tie_steps for i in range(5)] == [
        0, 1, 1, 1, 2,
    ]
    assert tr.tie_steps == exhaustive_steepest_oracle(inst, start, step_limit=5).tie_steps == 2
    assert verify_steepest(inst, tr) is None


@pytest.mark.parametrize(
    "family,n", [("3by5", n) for n in range(2, 6)] + [("bool-pw4", n) for n in range(2, 5)]
)
def test_canonical_start_is_the_unique_start_of_the_longest_steepest_ascent(family, n):
    """With the engine's lowest-id tie-break, the steepest ascent from every
    start is at most 2·f_max(n) steps long, and only the canonical start
    reaches that length.  This is an observation of the lab at small n, not
    a claim of the paper (it fails for steepest ascent on `2by3`)."""
    inst = build_family(family, n)
    lengths = {
        x: steepest_ascent(inst, x, record_steps=False).length for x in inst.all_assignments()
    }
    longest = max(lengths.values())
    assert longest == 2 * f_max(n)
    assert [x for x, length in lengths.items() if length == longest] == [
        canonical_start(family, n)
    ]


# -- verifiers -------------------------------------------------------------------


def test_verify_steepest_accepts_engine_output():
    inst = build_3by5(2)
    assert verify_steepest(inst, steepest_ascent(inst, (A, A))) is None


def test_verify_steepest_rejects_ordered_trace():
    inst = build_2by3(2)
    bad = verify_steepest(inst, ordered_ascent(inst, (A, A)))
    assert bad is not None and bad.step == 0 and bad.witness == (1, B)


def test_verify_ordered_accepts_engine_output():
    inst = build_2by3(3)
    assert verify_ordered(inst, ordered_ascent(inst, (A, A, A))) is None


def test_verify_ordered_rejects_steepest_trace():
    inst = build_2by3(2)
    bad = verify_ordered(inst, steepest_ascent(inst, (A, A)))
    assert bad is not None and bad.step == 0 and bad.witness[0] == 0


def test_verifiers_check_the_whole_walk_before_the_step_rule():
    # Each walk breaks the other policy's rule at step 0 and has a wrong last
    # fitness; the walk's own checks run first, so the fitness is reported.
    inst = build_2by3(4)
    start = canonical_start("2by3", 4)
    cases = ((ordered_ascent, verify_steepest, 21), (steepest_ascent, verify_ordered, 7))
    for engine, verify, step in cases:
        tr = engine(inst, start)
        assert verify(inst, tr).step == 0
        *steps, last = tr.steps
        last = last._replace(fitness_after=last.fitness_after + 1)
        bad = dataclasses.replace(tr, steps=(*steps, last))
        v = verify(inst, bad)
        assert (v.step, v.reason) == (step, "recorded fitness 23 != actual 22")


@pytest.mark.parametrize("n", range(2, 11))
def test_bool_pw4_engine_walk_is_a_steepest_ascent(n):
    # verify --check boolean trusts the engine's steepest walk on bool-pw4.
    inst = build_family("bool-pw4", n)
    assert verify_steepest(inst, steepest_ascent(inst, canonical_start("bool-pw4", n))) is None


def test_single_variable_ascents_are_ordered():
    dom = DomainSpec(("A", "B"), frozenset({(0, 1)}))
    inst = VcspInstance((dom,), (ValuedConstraint((0,), (0, 1), "up"),))
    tr = steepest_ascent(inst, (A,))
    assert verify_ordered(inst, tr) is None
    assert verify_steepest(inst, tr) is None


def test_verify_ascent_catches_tampering():
    inst = build_2by3(2)
    tr = ordered_ascent(inst, (A, A))

    def with_steps(steps, terminal=True):
        return type(tr)(
            start=tr.start,
            steps=tuple(steps),
            length=len(steps),
            terminal=terminal,
            policy=tr.policy,
            tie_steps=0,
            ambiguous_steps=0,
            final=tr.final,
            final_fitness=tr.final_fitness,
        )

    wrong_fitness = list(tr.steps)
    wrong_fitness[2] = StepRecord(
        tr.steps[2].var, tr.steps[2].src, tr.steps[2].dst, tr.steps[2].fitness_after + 1
    )
    assert verify_ascent(inst, with_steps(wrong_fitness)).step == 2

    forbidden = [StepRecord(1, A, C, 1)]
    bad = verify_ascent(inst, with_steps(forbidden))
    assert bad.step == 0 and "not permitted" in bad.reason

    not_terminal = with_steps(tr.steps[:1])
    assert verify_ascent(inst, not_terminal) is not None


VERIFIERS = [verify_ascent, verify_steepest, verify_ordered]


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_verifiers_refuse_a_step_on_variable_n_vars(verifier):
    inst = build_2by3(3)
    tr = ordered_ascent(inst, (A, A, A))
    first, second, *rest = tr.steps
    steps = (first, second._replace(var=inst.n_vars), *rest)
    bad = verifier(inst, dataclasses.replace(tr, steps=steps))
    assert (bad.step, bad.reason) == (1, "variable 3 out of range")


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_verifiers_refuse_a_step_that_keeps_the_fitness(verifier):
    # With no constraints every state has fitness 0, so no move raises it.
    bit = DomainSpec(("A", "B"), frozenset({(0, 1)}))
    inst = VcspInstance((bit, bit), ())
    tr = AscentTrace(
        start=(A, A), steps=(StepRecord(1, A, B, 0),), length=1, terminal=False,
        policy="steepest", tie_steps=0, ambiguous_steps=0, final=(A, B), final_fitness=0,
    )
    bad = verifier(inst, tr)
    assert (bad.step, bad.reason) == (0, "fitness did not strictly increase (0 -> 0)")


def test_verify_steepest_names_the_first_tampered_step():
    inst = build_3by5(4)
    tr = steepest_ascent(inst, canonical_start("3by5", 4))
    assert tr.length == 44 and verify_steepest(inst, tr) is None

    def with_steps(steps, final, terminal):
        return type(tr)(
            start=tr.start,
            steps=tuple(steps),
            length=len(steps),
            terminal=terminal,
            policy=tr.policy,
            tie_steps=0,
            ambiguous_steps=0,
            final=final,
            final_fitness=steps[-1].fitness_after,
        )

    # Step 3 moves var 1 from 3 to 1 (fitness 18); var 3 from 0 to 3 also
    # improves, to 13, so a trace that takes it is an ascent but not steepest.
    x = list(tr.states())[3]
    assert tr.steps[3] == StepRecord(1, 3, 1, 18) and x[3] == 0
    detour = tr.steps[:3] + (StepRecord(3, 0, 3, 13),)
    bad = with_steps(detour, x[:3] + (3,) + x[4:], terminal=False)
    assert verify_ascent(inst, bad) is None
    v = verify_steepest(inst, bad)
    assert (v.step, v.reason, v.witness) == (
        3, "neighbor (var 1 -> state 1) has fitness 18 > chosen 13", (1, 1)
    )

    wrong = list(tr.steps)
    wrong[5] = wrong[5]._replace(fitness_after=wrong[5].fitness_after + 1)
    v = verify_steepest(inst, with_steps(wrong, tr.final, terminal=True))
    assert (v.step, v.reason, v.witness) == (5, "recorded fitness 28 != actual 27", None)


def test_verifiers_score_the_terminal_state_without_delta(monkeypatch):
    # A `_delta` that never lets the last variable improve stops both engines
    # early; the verifiers must still find the move it hides.
    real = VcspInstance._delta

    def clamped(self, x, k, s, v):
        d = real(self, x, k, s, v)
        return min(d, 0) if k == self.n_vars - 1 else d

    monkeypatch.setattr(VcspInstance, "_delta", clamped)
    inst = build_3by5(4)
    for engine, verify in ((steepest_ascent, verify_steepest), (ordered_ascent, verify_ordered)):
        tr = engine(inst, canonical_start("3by5", 4))
        assert (tr.length, tr.terminal, tr.final, tr.final_fitness) == (20, True, (1, 0, 1, 0), 90)
        assert inst.fitness((1, 0, 1, 3)) == 91
        v = verify(inst, tr)
        assert (v.step, v.reason, v.witness) == (
            20, "terminal trace does not end at a local solution", (3, 3)
        )


class _CountingChecks:
    """Delegates to a landscape and counts the calls of its checked entry
    points `fitness` and `check_assignment`."""

    CHECKED = ("fitness", "check_assignment")

    def __init__(self, inner):
        self.inner = inner
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.CHECKED:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


def test_verifiers_validate_each_state_once():
    # The start is checked once and every later state is a checked move
    # away, so the from-scratch evaluations go through the unchecked
    # `_fitness` and the moves are read from `domains` unchecked.
    inst = build_3by5(6)
    tr = steepest_ascent(inst, canonical_start("3by5", 6))
    landscape = _CountingChecks(inst)
    assert verify_steepest(landscape, tr) is None
    assert landscape.calls == {"check_assignment": 1}
    landscape = _CountingChecks(build_3by5(4))
    oracle = exhaustive_steepest_oracle(landscape, canonical_start("3by5", 4))
    assert oracle.length == 2 * f_max(4) and landscape.calls == {"check_assignment": 1}
    # Every enumerated assignment is valid, so none is checked again.
    instance = _CountingChecks(build_3by5(4))
    assert padding_violation(instance, ExpandedLandscape(build_2by3(4))) is None
    assert instance.calls["fitness"] == 0


@pytest.mark.parametrize("family", ["2by3", "3by5", "bool-pw4"])
def test_builders_and_engines_make_exact_records(family):
    for n in range(2, 7):
        inst = build_family(family, n)
        for c in inst.constraints:
            assert type(c) is ValuedConstraint
            assert type(c.scope) is tuple and type(c.values) is tuple
            assert c == ValuedConstraint(*c)
        start = canonical_start(family, n)
        for tr in (
            steepest_ascent(inst, start),
            ordered_ascent(inst, start),
            first_improvement_ascent(inst, start, seed=n),
        ):
            assert tr.length > 0
            for r in tr.steps:
                assert type(r) is StepRecord and r == StepRecord(*r)


def test_trace_length_never_exceeds_the_fitness_span():
    inst = build_2by3(3)
    for x in inst.all_assignments():
        tr = steepest_ascent(inst, x)
        assert tr.length <= f_max(3) - inst.fitness(x)


# -- summary mode ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
def test_summary_mode_matches_recorded_mode(n):
    inst = build_2by3(n)
    full = ordered_ascent(inst, (A,) * n)
    summary = ordered_ascent(inst, (A,) * n, record_steps=False)
    assert summary.steps is None
    assert (summary.length, summary.terminal, summary.final, summary.final_fitness) == (
        full.length,
        full.terminal,
        full.final,
        full.final_fitness,
    )
    assert summary.ambiguous_steps == full.ambiguous_steps


def test_summary_mode_step_limit():
    inst = build_2by3(8)
    tr = ordered_ascent(inst, (A,) * 8, step_limit=10, record_steps=False)
    assert tr.length == 10 and not tr.terminal


def test_summary_mode_with_custom_order():
    inst = relabel(build_2by3(7), (6, 5, 4, 3, 2, 1, 0))
    full = ordered_ascent(inst, (A,) * 7)
    summary = ordered_ascent(inst, (A,) * 7, record_steps=False)
    assert (summary.length, summary.final, summary.final_fitness) == (
        full.length,
        full.final,
        full.final_fitness,
    )


def test_summary_mode_exact_limit_is_terminal():
    inst = build_2by3(6)
    full = ordered_ascent(inst, (A,) * 6)
    at_limit = ordered_ascent(inst, (A,) * 6, step_limit=full.length, record_steps=False)
    assert at_limit.terminal and at_limit.length == full.length
    below = ordered_ascent(inst, (A,) * 6, step_limit=full.length - 1, record_steps=False)
    assert not below.terminal and below.length == full.length - 1


def test_summary_mode_counts_ambiguity_like_the_recorded_mode():
    # Two equally improving states at the chosen variable.
    dom = DomainSpec(("A", "B", "C"), frozenset({(0, 1), (0, 2)}))
    inst = VcspInstance((dom,), (ValuedConstraint((0,), (0, 1, 1), "fork"),))
    full = ordered_ascent(inst, (A,))
    summary = ordered_ascent(inst, (A,), record_steps=False)
    assert full.ambiguous_steps == summary.ambiguous_steps == 1
    assert full.final == summary.final == (B,)  # lowest improving state wins


ENGINES = {
    "steepest": steepest_ascent,
    "ordered": ordered_ascent,
    "first": functools.partial(first_improvement_ascent, seed=5),
}
SUMMARY_FIELDS = ("length", "terminal", "final", "final_fitness", "tie_steps", "ambiguous_steps")


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("family,n", [("2by3", 6), ("3by5", 4), ("bool-pw4", 4)])
def test_summary_mode_equals_recorded_mode(family, n, engine):
    inst = build_family(family, n)
    start = canonical_start(family, n)
    full = ENGINES[engine](inst, start)
    summary = ENGINES[engine](inst, start, record_steps=False)
    assert summary.steps is None
    assert [getattr(summary, f) for f in SUMMARY_FIELDS] == [
        getattr(full, f) for f in SUMMARY_FIELDS
    ]


def test_engines_import_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies; a fresh interpreter
    # that runs every engine in summary mode must not load any either.
    script = textwrap.dedent(
        """
        import json, sys
        before = set(sys.modules)
        import ascentlab as al
        for family in al.constructions.FAMILIES:
            inst, start = al.build_family(family, 4), al.canonical_start(family, 4)
            for engine in (al.steepest_ascent, al.ordered_ascent, al.first_improvement_ascent):
                engine(inst, start, record_steps=False)
        added = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(json.dumps(sorted(added - set(sys.stdlib_module_names) - {"ascentlab"})))
        """
    )
    src = Path(ascentlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


# -- export ------------------------------------------------------------------------


def test_trace_csv_format():
    inst = build_2by3(2)
    tr = ordered_ascent(inst, (A, A))
    buf = io.StringIO()
    trace_to_csv(tr, inst, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,var,from,to,fitness"
    assert lines[1] == "0,0,A,B,1"
    assert len(lines) == 6


def test_trace_json_mirrors_the_trace():
    inst = build_2by3(2)
    tr = ordered_ascent(inst, (A, A))
    data = json.loads(json.dumps(trace_to_json(tr, inst)))
    assert data["policy"] == "ordered"
    assert data["length"] == 5 and data["terminal"] is True
    assert data["tie_steps"] == 0 and data["ambiguous_steps"] == 0
    assert data["steps"][0] == {"var": 0, "from": "A", "to": "B", "fitness": 1}
    assert data["final_fitness"] == 5


def test_summary_trace_cannot_be_exported():
    inst = build_2by3(2)
    tr = ordered_ascent(inst, (A, A), record_steps=False)
    with pytest.raises(ValueError):
        trace_to_csv(tr, inst, io.StringIO())
