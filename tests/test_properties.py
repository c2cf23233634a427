"""Property tests on random small VCSPs: the engines against the from-scratch
checkers and replays, delta evaluation against full fitness, the JSON round
trip, `pad` against the expanded landscape and the ordered walk it
simulates, and the structural checks (`validate`, `check_path_decomposition`)
against constraint-by-constraint references."""

from __future__ import annotations

import dataclasses
import json
import math
import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from ascentlab import (
    DecompositionReport,
    DomainSpec,
    ExpandedLandscape,
    PathDecomposition,
    ValuedConstraint,
    VcspInstance,
    check_path_decomposition,
    exhaustive_steepest_oracle,
    first_improvement_ascent,
    instance_from_json,
    instance_to_json,
    ordered_ascent,
    pad,
    rank1_split,
    simulate_ascent,
    steepest_ascent,
    verify_ascent,
    verify_ordered,
)
from ascentlab.ascent import AscentTrace, StepRecord
from ascentlab.constructions import ExpandedDomain
from ascentlab.model import neighbors_of
from ascentlab.verification import padding_violation
from references import traces_equivalent
from relabelling import relabel

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
    assert inst.fitness(x) == inst._fitness(x) == f
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


def _unrelabelled(trace: AscentTrace, order) -> AscentTrace:
    """`trace`, a walk of `relabel(inst, order)`, in `inst`'s variable ids."""

    def back(y):
        x = [0] * len(order)
        for i, k in enumerate(order):
            x[k] = y[i]
        return tuple(x)

    return dataclasses.replace(
        trace,
        start=back(trace.start),
        steps=tuple(StepRecord(order[k], s, t, f) for k, s, t, f in trace.steps),
        final=back(trace.final),
    )


@PROPERTY
@given(cases())
def test_ordered_agrees_with_the_from_scratch_checks(case):
    # An ascent in `order` is the identity-order ascent of the relabelled
    # instance; its moves are checked in the instance's own variable ids.
    inst, start, order, _ = case
    relabelled = relabel(inst, order)
    walk = ordered_ascent(relabelled, tuple(start[k] for k in order))
    assert verify_ordered(relabelled, walk) is None
    trace = _unrelabelled(walk, order)
    assert trace.start == start and verify_ascent(inst, trace) is None
    assert trace.terminal
    choices = _ordered_choices(inst, trace)
    assert [rec.dst for rec in trace.steps] == [t for t, _ in choices]
    assert trace.ambiguous_steps == sum(1 for _, count in choices if count > 1)


def _first_replay(inst, start, seed: int, step_limit: int | None) -> AscentTrace:
    """First-improvement ascent as documented, from full fitness calls: each
    step visits the ascending `neighbors_of` list in the order of a
    Fisher-Yates shuffle drawn with `randrange(i, m)`, and takes the first
    move that raises the fitness."""
    rng = random.Random(seed)
    x = list(start)
    f = inst.fitness(x)
    steps = []
    while True:
        moves = neighbors_of(inst.domains, x)
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
    relabelled = relabel(inst, order)
    engines = (
        lambda **kw: steepest_ascent(inst, start, **kw),
        lambda **kw: ordered_ascent(relabelled, tuple(start[k] for k in order), **kw),
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
    # A custom order is the identity order of the base relabelled by it.
    inst, start, order, _ = case
    relabelled = relabel(inst, order)
    walk = ordered_ascent(relabelled, tuple(start[k] for k in order))
    landscape = ExpandedLandscape(relabelled)
    sim = simulate_ascent(walk, landscape)
    states = list(sim.states())
    assert sim.fitness_values() == [landscape.fitness(x) for x in states[1:]]
    assert [landscape._fitness(x) for x in states] == [landscape.fitness(x) for x in states]
    assert sim.final == states[-1]
    assert sim.final_fitness == landscape.fitness(sim.final)


# -- the padding construction against the expanded landscape --------------------------


@st.composite
def pad_cases(draw):
    """(instance, start) with 2-5 variables of 2-3 states, moves along a
    path, complete or none, arity 1-3 and signed entries; the entries come
    from a drawn seed, as in `cases()`."""
    n = draw(st.integers(2, 5))
    domains = []
    for _ in range(n):
        size = draw(st.integers(2, 3))
        kind = draw(st.sampled_from(("path", "complete", "empty")))
        domains.append(DomainSpec(tuple("ABC"[:size]), _moves(size, kind)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from((1, 4)))
    constraints = []
    for i in range(draw(st.integers(1, 8))):
        scope = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, 3))])
        cells = math.prod(domains[v].size for v in scope)
        table = tuple(rng.randint(-spread, spread) for _ in range(cells))
        constraints.append(ValuedConstraint(scope, table, f"c{i}"))
    start = tuple(draw(st.integers(0, d.size - 1)) for d in domains)
    return VcspInstance(tuple(domains), tuple(constraints)), start


def _shift(inst: VcspInstance) -> VcspInstance:
    """`inst` with each constraint less its minimum, which changes no walk."""
    shifted = (
        ValuedConstraint(c.scope, [v - min(c.values) for v in c.values], c.label)
        for c in inst.constraints
    )
    return VcspInstance(inst.domains, tuple(shifted))


# `pad` and its checks are fast on these sizes, so they draw more examples.
PADDING = settings(PROPERTY, max_examples=400)


@PADDING
@given(pad_cases())
def test_pad_keeps_the_padding_rules_of_the_shifted_landscape(case):
    inst = case[0]
    padded = pad(inst)
    assert padded.validate() == []
    assert padding_violation(padded, ExpandedLandscape(_shift(inst))) is None


@PADDING
@given(pad_cases())
def test_steepest_on_pad_simulates_the_ordered_ascent(case):
    inst, start = case
    shifted = _shift(inst)
    ordered = ordered_ascent(shifted, start)
    steepest = steepest_ascent(pad(inst), start)
    if ordered.ambiguous_steps == 0:
        # Each ordered step is steepest's two: into the intermediate, out of it.
        event("ordered walk has no ambiguous step")
        sim = simulate_ascent(ordered, ExpandedLandscape(shifted))
        assert traces_equivalent(steepest, sim)
        return
    # The padded variable's intermediates tie, so steepest may choose another
    # improving state than the ordered engine's largest gain: its main states
    # must still be an ordered ascent, each step through one intermediate.
    event("ordered walk has an ambiguous step")
    assert steepest.length % 2 == 0 and steepest.terminal
    base_steps = []
    x = list(start)
    for into, out in zip(steepest.steps[::2], steepest.steps[1::2]):
        dom = ExpandedDomain.of(inst.domains[into.var])
        assert into.var == out.var and into.src == x[into.var] and into.dst == out.src
        assert into.dst >= dom.n_main  # an intermediate, between the two main states
        assert dom.pair_of(into.dst) == tuple(sorted((into.src, out.dst)))
        x[into.var] = out.dst
        base_steps.append(StepRecord(into.var, into.src, out.dst, inst.fitness(x)))
    walk = AscentTrace(
        start=start,
        steps=tuple(base_steps),
        length=len(base_steps),
        terminal=True,
        policy="ordered",
        tie_steps=0,
        ambiguous_steps=0,
        final=tuple(x),
        final_fitness=inst.fitness(x),
    )
    assert steepest.final == walk.final
    assert verify_ordered(inst, walk) is None


# -- structural checks against constraint-by-constraint references -------------------

# Both structural checks are fast, so their properties draw more examples.
STRUCTURE = settings(PROPERTY, max_examples=400)


def _reference_defects(inst: VcspInstance) -> list[str]:
    """validate()'s defects, found by walking every constraint: a scope
    already found sound with this tensor length is skipped."""
    defects = []
    n = inst.n_vars
    sound = {}
    for ci, c in enumerate(inst.constraints):
        scope = c.scope
        if sound.get(scope) == len(c.values):
            continue
        who = c.label or f"constraint #{ci}"
        if len(scope) == 0:
            defects.append(f"{who}: empty scope")
            continue
        repeats = len(set(scope)) != len(scope)
        if repeats:
            defects.append(f"{who}: scope {scope} repeats a variable")
        if min(scope) < 0 or max(scope) >= n:
            bad = [v for v in scope if not (0 <= v < n)]
            defects.append(f"{who}: scope refers to unknown variable(s) {bad}")
            continue
        expected = math.prod(inst.sizes[v] for v in scope)
        if not repeats:
            sound[scope] = expected
        if len(c.values) != expected:
            defects.append(f"{who}: tensor has {len(c.values)} entries, expected {expected}")
    return defects


@st.composite
def defective_instances(draw):
    """Instances whose constraints share a few drawn scopes, some of them
    empty, with repeated or unknown variables, and whose tensors are
    sometimes one entry short or long; domains of 1-3 states, all of one
    size in about half of them.  The shape comes from a drawn seed, as in
    `cases()`."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(0, 5)
    q = rng.randint(1, 3)
    sizes = [q if rng.random() < 0.5 else rng.randint(1, 3) for _ in range(n)]
    domains = tuple(DomainSpec(tuple("ABC"[:size])) for size in sizes)

    def variable() -> int:  # out of range (-1 or n) about one time in ten
        return rng.choice((-1, n)) if not n or rng.random() < 0.1 else rng.randrange(n)

    def scope() -> tuple[int, ...]:  # distinct known variables three times in four
        if n and rng.random() < 0.75:
            return tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
        return tuple(variable() for _ in range(rng.randint(0, 4)))

    pool = [scope() for _ in range(rng.randint(1, 4))]
    constraints = []
    for i in range(rng.randint(0, 8)):
        scope = rng.choice(pool)
        known = all(0 <= v < n for v in scope)
        length = math.prod(sizes[v] for v in scope) if known else 1
        length += rng.choice((0,) * 8 + (-1, 1))
        constraints.append(ValuedConstraint(scope, (0,) * max(length, 0), rng.choice(("", f"c{i}"))))
    return VcspInstance(domains, tuple(constraints))


@STRUCTURE
@given(defective_instances())
def test_validate_equals_its_constraint_by_constraint_reference(inst):
    want = _reference_defects(inst)
    if not want:
        event("valid, " + ("one domain size" if len(set(inst.sizes)) == 1 else "mixed sizes"))
    for kind in ("empty scope", "repeats a variable", "unknown variable", "tensor has"):
        if any(kind in d for d in want):
            event(f"defect: {kind}")
    lengths: dict[tuple[int, ...], set[int]] = {}
    for c in inst.constraints:
        lengths.setdefault(c.scope, set()).add(len(c.values))
    if any(len(ls) > 1 for ls in lengths.values()):
        event("a scope shared with mixed tensor lengths")
    assert inst.validate() == want


def _reference_decomposition_report(inst: VcspInstance, decomp: PathDecomposition):
    """check_path_decomposition's report, found by intersecting the bag sets
    of each distinct scope's variables."""
    n = inst.n_vars
    bags = decomp.bags
    var_bags: dict[int, list[int]] = {}
    for bi, bag in enumerate(bags):
        for v in bag:
            if not (0 <= v < n):
                return DecompositionReport(None, f"bag {bi} contains unknown variable {v}")
            var_bags.setdefault(v, []).append(bi)

    bag_sets = {v: set(bs) for v, bs in var_bags.items()}
    seen: set[tuple[int, ...]] = set()
    for c in inst.constraints:
        if c.scope in seen:
            continue
        seen.add(c.scope)
        covering: set[int] | None = None
        for v in c.scope:
            s = bag_sets.get(v)
            if not s:
                covering = None
                break
            covering = set(s) if covering is None else covering & s
            if not covering:
                break
        if not covering:
            who = c.label or f"scope {sorted(c.scope)}"
            return DecompositionReport(
                None, f"scope of {who} ({sorted(c.scope)}) is not inside any bag"
            )

    for v, bs in var_bags.items():
        lo, hi = min(bs), max(bs)
        if hi - lo + 1 != len(set(bs)):
            return DecompositionReport(
                None,
                f"variable {v} appears in bags {sorted(set(bs))}, "
                "which is not a contiguous interval",
            )

    width = max((len(b) for b in bags), default=0) - 1
    return DecompositionReport(width)


BIT = DomainSpec(("0", "1"), frozenset({(0, 1)}))


@st.composite
def decomposed_instances(draw):
    """(instance, decomposition) over 1-6 bits and 0-6 bags.  Most bag lists give each
    variable one interval of bags (or none); some then put a variable in a
    bag two or more past its interval, and some are random sets, so
    variables can leave and come back.  A few have no bags, and a few get a
    bag entry that is not a variable.  Scopes are empty, copied from an
    earlier constraint under another label, drawn inside one bag in a random
    order (half of them with the variable that enters last put first), or
    drawn from all variables (and now and then an unknown id).

    The shape comes from a drawn seed, as in `cases()`: hypothesis's own
    draws lean so far toward their first choices that non-contiguous
    variables and scopes in no common bag would be rare."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(1, 6)
    layout = rng.choice(("intervals",) * 3 + ("gap",) * 2 + ("random",) * 2 + ("none",))
    n_bags = 0 if layout == "none" else rng.randint(1, 6)
    bags: list[set[int]] = [set() for _ in range(n_bags)]
    if layout == "random":
        for bag in bags:
            bag.update(rng.choices(range(n), k=rng.randint(1, 4)))
    elif n_bags:
        for v in range(n):
            if rng.random() < 0.8:
                lo = rng.randrange(n_bags)
                hi = rng.randint(lo, n_bags - 1)
                for bi in range(lo, hi + 1):
                    bags[bi].add(v)
                if layout == "gap" and hi + 2 < n_bags:
                    bags[rng.randint(hi + 2, n_bags - 1)].add(v)
    if n_bags and rng.random() < 0.1:
        rng.choice(bags).add(rng.choice((-1, n, n + 3)))
    scopes: list[tuple[int, ...]] = []
    constraints = []
    held = [sorted(b) for b in bags if b]
    enters = {v: bi for bi in reversed(range(n_bags)) for v in bags[bi]}
    for i in range(rng.randint(0, 6)):
        kind = rng.choice(("empty",) + ("shared",) * 2 + ("in a bag",) * 3 + ("any",) * 2)
        if kind == "empty":
            scope = ()
        elif kind == "shared" and scopes:
            scope = rng.choice(scopes)
        elif kind == "in a bag" and held:
            bag = rng.choice(held)
            scope = tuple(rng.sample(bag, rng.randint(min(2, len(bag)), len(bag))))
            if rng.random() < 0.5:  # the last variable to enter comes first
                scope = tuple(sorted(scope, key=enters.__getitem__, reverse=True))
        else:
            ids = range(n + (rng.random() < 0.2))
            scope = tuple(rng.sample(ids, rng.randint(1, len(ids))))
        scopes.append(scope)
        constraints.append(ValuedConstraint(scope, (), rng.choice(("", f"c{i}"))))
    inst = VcspInstance((BIT,) * n, tuple(constraints))
    return inst, PathDecomposition(tuple(map(frozenset, bags)))


@STRUCTURE
@given(decomposed_instances())
def test_path_decomposition_check_equals_its_set_intersection_reference(case):
    inst, decomp = case
    want = _reference_decomposition_report(inst, decomp)
    where: dict[int, list[int]] = {}
    for bi, bag in enumerate(decomp.bags):
        for v in bag:
            where.setdefault(v, []).append(bi)
    contiguous = all(bs[-1] - bs[0] + 1 == len(bs) for bs in where.values())
    event("no bags" if not decomp.bags else "contiguous" if contiguous else "not contiguous")
    covered = [
        s for s in dict.fromkeys(c.scope for c in inst.constraints)
        if s and all(v in where for v in s) and set.intersection(*(set(where[v]) for v in s))
    ]
    scopes = list(dict.fromkeys(c.scope for c in inst.constraints))
    if contiguous and all(s and all(v in where for v in s) for s in scopes):
        event("contiguous, every scope non-empty with its variables in bags")
    if contiguous and any(where[s[-1]][0] < max(where[v][0] for v in s) for s in covered):
        event("a covered scope's last variable is not its last to enter")
    if want.violation is None:
        event("report: ok")
    elif want.violation.startswith("bag "):
        event("report: unknown variable in a bag")
    elif want.violation.startswith("variable "):
        event("report: not contiguous")
    else:
        scope = next(c.scope for c in inst.constraints if c.scope not in covered)
        event(
            "report: empty scope" if not scope
            else "report: a scope variable in no bag" if any(v not in where for v in scope)
            else "report: a scope in no bag"
        )
        if not all(c.label for c in inst.constraints if c.scope == scope):
            event("the scope's constraints include an unlabelled one")
    assert check_path_decomposition(inst, decomp) == want


# -- rank-1 splits ------------------------------------------------------------------


@PROPERTY
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    st.data(),
)
def test_rank1_split_witnesses_an_additive_matrix_and_refuses_a_bumped_one(column, row, data):
    matrix = [[c + r for r in row] for c in column]
    split = rank1_split(matrix)
    assert split.feasible
    assert [[c + r for r in split.row] for c in split.column] == matrix
    # One entry off makes every 2x2 minor through it disagree.
    i = data.draw(st.integers(0, len(column) - 1))
    j = data.draw(st.integers(0, len(row) - 1))
    matrix[i][j] += data.draw(st.sampled_from((-2, -1, 1, 2)))
    split = rank1_split(matrix)
    assert not split.feasible
    (a, b), (c, d) = split.minor
    assert (split.lhs, split.rhs) == (matrix[a][b] + matrix[c][d], matrix[a][d] + matrix[c][b])
    assert split.lhs != split.rhs
