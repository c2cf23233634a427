"""Checkers, oracles, and fault-injection sensitivity."""

from __future__ import annotations

import dataclasses
import json
import random
import time
import weakref

import pytest

from ascentlab import (
    ExpandedLandscape,
    PathDecomposition,
    Rank1Split,
    ValuedConstraint,
    VcspInstance,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    check_path_decomposition,
    exhaustive_steepest_oracle,
    rank1_split,
    run_all,
    steepest_ascent,
)
from ascentlab import constructions, verification
from ascentlab.constructions import ODD_MIN, boolean_pw4_hypergraph, f_max
from ascentlab.verification import (
    CHECK_NAMES,
    CheckReport,
    DEFAULT_CAPS,
    check_boolean,
    check_ordered_length,
    check_padding,
    check_rank1,
    check_simulation,
    padding_violation,
    run_check,
    with_bumped_constraint,
)
from references import reference_pathwidth_report, traces_equivalent, without_constraints

A = 0


# -- oracle -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: build_2by3(3), lambda: build_3by5(2), lambda: build_boolean_pw4(2)[0]]
)
def test_oracle_matches_engine_everywhere(make):
    inst = make()
    for x in inst.all_assignments():
        oracle = exhaustive_steepest_oracle(inst, x)
        assert traces_equivalent(steepest_ascent(inst, x), oracle)
        assert oracle.ambiguous_steps == 0


@pytest.mark.parametrize(
    "make", [lambda: build_2by3(3), lambda: build_3by5(3), lambda: build_boolean_pw4(3)[0]]
)
def test_engine_contracts_exhaustively(make):
    from ascentlab import (
        first_improvement_ascent,
        ordered_ascent,
        verify_ascent,
        verify_ordered,
        verify_steepest,
    )

    inst = make()
    for x in inst.all_assignments():
        assert verify_steepest(inst, steepest_ascent(inst, x)) is None
        assert verify_ordered(inst, ordered_ascent(inst, x)) is None
        assert verify_ascent(inst, first_improvement_ascent(inst, x, seed=1)) is None


def test_oracle_empty_at_local_solution():
    inst = build_2by3(2)
    tr = exhaustive_steepest_oracle(inst, (1, 2))
    assert tr.length == 0 and tr.terminal


def test_oracle_respects_step_limit():
    inst = build_2by3(4)
    tr = exhaustive_steepest_oracle(inst, (A,) * 4, step_limit=3)
    assert tr.length == 3 and not tr.terminal


# -- standard checks ----------------------------------------------------------------


def test_checks_pass_at_reduced_caps():
    caps = {
        "ordered-length": 8,
        "simulation": 5,
        "simulation-verify": 4,
        "padding": 4,
        "boolean": 4,
        "boolean-equiv": 3,
        "pathwidth": 12,
    }
    for name in CHECK_NAMES:
        t0 = time.perf_counter()
        report = run_check(name, caps)
        wall = time.perf_counter() - t0
        assert report.passed, report.details
        assert report.counterexample is None
        assert 0 <= report.runtime_s <= wall
        data = report.to_json()
        assert data["name"] == name and data["passed"] is True


def test_run_all_covers_every_check():
    reports = run_all(
        {
            "ordered-length": 4,
            "simulation": 3,
            "simulation-verify": 2,
            "padding": 3,
            "boolean": 3,
            "boolean-equiv": 2,
            "pathwidth": 5,
        }
    )
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert all(r.passed for r in reports)


def test_unknown_check_is_rejected():
    with pytest.raises(ValueError):
        run_check("nonsense")


# -- rank-1 split --------------------------------------------------------------------


def test_split_target_is_infeasible_with_the_expected_minor():
    # check_rank1's target: the odd min profile seen from its flanks.
    r = rank1_split(tuple(zip(*ODD_MIN)))
    assert not r.feasible
    assert r.minor == ((0, 0), (1, 1))
    assert (r.lhs, r.rhs) == (0 + 1, 1 + 2)


def test_zero_matrix_splits_trivially():
    r = rank1_split(((0, 0, 0), (0, 0, 0)))
    assert r.feasible and r.column == (0, 0) and r.row == (0, 0, 0)


def test_additive_matrix_splits_with_witness():
    r = rank1_split(((0, 1), (1, 2)))
    assert r.feasible and r.column == (0, 1) and r.row == (0, 1)
    for i in range(2):
        for j in range(2):
            assert ((0, 1), (1, 2))[i][j] == r.column[i] + r.row[j]


def test_empty_matrices_split_with_empty_witnesses():
    for matrix in ((), ((),)):
        r = rank1_split(matrix)
        assert r.feasible and r.column == () and r.row == ()


def test_rank1_check_report():
    assert check_rank1().passed


_TARGET = tuple(zip(*ODD_MIN))
_ZERO = ((0, 0), (0, 0))
_CONTROL = ((0, 1), (1, 2))
_WRONG_TARGET = "unexpected violating minor"
_WRONG_ZERO = "zero matrix should split trivially"
_WRONG_CONTROL = "additive control matrix should split"


@pytest.mark.parametrize(
    "matrix,result,details",
    [
        (_TARGET, Rank1Split(True, (0, 1, 2), (0, 0)), "split target unexpectedly feasible"),
        (_TARGET, Rank1Split(False, minor=((0, 0), (1, 2)), lhs=1, rhs=3), _WRONG_TARGET),
        (_TARGET, Rank1Split(False, minor=((0, 0), (1, 1)), lhs=2, rhs=3), _WRONG_TARGET),
        (_TARGET, Rank1Split(False, minor=((0, 0), (1, 1)), lhs=1, rhs=2), _WRONG_TARGET),
        (_ZERO, Rank1Split(False), _WRONG_ZERO),
        (_ZERO, Rank1Split(True, (0, 1), (0, 0)), _WRONG_ZERO),
        (_ZERO, Rank1Split(True, (0, 0), (1, 0)), _WRONG_ZERO),
        (_CONTROL, Rank1Split(False), _WRONG_CONTROL),
        (_CONTROL, Rank1Split(True, (0, 2), (0, 1)), _WRONG_CONTROL),
        (_CONTROL, Rank1Split(True, (0, 1), (0, 2)), _WRONG_CONTROL),
    ],
)
def test_each_rank1_failure_reports_its_own_details(monkeypatch, matrix, result, details):
    # `result` stands in for the split of `matrix`; every other split is real.
    real = verification.rank1_split
    monkeypatch.setattr(
        verification, "rank1_split", lambda m: result if m == matrix else real(m)
    )
    report = check_rank1()
    assert not report.passed and report.details == details


def test_ragged_matrix_is_rejected():
    with pytest.raises(ValueError):
        rank1_split(((0, 1), (1,)))


# -- fault injection ------------------------------------------------------------------


def test_every_bonus_bump_breaks_the_padding_rules():
    inst = build_3by5(3)
    landscape = ExpandedLandscape(build_2by3(3))
    bonus_labels = [c.label for c in inst.constraints if c.label.startswith("P@")]
    assert len(bonus_labels) == 3
    for label in bonus_labels:
        bad = padding_violation(with_bumped_constraint(inst, label), landscape)
        assert bad is not None
        assert "assignment" in bad and bad["got"] != bad.get("expected", bad.get("ceiling"))


def test_removing_the_adjacency_penalty_breaks_the_ceiling():
    inst, codec, _, _ = build_boolean_pw4(2)
    stripped = without_constraints(inst, "J~")
    bad = padding_violation(stripped, ExpandedLandscape(build_2by3(2)), codec)
    assert bad == {"assignment": [0, 0, 0, 1, 1], "intermediates": 2, "got": 18, "ceiling": 13}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_boolean_bump_off_the_penalty_breaks_the_equivalence(n):
    # The J~ penalties only touch states with two adjacent intermediates,
    # which a one-point bump keeps under the ceiling.
    inst, codec, _, _ = build_boolean_pw4(n)
    landscape = ExpandedLandscape(build_2by3(n))
    labels = [c.label for c in inst.constraints if any(c.values) and not c.label.startswith("J~")]
    assert len(labels) >= 5
    for label in labels:
        bumped = with_bumped_constraint(inst, label)
        assert padding_violation(bumped, landscape, codec) is not None, label


# -- a reference walk that stops one step short ---------------------------------------


@pytest.fixture
def truncated_reference(monkeypatch):
    """Make every ordered walk the checks take drop its last recorded step."""
    real = verification.ordered_ascent

    def truncated(*args, **kwargs):
        trace = real(*args, **kwargs)
        return dataclasses.replace(trace, steps=trace.steps[:-1], length=trace.length - 1)

    monkeypatch.setattr(verification, "ordered_ascent", truncated)


def test_a_short_ordered_walk_fails_the_length_check(truncated_reference):
    report = check_ordered_length(4)
    assert not report.passed
    assert report.counterexample == {"n": 2, "length": f_max(2) - 1, "expected": f_max(2)}
    assert f"step {f_max(2) - 1} fitness None != {f_max(2)}" in report.details


def test_a_short_reference_walk_fails_the_simulation_check(truncated_reference):
    report = check_simulation(4, 2)
    assert not report.passed
    assert report.details == f"n=2: decoded walk diverges at state {2 * f_max(2) - 1}"
    assert report.counterexample == {
        "n": 2,
        "state": 2 * f_max(2) - 1,
        "decoded": [2, 2],
        "expected": None,
    }


def test_a_short_reference_walk_fails_the_boolean_check(truncated_reference):
    report = check_boolean(2, 4)
    assert not report.passed
    cex = report.counterexample
    assert cex["n"] == 2 and cex["state"] == 2 * f_max(2) - 1
    assert cex["expected"] is None and len(cex["decoded"]) == 2


def test_a_broken_equivalence_fails_the_boolean_check(monkeypatch):
    real = verification.build_boolean_pw4

    def bumped(n):
        inst, codec, decomp, start = real(n)
        if n == 3:
            label = next(c.label for c in inst.constraints if c.label.startswith("U~"))
            inst = with_bumped_constraint(inst, label)
        return inst, codec, decomp, start

    monkeypatch.setattr(verification, "build_boolean_pw4", bumped)
    report = check_boolean(4, 4)
    assert not report.passed
    assert report.details == "n=3: padding rule violated"
    assert report.counterexample == {
        "assignment": [0, 0, 0, 0, 1, 0, 0],
        "intermediates": 2,
        "got": 33,
        "ceiling": 32,
        "n": 3,
    }


def test_a_changed_tie_count_fails_the_boolean_check(monkeypatch):
    real = verification.steepest_ascent

    def one_more_tie(inst, start):
        trace = real(inst, start)
        if len(start) == 7:  # n = 3
            trace = dataclasses.replace(trace, tie_steps=trace.tie_steps + 1)
        return trace

    monkeypatch.setattr(verification, "steepest_ascent", one_more_tie)
    report = check_boolean(2, 4)
    assert not report.passed
    assert report.counterexample == {"n": 3, "tie_steps": 6, "expected": 5}


def test_a_diverging_decoded_walk_fails_the_boolean_check(monkeypatch):
    real = verification.steepest_ascent

    def planted(inst, start):
        trace = real(inst, start)
        if len(start) == 7:  # n = 3: step 4 leaves its bit unflipped
            steps = list(trace.steps)
            steps[4] = steps[4]._replace(dst=steps[4].src)
            trace = dataclasses.replace(trace, steps=tuple(steps))
        return trace

    monkeypatch.setattr(verification, "steepest_ascent", planted)
    report = check_boolean(2, 4)
    assert not report.passed
    assert report.details == "n=3: decoded walk diverges at state 5"
    assert report.counterexample == {
        "n": 3,
        "state": 5,
        "decoded": [1, 1, 0],
        "expected": [2, 1, 0],
    }


# -- every failure branch, planted through the engine or builder a check uses -------


def _at_step_4(trace, fields):
    steps = list(trace.steps)
    steps[4] = steps[4]._replace(**fields(steps[4]))
    return dataclasses.replace(trace, steps=tuple(steps))


# Each fault a steepest walk can carry, applied to the n = 3 walk, and the
# details and counterexample it must be reported with, given the tie count
# the check expects.  Both padded encodings of 2by3 must give the same
# report, since one check compares each against the doubled ordered walk.
RETRACE_FAULTS = {
    "length": (
        lambda t: dataclasses.replace(t, length=t.length + 1),
        lambda ties: ("length 21 != 20", {"length": 21, "expected": 20}),
    ),
    "not terminal": (
        lambda t: dataclasses.replace(t, terminal=False),
        lambda ties: (
            "decoded walk diverges at state 21",
            {"state": 21, "decoded": None, "expected": [1, 0, 1]},
        ),
    ),
    "state": (
        lambda t: _at_step_4(t, lambda rec: {"dst": rec.src}),
        lambda ties: (
            "decoded walk diverges at state 5",
            {"state": 5, "decoded": [1, 1, 0], "expected": [2, 1, 0]},
        ),
    ),
    "fitness": (
        lambda t: _at_step_4(t, lambda rec: {"fitness_after": rec.fitness_after + 1}),
        lambda ties: ("fitness diverges at step 4", {"step": 4, "got": 18, "expected": 17}),
    ),
    "final": (
        lambda t: dataclasses.replace(t, final=t.start),
        lambda ties: (
            "decoded walk diverges at state 21",
            {"state": 21, "decoded": [0, 0, 0], "expected": [1, 0, 1]},
        ),
    ),
    "final_fitness": (
        lambda t: dataclasses.replace(t, final_fitness=t.final_fitness + 1),
        lambda ties: ("fitness diverges at step 20", {"step": 20, "got": 71, "expected": 70}),
    ),
    "tie count": (
        lambda t: dataclasses.replace(t, tie_steps=t.tie_steps + 1),
        lambda ties: (
            f"{ties + 1} tied steps != {ties}",
            {"tie_steps": ties + 1, "expected": ties},
        ),
    ),
}
# check -> (run it, the tie count of its n = 3 walk)
RETRACE_CHECKS = {
    "simulation": (lambda: check_simulation(4, 2), 0),
    "boolean": (lambda: check_boolean(2, 4), 5),
}


@pytest.mark.parametrize("fault", list(RETRACE_FAULTS))
@pytest.mark.parametrize("check", list(RETRACE_CHECKS))
def test_a_faulty_steepest_walk_fails_the_retrace_check(monkeypatch, check, fault):
    real = verification.steepest_ascent
    tamper, expected = RETRACE_FAULTS[fault]

    def planted(inst, start):
        trace = real(inst, start)
        return tamper(trace) if inst.base_n == 3 else trace

    monkeypatch.setattr(verification, "steepest_ascent", planted)
    run, ties = RETRACE_CHECKS[check]
    details, counterexample = expected(ties)
    report = run()
    assert not report.passed
    assert report.details == f"n=3: {details}"
    assert report.counterexample == {"n": 3, **counterexample}


def test_a_walk_past_a_better_neighbour_fails_the_simulation_check(monkeypatch):
    # The check's n = 3 instance rewards the start's neighbour (0, 0, 2), off
    # the doubled walk, while the engine walks the unrewarded instance: the
    # walk retraces, but its first step is not steepest.
    real_build, real_engine = verification.build_3by5, verification.steepest_ascent

    def rewarded(n):
        inst = real_build(n)
        if n == 3:
            bait = ValuedConstraint((0, 1, 2), (0, 0, 1000) + (0,) * 42, "bait")
            inst = dataclasses.replace(inst, constraints=inst.constraints + (bait,))
        return inst

    def unrewarded(inst, start):
        return real_engine(real_build(inst.base_n), start)

    monkeypatch.setattr(verification, "build_3by5", rewarded)
    monkeypatch.setattr(verification, "steepest_ascent", unrewarded)
    report = check_simulation(4, 4)
    assert not report.passed
    assert report.details == (
        "n=3: full re-verification failed: neighbor (var 2 -> state 2) has fitness 1001 > chosen 3"
    )
    assert report.counterexample == {"n": 3, "step": 0, "witness": (2, 2)}


def once(items, last=None):
    """A one-shot iterator over `items` that fails if read past index `last`."""
    for i, item in enumerate(items):
        yield item
        if i == last:
            raise AssertionError(f"read past item {last}")


def test_first_difference_reads_items_not_types():
    # The length check compares a walk's fitness list with a range.  The
    # retrace check passes one-shot views of its walks, so each side is read
    # once and no further than the first difference.
    first_difference = verification._first_difference
    assert first_difference(once([1, 2, 3]), once(range(1, 4))) is None
    assert first_difference(once([1, 5, 3], 1), once(range(1, 4), 1)) == (1, 5, 2)
    assert first_difference(once([1, 2]), once(range(1, 4), 2)) == (2, None, 3)
    assert first_difference(once([1, 2, 3, 4], 3), once(range(1, 4))) == (3, 4, None)
    assert first_difference(once([[0, 1], [1]]), once([[0, 1], [1]])) is None
    assert first_difference(once([1]), once([1]), [2], [3]) == (1, [2], [3])


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (lambda t: dataclasses.replace(t, terminal=False), "did not reach a local solution"),
        (lambda t: dataclasses.replace(t, final_fitness=11), "final fitness 11 != 10"),
        (lambda t: dataclasses.replace(t, ambiguous_steps=1), "1 ambiguous steps"),
    ],
)
def test_a_faulty_ordered_walk_fails_the_length_check(monkeypatch, tamper, problem):
    real = verification.ordered_ascent

    def planted(inst, start):
        trace = real(inst, start)
        return tamper(trace) if inst.base_n == 3 else trace

    monkeypatch.setattr(verification, "ordered_ascent", planted)
    report = check_ordered_length(4)
    assert not report.passed
    assert report.details == f"n=3: {problem}"
    assert report.counterexample == {"n": 3, "length": 10, "expected": 10}


def test_a_closed_form_off_the_doubling_rule_fails_the_length_check(monkeypatch):
    real = verification.f_max
    monkeypatch.setattr(verification, "f_max", lambda n: real(n) + (n == 6))
    report = check_ordered_length(8)
    assert not report.passed
    assert report.details == "f_max(6) = 64 but doubling f_max(4) gives 63"
    assert report.counterexample == {"n_max": 8}


def test_a_bumped_bonus_fails_the_padding_check(monkeypatch):
    real = verification.build_3by5

    def bumped(n):
        inst = real(n)
        return with_bumped_constraint(inst, "P@x1") if n == 3 else inst

    monkeypatch.setattr(verification, "build_3by5", bumped)
    report = check_padding(4)
    assert not report.passed
    assert report.details == "n=3: padding rule violated"
    assert report.counterexample == {
        "assignment": [2, 0, 0],
        "intermediates": 1,
        "got": 4,
        "expected": 3,
        "n": 3,
    }


def test_a_passing_boolean_report_keeps_its_keys():
    data = check_boolean(2, 4).to_json()
    del data["runtime_s"]
    assert data == {
        "name": "boolean",
        "params": {"n_equiv": 2, "n_traj": 4},
        "passed": True,
        "details": "boolean fitness equivalence and decoded replay hold",
        "counterexample": None,
    }


def test_tampered_decomposition_is_detected():
    inst, _, decomp, _ = build_boolean_pw4(4)
    report = check_path_decomposition(inst, PathDecomposition(decomp.bags[1:]))
    assert not report.ok and "not inside any bag" in report.violation
    shrunk = (frozenset(list(decomp.bags[0])[:-1]),) + decomp.bags[1:]
    report = check_path_decomposition(inst, PathDecomposition(shrunk))
    assert not report.ok


def _pathwidth_with_n3(monkeypatch, tamper) -> dict:
    """The counterexample of check_pathwidth(4) when the n = 3 hypergraph is
    replaced by tamper(edges, decomposition)."""
    real = verification.boolean_pw4_hypergraph

    def tampered(n):
        n_bits, edges, decomp = real(n)
        if n == 3:
            edges, decomp = tamper(edges, decomp)
        return n_bits, edges, decomp

    monkeypatch.setattr(verification, "boolean_pw4_hypergraph", tampered)
    report = verification.check_pathwidth(4)
    assert not report.passed
    return report.counterexample


def test_a_dropped_bag_fails_the_pathwidth_check(monkeypatch):
    def drop_first_bag(edges, decomp):
        return edges, PathDecomposition(decomp.bags[1:])

    assert _pathwidth_with_n3(monkeypatch, drop_first_bag) == {
        "n": 3,
        "violation": "scope of M1~@G1-G2 ([0, 1, 2, 3, 4]) is not inside any bag",
    }


def test_a_bag_of_six_bits_fails_the_pathwidth_check(monkeypatch):
    def widen_first_bag(edges, decomp):
        # bit 5 sits in bags 1 and 2, so it stays contiguous in bags 0..2
        assert 5 in decomp.bags[1] and 5 not in decomp.bags[0]
        return edges, PathDecomposition((decomp.bags[0] | {5},) + decomp.bags[1:])

    assert _pathwidth_with_n3(monkeypatch, widen_first_bag) == {"n": 3, "width": 5}


def test_an_arity_six_constraint_fails_the_pathwidth_check(monkeypatch):
    def add_arity_six(edges, decomp):
        return edges + ((tuple(range(6)), "wide"),), decomp

    assert _pathwidth_with_n3(monkeypatch, add_arity_six) == {"n": 3, "max_arity": 6}


def test_the_pathwidth_check_fills_no_value_tensor(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_pathwidth filled or validated a value tensor")

    monkeypatch.setattr(constructions, "_assemble", refuse)
    monkeypatch.setattr(VcspInstance, "validate", refuse)
    assert verification.check_pathwidth(DEFAULT_CAPS["pathwidth"]).passed


def _pathwidth_json(n_max: int) -> str:
    """check_pathwidth(n_max)'s report as JSON without `runtime_s`."""
    report = verification.check_pathwidth(n_max).to_json()
    del report["runtime_s"]
    return json.dumps(report)


def _tamper_at(monkeypatch, at: int, tamper) -> None:
    """Make the hypergraph of size `at` tamper(n_bits, edges, bags), edges and
    bags as tuples, computed once, so every call sees the same tampered
    hypergraph; every other size is left as built."""
    n_bits, edges, decomp = boolean_pw4_hypergraph(at)
    edges, bags = tamper(n_bits, edges, decomp.bags)
    built = n_bits, edges, PathDecomposition(bags)

    def tampered(n):
        return built if n == at else boolean_pw4_hypergraph(n)

    monkeypatch.setattr(verification, "boolean_pw4_hypergraph", tampered)


def _random_tamper(rng: random.Random):
    """One of six tampers, its bag, bit or scope drawn from `rng`."""
    kind = rng.choice(["drop", "shrink", "duplicate", "swap", "add-bit", "add-edge"])

    def tamper(n_bits, edges, bags):
        bags = list(bags)
        i = rng.randrange(len(bags))
        if kind == "drop":
            del bags[i]
        elif kind == "shrink":
            bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
        elif kind == "duplicate":  # anywhere, so not always next to itself
            bags.insert(rng.randrange(len(bags) + 1), bags[i])
        elif kind == "swap":
            j = rng.randrange(len(bags))
            bags[i], bags[j] = bags[j], bags[i]
        elif kind == "add-bit":  # n_bits itself is not a bit
            bags[i] = bags[i] | {rng.randrange(n_bits + 1)}
        else:
            scope = tuple(rng.sample(range(n_bits + 1), rng.randrange(7)))
            edges = edges + ((scope, "added"),)
        return edges, tuple(bags)

    return kind, tamper


def test_the_pathwidth_check_reports_as_the_reference_on_seeded_tampers(monkeypatch):
    outcomes = set()
    for seed in range(240):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        kind, tamper = _random_tamper(rng)
        _tamper_at(monkeypatch, n, tamper)
        cap = rng.randint(n, 12)
        want = reference_pathwidth_report(cap)
        assert _pathwidth_json(cap) == json.dumps(want), (seed, kind, n)
        outcomes.add((kind, want["passed"] or list(want["counterexample"])[1]))
    # each tamper fails at least once, and the failures take all three forms
    kinds = {"drop", "shrink", "duplicate", "swap", "add-bit", "add-edge"}
    assert {kind for kind, form in outcomes if form is not True} == kinds
    assert {form for _, form in outcomes} == {True, "violation", "width", "max_arity"}


def test_a_scope_whose_bag_is_gone_is_searched_for_again(monkeypatch):
    # At n = 5 only the bag of G3 and G4 holds the scope of M2~@G3-G4; at
    # n = 6 that bag loses bit 9, so the bag the check remembers for the
    # scope is not one of n = 6's bags, and no other bag holds the scope.
    scope = (5, 6, 7, 8, 9)
    _, _, decomp = boolean_pw4_hypergraph(5)
    (held,) = [bag for bag in decomp.bags if bag.issuperset(scope)]
    assert held == frozenset(scope) and held in boolean_pw4_hypergraph(6)[2].bags

    def shrink(n_bits, edges, bags):
        return edges, tuple(bag - {9} if bag == held else bag for bag in bags)

    _tamper_at(monkeypatch, 6, shrink)
    got = _pathwidth_json(8)
    assert got == json.dumps(reference_pathwidth_report(8))
    violation = "scope of M2~@G3-G4 ([5, 6, 7, 8, 9]) is not inside any bag"
    assert json.loads(got)["counterexample"] == {"n": 6, "violation": violation}


def test_pathwidth_calls_keep_nothing_from_each_other(monkeypatch):
    # A clean call, then one with the bag of G1 and G2 dropped at n = 4, then
    # a clean call again: each is reported as if it ran alone, and the module
    # holds the same objects afterwards, each container with the same contents.
    def namespace():
        return {
            name: (value, value.copy() if isinstance(value, (dict, list, set)) else None)
            for name, value in vars(verification).items()
        }

    before = namespace()
    assert verification.check_pathwidth(8).passed
    with monkeypatch.context() as patch:
        _tamper_at(patch, 4, lambda n_bits, edges, bags: (edges, bags[1:]))
        got = _pathwidth_json(8)
        assert got == json.dumps(reference_pathwidth_report(8))
        assert json.loads(got)["details"].startswith("n=4: scope of M1~@G1-G2")
    assert verification.check_pathwidth(8).passed
    assert namespace() == before


# -- every loop of the checks runs from n = 2 to its cap ---------------------------------


def _bump(label):
    """A fault for a builder's call: bump `label` in the instance it builds."""

    def plant(real, n):
        built = real(n)
        if isinstance(built, tuple):  # build_boolean_pw4's (instance, codec, ...)
            return (with_bumped_constraint(built[0], label),) + built[1:]
        return with_bumped_constraint(built, label)

    return plant


def _misrecord_step_0(real, inst, trace):
    first, *rest = trace.steps
    steps = (first._replace(fitness_after=first.fitness_after + 1), *rest)
    return real(inst, dataclasses.replace(trace, steps=steps))


def _drop_first_bag(real, n):
    n_bits, edges, decomp = real(n)
    return n_bits, edges, PathDecomposition(decomp.bags[1:])


# Each loop: the check run with only that loop's cap (the others below 2), the
# name in `verification` whose calls show the n visited, by their first
# argument (n, or an instance of n), and a fault the call plants at one n.
LOOPS = {
    "ordered-length": (check_ordered_length, "build_2by3", _bump("M1@1-2")),
    "simulation": (lambda cap: check_simulation(cap, 1), "build_3by5", _bump("P@x1")),
    "simulation-verify": (
        lambda cap: check_simulation(cap, cap), "verify_steepest", _misrecord_step_0
    ),
    "padding": (check_padding, "build_3by5", _bump("P@x1")),
    "boolean": (lambda cap: check_boolean(1, cap), "build_boolean_pw4", _bump("U~0@G1")),
    "boolean-equiv": (lambda cap: check_boolean(cap, 1), "build_boolean_pw4", _bump("U~0@G1")),
    "pathwidth": (verification.check_pathwidth, "boolean_pw4_hypergraph", _drop_first_bag),
    "_fmax_recurrence_defect": (
        verification._fmax_recurrence_defect, "f_max", lambda real, n: real(n) + 1
    ),
}


def _plant(monkeypatch, loop):
    """Wrap the name LOOPS[loop] watches: the returned sets are the n its calls
    have seen, and the n at which it plants its fault (empty at first)."""
    _, name, plant = LOOPS[loop]
    real = getattr(verification, name)
    seen, faulty = set(), set()

    def counted(first, *rest):
        n = first if isinstance(first, int) else first.base_n
        seen.add(n)
        return plant(real, first, *rest) if n in faulty else real(first, *rest)

    monkeypatch.setattr(verification, name, counted)
    return seen, faulty


@pytest.mark.parametrize("loop", LOOPS)
def test_each_check_loop_runs_from_n_2_to_its_cap(monkeypatch, loop):
    run, name, _ = LOOPS[loop]
    seen, faulty = _plant(monkeypatch, loop)

    def failure(cap):
        """The failure text of the run, or None; a check names n as "n=<n>: "
        and the recurrence names each f_max it compares."""
        out = run(cap)
        return out if not isinstance(out, CheckReport) else None if out.passed else out.details

    names = "f_max({})" if name == "f_max" else "n={}: "
    cap = 5
    assert failure(cap) is None and sorted(seen) == list(range(2, cap + 1))
    for n in (2, cap):
        faulty.clear()
        faulty.add(n)
        text = failure(cap)
        assert text is not None and names.format(n) in text, text


# The failing report of each loop of LOOPS run with cap 5 and its fault planted
# at n, as JSON without `runtime_s`; the recurrence returns text.  Key order
# counts: the padding counterexamples end with "n", the others start with it.
PINNED_FAILURES = {
    ("ordered-length", 2): {
        "name": "ordered-length",
        "params": {"n_max": 5},
        "passed": False,
        "details": "n=2: length 1 != 5; final fitness 2 != 5; step 0 fitness 2 != 1 (gain not 1)",
        "counterexample": {"n": 2, "length": 1, "expected": 5},
    },
    ("ordered-length", 5): {
        "name": "ordered-length",
        "params": {"n_max": 5},
        "passed": False,
        "details": (
            "n=5: length 11 != 35; final fitness 36 != 35; "
            "step 0 fitness 2 != 1 (gain not 1)"
        ),
        "counterexample": {"n": 5, "length": 11, "expected": 35},
    },
    ("simulation", 2): {
        "name": "simulation",
        "params": {"n_max": 5, "verify_max": 1},
        "passed": False,
        "details": "n=2: fitness diverges at step 0",
        "counterexample": {"n": 2, "step": 0, "got": 3, "expected": 2},
    },
    ("simulation", 5): {
        "name": "simulation",
        "params": {"n_max": 5, "verify_max": 1},
        "passed": False,
        "details": "n=5: fitness diverges at step 0",
        "counterexample": {"n": 5, "step": 0, "got": 6, "expected": 5},
    },
    ("simulation-verify", 2): {
        "name": "simulation",
        "params": {"n_max": 5, "verify_max": 5},
        "passed": False,
        "details": "n=2: full re-verification failed: recorded fitness 3 != actual 2",
        "counterexample": {"n": 2, "step": 0, "witness": None},
    },
    ("simulation-verify", 5): {
        "name": "simulation",
        "params": {"n_max": 5, "verify_max": 5},
        "passed": False,
        "details": "n=5: full re-verification failed: recorded fitness 6 != actual 5",
        "counterexample": {"n": 5, "step": 0, "witness": None},
    },
    ("padding", 2): {
        "name": "padding",
        "params": {"n_max": 5},
        "passed": False,
        "details": "n=2: padding rule violated",
        "counterexample": {
            "assignment": [2, 0],
            "intermediates": 1,
            "got": 3,
            "expected": 2,
            "n": 2,
        },
    },
    ("padding", 5): {
        "name": "padding",
        "params": {"n_max": 5},
        "passed": False,
        "details": "n=5: padding rule violated",
        "counterexample": {
            "assignment": [2, 0, 0, 0, 0],
            "intermediates": 1,
            "got": 6,
            "expected": 5,
            "n": 5,
        },
    },
    ("boolean", 2): {
        "name": "boolean",
        "params": {"n_equiv": 1, "n_traj": 5},
        "passed": False,
        "details": "n=2: fitness diverges at step 0",
        "counterexample": {"n": 2, "step": 0, "got": 3, "expected": 2},
    },
    ("boolean", 5): {
        "name": "boolean",
        "params": {"n_equiv": 1, "n_traj": 5},
        "passed": False,
        "details": "n=5: fitness diverges at step 0",
        "counterexample": {"n": 5, "step": 0, "got": 6, "expected": 5},
    },
    ("boolean-equiv", 2): {
        "name": "boolean",
        "params": {"n_equiv": 5, "n_traj": 1},
        "passed": False,
        "details": "n=2: padding rule violated",
        "counterexample": {
            "assignment": [0, 0, 0, 0, 1],
            "intermediates": 1,
            "got": 23,
            "expected": 22,
            "n": 2,
        },
    },
    ("boolean-equiv", 5): {
        "name": "boolean",
        "params": {"n_equiv": 5, "n_traj": 1},
        "passed": False,
        "details": "n=5: padding rule violated",
        "counterexample": {
            "assignment": [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1],
            "intermediates": 2,
            "got": 196,
            "ceiling": 195,
            "n": 5,
        },
    },
    ("pathwidth", 2): {
        "name": "pathwidth",
        "params": {"n_max": 5},
        "passed": False,
        "details": "n=2: scope of M1~@G1-G2 ([0, 1, 2, 3, 4]) is not inside any bag",
        "counterexample": {
            "n": 2,
            "violation": "scope of M1~@G1-G2 ([0, 1, 2, 3, 4]) is not inside any bag",
        },
    },
    ("pathwidth", 5): {
        "name": "pathwidth",
        "params": {"n_max": 5},
        "passed": False,
        "details": "n=5: scope of M1~@G1-G2 ([0, 1, 2, 3, 4]) is not inside any bag",
        "counterexample": {
            "n": 5,
            "violation": "scope of M1~@G1-G2 ([0, 1, 2, 3, 4]) is not inside any bag",
        },
    },
    ("_fmax_recurrence_defect", 2): "f_max(4) = 22 but doubling f_max(2) gives 24",
    ("_fmax_recurrence_defect", 5): "f_max(5) = 36 but doubling f_max(3) gives 35",
}


@pytest.mark.parametrize("loop, n", list(PINNED_FAILURES))
def test_each_loop_reports_its_planted_fault_as_pinned(monkeypatch, loop, n):
    _, faulty = _plant(monkeypatch, loop)
    faulty.add(n)
    out = LOOPS[loop][0](5)
    if isinstance(out, CheckReport):
        out = out.to_json()
        del out["runtime_s"]
    assert json.dumps(out) == json.dumps(PINNED_FAILURES[loop, n])


# -- each check keeps one size's walks at a time ---------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_ordered_length(6),
        lambda: check_simulation(6, 6),
        lambda: check_boolean(2, 6),
    ],
    ids=["ordered-length", "simulation", "boolean"],
)
def test_no_check_keeps_a_smaller_walk_alive(monkeypatch, run):
    returned: dict[int, list[weakref.ref]] = {}

    def watched(engine):
        def walk(inst, *args, **kwargs):
            n = inst.base_n
            alive = [m for m, refs in returned.items() if m < n for r in refs if r() is not None]
            assert not alive, f"a walk of n={alive[0]} is alive at n={n}"
            trace = engine(inst, *args, **kwargs)
            returned.setdefault(n, []).append(weakref.ref(trace))
            return trace

        return walk

    for name in ("ordered_ascent", "steepest_ascent"):
        monkeypatch.setattr(verification, name, watched(getattr(verification, name)))
    assert run().passed
    assert sorted(returned) == [2, 3, 4, 5, 6]


def test_helpers_reject_unknown_labels():
    inst = build_3by5(2)
    with pytest.raises(ValueError):
        with_bumped_constraint(inst, "nope")
    with pytest.raises(ValueError):
        without_constraints(inst, "nope")


# -- report integrity -----------------------------------------------------------------


def test_failed_reports_carry_counterexamples():
    # A padding check against a deliberately broken builder result.
    inst = with_bumped_constraint(build_3by5(2), "P@x1")
    bad = padding_violation(inst, ExpandedLandscape(build_2by3(2)))
    assert bad is not None
    assert isinstance(bad["assignment"], list)
    assert isinstance(bad["got"], int)
