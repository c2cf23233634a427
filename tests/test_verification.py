"""Checkers, oracles, and fault-injection sensitivity."""

from __future__ import annotations

import dataclasses

import pytest

from ascentlab import (
    ExpandedLandscape,
    PathDecomposition,
    ValuedConstraint,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    check_path_decomposition,
    exhaustive_steepest_oracle,
    rank1_split,
    run_all,
    steepest_ascent,
)
from ascentlab import verification
from ascentlab.constructions import f_max, pw4_equivalence_violation
from ascentlab.verification import (
    CHECK_NAMES,
    check_boolean,
    check_ordered_length,
    check_rank1,
    check_simulation,
    padding_violation,
    run_check,
    traces_equivalent,
    with_bumped_constraint,
    without_constraints,
)

A = 0


# -- oracle -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: build_2by3(3), lambda: build_3by5(2), lambda: build_boolean_pw4(2)[0]]
)
def test_oracle_matches_engine_everywhere(make):
    inst = make()
    for x in inst.all_assignments():
        assert traces_equivalent(steepest_ascent(inst, x), exhaustive_steepest_oracle(inst, x))


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
        report = run_check(name, caps)
        assert report.passed, report.details
        assert report.counterexample is None
        assert report.runtime_s >= 0
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
    r = rank1_split(((0, 1, 2), (2, 1, 0), (0, 1, 2)))
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


def test_rank1_check_report():
    assert check_rank1().passed


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
    problem = pw4_equivalence_violation(stripped, codec, ExpandedLandscape(build_2by3(2)))
    assert problem == "two-intermediate ceiling broken at bits=(0, 0, 0, 1, 1): 18 > 13"


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
        assert pw4_equivalence_violation(bumped, codec, landscape) is not None, label


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
    cex = report.counterexample
    assert cex["n"] == 2 and cex["step"] == 2 * f_max(2) - 2
    assert cex["simulated"] is None and cex["engine"]["var"] in (0, 1)
    assert sorted(cex["engine"]) == ["dst", "fitness_after", "src", "var"]


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
    assert report.counterexample == {
        "n": 3,
        "violation": "two-intermediate ceiling broken at bits=(0, 0, 0, 0, 1, 0, 0): 33 > 32",
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
    """The counterexample of check_pathwidth(4) when the n = 3 build is
    replaced by tamper(instance, decomposition)."""
    real = verification.build_boolean_pw4

    def tampered(n):
        inst, codec, decomp, start = real(n)
        if n == 3:
            inst, decomp = tamper(inst, decomp)
        return inst, codec, decomp, start

    monkeypatch.setattr(verification, "build_boolean_pw4", tampered)
    report = verification.check_pathwidth(4)
    assert not report.passed
    return report.counterexample


def test_a_dropped_bag_fails_the_pathwidth_check(monkeypatch):
    def drop_first_bag(inst, decomp):
        return inst, PathDecomposition(decomp.bags[1:])

    assert _pathwidth_with_n3(monkeypatch, drop_first_bag) == {
        "n": 3,
        "violation": "scope of M1~@G1-G2 ([0, 1, 2, 3, 4]) is not inside any bag",
    }


def test_a_bag_of_six_bits_fails_the_pathwidth_check(monkeypatch):
    def widen_first_bag(inst, decomp):
        # bit 5 sits in bags 1 and 2, so it stays contiguous in bags 0..2
        assert 5 in decomp.bags[1] and 5 not in decomp.bags[0]
        return inst, PathDecomposition((decomp.bags[0] | {5},) + decomp.bags[1:])

    assert _pathwidth_with_n3(monkeypatch, widen_first_bag) == {"n": 3, "width": 5}


def test_an_arity_six_constraint_fails_the_pathwidth_check(monkeypatch):
    def add_arity_six(inst, decomp):
        wide = ValuedConstraint(tuple(range(6)), (0,) * 64, "wide")
        return dataclasses.replace(inst, constraints=inst.constraints + (wide,)), decomp

    assert _pathwidth_with_n3(monkeypatch, add_arity_six) == {"n": 3, "max_arity": 6}


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
