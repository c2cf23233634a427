"""The expanded instance over alternating 3-state and 5-state domains."""

from __future__ import annotations

import pytest

from ascentlab import (
    ExpandedLandscape,
    build_2by3,
    build_3by5,
    f_max,
    ordered_ascent,
    simulate_ascent,
    steepest_ascent,
)
from ascentlab.ascent import StepRecord
from ascentlab.verification import padding_violation
from references import traces_equivalent

A, B, C = 0, 1, 2
SAB_ODD = 2
SAB, SBC = 3, 4


def test_domain_sizes_and_arity():
    inst = build_3by5(5)
    assert [d.size for d in inst.domains] == [3, 5, 3, 5, 3]
    assert inst.max_arity == 3


def test_padding_scopes_put_the_padded_variable_first():
    inst = build_3by5(4)
    by_label = {c.label: c for c in inst.constraints}
    assert by_label["P@x1"].scope == (0, 1)
    assert by_label["P@x2"].scope == (1, 0, 2)
    assert by_label["P@x3"].scope == (2, 1, 3)
    assert by_label["P@x4"].scope == (3, 2)
    assert len(inst.constraints) == 2 * 4


def test_all_main_fitness_scales():
    base = build_2by3(3)
    inst = build_3by5(3)
    for x in base.all_assignments():
        assert inst.fitness(x) == 7 * base.fitness(x)


@pytest.mark.parametrize("n", range(2, 7))
def test_master_invariant_exhaustive(n):
    assert padding_violation(build_3by5(n), ExpandedLandscape(build_2by3(n))) is None


def test_steepest_equals_simulated_at_n2():
    base = build_2by3(2)
    sim = simulate_ascent(ordered_ascent(base, (A, A)), ExpandedLandscape(base))
    eng = steepest_ascent(build_3by5(2), (A, A))
    assert traces_equivalent(sim, eng)
    assert eng.steps == (
        StepRecord(0, A, SAB_ODD, 2),
        StepRecord(0, SAB_ODD, B, 5),
        StepRecord(1, A, SAB, 6),
        StepRecord(1, SAB, B, 10),
        StepRecord(0, B, SAB_ODD, 12),
        StepRecord(0, SAB_ODD, A, 15),
        StepRecord(1, B, SBC, 16),
        StepRecord(1, SBC, C, 20),
        StepRecord(0, A, SAB_ODD, 22),
        StepRecord(0, SAB_ODD, B, 25),
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_steepest_is_tie_free_and_doubled(n):
    eng = steepest_ascent(build_3by5(n), (A,) * n)
    assert eng.length == 2 * f_max(n)
    assert eng.tie_steps == 0 and eng.terminal


@pytest.mark.parametrize("n", [2, 3, 4])
def test_engine_on_the_formula_landscape_matches_the_instance(n):
    # The same engine run directly over the padded-fitness oracle must walk
    # the same path as over the constraint implementation.
    landscape = ExpandedLandscape(build_2by3(n))
    via_formulas = steepest_ascent(landscape, (A,) * n)
    via_constraints = steepest_ascent(build_3by5(n), (A,) * n)
    assert traces_equivalent(via_formulas, via_constraints)
