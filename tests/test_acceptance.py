"""Acceptance suite: the package's headline claims, checked end to end.

Each test prints one PASS line; all quantities are exact integers, so every
comparison is equality at tolerance zero unless a runtime budget is stated.
"""

from __future__ import annotations

import time

from ascentlab import (
    ExpandedLandscape,
    PathDecomposition,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    canonical_start,
    check_path_decomposition,
    check_pathwidth,
    exhaustive_steepest_oracle,
    f_max,
    ordered_ascent,
    rank1_split,
    simulate_ascent,
    steepest_ascent,
    verify_steepest,
)
from ascentlab import constructions
from ascentlab.constructions import boolean_pw4_hypergraph
from ascentlab.verification import (
    padding_violation,
    with_bumped_constraint,
)
from references import traces_equivalent

A = 0


def test_criterion_1_ordered_ascent_walks_every_fitness_value():
    t0 = time.perf_counter()
    for n in range(2, 21):
        trace = ordered_ascent(build_2by3(n), canonical_start("2by3", n))
        assert trace.terminal
        assert trace.length == f_max(n)
        assert trace.fitness_values() == list(range(1, f_max(n) + 1))  # every gain +1
        assert trace.ambiguous_steps == 0
    assert f_max(2) == 5 and f_max(3) == 10 and f_max(4) == 22
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: ordered length equals the maximum for n=2..20 ({elapsed:.2f}s)")


def test_criterion_2_exponential_scaling_at_n40():
    t0 = time.perf_counter()
    trace = ordered_ascent(build_2by3(40), canonical_start("2by3", 40), record_steps=False)
    elapsed = time.perf_counter() - t0
    assert trace.length == 3 * 2**22 - 152 == 12_582_760
    assert trace.terminal and trace.final_fitness == f_max(40)
    # cross-check through the doubling rule implied by the closed form
    value = f_max(2)
    for n in range(2, 40, 2):
        value = 2 * value + 7 * (n // 2) + 5
    assert value == trace.length
    assert elapsed < 60.0
    print(f"PASS criterion 2: 12,582,760 steps at n=40 in {elapsed:.2f}s")


def test_criterion_3_steepest_simulates_the_ordered_ascent():
    for n in range(2, 15):
        base = build_2by3(n)
        sim = simulate_ascent(
            ordered_ascent(base, canonical_start("2by3", n)), ExpandedLandscape(base)
        )
        inst = build_3by5(n)
        eng = steepest_ascent(inst, canonical_start("3by5", n))
        assert eng.length == 2 * f_max(n)
        assert eng.tie_steps == 0
        assert traces_equivalent(sim, eng)
        if n <= 10:
            assert verify_steepest(inst, eng) is None
    print("PASS criterion 3: steepest equals the doubled ordered ascent for n=2..14")


def test_criterion_4_padding_rules_hold_exhaustively():
    for n in range(2, 7):
        assert padding_violation(build_3by5(n), ExpandedLandscape(build_2by3(n))) is None
    print("PASS criterion 4: padding rules hold over every assignment for n<=6")


def test_criterion_5_boolean_walk_replays_the_simulation():
    for n in range(2, 13):
        base = build_2by3(n)
        sim = simulate_ascent(
            ordered_ascent(base, canonical_start("2by3", n)), ExpandedLandscape(base)
        )
        inst, codec, _, start = build_boolean_pw4(n)
        eng = steepest_ascent(inst, start)
        assert eng.length == 2 * f_max(n)
        assert eng.length >= 3 * 2 ** (n // 2 - 1)  # the advertised lower bound
        decoded = [tuple(codec.decode_states(b)) for b in eng.states()]
        assert decoded == [tuple(s) for s in sim.states()]
        assert eng.fitness_values() == sim.fitness_values()
    for n in range(2, 5):
        inst, codec, _, _ = build_boolean_pw4(n)
        assert padding_violation(inst, ExpandedLandscape(build_2by3(n)), codec) is None
    print("PASS criterion 5: boolean steepest walk replays the simulation for n=2..12")


def test_criterion_6_arity_5_and_pathwidth_4_up_to_n200():
    t0 = time.perf_counter()
    for n in range(2, 201):
        inst, _, decomp, _ = build_boolean_pw4(n)
        assert inst.max_arity == 5
        report = check_path_decomposition(inst, decomp)
        assert report.ok and report.width == 4
        # the hypergraph that `verify --check pathwidth` reads is this build's
        n_bits, edges, hyper_decomp = boolean_pw4_hypergraph(n)
        assert n_bits == inst.n_vars
        assert list(edges) == [(c.scope, c.label) for c in inst.constraints]
        assert hyper_decomp.bags == decomp.bags
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 6: arity 5 and width 4 for n=2..200 ({elapsed:.2f}s)")


def test_criterion_6_build_and_check_read_one_set_of_rows(monkeypatch):
    real = constructions._pw4_rows

    def widened(k, closing):
        """Position 2's rows, its chain link given bit 0 as a sixth, last
        axis; the link keeps its values where bit 0 is 0."""
        rows = real(k, closing)
        if (k, closing) != (2, False):
            return rows
        ((scope, (size, entries), *rest),) = rows.groups[0]
        link = (scope + (0,), (2 * size, tuple((2 * i, v) for i, v in entries)), *rest)
        return rows._replace(groups=((link,),) + rows.groups[1:])

    monkeypatch.setattr(constructions, "_pw4_rows", widened)
    assert build_boolean_pw4(3)[0].max_arity == 6
    assert check_pathwidth(4).counterexample == {"n": 3, "max_arity": 6}
    print("PASS criterion 6: a widened row reaches both the build and the pathwidth check")


def test_criterion_7_no_additive_split_of_the_min_profile():
    r = rank1_split(((0, 1, 2), (2, 1, 0), (0, 1, 2)))
    assert not r.feasible
    assert r.minor == ((0, 0), (1, 1)) and r.lhs == 1 and r.rhs == 3
    feasible = rank1_split(((0, 1), (1, 2)))
    assert feasible.feasible and feasible.column == (0, 1) and feasible.row == (0, 1)
    zero = rank1_split(((0, 0), (0, 0)))
    assert zero.feasible and zero.column == (0, 0) and zero.row == (0, 0)
    print("PASS criterion 7: min profile admits no column+row split (0+1 != 1+2)")


def test_criterion_8_delta_engine_equals_the_from_scratch_oracle():
    builders = {
        "2by3": lambda n: build_2by3(n),
        "3by5": lambda n: build_3by5(n),
        "bool-pw4": lambda n: build_boolean_pw4(n)[0],
    }
    for family, make in builders.items():
        for n in range(2, 5):
            inst = make(n)
            for x in inst.all_assignments():
                engine = steepest_ascent(inst, x)
                oracle = exhaustive_steepest_oracle(inst, x)
                # traces_equivalent ignores tie counts; many of these walks tie.
                assert traces_equivalent(engine, oracle)
                assert engine.tie_steps == oracle.tie_steps
        for n in range(5, 11):
            inst = make(n)
            start = canonical_start(family, n)
            engine = steepest_ascent(inst, start)
            oracle = exhaustive_steepest_oracle(inst, start)
            assert traces_equivalent(engine, oracle)
            assert engine.tie_steps == oracle.tie_steps
    print("PASS criterion 8: engine matches the oracle (all starts n<=4, canonical n<=10)")


def test_criterion_9_fault_injection_sensitivity():
    inst = build_3by5(3)
    landscape = ExpandedLandscape(build_2by3(3))
    bonus_labels = [c.label for c in inst.constraints if c.label.startswith("P@")]
    assert len(bonus_labels) == 3  # one per position
    for label in bonus_labels:
        bad = padding_violation(with_bumped_constraint(inst, label), landscape)
        assert bad is not None and "assignment" in bad
    binst, _, decomp, _ = build_boolean_pw4(6)
    tampered = PathDecomposition(decomp.bags[1:])
    assert not check_path_decomposition(binst, tampered).ok
    extended = PathDecomposition(decomp.bags + (decomp.bags[0],))
    assert not check_path_decomposition(binst, extended).ok
    print("PASS criterion 9: every injected fault is caught with a counterexample")
