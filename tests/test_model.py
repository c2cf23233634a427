"""Core model: domains, evaluation, structural checks, serialization."""

from __future__ import annotations

import itertools
import pickle
import random
from functools import cached_property

import pytest

from ascentlab import (
    BuildError,
    DomainSpec,
    ExpandedLandscape,
    InvalidAssignmentError,
    ModelError,
    PathDecomposition,
    ValuedConstraint,
    VcspInstance,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    build_family,
    check_path_decomposition,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from ascentlab.model import neighbors_of

A, B, C = 0, 1, 2


def moves_of(inst, x):
    """x's permitted moves (k, v), ascending, once x is checked."""
    inst.check_assignment(x)
    return neighbors_of(inst.domains, x)


def empty_instance(n=2):
    doms = tuple(DomainSpec(("A", "B"), frozenset({(0, 1)})) for _ in range(n))
    return VcspInstance(doms, ())


# -- DomainSpec ----------------------------------------------------------------


def test_domain_normalizes_unordered_pairs():
    d = DomainSpec(("A", "B", "C"), frozenset({(1, 0), (1, 2)}))
    assert d.transitions == frozenset({(0, 1), (1, 2)})
    assert d.adjacent(1) == (0, 2)
    assert d.allows(2, 1) and not d.allows(0, 2)


def test_domain_rejects_self_loops_and_out_of_range():
    with pytest.raises(ModelError):
        DomainSpec(("A", "B"), frozenset({(0, 0)}))
    with pytest.raises(ModelError):
        DomainSpec(("A", "B"), frozenset({(0, 2)}))


def test_domain_size_stays_out_of_equality_hash_and_repr():
    d = DomainSpec(("A", "B"), frozenset({(1, 0)}))
    same = DomainSpec(("A", "B"), frozenset({(0, 1)}))
    assert d.size == 2 and d == same and hash(d) == hash(same)
    assert repr(d) == "DomainSpec(states=('A', 'B'), transitions=frozenset({(0, 1)}))"


def test_frozen_domain_is_legal():
    d = DomainSpec(("A", "B"))
    assert d.transitions == frozenset()
    assert d.adjacent(0) == ()


# -- fitness ----------------------------------------------------------------------


def test_fitness_examples():
    inst = build_2by3(2)
    assert inst.fitness((A, A)) == 0
    assert inst.fitness((B, C)) == 5


def test_fitness_empty_sum():
    assert empty_instance().fitness((A, B)) == 0


def test_fitness_rejects_invalid_assignments():
    # The checked entry points of both landscapes; only `_fitness` skips the
    # check.  `is_local_solution` is the instance's alone.
    inst = build_2by3(2)
    expanded = ExpandedLandscape(inst)
    for domains, entries in (
        (inst.domains, (inst.fitness, inst.is_local_solution)),
        (expanded.domains, (expanded.fitness,)),
    ):
        odd, even = (d.size for d in domains)
        for entry in entries:
            with pytest.raises(InvalidAssignmentError, match="assignment has length 1, expected 2"):
                entry((A,))
            with pytest.raises(
                InvalidAssignmentError,
                match=rf"state {odd} out of range for variable 0 \({odd} states\)",
            ):
                entry((odd, 0))
            with pytest.raises(
                InvalidAssignmentError,
                match=rf"state -1 out of range for variable 1 \({even} states\)",
            ):
                entry((A, -1))
    with pytest.raises(InvalidAssignmentError, match=r"state -1 out of range"):
        expanded.padding_defect((2, -1), 0)
    # Three out-of-range states read as three intermediates, a count for
    # which any value passes: the check still comes first.
    with pytest.raises(InvalidAssignmentError, match=r"state 9 out of range for variable 0"):
        ExpandedLandscape(build_2by3(3)).padding_defect((9, 9, 9), 0)


@pytest.mark.parametrize("family", ["2by3", "3by5", "bool-pw4"])
def test_unchecked_fitness_equals_fitness(family):
    for n in (2, 3):
        inst = build_family(family, n)
        for x in inst.all_assignments():
            assert inst._fitness(x) == inst.fitness(x)


def test_unchecked_fitness_equals_fitness_on_the_expanded_landscape():
    landscape = ExpandedLandscape(build_2by3(3))
    for x in itertools.product(*(range(d.size) for d in landscape.domains)):
        assert landscape._fitness(x) == landscape.fitness(x)


# -- delta evaluation ------------------------------------------------------------


def test_delta_examples():
    inst = build_2by3(2)
    assert inst._delta((A, A), 0, A, A) == 0
    assert inst._delta((A, A), 0, A, B) == 1
    assert inst._delta((A, A), 1, A, B) == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_2by3(3),
        lambda: build_3by5(2),
        lambda: build_boolean_pw4(2)[0],
    ],
)
def test_delta_matches_full_difference_exhaustively(make):
    inst = make()
    for x in inst.all_assignments():
        fx = inst.fitness(x)
        for k, v in moves_of(inst, x):
            y = list(x)
            y[k] = v
            assert inst._delta(x, k, x[k], v) == inst.fitness(y) - fx


def test_delta_matches_full_difference_sampled():
    inst = build_2by3(8)
    rng = random.Random(7)
    for _ in range(300):
        x = tuple(rng.randrange(d.size) for d in inst.domains)
        moves = moves_of(inst, x)
        k, v = moves[rng.randrange(len(moves))]
        y = list(x)
        y[k] = v
        assert inst._delta(x, k, x[k], v) == inst.fitness(y) - inst.fitness(x)


def test_fitness_is_invariant_under_constraint_permutation():
    inst = build_2by3(4)
    rng = random.Random(1)
    shuffled = list(inst.constraints)
    rng.shuffle(shuffled)
    other = VcspInstance(inst.domains, tuple(shuffled), inst.family, inst.base_n)
    for x in inst.all_assignments():
        assert inst.fitness(x) == other.fitness(x)


# -- neighborhoods ----------------------------------------------------------------


def test_neighbors_examples():
    inst = build_2by3(2)
    assert moves_of(inst, (A, A)) == [(0, B), (1, B)]
    assert moves_of(inst, (B, B)) == [(0, A), (1, A), (1, C)]


def test_frozen_variable_contributes_no_neighbors():
    doms = (DomainSpec(("A", "B")), DomainSpec(("A", "B"), frozenset({(0, 1)})))
    inst = VcspInstance(doms, ())
    assert moves_of(inst, (A, A)) == [(1, B)]


def test_neighbor_symmetry():
    inst = build_3by5(2)
    for x in inst.all_assignments():
        for k, v in moves_of(inst, x):
            y = list(x)
            y[k] = v
            assert (k, x[k]) in moves_of(inst, y)


def test_local_solution_examples():
    inst = build_2by3(2)
    assert inst.is_local_solution((B, C))
    assert not inst.is_local_solution((A, A))
    assert empty_instance().is_local_solution((A, B))


# -- validation ---------------------------------------------------------------------


def test_builders_validate_clean():
    for inst in (build_2by3(5), build_3by5(3), build_boolean_pw4(3)[0]):
        assert inst.validate() == []


def test_validate_reports_wrong_tensor_length():
    doms = (DomainSpec(("A", "B"), frozenset({(0, 1)})),)
    inst = VcspInstance(doms, (ValuedConstraint((0,), (1, 2, 3), "bad"),))
    defects = inst.validate()
    assert len(defects) == 1 and "bad" in defects[0] and "3 entries" in defects[0]


def test_validate_reports_unknown_scope_variable():
    doms = (DomainSpec(("A", "B"), frozenset({(0, 1)})),)
    inst = VcspInstance(doms, (ValuedConstraint((1,), (0, 0), "oops"),))
    assert any("unknown variable" in d for d in inst.validate())


def test_validate_reports_every_constraint_that_shares_a_scope():
    doms = (
        DomainSpec(("A", "B"), frozenset({(0, 1)})),
        DomainSpec(("A", "B", "C"), frozenset({(0, 1), (1, 2)})),
    )
    inst = VcspInstance(
        doms,
        (
            ValuedConstraint((0, 1), (0,) * 6, "sound"),
            ValuedConstraint((0, 1), (0,) * 5, "short"),
            ValuedConstraint((1, 1), (0,) * 9, "twice"),
            ValuedConstraint((1, 1), (0,) * 4, "twice-short"),
            ValuedConstraint((0, 1), (0,) * 6),
            ValuedConstraint((0, 1), (0,) * 7),
            ValuedConstraint((1, 1), (0,) * 9, "twice-again"),
        ),
    )
    assert inst.validate() == [
        "short: tensor has 5 entries, expected 6",
        "twice: scope (1, 1) repeats a variable",
        "twice-short: scope (1, 1) repeats a variable",
        "twice-short: tensor has 4 entries, expected 9",
        "constraint #5: tensor has 7 entries, expected 6",
        "twice-again: scope (1, 1) repeats a variable",
    ]


def test_constraint_is_an_immutable_tuple_of_its_fields():
    c = ValuedConstraint([0, 1], [1, 2, 3, 4])
    assert type(c.scope) is tuple and type(c.values) is tuple
    assert c == ((0, 1), (1, 2, 3, 4), "") and hash(c) == hash(((0, 1), (1, 2, 3, 4), ""))
    assert c.label == "" and c.arity == 2
    assert repr(c) == "ValuedConstraint(scope=(0, 1), values=(1, 2, 3, 4), label='')"
    assert ValuedConstraint(scope=[0], values=[5, 6], label="u") == ((0,), (5, 6), "u")
    assert pickle.loads(pickle.dumps(c)) == c
    with pytest.raises(AttributeError):
        c.scope = (1, 0)
    with pytest.raises(AttributeError):
        c.weight = 2


def _built_tables(inst: VcspInstance) -> set[str]:
    """The names of the instance's evaluation tables that have been built."""
    tables = {
        name for name, attr in vars(VcspInstance).items() if isinstance(attr, cached_property)
    }
    assert tables
    return tables & set(vars(inst))


def test_evaluation_tables_are_built_on_first_evaluation_only():
    defective = VcspInstance(empty_instance(1).domains, (ValuedConstraint((1,), (0, 0)),))
    assert defective.validate() and not _built_tables(defective)
    inst, _, decomp, start = build_boolean_pw4(6)
    assert check_path_decomposition(inst, decomp).ok
    assert not _built_tables(inst)
    assert inst.fitness(start) == 0
    assert not inst.is_local_solution(start) and inst.var_neighbors(0)
    assert _built_tables(inst) == {"_fitness_tables", "_delta_tables", "_neighbors"}


# -- path decompositions ---------------------------------------------------------------


def test_single_binary_constraint_width_one():
    doms = (
        DomainSpec(("A", "B"), frozenset({(0, 1)})),
        DomainSpec(("A", "B"), frozenset({(0, 1)})),
    )
    inst = VcspInstance(doms, (ValuedConstraint((0, 1), (0, 1, 1, 0), "xor"),))
    report = check_path_decomposition(inst, PathDecomposition((frozenset({0, 1}),)))
    assert report.ok and report.width == 1


def test_canonical_boolean_decomposition():
    inst, _, decomp, _ = build_boolean_pw4(6)
    report = check_path_decomposition(inst, decomp)
    assert report.ok and report.width == 4


def test_deleted_bag_is_reported():
    inst, _, decomp, _ = build_boolean_pw4(4)
    broken = PathDecomposition(decomp.bags[1:])
    report = check_path_decomposition(inst, broken)
    assert not report.ok and "not inside any bag" in report.violation


def test_uncovered_shared_scope_is_reported_at_its_first_constraint():
    doms = tuple(DomainSpec(("A", "B"), frozenset({(0, 1)})) for _ in range(3))
    inst = VcspInstance(
        doms,
        (
            ValuedConstraint((0, 1), (0,) * 4, "a"),
            ValuedConstraint((1, 2), (0,) * 4, "b"),
            ValuedConstraint((0, 1), (0,) * 4, "c"),
            ValuedConstraint((1, 2), (0,) * 4, "d"),
        ),
    )
    report = check_path_decomposition(
        inst, PathDecomposition((frozenset({0, 1}), frozenset({2})))
    )
    assert report.violation == "scope of b ([1, 2]) is not inside any bag"


def test_broken_interval_is_reported():
    inst, _, decomp, _ = build_boolean_pw4(4)
    bags = list(decomp.bags)
    bags.append(bags[0])  # variable reappears after leaving
    report = check_path_decomposition(inst, PathDecomposition(tuple(bags)))
    assert not report.ok and "contiguous" in report.violation


def test_out_of_range_bag_variable():
    inst = build_2by3(2)
    report = check_path_decomposition(inst, PathDecomposition((frozenset({0, 9}),)))
    assert not report.ok and "unknown variable" in report.violation


def test_the_first_variable_past_the_end_is_unknown_and_an_unlabelled_scope_is_named():
    inst = build_2by3(2)  # variables 0 and 1
    report = check_path_decomposition(inst, PathDecomposition((frozenset({0, 1, 2}),)))
    assert report.violation == "bag 0 contains unknown variable 2"
    unlabelled = VcspInstance(inst.domains, (ValuedConstraint((0, 1), (0,) * 6),))
    report = check_path_decomposition(unlabelled, PathDecomposition(({0}, {1})))
    assert report.violation == "scope of scope [0, 1] ([0, 1]) is not inside any bag"


# -- serialization -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda: build_2by3(4), lambda: build_3by5(3), lambda: build_boolean_pw4(3)[0]],
)
def test_json_round_trip(make, tmp_path):
    inst = make()
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again.domains == inst.domains
    assert again.constraints == inst.constraints
    assert again.family == inst.family and again.base_n == inst.base_n
    rng = random.Random(3)
    for _ in range(50):
        x = tuple(rng.randrange(d.size) for d in inst.domains)
        assert again.fitness(x) == inst.fitness(x)


def test_json_schema_shape():
    data = instance_to_json(build_2by3(2))
    assert data["version"] == 1
    assert data["meta"] == {"family": "2by3", "n": 2}
    assert data["variables"][0] == {
        "name": "x1",
        "states": ["A", "B"],
        "transitions": [[0, 1]],
    }
    assert data["constraints"][0] == {
        "label": "M1@1-2",
        "scope": [0, 1],
        "values": [0, 1, 0, 1, 0, 1],
    }


def test_defective_file_is_rejected():
    data = instance_to_json(build_2by3(2))
    data["constraints"][0]["values"] = [1, 2, 3]
    with pytest.raises(BuildError):
        instance_from_json(data)
    with pytest.raises(BuildError):
        instance_from_json({"version": 99})
