"""The arity-5, pathwidth-4 Boolean instance: its codes, printed tables,
width, master invariant and decoded walk."""

from __future__ import annotations

import itertools

import pytest

from ascentlab import (
    BuildError,
    ExpandedLandscape,
    build_2by3,
    build_boolean_pw4,
    canonical_start,
    check_path_decomposition,
    decode_assignment,
    f_max,
    ordered_ascent,
    simulate_ascent,
    steepest_ascent,
)
from ascentlab.verification import padding_violation

A, B, C = 0, 1, 2


def bitval(constraint, bits):
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return constraint.values[idx]


def by_label(instance):
    return {c.label: c for c in instance.constraints}


# -- the arity-5 instance: codes and printed tables ------------------------------


def test_pw4_dual_decoding():
    _, codec, _, _ = build_boolean_pw4(2)
    odd = codec.collections[0]
    assert odd.decode((0, 0)) == 2 and odd.decode((1, 1)) == 2
    assert sorted(code for code, s in odd.codes if s == 2) == [(0, 0), (1, 1)]
    assert decode_assignment(codec, (1, 1, 1, 1, 1)) == [("sAB", "11"), ("junk", "111")]
    assert decode_assignment(codec, (1, 0, 1, 0, 0)) == [("A", "10"), ("A", "100")]


def test_start_bits():
    for n, want in [(2, (1, 0, 1, 0, 0)), (3, (1, 0, 1, 0, 0, 1, 0))]:
        _, _, _, start = build_boolean_pw4(n)
        assert start == want


N4 = 4
SCALE4 = 2 * N4 + 1  # applied to every state-valued table below


def test_printed_chain_table():
    inst, _, _, _ = build_boolean_pw4(N4)
    lt = by_label(inst)["L1~@G2-G3"]
    m1 = 2  # chain weight of the first 3-to-2 link
    expected = {
        ((1, 0, 0), (1, 0)): 0,
        ((1, 0, 0), (0, 1)): 2 * m1,
        ((0, 1, 0), (1, 0)): m1,
        ((0, 1, 0), (0, 1)): m1,
        ((0, 0, 1), (1, 0)): 2 * m1,
        ((0, 0, 1), (0, 1)): 0,
    }
    for u in itertools.product((0, 1), repeat=3):
        for v in itertools.product((0, 1), repeat=2):
            assert bitval(lt, u + v) == SCALE4 * expected.get((u, v), 0)


def test_printed_split_left_table():
    inst, _, _, _ = build_boolean_pw4(N4)
    t_minus = by_label(inst)["T~1-@G2-G3"]
    w = 2  # m_1 + 1
    expected = {
        ((1, 0, 0), (0, 0)): 0,
        ((1, 0, 0), (1, 1)): 2 * w,
        ((0, 1, 0), (0, 0)): w,
        ((0, 1, 0), (1, 1)): w,
        ((0, 0, 1), (0, 0)): 2 * w,
        ((0, 0, 1), (1, 1)): 0,
    }
    for u in itertools.product((0, 1), repeat=3):
        for s in itertools.product((0, 1), repeat=2):
            assert bitval(t_minus, u + s) == SCALE4 * expected.get((u, s), 0)


def test_printed_split_right_table():
    inst, _, _, _ = build_boolean_pw4(N4)
    t_plus = by_label(inst)["T~1+@G3-G4"]
    w = 2
    expected = {
        ((0, 0), (0, 1, 0)): -2 * w,
        ((1, 1), (1, 0, 0)): -2 * w,
        ((1, 1), (0, 0, 1)): -2 * w,
    }
    for s in itertools.product((0, 1), repeat=2):
        for v in itertools.product((0, 1), repeat=3):
            assert bitval(t_plus, s + v) == SCALE4 * expected.get((s, v), 0)


def test_printed_flank_table():
    inst, _, _, _ = build_boolean_pw4(N4)
    s1 = by_label(inst)["S~1@G2"]
    assert s1.scope == (1, 2, 3, 4, 5)  # G1.1, all of G2, G3.0
    m = 1
    rows = {
        (1, 1, 0): {(0, 0): 2 * m + 1, (1, 0): m + 1, (0, 1): 0, (1, 1): m},
        (0, 1, 1): {(0, 0): 0, (1, 0): m, (0, 1): 2 * m + 1, (1, 1): m + 1},
    }
    for a in (0, 1):
        for code in itertools.product((0, 1), repeat=3):
            for b in (0, 1):
                want = rows.get(code, {}).get((a, b), 0)
                assert bitval(s1, (a,) + code + (b,)) == SCALE4 * want


def test_printed_penalty_and_bonus_tables():
    inst, _, _, _ = build_boolean_pw4(N4)
    labels = by_label(inst)
    jt = labels["J~@G1G2"]
    hit = {((0, 0), c) for c in ((1, 1, 0), (0, 1, 1))} | {
        ((1, 1), c) for c in ((1, 1, 0), (0, 1, 1))
    }
    for o in itertools.product((0, 1), repeat=2):
        for e in itertools.product((0, 1), repeat=3):
            want = -SCALE4 * f_max(N4) if (o, e) in hit else 0
            assert bitval(jt, o + e) == want
    # mirrored orientation on the (even, odd) pair
    jt2 = labels["J~@G2G3"]
    assert bitval(jt2, (1, 1, 0) + (0, 0)) == -SCALE4 * f_max(N4)
    assert bitval(jt2, (1, 0, 0) + (0, 0)) == 0
    # unary bonuses are not scaled
    ut = labels["U~1@G3"]
    assert [bitval(ut, b) for b in ((1, 0), (0, 1), (0, 0), (1, 1))] == [0, 0, 2, 2]
    vt = labels["V~1@G2"]
    assert bitval(vt, (1, 1, 0)) == 3 and bitval(vt, (0, 1, 1)) == 3
    assert bitval(vt, (1, 0, 1)) == 0


def test_reconstructed_first_chain_table():
    inst, _, _, _ = build_boolean_pw4(N4)
    mt = by_label(inst)["M1~@G1-G2"]
    expected = {
        ((1, 0), (1, 0, 0)): 0,
        ((1, 0), (0, 1, 0)): 1,
        ((1, 0), (0, 0, 1)): 0,
        ((0, 1), (1, 0, 0)): 1,
        ((0, 1), (0, 1, 0)): 0,
        ((0, 1), (0, 0, 1)): 1,
    }
    for u in itertools.product((0, 1), repeat=2):
        for v in itertools.product((0, 1), repeat=3):
            assert bitval(mt, u + v) == SCALE4 * expected.get((u, v), 0)


# -- structural claims -------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_arity_and_width(n):
    inst, _, decomp, _ = build_boolean_pw4(n)
    assert inst.max_arity == 5
    report = check_path_decomposition(inst, decomp)
    assert report.ok and report.width == 4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_master_invariant_exhaustive(n):
    inst, codec, _, _ = build_boolean_pw4(n)
    landscape = ExpandedLandscape(build_2by3(n))
    assert padding_violation(inst, landscape, codec) is None


@pytest.mark.parametrize("n", [0, 1])
def test_canonical_start_needs_two_positions(n):
    with pytest.raises(BuildError, match=f"need n >= 2, got {n}"):
        canonical_start("bool-pw4", n)


# -- the walk ------------------------------------------------------------------------


def test_frozen_walk_at_n2():
    inst, codec, _, start = build_boolean_pw4(2)
    tr = steepest_ascent(inst, start)
    assert tr.length == 10 and tr.terminal
    assert tr.fitness_values() == [2, 5, 6, 10, 12, 15, 16, 20, 22, 25]
    # dual-code entries at the first collection tie (both codes are exactly
    # level there); everything else is unique
    assert tr.tie_steps == 3
    moves = [(r.var, r.src, r.dst) for r in tr.steps]
    assert moves == [
        (0, 1, 0),
        (1, 0, 1),
        (3, 0, 1),
        (2, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (4, 0, 1),
        (3, 1, 0),
        (0, 1, 0),
        (1, 0, 1),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_decoded_walk_replays_the_simulation(n):
    base = build_2by3(n)
    sim = simulate_ascent(ordered_ascent(base, (A,) * n), ExpandedLandscape(base))
    inst, codec, _, start = build_boolean_pw4(n)
    tr = steepest_ascent(inst, start)
    assert tr.length == 2 * f_max(n)
    decoded = [tuple(codec.decode_states(bits)) for bits in tr.states()]
    assert decoded == [tuple(s) for s in sim.states()]
    assert tr.fitness_values() == sim.fitness_values()


def test_decode_walk_decodes_every_visited_state():
    # Every start of n = 3, junk codes included, and a walk of each engine.
    inst, codec, _, start = build_boolean_pw4(3)
    for x in inst.all_assignments():
        for tr in (steepest_ascent(inst, x), ordered_ascent(inst, x)):
            assert list(codec.decode_walk(tr)) == [codec.decode_states(b) for b in tr.states()]
    with pytest.raises(ValueError, match="summary mode"):
        codec.decode_walk(steepest_ascent(inst, start, record_steps=False))


def test_decode_walk_yields_a_fresh_list_per_state():
    # A retrace failure keeps the decoded state it diverged at as its
    # counterexample, so reading on must not change a state already yielded.
    inst, codec, _, start = build_boolean_pw4(3)
    tr = steepest_ascent(inst, start)
    kept = [(states, list(states)) for states in codec.decode_walk(tr)]
    assert len(kept) == tr.length + 1
    assert all(states == copy for states, copy in kept)
    assert len({id(states) for states, _ in kept}) == len(kept)


def test_codec_json_shape():
    _, codec, _, _ = build_boolean_pw4(2)
    data = codec.to_json()
    assert data["collections"][0]["bits"] == 2
    assert data["collections"][0]["codes"]["10"] == "A"
    assert data["collections"][0]["codes"]["00"] == "sAB"
    assert data["collections"][0]["codes"]["11"] == "sAB"
    assert data["collections"][1]["codes"]["011"] == "sBC"
