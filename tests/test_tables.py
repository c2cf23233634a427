"""Weight schedule, fitness maximum, and the constant tables behind the builders."""

from __future__ import annotations

import pytest

from ascentlab import BuildError, build_2by3, f_max, weight_m
from ascentlab.constructions import (
    CHAIN_23,
    CHAIN_32,
    DUAL_COL,
    DUAL_ROW,
    ODD_MIN,
    even_min_ab,
    even_min_bc,
)
from references import brute_force_extremes

WEIGHT_SAMPLE = [weight_m(k) for k in range(1, 6)]  # 1, 5, 13, 29, 61


def test_weight_values_and_recurrence():
    assert WEIGHT_SAMPLE == [1, 5, 13, 29, 61]
    for k in range(1, 40):
        assert weight_m(k + 1) == 2 * weight_m(k) + 3
    with pytest.raises(BuildError):
        weight_m(0)


def test_f_max_spot_values():
    assert [f_max(n) for n in range(2, 7)] == [5, 10, 22, 35, 63]
    assert f_max(40) == 3 * 2**22 - 152 == 12_582_760


def test_f_max_matches_brute_force():
    for n in range(2, 7):
        _, hi, _ = brute_force_extremes(build_2by3(n))
        assert hi == f_max(n)


def test_f_max_doubling_rule():
    # Appending two positions doubles the maximum plus a linear correction.
    for n in range(2, 41):
        h = n // 2
        bump = 7 * h + 5 if n % 2 == 0 else 7 * h + 8
        assert f_max(n + 2) == 2 * f_max(n) + bump


def zigzag(n: int) -> tuple[int, ...]:
    # B A B A ... with C on a trailing even position.
    out = [1 if k % 2 == 1 else 0 for k in range(1, n + 1)]
    if n % 2 == 0:
        out[-1] = 2
    return tuple(out)


def test_maximizer_pattern():
    for n in range(2, 10):
        inst = build_2by3(n)
        assert inst.fitness(zigzag(n)) == f_max(n)
        assert inst.fitness((0,) * n) == 0


def test_fitness_range_is_exact():
    for n in range(2, 7):
        lo, hi, _ = brute_force_extremes(build_2by3(n))
        assert lo == 0 and hi == f_max(n)


# -- constant tables -------------------------------------------------------------


def test_chain_tables_frozen():
    assert CHAIN_32 == ((0, 2), (1, 1), (2, 0))
    assert CHAIN_23 == ((0, 1, 0), (1, 0, 1))
    # The unit-weight min profile that `constructions` derives from the two tables.
    assert ODD_MIN == ((0, 2, 0), (1, 1, 1), (2, 0, 2))


@pytest.mark.parametrize("m", WEIGHT_SAMPLE)
def test_odd_min_profile_is_the_exact_minimum(m):
    # Left table weight m+1, right table weight 2m+3 (the next chain weight):
    # ODD_MIN, computed at m = 1, scales to every chain weight.
    for u in range(3):
        for v in range(3):
            options = [
                (m + 1) * CHAIN_32[u][h] + (2 * m + 3) * CHAIN_23[h][v] for h in (0, 1)
            ]
            assert min(options) == (m + 1) * ODD_MIN[u][v]
            assert options[0] != options[1]  # completions never tie here


@pytest.mark.parametrize("m", WEIGHT_SAMPLE)
def test_even_min_profiles_are_the_exact_minimum(m):
    qt, rt = even_min_ab(m), even_min_bc(m)
    for u in range(2):
        for v in range(2):
            ab = [m * CHAIN_23[u][h] + (m + 1) * CHAIN_32[h][v] for h in (0, 1)]
            bc = [m * CHAIN_23[u][h] + (m + 1) * CHAIN_32[h][v] for h in (1, 2)]
            assert min(ab) == qt[u][v] and ab[0] != ab[1]
            assert min(bc) == rt[u][v] and bc[0] != bc[1]


def test_dual_split_reproduces_the_min_profile():
    # Per code: a column part plus a row part; the sign pattern makes the
    # entrywise max over the two codes equal the exact profile.
    signed = {
        code: tuple(
            tuple(DUAL_COL[code][u] + DUAL_ROW[code][v] for v in range(3))
            for u in range(3)
        )
        for code in DUAL_COL
    }
    assert signed[(0, 0)] == ((0, -2, 0), (1, -1, 1), (2, 0, 2))
    assert signed[(1, 1)] == ((0, 2, 0), (-1, 1, -1), (-2, 0, -2))
    for u in range(3):
        for v in range(3):
            assert max(signed[(0, 0)][u][v], signed[(1, 1)][u][v]) == ODD_MIN[u][v]
