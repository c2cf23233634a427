"""The steepest-ascent oracle and the structural checkers for the families.

Every check recomputes its claim from first principles (exhaustive
enumeration, full neighborhood scans scored from the raw constraint tensors,
direct table arithmetic) and returns a report whose failure verdicts always
carry a concrete counterexample.  `check_pathwidth` reads the hypergraph of
the `bool-pw4` builder's rows; `test_criterion_6_arity_5_and_pathwidth_4_up_to_n200`
ties it to the full build.  `3by5` and `bool-pw4` encode one padded
chain, so each of their two claims has one checker that only decodes them
differently: `padding_violation` and `_retrace_failure`.  The retrace
records no walk: it compares each move of the steepest engine
(`_steepest_moves`) with the doubled ordered walk (`_doubled_walk`) as both
are made, so its memory does not grow with the walk.  `_each_n` is the one
loop over n = 2..cap of the capped checks: each hands it a fault function
of n, so one size's instances and walks are gone before the next is built.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from .ascent import (
    AscentTrace,
    StepRecord,
    _ordered_moves,
    _steepest_moves,
    ordered_ascent,
    steepest_ascent,
    verify_steepest,
)
from .constructions import (
    ODD_MIN,
    BooleanCodec,
    ExpandedLandscape,
    boolean_pw4_hypergraph,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    canonical_start,
    f_max,
)
from .model import (
    ValuedConstraint,
    VcspInstance,
    check_hypergraph_decomposition,
    neighbors_of,
)


@dataclass
class CheckReport:
    """Outcome of one structural check."""

    name: str
    params: dict
    passed: bool
    details: str
    counterexample: dict | None = None
    runtime_s: float = 0.0

    def to_json(self) -> dict:
        return {**asdict(self), "runtime_s": round(self.runtime_s, 6)}


def _timed(name: str, params: dict, body: Callable[[], tuple[bool, str, dict | None]]) -> CheckReport:
    t0 = time.perf_counter()
    passed, details, counterexample = body()
    return CheckReport(name, params, passed, details, counterexample, time.perf_counter() - t0)


# -- oracles ------------------------------------------------------------------


def exhaustive_steepest_oracle(
    landscape, start: Sequence[int], step_limit: int | None = None
) -> AscentTrace:
    """Steepest ascent recomputed from scratch: the entire neighborhood is
    re-evaluated with full fitness calls at every step (no delta evaluation).
    Only the start is checked; `_fitness` evaluates it and each neighbour."""
    landscape.check_assignment(start)
    x = list(start)
    f = landscape._fitness(x)
    steps: list[StepRecord] = []
    ties = 0
    terminal = True
    while True:
        best = None
        best_f = f
        tied = False
        y = list(x)
        for k, t in neighbors_of(landscape.domains, x):
            s = y[k]
            y[k] = t
            fy = landscape._fitness(y)
            y[k] = s
            if fy > best_f:
                best = (k, t, fy)
                best_f = fy
                tied = False
            elif fy == best_f and best is not None:
                tied = True
        if best is None:
            break
        if step_limit is not None and len(steps) >= step_limit:
            terminal = False
            break
        k, t, fy = best
        steps.append(StepRecord(k, x[k], t, fy))
        x[k] = t
        f = fy
        if tied:
            ties += 1
    return AscentTrace(
        start=tuple(start),
        steps=tuple(steps),
        length=len(steps),
        terminal=terminal,
        policy="steepest-oracle",
        tie_steps=ties,
        ambiguous_steps=0,
        final=tuple(x),
        final_fitness=f,
    )


# -- fault-injection helpers ----------------------------------------------------


def with_bumped_constraint(instance: VcspInstance, label: str, bump: int = 1) -> VcspInstance:
    """Copy of the instance with every nonzero entry of one constraint shifted."""
    out = []
    found = False
    for c in instance.constraints:
        if c.label == label:
            found = True
            vals = tuple(v + bump if v != 0 else 0 for v in c.values)
            out.append(ValuedConstraint(c.scope, vals, c.label))
        else:
            out.append(c)
    if not found:
        raise ValueError(f"no constraint labeled {label!r}")
    return VcspInstance(
        instance.domains, tuple(out), instance.family, instance.base_n, instance.var_names
    )


# -- individual checks ----------------------------------------------------------


# A check's fault at one n: None, or its details and counterexample.
_Fault = tuple[str, dict] | None

# What `_first_difference` reads past the end of the shorter iterable.
_MISSING = object()


def _fmax_recurrence_defect(n_max: int) -> str | None:
    # Doubling consequence of the closed form: appending two positions doubles
    # the ascent length plus a linear correction.
    for n in range(2, n_max - 1):
        h = n // 2
        expect = 2 * f_max(n) + (7 * h + 5 if n % 2 == 0 else 7 * h + 8)
        if f_max(n + 2) != expect:
            return f"f_max({n + 2}) = {f_max(n + 2)} but doubling f_max({n}) gives {expect}"
    return None


def _each_n(cap: int, fault: Callable[[int], _Fault]) -> tuple[bool, str, dict] | None:
    """The only loop over n of the capped checks: calls `fault(n)` for n =
    2..cap in order and turns the first `(details, counterexample)` it returns
    into the failing verdict `"n=<n>: <details>"`; None when no n fails.  Each
    n's instances and walks live only inside its `fault` call."""
    for n in range(2, cap + 1):
        found = fault(n)
        if found is not None:
            return False, f"n={n}: {found[0]}", found[1]
    return None


def _first_difference(got: Iterable, want: Iterable) -> tuple[int, object, object] | None:
    """The first index where two iterables differ, as `(i, got_i, want_i)`,
    or None; both are read once, side by side, and no further.  When one is a
    prefix of the other they differ at the shorter length, and the missing
    side reads None.  Items, not types, are compared."""
    for i, (g, w) in enumerate(itertools.zip_longest(got, want, fillvalue=_MISSING)):
        if g != w:
            return i, None if g is _MISSING else g, None if w is _MISSING else w
    return None


def _doubled_walk(landscape: ExpandedLandscape):
    """The ordered walk of `landscape.base` from its canonical start, doubled
    onto the landscape by `ExpandedLandscape.double`, as `simulate_ascent`
    doubles a recorded one: the engine's `_delta` and memo only pick the moves."""
    y = list(canonical_start("2by3", landscape.base.base_n))
    return landscape.double(y, _ordered_moves(landscape.base, y))


def _retrace_failure(
    n: int, instance: VcspInstance, start: Sequence[int], codec: BooleanCodec | None, ties: int
) -> _Fault:
    """The fault, as `_each_n` takes it, when the steepest walk of `instance`
    from `start`, a padded encoding of 2by3(n) decoded by `codec` (None: no
    decoding), does not retrace `_doubled_walk` in length, states and fitness
    values, or does not tie on exactly `ties` steps; else None.  One pass
    drives `_steepest_moves` on `bits`, applying each move once and summing
    its gain, beside the live reference, decoding per move only the moved
    bit's collection (`BooleanCodec.decode_moved`).  It keeps only a copy of
    the first diverging state, where a side that ran out reads None, and the
    first diverging fitness value, where the walk's end counts as step
    2·f_max(n) against the reference's end evaluated from scratch."""
    landscape = ExpandedLandscape(build_2by3(n))
    bits, want = list(start), list(canonical_start("2by3", n))
    got = bits if codec is None else codec.decode_states(bits)
    reference = _doubled_walk(landscape)
    state = None if got == want else (0, got[:], want)
    fitness, f = None, instance.fitness(bits)
    length = tied = 0
    for var, dst, gain, was_tied, _ in _steepest_moves(instance, bits):
        bits[var] = dst
        f += gain
        length += 1
        tied += was_tied
        if state is not None:
            continue
        if codec is not None:
            i, got[i] = codec.decode_moved(bits, var)
        step = next(reference, None)
        if step is None:
            state = (length, got[:], None)
            continue
        want[step[0]] = step[2]
        if got != want:
            state = (length, got[:], want)
        elif fitness is None and f != step[3]:
            fitness = (length - 1, f, step[3])
    if state is None:
        step = next(reference, None)
        if step is not None:
            want[step[0]] = step[2]
            state = (length + 1, None, want)
        elif fitness is None and f != (expected := landscape._fitness(want)):
            fitness = (length, f, expected)  # f is the walk's end
    if length != (doubled := 2 * f_max(n)):
        return f"length {length} != {doubled}", {"n": n, "length": length, "expected": doubled}
    if state is not None:
        i, got, want = state
        details = f"decoded walk diverges at state {i}"
        return details, {"n": n, "state": i, "decoded": got, "expected": want}
    if fitness is not None:
        i, got, want = fitness
        return f"fitness diverges at step {i}", {"n": n, "step": i, "got": got, "expected": want}
    if tied != ties:
        return f"{tied} tied steps != {ties}", {"n": n, "tie_steps": tied, "expected": ties}
    return None


def check_ordered_length(n_max: int) -> CheckReport:
    """The ordered ascent from all-A walks through every fitness value: its
    length is exactly the instance maximum, every gain is exactly 1, and the
    improving state at the chosen variable is always unique."""

    def fault(n):
        target = f_max(n)
        trace = ordered_ascent(build_2by3(n), canonical_start("2by3", n))
        problems = []
        if trace.length != target:
            problems.append(f"length {trace.length} != {target}")
        if not trace.terminal:
            problems.append("did not reach a local solution")
        if trace.final_fitness != target:
            problems.append(f"final fitness {trace.final_fitness} != {target}")
        if trace.ambiguous_steps != 0:
            problems.append(f"{trace.ambiguous_steps} ambiguous steps")
        bad = _first_difference(trace.fitness_values(), range(1, target + 1))
        if bad is not None:
            problems.append(f"step {bad[0]} fitness {bad[1]} != {bad[2]} (gain not 1)")
        if problems:
            return "; ".join(problems), {"n": n, "length": trace.length, "expected": target}
        return None

    def body():
        defect = _fmax_recurrence_defect(n_max)
        if defect is not None:
            return False, defect, {"n_max": n_max}
        return _each_n(n_max, fault) or (
            True, f"ordered ascents match the exact maximum for n=2..{n_max}", None
        )

    return _timed("ordered-length", {"n_max": n_max}, body)


def check_simulation(n_max: int, verify_max: int) -> CheckReport:
    """Steepest ascent on the expanded instance reproduces the doubled base
    ordered ascent move for move, with a unique argmax at every step."""

    def fault(n):
        inst, start = build_3by5(n), canonical_start("3by5", n)
        failure = _retrace_failure(n, inst, start, None, 0)
        if failure is None and n <= verify_max:
            bad = verify_steepest(inst, steepest_ascent(inst, start))
            if bad is not None:
                details = f"full re-verification failed: {bad.reason}"
                return details, {"n": n, "step": bad.step, "witness": bad.witness}
        return failure

    def body():
        return _each_n(n_max, fault) or (
            True,
            f"steepest equals the doubled ordered ascent for n=2..{n_max} "
            f"(full neighborhood re-verification up to n={min(verify_max, n_max)})",
            None,
        )

    return _timed("simulation", {"n_max": n_max, "verify_max": verify_max}, body)


def padding_violation(
    instance: VcspInstance, landscape: ExpandedLandscape, codec: BooleanCodec | None = None
) -> dict | None:
    """The first `ExpandedLandscape.padding_defect` of `instance` over every
    state, with `assignment` the instance's own; or None.  `codec` decodes
    assignments to states (None: they are states).  Junk codes are skipped,
    and each state is judged by its best code, the first enumerated on a tie:
    so the max over the odd intermediate's codes 00 and 11 of `bool-pw4` must
    be the padded value, and no code may exceed the two-intermediate ceiling."""
    best: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    for x in instance.all_assignments():
        state = x if codec is None else tuple(codec.decode_states(x))
        if None in state:
            continue
        got = instance._fitness(x)
        kept = best.get(state)
        if kept is None or got > kept[0]:
            best[state] = (got, x)
    for state, (got, x) in best.items():
        bad = landscape._padding_defect(state, got)
        if bad is not None:
            return {**bad, "assignment": list(x)}
    return None


def _padding_fault(n: int, instance: VcspInstance, codec: BooleanCodec | None = None) -> _Fault:
    """The fault, as `_each_n` takes it, when `instance`, an encoding of
    2by3(n) decoded by `codec`, breaks the padding rule (`padding_violation`)."""
    bad = padding_violation(instance, ExpandedLandscape(build_2by3(n)), codec)
    return None if bad is None else ("padding rule violated", {**bad, "n": n})


def check_padding(n_max: int) -> CheckReport:
    """Exhaustive padding-rule check of the expanded instance."""

    def body():
        return _each_n(n_max, lambda n: _padding_fault(n, build_3by5(n))) or (
            True, f"padding rules hold exhaustively for n=2..{n_max}", None
        )

    return _timed("padding", {"n_max": n_max}, body)


def check_boolean(n_equiv: int, n_traj: int) -> CheckReport:
    """Boolean instance: exhaustive padding rules by best code at small n, and
    the steepest ascent from the canonical start decodes to the doubled walk
    with 3 * 2^h - 3 tied steps for even n and 2^(h+2) - 3 for odd n, h = n // 2."""

    def retrace_fault(n):
        inst, codec, _, start = build_boolean_pw4(n)
        h = n // 2
        ties = 3 * 2**h - 3 if n % 2 == 0 else 2 ** (h + 2) - 3
        return _retrace_failure(n, inst, start, codec, ties)

    def body():
        return (
            _each_n(n_equiv, lambda n: _padding_fault(n, *build_boolean_pw4(n)[:2]))
            or _each_n(n_traj, retrace_fault)
            or (True, "boolean fitness equivalence and decoded replay hold", None)
        )

    return _timed("boolean", {"n_equiv": n_equiv, "n_traj": n_traj}, body)


def _bagged(bags: Sequence[frozenset[int]], scopes, held: dict) -> bool:
    """Whether each scope is in a bag: `held[scope]` if still one, else the last that holds it."""
    present = set(bags)
    for scope in scopes:
        if held.get(scope) not in present:
            bag = next((b for b in reversed(bags) if b.issuperset(scope)), None)
            if bag is None:
                return False
            held[scope] = bag
    return True


def check_pathwidth(n_max: int) -> CheckReport:
    """Every Boolean instance has max constraint arity 5 and its canonical
    decomposition checks out at width exactly 4, read from its hypergraph
    (`boolean_pw4_hypergraph`, no value tensor); the acceptance test
    `test_criterion_6_arity_5_and_pathwidth_4_up_to_n200` ties that to the build.
    It accepts what the library rule `check_hypergraph_decomposition` accepts
    (bits in range, each entering one bag, non-empty scopes each in a bag, via
    `held` as n - 1's bags recur at n), which it calls only to word a rejection."""
    held: dict[tuple[int, ...], frozenset[int]] = {}  # scope -> last bag holding it

    def fault(n):
        n_bits, edges, decomp = boolean_pw4_hypergraph(n)
        scopes = set(map(operator.itemgetter(0), edges))
        if (max_arity := max(map(len, scopes))) != 5:
            return f"max arity {max_arity} != 5", {"n": n, "max_arity": max_arity}
        bags, bits = decomp.bags, frozenset().union(*decomp.bags)
        entering = sum(map(len, map(frozenset.difference, bags, (frozenset(), *bags))))
        if not (0 <= min(bits, default=0) and max(bits, default=-1) < n_bits
                and entering == len(bits) and all(scopes) and _bagged(bags, scopes, held)):
            violation = check_hypergraph_decomposition(n_bits, edges, decomp).violation
            return violation, {"n": n, "violation": violation}
        if (width := max(map(len, bags), default=0) - 1) != 4:
            return f"width {width} != 4", {"n": n, "width": width}
        return None

    def body():
        return _each_n(n_max, fault) or (True, f"arity 5 and width 4 hold for n=2..{n_max}", None)

    return _timed("pathwidth", {"n_max": n_max}, body)


# -- additive (rank-1) decomposition ------------------------------------------


@dataclass(frozen=True)
class Rank1Split:
    """Can a matrix be written as column + row (one value per row plus one per
    column)?  Feasible results carry the integer witness vectors; infeasible
    results carry the first 2x2 minor whose cross sums disagree."""

    feasible: bool
    column: tuple[int, ...] | None = None
    row: tuple[int, ...] | None = None
    minor: tuple[tuple[int, int], tuple[int, int]] | None = None
    lhs: int | None = None
    rhs: int | None = None


def rank1_split(matrix: Sequence[Sequence[int]]) -> Rank1Split:
    rows = [tuple(r) for r in matrix]
    if not rows or not rows[0]:
        return Rank1Split(True, tuple(), tuple())
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows must have equal length")
    col = tuple(r[0] - rows[0][0] for r in rows)
    row = tuple(rows[0])
    for i in range(1, len(rows)):
        for j in range(1, width):
            if rows[i][j] != col[i] + row[j]:
                return Rank1Split(
                    False,
                    minor=((0, 0), (i, j)),
                    lhs=rows[0][0] + rows[i][j],
                    rhs=rows[0][j] + rows[i][0],
                )
    return Rank1Split(True, column=col, row=row)


def check_rank1() -> CheckReport:
    """The odd-position min profile, `ODD_MIN` transposed, admits no
    column + row split, while genuinely additive matrices do."""

    def body():
        target = tuple(zip(*ODD_MIN))
        r = rank1_split(target)
        if r.feasible:
            return False, "split target unexpectedly feasible", {"matrix": target}
        if r.minor != ((0, 0), (1, 1)) or r.lhs != 1 or r.rhs != 3:
            return False, "unexpected violating minor", {
                "minor": r.minor,
                "lhs": r.lhs,
                "rhs": r.rhs,
            }
        zero = rank1_split(((0, 0), (0, 0)))
        if not (zero.feasible and not any(zero.column) and not any(zero.row)):
            return False, "zero matrix should split trivially", None
        ctrl = rank1_split(((0, 1), (1, 2)))
        if not ctrl.feasible or ctrl.column != (0, 1) or ctrl.row != (0, 1):
            return False, "additive control matrix should split", {
                "column": ctrl.column,
                "row": ctrl.row,
            }
        return (
            True,
            "split target infeasible (minor (1,1),(2,2): 0+1 != 1+2); controls split",
            None,
        )

    return _timed("rank1", {}, body)


# -- aggregation ----------------------------------------------------------------

DEFAULT_CAPS = {
    "ordered-length": 20,
    "simulation": 14,
    "simulation-verify": 10,
    "padding": 6,
    "boolean": 12,
    "boolean-equiv": 4,
    "pathwidth": 200,
}

# Each check by name, with its caps.  The lambdas look the checks up as module
# globals at call time, so a wrapper installed on those names sees every call.
_CHECKS: dict[str, Callable[[dict[str, int]], CheckReport]] = {
    "ordered-length": lambda c: check_ordered_length(c["ordered-length"]),
    "simulation": lambda c: check_simulation(c["simulation"], c["simulation-verify"]),
    "padding": lambda c: check_padding(c["padding"]),
    "boolean": lambda c: check_boolean(c["boolean-equiv"], c["boolean"]),
    "pathwidth": lambda c: check_pathwidth(c["pathwidth"]),
    "rank1": lambda c: check_rank1(),
}
CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, caps: dict[str, int] | None = None) -> CheckReport:
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    return _CHECKS[name]({**DEFAULT_CAPS, **(caps or {})})


def run_all(caps: dict[str, int] | None = None) -> list[CheckReport]:
    return [run_check(name, caps) for name in CHECK_NAMES]
