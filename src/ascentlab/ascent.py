"""Deterministic ascent engines over a landscape, plus independent verifiers.

Engines work against any landscape object that exposes `domains`,
`check_assignment`, `fitness`, `var_neighbors(k)` (the variables whose
states k's moves depend on) and the unchecked `_delta(x, k, s, v)` hook, as
`VcspInstance` does.  All three engines run through one pure-Python step
loop with exact integers, in recorded and summary mode alike; each engine
only supplies the policy that picks the next move.  Ordered ascent's order ≺
is the variable-id order, as for `pad` and `ExpandedLandscape`: an ascent in
another order is the identity-order ascent of the instance with its
variables relabelled by it (variable i of the relabelled instance is
variable order[i]).

Steepest and ordered ascent read each variable's best move from one per-walk
helper, `_Blankets`.  A variable's best move depends only on its own state
and its blanket `var_neighbors(k)`, so the helper memoises it under an
incrementally updated key over those states.  All variables share one memo:
each key is shifted past the key spaces (size times blanket sizes) of the
variables before it, so none collide.  The memo is a list when the walk has
at most `_TABLE_SLOTS` keys in all, as every chain family up to n = 200 has
(462 for `2by3` n=32, 11,200 for `bool-pw4` n=18, 176,970 for `3by5` n=200),
else a dict whose missing keys read as None.  Ordered ascent memoises whole
moves: the key includes the variable's own state, so an improving key also
fixes the key increments its move causes, and a step replays a stored record
after one lookup per scan position.  Steepest ascent caches one plain entry
per variable key; it applies few of the entries it caches, so it stores no
moves.  It keeps the improving set, a dict from each variable whose best
gain is positive to that gain, and takes each move from it: the largest
gain, then the lowest variable id, with the step counted as tied when
another variable reaches that gain or the variable has more than one best
target.  After a move one pass over the moved variable's dependants adds
their key increments, looks up their entries and updates the improving set,
so a step costs O(blanket + improving set), not O(n).  First-improvement
ascent calls `_delta` directly, one move at a time: it keeps each variable's
permitted moves, rebuilds only the moved variable's list, and draws its
random scan order lazily, so a step pays only for the moves it tests.

The verifiers and the oracle also need `_fitness(x)`, the unchecked
evaluation of an assignment they have validated, and `_reference_delta(x, k,
t)`, and share neither `_delta` nor the memo with the engines.  They check a
trace's start and moves, then evaluate every visited state from scratch.
Every scan of a state's moves is `_improving_move(landscape, x, above)`, the
first permitted move, ascending by (k, t), whose `_reference_delta` exceeds
`above`: 0 at the terminal state and at each ordered step (whose first
improving move must not be on a lower variable), the step's gain at each
steepest step.  `_reference_delta` reads only the raw tensors of the
constraints on the moved variable through its own index.  So a bug in
`_delta` or in the memo cannot vouch for itself, and checking a step costs
its out-edges, not a full evaluation per neighbour.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from itertools import chain
from typing import IO, NamedTuple, Sequence

from .model import InvalidAssignmentError


class StepRecord(NamedTuple):
    """One applied move: variable, source state, target state, fitness after."""

    var: int
    src: int
    dst: int
    fitness_after: int


@dataclass(frozen=True)
class AscentTrace:
    """A start assignment plus the ordered moves an engine applied.

    `steps` is None when the engine ran in summary mode; `length` is always
    the number of applied moves.  `terminal` distinguishes reaching a local
    solution from hitting the step limit.  `tie_steps` counts steps where the
    steepest argmax was not unique; `ambiguous_steps` counts ordered steps
    where the chosen variable had more than one improving state.
    """

    start: tuple[int, ...]
    steps: tuple[StepRecord, ...] | None
    length: int
    terminal: bool
    policy: str
    tie_steps: int
    ambiguous_steps: int
    final: tuple[int, ...]
    final_fitness: int

    def states(self):
        """Replay the visited assignments, start first (needs recorded steps)."""
        if self.steps is None:
            raise ValueError("trace was recorded in summary mode; no steps to replay")
        x = list(self.start)
        yield tuple(x)
        for rec in self.steps:
            x[rec.var] = rec.dst
            yield tuple(x)

    def fitness_values(self) -> list[int]:
        if self.steps is None:
            raise ValueError("trace was recorded in summary mode; no steps to replay")
        return [rec.fitness_after for rec in self.steps]


def _walk(
    landscape,
    start: Sequence[int],
    step_limit: int | None,
    record_steps: bool,
    policy: str,
    moves,
) -> AscentTrace:
    """The step loop every engine shares.

    `moves(x)` yields `(var, target, gain, tied, ambiguous)` for the live
    assignment `x`, reading it again after each applied move, and stops at a
    local solution.  The walk is terminal unless a move was offered once the
    step limit had been reached.
    """
    if step_limit is not None and step_limit < 0:
        raise InvalidAssignmentError(f"step limit must be >= 0, got {step_limit}")
    landscape.check_assignment(start)
    x = list(start)
    f = landscape.fitness(x)
    limit = -1 if step_limit is None else step_limit
    steps: list[StepRecord] | None = [] if record_steps else None
    length = 0
    tie_steps = 0
    ambiguous_steps = 0
    terminal = True
    # Records are made directly, without the named tuple's Python-level __new__.
    new = tuple.__new__
    for k, t, gain, tied, ambiguous in moves(x):
        if length == limit:
            terminal = False
            break
        if steps is not None:
            steps.append(new(StepRecord, (k, x[k], t, f + gain)))
        x[k] = t
        f += gain
        length += 1
        if tied:
            tie_steps += 1
        if ambiguous:
            ambiguous_steps += 1
    return AscentTrace(
        start=tuple(start),
        steps=tuple(steps) if steps is not None else None,
        length=length,
        terminal=terminal,
        policy=policy,
        tie_steps=tie_steps,
        ambiguous_steps=ambiguous_steps,
        final=tuple(x),
        final_fitness=f,
    )


# A walk with at most this many keys in all tabulates its memo (2 MB of slots).
_TABLE_SLOTS = 1 << 18


class _Sparse(dict):
    """A memo too big to tabulate: a dict whose missing keys read as None."""

    __getitem__ = dict.get


class _Blankets:
    """Per-walk best-move entries for every variable of the live assignment `x`.

    An entry is `(best gain, lowest argmax target, #argmax, #improving)` over
    the variable's permitted moves, with gain 0 and target -1 when no move
    improves; `scan(k)` computes k's entry from `_delta`.

    k's entry depends only on its own state and the states of its blanket
    `var_neighbors(k)`.  `keys[k]` is a mixed-radix key over those states,
    shifted past the key spaces (size times blanket sizes) of variables 0..k-1;
    `memo[key]` is what the engine stores for it (an entry for steepest, a
    move record for ordered), or None before the walk visits it.  `memo` is a
    list when the key spaces sum to at most `_TABLE_SLOTS`, else a `_Sparse`.
    After x[k] goes from s to t, the caller adds `(t - s) * w` to `keys[d]`
    for every `(d, w)` in `deps[k]`; those d are the variables whose entry
    may have changed.  Steepest ascent looks up each such d's entry in the
    same pass and keeps the improving entries' gains beside the memo.
    """

    __slots__ = ("scan", "keys", "deps", "memo")

    def __init__(self, landscape, x: list[int]):
        delta = landscape._delta
        adjacent = [d.adjacent for d in landscape.domains]
        n = len(adjacent)

        def scan(k: int) -> tuple[int, int, int, int]:
            s = x[k]
            best_gain = 0
            best_t = -1
            n_best = 0
            improving = 0
            for t in adjacent[k](s):
                g = delta(x, k, s, t)
                if g > 0:
                    improving += 1
                    if g > best_gain:
                        best_gain = g
                        best_t = t
                        n_best = 1
                    elif g == best_gain:
                        n_best += 1
            return best_gain, best_t, n_best, improving

        self.scan = scan
        get_nbrs = landscape.var_neighbors
        sizes = [d.size for d in landscape.domains]
        deps: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        keys = []
        total = 0
        for k, s in enumerate(x):
            deps[k].append((k, 1))
            w = sizes[k]
            for j in get_nbrs(k):
                deps[j].append((k, w))
                s += x[j] * w
                w *= sizes[j]
            keys.append(total + s)
            total += w
        self.keys = keys
        self.deps = deps
        self.memo = [None] * total if total <= _TABLE_SLOTS else _Sparse()


def _steepest_moves(landscape, x: list[int]):
    """Steepest ascent's moves, each taken from the improving set
    `improving`, which maps each variable whose entry improves to its gain."""
    b = _Blankets(landscape, x)
    scan, keys, deps, memo = b.scan, b.keys, b.deps, b.memo
    improving: dict[int, int] = {}
    for k, key in enumerate(keys):
        e = memo[key] = scan(k)
        if e[0] > 0:
            improving[k] = e[0]
    items = improving.items
    pop = improving.pop
    while improving:
        # A plain loop beats max() plus a filter over so few entries.
        g = 0
        for d, v in items():
            if v > g:
                g = v
                k = d
                reaching = 1
            elif v == g:
                reaching += 1
                if d < k:
                    k = d
        e = memo[keys[k]]
        t = e[1]
        diff = t - x[k]
        yield k, t, g, e[2] > 1 or reaching > 1, False
        # One pass adds each key increment and refreshes that variable's entry.
        for d, w in deps[k]:
            key = keys[d] + diff * w
            keys[d] = key
            e = memo[key]
            if e is None:
                e = memo[key] = scan(d)
            if e[0] > 0:
                improving[d] = e[0]
            else:
                pop(d, None)


def steepest_ascent(
    landscape,
    start: Sequence[int],
    step_limit: int | None = None,
    record_steps: bool = True,
) -> AscentTrace:
    """Always move to a maximum-fitness improving neighbor.

    Ties break toward the lowest variable id, then the lowest state id, and
    every tied step is counted.  Stops at a local solution (terminal) or when
    the step limit is reached (non-terminal).
    """
    return _walk(
        landscape, start, step_limit, record_steps, "steepest",
        lambda x: _steepest_moves(landscape, x),
    )


def _ordered_moves(landscape, x: list[int]):
    """Ordered ascent's moves, scanning variable ids upward.  An improving key
    fixes k's state s and target t, so its memo record is the tuple `_walk`
    consumes plus the key increments `(d, (t - s) * w)` for `(d, w)` in
    `deps[k]`; a non-improving key stores `()`.  Every improving record found
    is applied; steepest ascent applies few of its entries, so it keeps plain
    ones."""
    b = _Blankets(landscape, x)
    scan, keys, deps, memo = b.scan, b.keys, b.deps, b.memo
    # After moving k, only the variables in deps[k] can change their improving
    # status, so the scan resumes at the lowest of them.
    back = [min(d for d, _ in dk) for dk in deps]
    n = len(keys)
    k = 0
    while k < n:
        rec = memo[keys[k]]
        if rec:
            move, increments = rec
            yield move
            for d, inc in increments:
                keys[d] += inc
            k = back[k]
        elif rec is None:
            # A miss stores k's record; the next pass replays it.
            g, t, _, improving = scan(k)
            diff = t - x[k]
            memo[keys[k]] = (
                ((k, t, g, False, improving > 1), tuple((d, diff * w) for d, w in deps[k]))
                if t >= 0 else ()
            )
        else:
            k += 1


def ordered_ascent(
    landscape,
    start: Sequence[int],
    step_limit: int | None = None,
    record_steps: bool = True,
) -> AscentTrace:
    """Always move the lowest-id variable that has an improving state.

    The order ≺ is the variable-id order; any other order is the identity
    order of `relabel(instance, order)`, the instance whose variable i is
    variable order[i] (the tests' `relabelling.relabel`).  Among improving
    states of that variable the engine takes the largest gain (lowest state
    id on a tie) and flags the step as ambiguous when more than one
    improving state existed.
    """
    return _walk(
        landscape, start, step_limit, record_steps, "ordered",
        lambda x: _ordered_moves(landscape, x),
    )


def _first_moves(landscape, x: list[int], seed: int):
    randrange = random.Random(seed).randrange
    delta = landscape._delta
    adjacent = [d.adjacent for d in landscape.domains]
    # Each variable's permitted moves; only the moved variable's list changes.
    per_var = [[(k, t) for t in adj(s)] for k, (adj, s) in enumerate(zip(adjacent, x))]
    while True:
        moves = list(chain.from_iterable(per_var))
        m = len(moves)
        # A partial Fisher-Yates shuffle that draws one position at a time and
        # stops at the first improving move.
        for i in range(m):
            j = randrange(i, m)
            k, t = moves[j]
            moves[j] = moves[i]
            g = delta(x, k, x[k], t)
            if g > 0:
                yield k, t, g, False, False
                per_var[k] = [(k, u) for u in adjacent[k](t)]
                break
        else:
            return


def first_improvement_ascent(
    landscape,
    start: Sequence[int],
    step_limit: int | None = None,
    seed: int = 0,
    record_steps: bool = True,
) -> AscentTrace:
    """Take the first improving move found in a seeded random scan.

    Each step scans the permitted moves, listed ascending by (variable,
    state), in a uniformly random order: a Fisher-Yates shuffle drawn from
    `random.Random(seed)` one position at a time, `randrange(i, m)` for the
    i-th move tested out of m, and stopped at the first improving move.  The
    walk stops at a local solution, where all m moves have been tested.  The
    same seed always gives the same walk; because the draw stops early, the
    walk differs from one that shuffles the whole list before scanning it.
    """
    return _walk(
        landscape, start, step_limit, record_steps, "first",
        lambda x: _first_moves(landscape, x, seed),
    )


# perfbench/run.py's environment block reads this gate; no compiled path exists.
def _fast_ordered_applicable(instance) -> bool:
    return False


# -- verifiers ----------------------------------------------------------------


@dataclass(frozen=True)
class AscentViolation:
    """First broken step of a trace: index, reason, optional witness move."""

    step: int
    reason: str
    witness: tuple | None = None


def _improving_move(landscape, x: tuple[int, ...], above: int = 0) -> tuple[int, int, int] | None:
    """The first permitted move of x, ascending by (k, t), whose
    `_reference_delta` exceeds `above`, as `(k, t, change)`, or None."""
    score = landscape._reference_delta
    for k, dom in enumerate(landscape.domains):
        for t in dom.adjacent(x[k]):
            d = score(x, k, t)
            if d > above:
                return k, t, d
    return None


def _checked_walk(
    landscape, trace: AscentTrace
) -> tuple[list[tuple[int, ...]], list[int]] | AscentViolation:
    """`verify_ascent`'s checks; when they pass, the replayed states and
    their fitness values, each recomputed from scratch."""
    if trace.steps is None:
        return AscentViolation(-1, "trace has no recorded steps")
    try:
        landscape.check_assignment(trace.start)
    except Exception as exc:
        return AscentViolation(-1, f"invalid start: {exc}")
    states = [tuple(trace.start)]
    x = list(trace.start)
    for i, rec in enumerate(trace.steps):
        if not (0 <= rec.var < len(landscape.domains)):
            return AscentViolation(i, f"variable {rec.var} out of range")
        if x[rec.var] != rec.src:
            return AscentViolation(
                i, f"step source {rec.src} does not match state {x[rec.var]}"
            )
        if not landscape.domains[rec.var].allows(rec.src, rec.dst):
            return AscentViolation(
                i, f"move {rec.src}->{rec.dst} at variable {rec.var} is not permitted"
            )
        x[rec.var] = rec.dst
        states.append(tuple(x))
    # The replay checked the start and every move, so each state is valid.
    fits = [landscape._fitness(states[0])]
    for i, rec in enumerate(trace.steps):
        f = landscape._fitness(states[i + 1])
        if f != rec.fitness_after:
            return AscentViolation(
                i, f"recorded fitness {rec.fitness_after} != actual {f}"
            )
        if f <= fits[-1]:
            return AscentViolation(i, f"fitness did not strictly increase ({fits[-1]} -> {f})")
        fits.append(f)
    if trace.final != states[-1]:
        return AscentViolation(len(states) - 2, "final assignment does not match replay")
    if trace.terminal:
        move = _improving_move(landscape, states[-1])
        if move is not None:
            return AscentViolation(
                len(states) - 1, "terminal trace does not end at a local solution", witness=move[:2]
            )
    return states, fits


def verify_ascent(landscape, trace: AscentTrace) -> AscentViolation | None:
    """Adjacency, permitted moves, strict fitness increase, terminal condition.

    Every visited state's fitness is recomputed from scratch; the terminal
    state's moves are scored with `_reference_delta`.
    """
    walk = _checked_walk(landscape, trace)
    return walk if isinstance(walk, AscentViolation) else None


def verify_steepest(landscape, trace: AscentTrace) -> AscentViolation | None:
    """Every step must reach the maximum fitness over the full neighborhood.

    The visited states' fitness values are the ones `verify_ascent`'s checks
    recomputed from scratch.  A neighbour beats the chosen state when its
    `_reference_delta`, the change of the constraints on the moved variable
    read from their raw tensors, exceeds the step's gain.
    """
    walk = _checked_walk(landscape, trace)
    if isinstance(walk, AscentViolation):
        return walk
    states, fits = walk
    for i in range(len(states) - 1):
        move = _improving_move(landscape, states[i], fits[i + 1] - fits[i])
        if move is not None:
            k, t, d = move
            return AscentViolation(
                i,
                f"neighbor (var {k} -> state {t}) has fitness {fits[i] + d} "
                f"> chosen {fits[i + 1]}",
                witness=(k, t),
            )
    return None


def verify_ordered(landscape, trace: AscentTrace) -> AscentViolation | None:
    """No variable with a lower id than the moved one may have had an
    improving move: ≺ is the variable-id order, as in `ordered_ascent`, and a
    walk in another order is checked on `relabel(instance, order)`.

    The visited states are checked as in `verify_ascent`; a state's first
    improving move, scored with `_reference_delta` from the raw tensors, must
    not be on a variable below the step's.
    """
    walk = _checked_walk(landscape, trace)
    if isinstance(walk, AscentViolation):
        return walk
    states = walk[0]
    for i, rec in enumerate(trace.steps):
        move = _improving_move(landscape, states[i])
        if move is not None and move[0] < rec.var:
            j, u, _ = move
            return AscentViolation(
                i,
                f"earlier variable {j} had an improving move to state {u}",
                witness=(j, u),
            )
    return None


# -- trace serialization --------------------------------------------------------

CSV_HEADER = ("step", "var", "from", "to", "fitness")


def trace_to_csv(trace: AscentTrace, landscape, out: IO[str]) -> None:
    """One row per step; variable ids 0-based, states as labels."""
    if trace.steps is None:
        raise ValueError("trace was recorded in summary mode; nothing to export")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i, rec in enumerate(trace.steps):
        states = landscape.domains[rec.var].states
        writer.writerow((i, rec.var, states[rec.src], states[rec.dst], rec.fitness_after))


def trace_to_json(trace: AscentTrace, landscape) -> dict:
    """JSON mirror of the trace, including policy and the tie/ambiguity flags."""
    steps = None
    if trace.steps is not None:
        steps = []
        for rec in trace.steps:
            states = landscape.domains[rec.var].states
            steps.append(
                {
                    "var": rec.var,
                    "from": states[rec.src],
                    "to": states[rec.dst],
                    "fitness": rec.fitness_after,
                }
            )
    return {
        "start": list(trace.start),
        "steps": steps,
        "length": trace.length,
        "terminal": trace.terminal,
        "policy": trace.policy,
        "tie_steps": trace.tie_steps,
        "ambiguous_steps": trace.ambiguous_steps,
        "final": list(trace.final),
        "final_fitness": trace.final_fitness,
    }
