"""Builders for the three instance families and the transforms between them;
what the families claim is checked in `verification`, not here.

The base family ("2by3") is a path of binary constraints over domains that
alternate between two and three states; its geometric weight schedule makes
the minimal-index improving move always gain exactly 1, so an ordered ascent
from the all-A start walks through every fitness value up to the maximum.

The padded family ("3by5") is `pad(build_2by3(n))`.  `pad` works on any
instance: it inserts an intermediate state between every pair of adjacent
states and pads the fitness so that a steepest ascent retraces the ordered
ascent at twice the length.  The Boolean family ("bool-pw4") re-encodes the
expanded chain with one-hot/two-hot bit collections and splits the wide
minimisation constraints so that every constraint has arity at most 5 while
the constraint graph keeps pathwidth 4.

Both chain builders close the chain the same way: past the last position n
lies a phantom position n+1 that has no variables and is pinned to A (its
only code is the empty one, for state A).  A constraint that reaches across
to position k+1 is written once; at k = n it reads the phantom and so
restricts the interior table to its A column, and its label ends in "-A".

Nearly all of what position k contributes does not depend on n: its
variables, labels and scopes, each table at unit weight, and in bool-pw4 its
bit collection, bit names and decomposition bags.  Each chain builder
therefore reads the rows of position k from a process-wide cache keyed on k
and on whether k closes the chain, and only multiplies them by what does
depend on n (the bool-pw4 scale 2n+1, the bonus n-k+1 and the penalty
-(2n+1)*f_max(n)), so building every n up to 200 makes each position's rows
once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from functools import cache
from typing import Iterator, NamedTuple, Sequence

from .ascent import AscentTrace, StepRecord
from .model import (
    BuildError,
    DomainSpec,
    Edge,
    PathDecomposition,
    ValuedConstraint,
    VcspInstance,
    _strides,
    check_assignment_against,
)

# The two alternating chain tables.  CHAIN_32 is indexed (3-state row,
# 2-state column); CHAIN_23 is indexed (2-state row, 3-state column).
CHAIN_32 = ((0, 2), (1, 1), (2, 0))
CHAIN_23 = ((0, 1, 0), (1, 0, 1))

# The odd-position min profile: min over h of (m+1)·CHAIN_32[u][h] +
# (2m+3)·CHAIN_23[h][v], divided by m+1, for flanking states u and v.  It is
# the same at every chain weight m (tests/test_tables.py), so m = 1 gives it.
ODD_MIN = tuple(
    tuple(min(2 * CHAIN_32[u][h] + 5 * CHAIN_23[h][v] for h in (0, 1)) // 2 for v in range(3))
    for u in range(3)
)


def even_min_ab(m: int) -> tuple[tuple[int, int], ...]:
    """Min profile for the A<->B intermediate of an even position, weight m."""
    return ((0, 2 * m + 1), (m, m + 1))


def even_min_bc(m: int) -> tuple[tuple[int, int], ...]:
    """Min profile for the B<->C intermediate of an even position, weight m."""
    return ((2 * m + 1, 0), (m + 1, m))


# Rank-1 split used by the Boolean dual coding: for each of the two 2-bit
# codes that stand for the odd intermediate, the left factor keys on the
# left flank and the right factor keys on the right flank.  Their sum per
# code, maximised over the two codes, reproduces ODD_MIN entrywise.
DUAL_COL = {(0, 0): (0, 1, 2), (1, 1): (2, 1, 0)}
DUAL_ROW = {(0, 0): (0, -2, 0), (1, 1): (-2, 0, -2)}


def weight_m(k: int) -> int:
    """The k-th chain weight: doubles-plus-three recurrence, closed form 2^(k+1)-3."""
    if k < 1:
        raise BuildError(f"weight index must be >= 1, got {k}")
    return 2 ** (k + 1) - 3


def f_max(n: int) -> int:
    """Maximum attainable fitness of the length-n chain instance."""
    if n < 2:
        raise BuildError(f"chain length must be >= 2, got {n}")
    h = n // 2
    if n % 2 == 0:
        return 3 * 2 ** (h + 2) - 7 * h - 12
    return 2 ** (h + 4) - 7 * h - 15


def _chain_link(k: int) -> tuple[str, int, tuple[tuple[int, ...], ...]]:
    """Label stem, weight, and table of the constraint between positions k, k+1.

    Positions are 1-based.  Odd positions carry the 2-state side on the left
    (CHAIN_23 with weight m_{l+1}); even positions carry the 3-state side on
    the left (CHAIN_32 with weight m_l + 1).
    """
    if k % 2 == 1:
        j = (k + 1) // 2
        return f"M{j}", weight_m(j), CHAIN_23
    j = k // 2
    return f"L{j}", weight_m(j) + 1, CHAIN_32


def _finish(instance: VcspInstance, what: str) -> VcspInstance:
    defects = instance.validate()
    if defects:
        raise BuildError(f"{what} produced a defective instance: " + "; ".join(defects))
    return instance


TWO_STATE = DomainSpec(("A", "B"), frozenset({(0, 1)}))
THREE_STATE = DomainSpec(("A", "B", "C"), frozenset({(0, 1), (1, 2)}))


def _base_domain(k: int) -> DomainSpec:
    """Position k's base domain: {A, B} at odd k, {A, B, C} at even k."""
    return TWO_STATE if k % 2 == 1 else THREE_STATE


def _chain_positions(n: int) -> range:
    """Positions 1..n of a chain of length n."""
    if n < 2:
        raise BuildError(f"need n >= 2, got {n}")
    return range(1, n + 1)


class _Read(NamedTuple):
    """How a constraint reads some variables: their domain sizes and the codes
    over them that it keys on, each with its index along the table axis it
    selects.  Equal reads hash alike, so tables over them are built once."""

    sizes: tuple[int, ...]
    codes: tuple[tuple[tuple[int, ...], int], ...]


# The variables of a position with a read of them.
_Part = tuple[tuple[int, ...], _Read]


@dataclass(frozen=True)
class _Position:
    """A chain position as its constraints read it: its variables, the read of
    its main states (code -> base state id), its name in labels, and the label
    suffix of a constraint that closes the chain on it."""

    vars: tuple[int, ...]
    main: _Read
    name: str
    pin: str = ""

    def at(self, read: _Read | None = None) -> _Part:
        """Its variables with `read`, by default with its main codes."""
        return self.vars, read or self.main

    def part(self, lo: int, hi: int) -> _Part:
        """Its variables lo..hi-1 only, with its main codes cut to them."""
        return self.vars[lo:hi], _cut(self.main, lo, hi)


@cache
def _cut(read: _Read, lo: int, hi: int) -> _Read:
    """`read` through its variables lo..hi-1 only."""
    codes = {code[lo:hi]: s for code, s in read.codes}
    return _Read(read.sizes[lo:hi], tuple(codes.items()))


_PHANTOM = _Position((), _Read((), (((), 0),)), "A", "-A")


@cache
def _state_position(k: int) -> _Position:
    """Position k of the 2by3 chain: its one variable, read by its states."""
    size = _base_domain(k).size
    return _Position((k - 1,), _Read((size,), tuple(((s,), s) for s in range(size))), str(k))


@cache
def _flat_index(sizes: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{states: row-major position} over a scope with these domain sizes;
    shared between calls, so read only."""
    return {states: i for i, states in enumerate(itertools.product(*map(range, sizes)))}


# A unit table as its size and its nonzero entries (row-major position, value).
_Unit = tuple[int, tuple[tuple[int, int], ...]]


@cache
def _unit(reads: tuple[_Read, ...], table: tuple) -> _Unit:
    """The row-major tensor over `reads`, in order, that holds
    table[i1][i2]... at each combination of their codes (i1, i2, ... being the
    codes' indices) and 0 elsewhere."""
    index = _flat_index(sum((r.sizes for r in reads), ()))
    entries = []
    for combo in itertools.product(*(r.codes for r in reads)):
        value = table
        for _, i in combo:
            value = value[i]
        if value:
            entries.append((index[sum((code for code, _ in combo), ())], value))
    return len(index), tuple(entries)


# A row is one constraint of a chain position before the chain's length n is
# known: its scope, its unit table, its label, its weight, and the factor of
# the build that scales it too.  The factors are the landscape scale (1 for
# 2by3, 2n+1 otherwise), the position's bonus n-k+1 and the
# adjacent-intermediate penalty -(2n+1)*f_max(n).
_SCALE, _BONUS, _PENALTY = range(3)
_Row = tuple[tuple[int, ...], _Unit, str, int, int]


def _row(
    over: Sequence[_Part], table: tuple, label: str, weight: int = 1, factor: int = _SCALE
) -> _Row:
    """The row over the parts `over`, in order, whose unit table is `_unit`
    of `table` over their reads."""
    scope = ()
    for part in over:
        scope += part[0]
    return scope, _unit(tuple([read for _, read in over]), table), label, weight, factor


def _link_row(k: int, a: _Position, b: _Position, mark: str) -> _Row:
    """The chain table between position k, read as `a`, and the next, read as
    `b`, at its weight; zero off the main codes."""
    stem, w, table = _chain_link(k)
    return _row((a.at(), b.at()), table, f"{stem}{mark}@{a.name}-{b.name}", w)


class _Rows(NamedTuple):
    """What position k adds to every chain of length n >= k, given only
    whether it closes the chain (k == n), so one is built per (k, k == n) and
    shared by all builds: its rows in constraint groups and, in bool-pw4, its
    bit collection, its bit names and the decomposition bags ending on it."""

    groups: tuple[tuple[_Row, ...], ...]
    collection: CollectionCodec | None = None
    names: tuple[str, ...] = ()
    bags: tuple[frozenset[int], ...] = ()


def _in_order(cells: Sequence[_Rows]) -> Iterator[tuple[tuple[_Row, ...], ...]]:
    """A chain's rows in constraint order: per group, position k's rows for k = 1..n."""
    return zip(*(cell.groups for cell in cells))


def _assemble(
    cells: Sequence[_Rows], scale: int, penalty: int = 0
) -> tuple[ValuedConstraint, ...]:
    """A chain's constraints `_in_order`, each unit table times its weight and factor."""
    n = len(cells)
    constraints = []
    for column in _in_order(cells):
        for k, rows in enumerate(column, 1):
            factors = (scale, n - k + 1, penalty)
            for scope, (size, entries), label, weight, factor in rows:
                f = factors[factor] * weight
                values = [0] * size
                for i, v in entries:
                    values[i] = f * v
                constraints.append(ValuedConstraint(scope, values, label))
    return tuple(constraints)


@cache
def _2by3_rows(k: int, closing: bool) -> _Rows:
    """Position k's one row: the chain table to the next position."""
    a = _state_position(k)
    b = _PHANTOM if closing else _state_position(k + 1)
    return _Rows(((_link_row(k, a, b, ""),),))


def build_2by3(n: int) -> VcspInstance:
    """The alternating 2-state/3-state chain with geometric weights.

    Odd positions hold {A, B}; even positions hold {A, B, C} with moves only
    between A-B and B-C.  Consecutive positions share a weighted chain table.
    """
    domains = tuple(map(_base_domain, _chain_positions(n)))
    constraints = _assemble([_2by3_rows(k, k == n) for k in _chain_positions(n)], 1)
    inst = VcspInstance(domains, constraints, family="2by3", base_n=n)
    return _finish(inst, f"build_2by3({n})")


# -- domain expansion ---------------------------------------------------------


@dataclass(frozen=True)
class ExpandedDomain:
    """A base domain plus one intermediate state per transition pair.

    Main states keep their base ids; intermediates are appended in sorted
    pair order, so state `size_base + i` stands for `pairs[i]`.
    """

    base: DomainSpec
    pairs: tuple[tuple[int, int], ...]
    spec: DomainSpec

    @classmethod
    @cache
    def of(cls, base: DomainSpec) -> "ExpandedDomain":
        pairs = tuple(sorted(base.transitions))
        labels = list(base.states)
        transitions = set()
        for i, (u, v) in enumerate(pairs):
            sid = base.size + i
            labels.append(f"s{base.states[u]}{base.states[v]}")
            transitions.add((u, sid))
            transitions.add((v, sid))
        return cls(base, pairs, DomainSpec(tuple(labels), frozenset(transitions)))

    @property
    def n_main(self) -> int:
        return self.base.size

    def sigma_id(self, u: int, v: int) -> int:
        pair = (u, v) if u < v else (v, u)
        return self.base.size + self.pairs.index(pair)

    def pair_of(self, s: int) -> tuple[int, int]:
        return self.pairs[s - self.base.size]


class ExpandedLandscape:
    """Fitness over expanded domains, defined directly from the base instance.

    One rule values every state: (2n+1) times the smallest base fitness over
    its completions (each intermediate replaced by either of its flanking
    main states; with none, the state itself), plus the positional bonus
    n-k+1 of a lone intermediate at variable k (1-based; another ascent order
    is this order on a relabelled base) whose two completions differ.
    `_completions` lists a state's completions' base fitness and `_padded`
    applies the rule to them; `_fitness` and `padding_defect` read both, and
    `simulate_ascent` applies `_padded` to the completions it evaluates.  The
    padding check bounds a state with two intermediates j and k by `_ceiling`:
    its value plus both bonuses.

    Each base completion is evaluated once per landscape: `_completions`
    keeps a dict from each base assignment met so far to its base fitness.
    The dict grows to at most the base assignment space, which the landscape
    only meets at small n.  `_fitness` and `_padding_defect` do not check
    their assignment; its completions, valid when it is, are evaluated by the
    base's `_fitness`.
    """

    def __init__(self, base: VcspInstance):
        self.base = base
        self.doms = tuple(map(ExpandedDomain.of, base.domains))
        n = base.n_vars
        self.scale = 2 * n + 1
        self.domains = tuple(d.spec for d in self.doms)
        self._sizes = tuple(d.size for d in self.domains)
        self._n_main = tuple(d.n_main for d in self.doms)
        # bonus[k] = n - (1-based position of k) + 1
        self.bonus = tuple(n - k for k in range(n))
        self._base_fitnesses: dict[tuple[int, ...], int] = {}

    def check_assignment(self, x: Sequence[int]) -> None:
        check_assignment_against(self._sizes, x)

    def _intermediates(self, x: Sequence[int]) -> list[int]:
        return [k for k, (s, n_main) in enumerate(zip(x, self._n_main)) if s >= n_main]

    def _completions(self, x: Sequence[int], inter: Sequence[int]) -> list[int]:
        """The base fitness of each completion of x over its intermediates
        `inter`, in `itertools.product` order of their flanking pairs."""
        y = list(x)
        fs = []
        for combo in itertools.product(*(self.doms[k].pair_of(x[k]) for k in inter)):
            for k, w in zip(inter, combo):
                y[k] = w
            key = tuple(y)
            f = self._base_fitnesses.get(key)
            if f is None:
                f = self._base_fitnesses[key] = self.base._fitness(key)
            fs.append(f)
        return fs

    def _padded(self, inter: Sequence[int], fs: Sequence[int]) -> int:
        """The padded value of a state with intermediates `inter` whose
        completions have base fitness `fs`."""
        if len(inter) == 1 and fs[0] != fs[1]:
            return self.bonus[inter[0]] + self.scale * min(fs)
        return self.scale * min(fs)

    def fitness(self, x: Sequence[int]) -> int:
        self.check_assignment(x)
        return self._fitness(x)

    def _fitness(self, x: Sequence[int]) -> int:
        """`fitness` of an assignment the caller has already validated."""
        inter = self._intermediates(x)
        return self._padded(inter, self._completions(x, inter))

    def _ceiling(self, x: Sequence[int], inter: list[int]) -> int:
        """The two-intermediate ceiling; anything at or below it keeps such
        states off a steepest ascent."""
        j, k = inter
        return self.bonus[j] + self.bonus[k] + self._padded(inter, self._completions(x, inter))

    def padding_defect(self, x: Sequence[int], got: int) -> dict | None:
        """How a padded value `got` at `x` breaks the padding rules, or None.

        With at most one intermediate, `got` must equal the padded fitness;
        with exactly two it must stay at or below the two-intermediate
        ceiling; with more, any value is allowed.
        """
        self.check_assignment(x)
        return self._padding_defect(x, got)

    def _padding_defect(self, x: Sequence[int], got: int) -> dict | None:
        """`padding_defect` of an assignment the caller has already validated."""
        inter = self._intermediates(x)
        if len(inter) <= 1:
            rule, bound = "expected", self._padded(inter, self._completions(x, inter))
            broken = got != bound
        elif len(inter) == 2:
            rule, bound = "ceiling", self._ceiling(x, inter)
            broken = got > bound
        else:
            return None
        if not broken:
            return None
        return {"assignment": list(x), "intermediates": len(inter), "got": got, rule: bound}


def simulate_ascent(trace: AscentTrace, landscape: ExpandedLandscape) -> AscentTrace:
    """Double a base ascent into main/intermediate alternation.

    Every base step u->v at variable k becomes two steps through the
    intermediate state between u and v, with fitness taken from the expanded
    landscape's one rule (`ExpandedLandscape._padded`).  The base fitness of
    each main state is computed from scratch once, and it gives the padded
    fitness of the main state and of the intermediate step into the next one.
    The start and each step's variable, source state and transition are
    checked, so every state reached is valid.
    """
    if trace.steps is None:
        raise BuildError("simulate_ascent needs a trace with recorded steps")
    base, scale = landscape.base, landscape.scale
    base.check_assignment(trace.start)
    x = list(trace.start)
    f_before = base._fitness(x)
    steps: list[StepRecord] = []
    for i, (k, u, v, _) in enumerate(trace.steps):
        if not (0 <= k < len(x) and x[k] == u):
            raise BuildError(f"step {i} (variable {k}, {u} -> {v}) does not start from the walk")
        if not base.domains[k].allows(u, v):
            raise BuildError(f"step {i} (variable {k}, {u} -> {v}) is not a permitted move")
        sid = landscape.doms[k].sigma_id(u, v)
        x[k] = v
        f_after = base._fitness(x)
        steps.append(StepRecord(k, u, sid, landscape._padded((k,), (f_before, f_after))))
        steps.append(StepRecord(k, sid, v, scale * f_after))
        f_before = f_after
    final = tuple(x)
    return AscentTrace(
        start=tuple(trace.start),
        steps=tuple(steps),
        length=2 * trace.length,
        terminal=trace.terminal,
        policy="simulated",
        tie_steps=0,
        ambiguous_steps=0,
        final=final,
        final_fitness=scale * f_before,
    )


# -- the padding construction ------------------------------------------------


def pad(base: VcspInstance) -> VcspInstance:
    """The padded instance of `base`: steepest ascent on it walks an ordered
    ascent of `base` in variable order at twice the length, and the ordered
    engine's own walk wherever that walk has no ambiguous step.

    Each domain gains one intermediate state per transition pair.  Each base
    constraint is shifted by its minimum (which changes no walk) and lifted
    at 2n+1 times its values under its own label, 0 once a variable in its
    scope is intermediate.  Each variable k with an intermediate gets a
    constraint "P@<k's name>" over k and its neighbours, nonzero only where k
    is intermediate between u and v and every neighbour is main: there it is
    (2n+1)*min(f(u), f(v)), plus k's bonus n-k when f(u) != f(v), f summing
    the shifted constraints on k.  So wherever at most one variable is
    intermediate, the fitness is `ExpandedLandscape`'s on the shifted base.
    """
    n = base.n_vars
    scale = 2 * n + 1
    doms = tuple(map(ExpandedDomain.of, base.domains))
    sizes = tuple(d.spec.size for d in doms)

    def spread(scope: tuple[int, ...], over: Sequence[int], of: tuple[int, ...]) -> list[int]:
        """Where each all-main state of `scope`, in row-major order, lies in a
        row-major tensor over `of` (domain sizes `over`), which ignores the rest."""
        strides = dict(_strides(of, over))
        at = [0]
        for var in scope:
            offsets = [s * strides.get(var, 0) for s in range(base.sizes[var])]
            at = [i + o for i in at for o in offsets]
        return at

    constraints = []
    on: list[list] = [[] for _ in doms]  # per variable: (scope, shifted values)
    for c in base.constraints:
        low = min(c.values)
        shifted = [v - low for v in c.values]
        values = [0] * math.prod(sizes[var] for var in c.scope)
        for i, v in zip(spread(c.scope, sizes, c.scope), shifted):
            values[i] = scale * v
        constraints.append(ValuedConstraint(c.scope, values, c.label))
        for k in c.scope:
            on[k].append((c.scope, shifted))
    for k, dom in enumerate(doms):
        if not dom.pairs:
            continue
        scope = (k,) + base.var_neighbors(k)
        f = [0] * math.prod(base.sizes[var] for var in scope)
        for of, shifted in on[k]:
            f = [a + shifted[i] for a, i in zip(f, spread(scope, base.sizes, of))]
        # k varies slowest: its state w is run w of `rest`, its states `step` apart.
        at = spread(scope, sizes, scope)
        rest, step = len(f) // dom.n_main, math.prod(sizes[var] for var in scope[1:])
        values = [0] * step * sizes[k]
        for r in range(rest):
            for i, (u, v) in enumerate(dom.pairs, dom.n_main):
                fu, fv = f[u * rest + r], f[v * rest + r]
                values[at[r] + i * step] = scale * min(fu, fv) + (n - k if fu != fv else 0)
        constraints.append(ValuedConstraint(scope, values, f"P@{base.var_names[k]}"))
    domains = tuple(d.spec for d in doms)
    return VcspInstance(domains, tuple(constraints), base_n=base.base_n, var_names=base.var_names)


def build_3by5(n: int) -> VcspInstance:
    """The padded 2by3 chain, over alternating 3-state and 5-state domains."""
    inst = replace(pad(build_2by3(n)), family="3by5")
    return _finish(inst, f"build_3by5({n})")


# -- Boolean encodings --------------------------------------------------------

BIT = DomainSpec(("0", "1"), frozenset({(0, 1)}))


@dataclass(frozen=True)
class CollectionCodec:
    """Bit block for one expanded variable: code-to-state table both ways."""

    width: int
    offset: int
    state_labels: tuple[str, ...]
    codes: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_decode", dict(self.codes))
        canonical: dict[int, tuple[int, ...]] = {}
        for code, sid in self.codes:
            canonical.setdefault(sid, code)
        object.__setattr__(self, "_encode", canonical)

    def decode(self, code: tuple[int, ...]) -> int | None:
        """State id for a code, or None for junk."""
        return self._decode.get(code)  # type: ignore[attr-defined]

    def encode(self, sid: int) -> tuple[int, ...]:
        return self._encode[sid]  # type: ignore[attr-defined]


@dataclass(frozen=True)
class BooleanCodec:
    """Per-collection codecs over a flat bit vector."""

    collections: tuple[CollectionCodec, ...]

    def split(self, bits: Sequence[int]) -> list[tuple[int, ...]]:
        out = []
        for c in self.collections:
            out.append(tuple(bits[c.offset : c.offset + c.width]))
        return out

    def encode(self, states: Sequence[int]) -> tuple[int, ...]:
        bits: list[int] = []
        for c, sid in zip(self.collections, states):
            bits.extend(c.encode(sid))
        return tuple(bits)

    def decode_states(self, bits: Sequence[int]) -> list[int | None]:
        """Per collection: its state id, or None for junk."""
        return [c.decode(code) for c, code in zip(self.collections, self.split(bits))]

    def decode_walk(self, trace: AscentTrace) -> Iterator[list[int | None]]:
        """`decode_states` of every assignment a recorded walk visits, start
        first, one fresh list at a time: the start in full, then per step only
        the collection that holds the moved bit.  Refuses a summary-mode trace."""
        if trace.steps is None:
            raise ValueError("trace was recorded in summary mode; no steps to replay")
        # {bit: index of the collection holding it}
        owner = {}
        for i, c in enumerate(self.collections):
            for bit in range(c.offset, c.offset + c.width):
                owner[bit] = i
        bits = list(trace.start)

        def step(states: list[int | None], rec: StepRecord) -> list[int | None]:
            bits[rec.var] = rec.dst
            states = states.copy()
            i = owner.get(rec.var)
            if i is not None:
                c = self.collections[i]
                states[i] = c.decode(tuple(bits[c.offset : c.offset + c.width]))
            return states

        return itertools.accumulate(trace.steps, step, initial=self.decode_states(bits))

    def to_json(self) -> dict:
        return {
            "collections": [
                {
                    "bits": c.width,
                    "codes": {
                        "".join(map(str, code)): c.state_labels[sid]
                        for code, sid in c.codes
                    },
                }
                for c in self.collections
            ]
        }


def decode_assignment(codec: BooleanCodec, bits: Sequence[int]) -> list[tuple[str, str]]:
    """Human-readable decode: per collection (state label or 'junk', code string)."""
    out = []
    for coll, code in zip(codec.collections, codec.split(bits)):
        sid = coll.decode(code)
        label = coll.state_labels[sid] if sid is not None else "junk"
        out.append((label, "".join(map(str, code))))
    return out


# -- the arity-5 pathwidth-4 Boolean instance ---------------------------------


def _pw4_codes(dom: ExpandedDomain) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One-hot main and two-hot intermediate codes; an odd (2-bit) collection
    accepts both 00 and 11 for its intermediate state."""
    width = dom.n_main
    codes = []
    for u in range(width):
        code = tuple(1 if i == u else 0 for i in range(width))
        codes.append((code, u))
    for i, (u, v) in enumerate(dom.pairs):
        code = tuple(1 if j in (u, v) else 0 for j in range(width))
        codes.append((code, width + i))
    if width == 2:
        codes.append(((0, 0), width))
    return tuple(codes)


# The codes of each expanded chain domain, keyed by its base domain.
_PW4_CODES = {d: _pw4_codes(ExpandedDomain.of(d)) for d in (TWO_STATE, THREE_STATE)}


# The intermediate codes that the constraints key on: the two dual codes of
# an odd collection, and sAB then sBC of an even one.
_DUAL = _Read((2, 2), (((0, 0), 0), ((1, 1), 1)))
_SIGMA = _Read((2, 2, 2), (((1, 1, 0), 0), ((0, 1, 1), 1)))
# The split minimisation parts as tables over (left flank, dual code) and
# (dual code, right flank).
_DUAL_LEFT = tuple(zip(*(DUAL_COL[code] for code, _ in _DUAL.codes)))
_DUAL_RIGHT = tuple(DUAL_ROW[code] for code, _ in _DUAL.codes)


@cache
def _pw4_collection(k: int) -> CollectionCodec:
    """Position k's bit collection, after the 2 + 3 bits of each earlier pair
    of positions."""
    dom = ExpandedDomain.of(_base_domain(k))
    offset = 5 * ((k - 1) // 2) + 2 * ((k - 1) % 2)
    return CollectionCodec(dom.n_main, offset, dom.spec.states, _PW4_CODES[dom.base])


@cache
def _pw4_position(k: int) -> _Position:
    """Position k's bits, read through their one-hot main codes."""
    c = _pw4_collection(k)
    main = _Read((2,) * c.width, tuple((code, s) for code, s in c.codes if s < c.width))
    return _Position(tuple(range(c.offset, c.offset + c.width)), main, f"G{k}")


@cache
def _pw4_rows(k: int, closing: bool) -> _Rows:
    """Position k's rows in four groups: the lifted chain table to the next
    collection (zero off the one-hot main codes); at odd k the unary dual-code
    bonus and the split minimisation parts; at even k the unary intermediate
    bonus and the flank-bit minimisation constraint; the adjacent-intermediate
    penalty to the next collection."""
    me = _pw4_position(k)
    right = _PHANTOM if closing else _pw4_position(k + 1)
    l = k // 2
    odd, even, bags = [], [], []
    if k > 1:
        left = _pw4_position(k - 1)
        bags.append(frozenset(left.vars + me.vars))
    if k % 2 == 1:
        inter, next_inter = _DUAL, _SIGMA
        odd.append(_row((me.at(_DUAL),), (1, 1), f"U~{l}@{me.name}", factor=_BONUS))
        if l >= 1:
            w = weight_m(l) + 1
            label = f"T~{l}-@{left.name}-{me.name}"
            odd.append(_row((left.at(), me.at(_DUAL)), _DUAL_LEFT, label, w))
            label = f"T~{l}+@{me.name}-{right.name}"
            odd.append(_row((me.at(_DUAL), right.at()), _DUAL_RIGHT, label, w))
    else:
        inter, next_inter = _SIGMA, _DUAL
        # The left flank is the second bit of the previous collection (0 reads
        # A, 1 reads B); the right flank is the first bit of the next one (1
        # reads A, 0 reads B), so consecutive scopes stay disjoint.  The
        # decomposition puts this scope right after the pair ending on it.
        even.append(_row((me.at(_SIGMA),), (1, 1), f"V~{l}@{me.name}", factor=_BONUS))
        flank = (left.part(1, 2), me.at(_SIGMA), right.part(0, 1))
        # table[u][i][v]: the sAB (i = 0) and sBC (i = 1) profiles side by side
        table = tuple(zip(even_min_ab(weight_m(l)), even_min_bc(weight_m(l))))
        even.append(_row(flank, table, f"S~{l}@{me.name}{right.pin}"))
        bags.append(frozenset(even[-1][0]))
    penalty = ()
    if not closing:
        parts = (me.at(inter), right.at(next_inter))
        penalty = (_row(parts, ((1, 1), (1, 1)), f"J~@{me.name}{right.name}", factor=_PENALTY),)
    groups = ((_link_row(k, me, right, "~"),), tuple(odd), tuple(even), penalty)
    names = tuple(f"{me.name}.{b}" for b in range(len(me.vars)))
    return _Rows(groups, _pw4_collection(k), names, tuple(bags))


def build_boolean_pw4(
    n: int,
) -> tuple[VcspInstance, BooleanCodec, PathDecomposition, tuple[int, ...]]:
    """Boolean instance with max arity 5 and a width-4 canonical decomposition.

    Collections of 2 bits (odd positions) and 3 bits (even positions) encode
    the expanded chain states one-hot/two-hot; the odd intermediate is reached
    through either 00 or 11.  The wide odd-position minimisation constraint is
    split into a left part (keyed on the left flank collection and the dual
    code) and a right part (keyed on the dual code and the right flank), whose
    per-code sums max out to the exact minimisation profile.  The even
    minimisation constraint reads one flank bit from each neighbouring 2-bit
    collection; a heavy penalty on adjacent intermediate codes keeps that
    flank shortcut from ever paying off.  State-valued tables carry the (2n+1)
    landscape scale; the per-position unary bonuses do not.  The canonical
    decomposition lists the scopes of consecutive collection pairs in path
    order, each even position's flank scope right after the pair that ends on
    it; every bag has at most 5 bits.
    """
    cells, n_bits, decomp = _pw4_chain(n)
    scale = 2 * n + 1
    constraints = _assemble(cells, scale, -scale * f_max(n))
    codec = BooleanCodec(tuple(c.collection for c in cells))
    inst = VcspInstance(
        (BIT,) * n_bits,
        constraints,
        family="bool-pw4",
        base_n=n,
        var_names=tuple(itertools.chain.from_iterable(c.names for c in cells)),
    )
    inst = _finish(inst, f"build_boolean_pw4({n})")
    return inst, codec, decomp, codec.encode((0,) * n)


def boolean_pw4_hypergraph(n: int) -> tuple[int, tuple[Edge, ...], PathDecomposition]:
    """`build_boolean_pw4(n)`'s bit count, (scope, label) per constraint and
    decomposition, read from its rows in its order without filling a value."""
    cells, n_bits, decomp = _pw4_chain(n)
    rows = itertools.chain.from_iterable(itertools.chain.from_iterable(_in_order(cells)))
    edges = tuple(map(operator.itemgetter(0, 2), rows))  # each row's scope and label
    return n_bits, edges, decomp


def _pw4_chain(n: int) -> tuple[list[_Rows], int, PathDecomposition]:
    cells = [_pw4_rows(k, k == n) for k in _chain_positions(n)]
    bags = tuple(itertools.chain.from_iterable(c.bags for c in cells))
    last = cells[-1].collection
    return cells, last.offset + last.width, PathDecomposition(bags)


# -- canonical starts ---------------------------------------------------------

FAMILIES = ("2by3", "3by5", "bool-pw4")


def canonical_start(family: str, n: int) -> tuple[int, ...]:
    """The all-A start of each family (bit-encoded for the Boolean family)."""
    if family in ("2by3", "3by5"):
        return (0,) * len(_chain_positions(n))
    if family == "bool-pw4":
        codec = BooleanCodec(tuple(map(_pw4_collection, _chain_positions(n))))
        return codec.encode((0,) * n)
    raise BuildError(f"unknown family {family!r}; expected one of {FAMILIES}")


def build_family(family: str, n: int) -> VcspInstance:
    """Build any family by name, discarding Boolean sidecars."""
    if family == "2by3":
        return build_2by3(n)
    if family == "3by5":
        return build_3by5(n)
    if family == "bool-pw4":
        return build_boolean_pw4(n)[0]
    raise BuildError(f"unknown family {family!r}; expected one of {FAMILIES}")
