"""Builders for the three instance families and the transforms between them.

The base family ("2by3") is a path of binary constraints over domains that
alternate between two and three states; its geometric weight schedule makes
the minimal-index improving move always gain exactly 1, so an ordered ascent
from the all-A start walks through every fitness value up to the maximum.

The expanded family ("3by5") inserts an intermediate state between every pair
of adjacent states and rebuilds the fitness so that a steepest ascent retraces
the ordered ascent at twice the length.  The Boolean family ("bool-pw4")
re-encodes the expanded domains with one-hot/two-hot bit collections and
splits the wide minimisation constraints so that every constraint has arity
at most 5 while the constraint graph keeps pathwidth 4.

Every family closes its chain the same way: past the last position n lies a
phantom position n+1 that has no variables and is pinned to A (its only code
is the empty one, for state A).  A constraint that reaches across to position
k+1 is written once; at k = n it reads the phantom and so restricts the
interior table to its A column, and its label ends in "-A".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .ascent import AscentTrace, StepRecord
from .model import (
    BuildError,
    DomainSpec,
    PathDecomposition,
    ValuedConstraint,
    VcspInstance,
    check_assignment_against,
    neighbors_of,
)

# The two alternating chain tables.  CHAIN_32 is indexed (3-state row,
# 2-state column); CHAIN_23 is indexed (2-state row, 3-state column).
CHAIN_32 = ((0, 2), (1, 1), (2, 0))
CHAIN_23 = ((0, 1, 0), (1, 0, 1))

# Unit-weight profile of min over the middle 2-state variable of a
# (3-state, 2-state, 3-state) window; rows/columns are the flanking states.
ODD_MIN = ((0, 2, 0), (1, 1, 1), (2, 0, 2))


def even_min_ab(m: int) -> tuple[tuple[int, int], ...]:
    """Min profile for the A<->B intermediate of an even position, weight m."""
    return ((0, 2 * m + 1), (m, m + 1))


def even_min_bc(m: int) -> tuple[tuple[int, int], ...]:
    """Min profile for the B<->C intermediate of an even position, weight m."""
    return ((2 * m + 1, 0), (m + 1, m))


# Rank-1 split of ODD_MIN used by the Boolean dual coding: for each of the
# two 2-bit codes that stand for the odd intermediate, the left factor keys
# on the left flank and the right factor keys on the right flank.  Their sum
# per code, maximised over the two codes, reproduces ODD_MIN entrywise.
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


def _chain_domains(n: int) -> tuple[DomainSpec, ...]:
    """The 2by3 chain's domains: {A, B} at odd positions, {A, B, C} at even."""
    if n < 2:
        raise BuildError(f"need n >= 2, got {n}")
    return tuple(TWO_STATE if k % 2 == 1 else THREE_STATE for k in range(1, n + 1))


@dataclass(frozen=True)
class _Position:
    """A chain position as its constraints read it: its variables, the codes
    of its main states over them (code -> base state id), its name in labels,
    and the label suffix of a constraint that closes the chain on it."""

    vars: tuple[int, ...]
    main: dict[tuple[int, ...], int]
    name: str
    pin: str = ""

    def part(self, lo: int, hi: int) -> "_Position":
        """The same position read through its variables lo..hi-1 only."""
        main = {code[lo:hi]: s for code, s in self.main.items()}
        return _Position(self.vars[lo:hi], main, self.name, self.pin)


_PHANTOM = _Position((), {(): 0}, "A", "-A")


def _state_positions(n: int) -> list[_Position]:
    """Positions 1..n+1 of a chain with one variable per position."""
    return [
        _Position((k,), {(s,): s for s in range(d.size)}, str(k + 1))
        for k, d in enumerate(_chain_domains(n))
    ] + [_PHANTOM]


def _constraint(
    domains: Sequence[DomainSpec],
    scope: tuple[int, ...],
    entries: dict[tuple[int, ...], int],
    label: str,
) -> ValuedConstraint:
    """Dense row-major constraint from its entries {scope states: value}; every
    entry not given is 0."""
    index = _flat_index(tuple([domains[v].size for v in scope]))
    values = [0] * len(index)
    for states, value in entries.items():
        values[index[states]] = value
    return ValuedConstraint(scope, tuple(values), label)


@cache
def _flat_index(sizes: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{states: row-major position} over a scope with these domain sizes;
    shared between calls, so read only."""
    return {states: i for i, states in enumerate(itertools.product(*map(range, sizes)))}


def _chain_links(
    domains: Sequence[DomainSpec], pos: Sequence[_Position], scale: int, mark: str
) -> list[ValuedConstraint]:
    """The chain table between each position and the next at `scale` times its
    weight, zero off the main codes; the last one closes on the phantom."""
    links = []
    for k in range(1, len(pos)):
        stem, w, table = _chain_link(k)
        a, b = pos[k - 1], pos[k]
        entries = {
            ac + bc: scale * w * table[u][v]
            for ac, u in a.main.items()
            for bc, v in b.main.items()
        }
        label = f"{stem}{mark}@{a.name}-{b.name}"
        links.append(_constraint(domains, a.vars + b.vars, entries, label))
    return links


def build_2by3(n: int) -> VcspInstance:
    """The alternating 2-state/3-state chain with geometric weights.

    Odd positions hold {A, B}; even positions hold {A, B, C} with moves only
    between A-B and B-C.  Consecutive positions share a weighted chain table.
    """
    domains = _chain_domains(n)
    constraints = _chain_links(domains, _state_positions(n), 1, "")
    inst = VcspInstance(domains, tuple(constraints), family="2by3", base_n=n)
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

    def is_main(self, s: int) -> bool:
        return s < self.base.size

    def sigma_id(self, u: int, v: int) -> int:
        pair = (u, v) if u < v else (v, u)
        return self.base.size + self.pairs.index(pair)

    def pair_of(self, s: int) -> tuple[int, int]:
        return self.pairs[s - self.base.size]


@dataclass(frozen=True)
class ExpansionMap:
    """Per-variable expanded domains for an instance."""

    doms: tuple[ExpandedDomain, ...]

    @classmethod
    def of(cls, instance: VcspInstance) -> "ExpansionMap":
        return cls(tuple(ExpandedDomain.of(d) for d in instance.domains))

    @property
    def domains(self) -> tuple[DomainSpec, ...]:
        return tuple(d.spec for d in self.doms)


# The chain's two base domains, expanded once for every build.
_EXPANDED = {d: ExpandedDomain.of(d) for d in (TWO_STATE, THREE_STATE)}


def _expanded_chain(n: int) -> ExpansionMap:
    return ExpansionMap(tuple(_EXPANDED[d] for d in _chain_domains(n)))


class ExpandedLandscape:
    """Fitness over expanded domains, defined directly from the base instance.

    With no intermediates the fitness is (2n+1) times the base fitness.  With
    a single intermediate at position k (1-based rank in the ascent order) it
    is the positional bonus n-k+1 plus (2n+1) times the smaller of the two
    completions, except that the bonus is dropped when the completions tie.
    With two or more intermediates it is (2n+1) times the min over all
    completions, which stays under the two-intermediate ceiling
    2n-(j+k)+2 + (2n+1)*min.
    """

    def __init__(self, base: VcspInstance, order: Sequence[int] | None = None):
        self.base = base
        self.emap = ExpansionMap.of(base)
        n = base.n_vars
        self.order = tuple(order) if order is not None else tuple(range(n))
        if sorted(self.order) != list(range(n)):
            raise BuildError("order must be a permutation of the variables")
        self.n_vars = n
        self.scale = 2 * n + 1
        self.domains = self.emap.domains
        self._sizes = tuple(d.size for d in self.domains)
        self._n_main = tuple(d.n_main for d in self.emap.doms)
        # bonus[k] = n - (1-based rank of k in the order) + 1
        rank = {k: i for i, k in enumerate(self.order)}
        self.bonus = tuple(n - rank[k] for k in range(n))

    def check_assignment(self, x: Sequence[int]) -> None:
        check_assignment_against(self._sizes, x)

    def _intermediates(self, x: Sequence[int]) -> list[int]:
        return [k for k, (s, n_main) in enumerate(zip(x, self._n_main)) if s >= n_main]

    def _min_completion(self, x: Sequence[int], inter: list[int]) -> int:
        """Smallest base fitness over every way of replacing each intermediate
        in `inter` by one of its two flanking main states."""
        y = list(x)
        best = None
        for combo in itertools.product(*(self.emap.doms[k].pair_of(x[k]) for k in inter)):
            for k, w in zip(inter, combo):
                y[k] = w
            f = self.base.fitness(y)
            if best is None or f < best:
                best = f
        return best

    def fitness(self, x: Sequence[int]) -> int:
        self.check_assignment(x)
        inter = self._intermediates(x)
        if not inter:
            return self.scale * self.base.fitness(x)
        if len(inter) == 1:
            k = inter[0]
            y = list(x)
            u, v = self.emap.doms[k].pair_of(x[k])
            y[k] = u
            fu = self.base.fitness(y)
            y[k] = v
            fv = self.base.fitness(y)
            if fu == fv:
                return self.scale * fu
            return self.bonus[k] + self.scale * min(fu, fv)
        return self.scale * self._min_completion(x, inter)

    def pair_ceiling(self, x: Sequence[int]) -> int:
        """The two-intermediate fitness ceiling for an assignment with exactly
        two intermediates; anything at or below it keeps such states off a
        steepest ascent."""
        inter = self._intermediates(x)
        if len(inter) != 2:
            raise BuildError("ceiling is defined for exactly two intermediates")
        j, k = inter
        return self.bonus[j] + self.bonus[k] + self.scale * self._min_completion(x, inter)

    def padding_defect(self, x: Sequence[int], got: int) -> dict | None:
        """How a padded value `got` at `x` breaks the padding rules, or None.

        With at most one intermediate, `got` must equal the padded fitness;
        with exactly two it must stay at or below the two-intermediate
        ceiling; with more, any value is allowed.
        """
        inter = self._intermediates(x)
        if len(inter) <= 1:
            rule, bound = "expected", self.fitness(x)
            broken = got != bound
        elif len(inter) == 2:
            rule, bound = "ceiling", self.pair_ceiling(x)
            broken = got > bound
        else:
            return None
        if not broken:
            return None
        return {"assignment": list(x), "intermediates": len(inter), "got": got, rule: bound}

    def var_neighbors(self, k: int) -> tuple[int, ...]:
        """Every other variable: the padded fitness reads the whole base
        instance, so no smaller blanket exists.  The engines' per-variable
        memo then keys on the whole assignment and is never reused; that is
        acceptable for an oracle that is walked only at n <= 6 and that no
        benchmark workload runs."""
        return tuple(j for j in range(self.n_vars) if j != k)

    def _delta(self, x: Sequence[int], k: int, s: int, v: int) -> int:
        y = list(x)
        y[k] = v
        return self.fitness(y) - self.fitness(x)

    def neighbors(self, x: Sequence[int]) -> list[tuple[int, int]]:
        self.check_assignment(x)
        return neighbors_of(self.domains, x)

    def is_local_solution(self, x: Sequence[int]) -> bool:
        return all(self._delta(x, k, x[k], t) <= 0 for k, t in self.neighbors(x))


def expand_landscape(base: VcspInstance, order: Sequence[int] | None = None) -> ExpandedLandscape:
    """Expanded landscape (intermediate states plus the padded fitness)."""
    return ExpandedLandscape(base, order)


def simulate_ascent(trace: AscentTrace, landscape: ExpandedLandscape) -> AscentTrace:
    """Double a base ascent into main/intermediate alternation.

    Every base step u->v at variable k becomes two steps through the
    intermediate state between u and v, with fitness taken from the expanded
    landscape.
    """
    if trace.steps is None:
        raise BuildError("simulate_ascent needs a trace with recorded steps")
    x = list(trace.start)
    steps: list[StepRecord] = []
    for rec in trace.steps:
        k, u, v = rec.var, rec.src, rec.dst
        sid = landscape.emap.doms[k].sigma_id(u, v)
        x[k] = sid
        steps.append(StepRecord(k, u, sid, landscape.fitness(x)))
        x[k] = v
        steps.append(StepRecord(k, sid, v, landscape.fitness(x)))
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
        final_fitness=landscape.fitness(final),
    )


# -- expanded instance (alternating 3-state and 5-state domains) --------------


def build_3by5(n: int) -> VcspInstance:
    """Expanded chain instance whose fitness equals the padded landscape.

    Binary chain tables are lifted (zero on intermediates) at (2n+1) times
    their base weight.  Each interior position also gets a ternary
    minimisation constraint keyed on its intermediate state(s) plus a small
    unary bonus, so single-intermediate assignments take the padded value
    exactly.
    """
    emap = _expanded_chain(n)
    domains = emap.domains
    scale = 2 * n + 1
    pos = _state_positions(n)

    constraints = _chain_links(domains, pos, scale, "^")
    for k in range(1, n + 1):
        # 3-state positions have one intermediate (id 2) with profile ODD_MIN;
        # 5-state positions have sAB (id 3) and sBC (id 4).
        odd = k % 2 == 1
        inter = (2,) if odd else (3, 4)
        me = pos[k - 1]
        bonus = {(s,): n - k + 1 for s in inter}
        constraints.append(_constraint(domains, me.vars, bonus, f"{'U' if odd else 'V'}@{k}"))
        l = k // 2
        if l < 1:
            continue
        m = weight_m(l)
        if odd:
            stem, w, profiles = "T", m + 1, (ODD_MIN,)
        else:
            stem, w, profiles = "S", 1, (even_min_ab(m), even_min_bc(m))
        left, right = pos[k - 2], pos[k]
        entries = {
            ac + bc + (s,): scale * w * profile[u][v]
            for s, profile in zip(inter, profiles)
            for ac, u in left.main.items()
            for bc, v in right.main.items()
        }
        scope = left.vars + right.vars + me.vars
        constraints.append(_constraint(domains, scope, entries, f"{stem}^{l}@{k}{right.pin}"))

    inst = VcspInstance(domains, tuple(constraints), family="3by5", base_n=n)
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

    def codes_of(self, sid: int) -> tuple[tuple[int, ...], ...]:
        return tuple(code for code, s in self.codes if s == sid)


@dataclass(frozen=True)
class BooleanCodec:
    """Per-collection codecs over a flat bit vector."""

    collections: tuple[CollectionCodec, ...]

    @property
    def total_bits(self) -> int:
        return sum(c.width for c in self.collections)

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

    def decode(self, bits: Sequence[int]) -> list[tuple[int | None, tuple[int, ...]]]:
        """Per collection: (state id or None for junk, raw code)."""
        return [
            (c.decode(code), code) for c, code in zip(self.collections, self.split(bits))
        ]

    def decode_states(self, bits: Sequence[int]) -> list[int | None]:
        return [sid for sid, _ in self.decode(bits)]

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
    for coll, (sid, code) in zip(codec.collections, codec.decode(bits)):
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
_PW4_CODES = {d: _pw4_codes(e) for d, e in _EXPANDED.items()}


def _pw4_codec(emap: ExpansionMap) -> BooleanCodec:
    """One collection of `_pw4_codes` per expanded chain domain."""
    colls = []
    offset = 0
    for dom in emap.doms:
        codes = _PW4_CODES[dom.base]
        colls.append(CollectionCodec(dom.n_main, offset, dom.spec.states, codes))
        offset += dom.n_main
    return BooleanCodec(tuple(colls))


_EVEN_SIGMA = {(1, 1, 0): "ab", (0, 1, 1): "bc"}
_DUAL = ((0, 0), (1, 1))


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
    landscape scale; the per-position unary bonuses do not.
    """
    codec = _pw4_codec(_expanded_chain(n))
    scale = 2 * n + 1
    penalty = -scale * f_max(n)
    domains = tuple(BIT for _ in range(codec.total_bits))
    names = tuple(
        f"G{k + 1}.{b}" for k, c in enumerate(codec.collections) for b in range(c.width)
    )
    pos = [
        _Position(
            tuple(range(c.offset, c.offset + c.width)),
            {code: s for code, s in c.codes if s < c.width},
            f"G{k + 1}",
        )
        for k, c in enumerate(codec.collections)
    ] + [_PHANTOM]

    # Lifted chain tables between consecutive collections (zero off the
    # one-hot main codes).
    constraints = _chain_links(domains, pos, scale, "~")

    # Odd positions: unary dual-code bonus and the split minimisation parts.
    for k in range(1, n + 1, 2):
        l = (k - 1) // 2
        left, me, right = pos[k - 2], pos[k - 1], pos[k]
        bonus = {code: n - k + 1 for code in _DUAL}
        constraints.append(_constraint(domains, me.vars, bonus, f"U~{l}@{me.name}"))
        if l < 1:
            continue
        wt = scale * (weight_m(l) + 1)
        entries = {
            ac + code: wt * DUAL_COL[code][u]
            for ac, u in left.main.items()
            for code in _DUAL
        }
        label = f"T~{l}-@{left.name}-{me.name}"
        constraints.append(_constraint(domains, left.vars + me.vars, entries, label))
        entries = {
            code + bc: wt * DUAL_ROW[code][v]
            for code in _DUAL
            for bc, v in right.main.items()
        }
        label = f"T~{l}+@{me.name}-{right.name}"
        constraints.append(_constraint(domains, me.vars + right.vars, entries, label))

    # Even positions: unary intermediate bonus and the flank-bit minimisation
    # constraint.  The left flank is the second bit of the previous collection
    # (0 reads A, 1 reads B); the right flank is the first bit of the next
    # collection (1 reads A, 0 reads B), so consecutive scopes stay disjoint.
    flank_scopes = {}
    for k in range(2, n + 1, 2):
        l = k // 2
        left, me, right = pos[k - 2].part(1, 2), pos[k - 1], pos[k].part(0, 1)
        bonus = {code: n - k + 1 for code in _EVEN_SIGMA}
        constraints.append(_constraint(domains, me.vars, bonus, f"V~{l}@{me.name}"))
        profile = {"ab": even_min_ab(weight_m(l)), "bc": even_min_bc(weight_m(l))}
        entries = {
            ac + code + bc: scale * profile[kind][u][v]
            for code, kind in _EVEN_SIGMA.items()
            for ac, u in left.main.items()
            for bc, v in right.main.items()
        }
        scope = flank_scopes[k] = left.vars + me.vars + right.vars
        constraints.append(_constraint(domains, scope, entries, f"S~{l}@{me.name}{right.pin}"))

    # Adjacent-intermediate penalty on every consecutive collection pair; the
    # two orientations share their tensors.
    inter = {1: _DUAL, 0: tuple(_EVEN_SIGMA)}
    penalties: dict[int, tuple[int, ...]] = {}
    for k in range(1, n):
        a, b = pos[k - 1], pos[k]
        if k % 2 not in penalties:
            entries = {ac + bc: penalty for ac in inter[k % 2] for bc in inter[1 - k % 2]}
            penalties[k % 2] = _constraint(domains, a.vars + b.vars, entries, "").values
        label = f"J~@{a.name}{b.name}"
        constraints.append(ValuedConstraint(a.vars + b.vars, penalties[k % 2], label))

    inst = VcspInstance(
        domains,
        tuple(constraints),
        family="bool-pw4",
        base_n=n,
        var_names=names,
    )
    inst = _finish(inst, f"build_boolean_pw4({n})")

    # Canonical decomposition: the scopes of consecutive collection pairs in
    # path order, each even position's flank scope right after the pair that
    # ends on it; every bag has at most 5 bits.
    bags: list[frozenset[int]] = []
    for k in range(1, n):
        bags.append(frozenset(pos[k - 1].vars + pos[k].vars))
        if k % 2 == 1:
            bags.append(frozenset(flank_scopes[k + 1]))
    decomp = PathDecomposition(tuple(bags))

    start = codec.encode(tuple(0 for _ in range(n)))

    if n <= 4:
        problem = pw4_equivalence_violation(inst, codec, ExpandedLandscape(build_2by3(n)))
        if problem is not None:
            raise BuildError(f"build_boolean_pw4({n}) self-check failed: {problem}")

    return inst, codec, decomp, start


def pw4_equivalence_violation(
    inst: VcspInstance, codec: BooleanCodec, landscape: ExpandedLandscape
) -> str | None:
    """Exhaustive master-invariant check; returns a description of the first
    violated state, or None.

    Each decodable state is judged by its best code (the first enumerated on
    a tie) under the padding rules of `ExpandedLandscape.padding_defect`.
    Only the odd intermediate has two codes (00 and 11), so this says that
    the max over its codes is the padded value and that every code stays at
    or below the two-intermediate ceiling.
    """
    best: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for bits in itertools.product((0, 1), repeat=codec.total_bits):
        states = tuple(codec.decode_states(bits))
        if None in states:
            continue
        got = inst.fitness(bits)
        kept = best.get(states)
        if kept is None or got > kept[0]:
            best[states] = (got, bits)
    for states, (got, bits) in best.items():
        bad = landscape.padding_defect(states, got)
        if bad is None:
            continue
        if "ceiling" in bad:
            return f"two-intermediate ceiling broken at bits={bits}: {got} > {bad['ceiling']}"
        return f"fitness mismatch at bits={bits}: {got} != expected {bad['expected']}"
    return None


# -- canonical starts ---------------------------------------------------------

FAMILIES = ("2by3", "3by5", "bool-pw4")


def canonical_start(family: str, n: int) -> tuple[int, ...]:
    """The all-A start of each family (bit-encoded for the Boolean family)."""
    if family in ("2by3", "3by5"):
        if n < 2:
            raise BuildError(f"need n >= 2, got {n}")
        return tuple(0 for _ in range(n))
    if family == "bool-pw4":
        bits: list[int] = []
        for k in range(1, n + 1):
            bits.extend((1, 0) if k % 2 == 1 else (1, 0, 0))
        return tuple(bits)
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
