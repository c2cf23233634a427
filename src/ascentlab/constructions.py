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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _scaled(table: Iterable[Iterable[int]], w: int) -> tuple[int, ...]:
    return tuple(w * v for row in table for v in row)


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


def build_2by3(n: int) -> VcspInstance:
    """The alternating 2-state/3-state chain with geometric weights.

    Odd positions hold {A, B}; even positions hold {A, B, C} with moves only
    between A-B and B-C.  Consecutive positions share a weighted chain table,
    and the last position gets the unary restriction of its off-the-end table
    with the phantom next position pinned to A.
    """
    domains = _chain_domains(n)
    constraints = []
    for k in range(1, n):
        stem, w, table = _chain_link(k)
        constraints.append(
            ValuedConstraint((k - 1, k), _scaled(table, w), f"{stem}@{k}-{k + 1}")
        )
    stem, w, table = _chain_link(n)
    pinned = tuple(w * row[0] for row in table)
    constraints.append(ValuedConstraint((n - 1,), pinned, f"{stem}@{n}-A"))
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
        # bonus[k] = n - (1-based rank of k in the order) + 1
        rank = {k: i for i, k in enumerate(self.order)}
        self.bonus = tuple(n - rank[k] for k in range(n))

    def check_assignment(self, x: Sequence[int]) -> None:
        check_assignment_against(self.domains, x)

    def _intermediates(self, x: Sequence[int]) -> list[int]:
        return [k for k in range(self.n_vars) if not self.emap.doms[k].is_main(x[k])]

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


def _lift_binary(
    table: Sequence[Sequence[int]],
    left: ExpandedDomain,
    right: ExpandedDomain,
    w: int,
) -> tuple[int, ...]:
    """Weighted table on main pairs, zero wherever an index is an intermediate."""
    out = []
    for u in range(left.spec.size):
        for v in range(right.spec.size):
            if left.is_main(u) and right.is_main(v):
                out.append(w * table[u][v])
            else:
                out.append(0)
    return tuple(out)


def build_3by5(n: int) -> VcspInstance:
    """Expanded chain instance whose fitness equals the padded landscape.

    Binary chain tables are lifted (zero on intermediates) at (2n+1) times
    their base weight.  Each interior position also gets a ternary
    minimisation constraint keyed on its intermediate state(s) plus a small
    unary bonus, so single-intermediate assignments take the padded value
    exactly.  Boundary constraints are the interior ones with the phantom
    flank pinned to A.
    """
    emap = ExpansionMap(tuple(ExpandedDomain.of(d) for d in _chain_domains(n)))
    doms = emap.doms
    scale = 2 * n + 1

    constraints: list[ValuedConstraint] = []
    for k in range(1, n):
        stem, w, table = _chain_link(k)
        constraints.append(
            ValuedConstraint(
                (k - 1, k),
                _lift_binary(table, doms[k - 1], doms[k], scale * w),
                f"{stem}^@{k}-{k + 1}",
            )
        )
    stem, w, table = _chain_link(n)
    dn = doms[n - 1]
    pinned = tuple(scale * w * table[u][0] if dn.is_main(u) else 0 for u in range(dn.spec.size))
    constraints.append(ValuedConstraint((n - 1,), pinned, f"{stem}^@{n}-A"))

    for k in range(1, n + 1):
        bonus = n - k + 1
        if k % 2 == 1:
            # 3-state position: one intermediate (id 2), profile ODD_MIN.
            l = (k - 1) // 2
            vals = tuple(bonus if s == 2 else 0 for s in range(3))
            constraints.append(ValuedConstraint((k - 1,), vals, f"U@{k}"))
            if l < 1:
                continue
            wt = scale * (weight_m(l) + 1)
            left = doms[k - 2]
            if k < n:
                right = doms[k]
                tensor = []
                for u in range(5):
                    for v in range(5):
                        for s in range(3):
                            ok = s == 2 and left.is_main(u) and right.is_main(v)
                            tensor.append(wt * ODD_MIN[u][v] if ok else 0)
                constraints.append(
                    ValuedConstraint((k - 2, k, k - 1), tuple(tensor), f"T^{l}@{k}")
                )
            else:
                tensor = []
                for u in range(5):
                    for s in range(3):
                        ok = s == 2 and left.is_main(u)
                        tensor.append(wt * ODD_MIN[u][0] if ok else 0)
                constraints.append(
                    ValuedConstraint((k - 2, k - 1), tuple(tensor), f"T^{l}@{k}-A")
                )
        else:
            # 5-state position: intermediates sAB (id 3) and sBC (id 4).
            l = k // 2
            vals = tuple(bonus if s >= 3 else 0 for s in range(5))
            constraints.append(ValuedConstraint((k - 1,), vals, f"V@{k}"))
            qt, rt = even_min_ab(weight_m(l)), even_min_bc(weight_m(l))
            left = doms[k - 2]
            if k < n:
                right = doms[k]
                tensor = []
                for u in range(3):
                    for v in range(3):
                        for s in range(5):
                            if s < 3 or not (left.is_main(u) and right.is_main(v)):
                                tensor.append(0)
                            elif s == 3:
                                tensor.append(scale * qt[u][v])
                            else:
                                tensor.append(scale * rt[u][v])
                constraints.append(
                    ValuedConstraint((k - 2, k, k - 1), tuple(tensor), f"S^{l}@{k}")
                )
            else:
                tensor = []
                for u in range(3):
                    for s in range(5):
                        if s < 3 or not left.is_main(u):
                            tensor.append(0)
                        elif s == 3:
                            tensor.append(scale * qt[u][0])
                        else:
                            tensor.append(scale * rt[u][0])
                constraints.append(
                    ValuedConstraint((k - 2, k - 1), tuple(tensor), f"S^{l}@{k}-A")
                )

    inst = VcspInstance(emap.domains, tuple(constraints), family="3by5", base_n=n)
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


def _one_two_hot_codes(dom: ExpandedDomain) -> list[tuple[tuple[int, ...], int]]:
    width = dom.n_main
    codes = []
    for u in range(dom.n_main):
        code = tuple(1 if i == u else 0 for i in range(width))
        codes.append((code, u))
    for i, (u, v) in enumerate(dom.pairs):
        code = tuple(1 if j in (u, v) else 0 for j in range(width))
        codes.append((code, dom.n_main + i))
    return codes


def _generic_codec(emap: ExpansionMap) -> BooleanCodec:
    colls = []
    offset = 0
    for dom in emap.doms:
        codes = _one_two_hot_codes(dom)
        colls.append(CollectionCodec(dom.n_main, offset, dom.spec.states, tuple(codes)))
        offset += dom.n_main
    return BooleanCodec(tuple(colls))


def boolean_encode_generic(
    expanded: VcspInstance, emap: ExpansionMap
) -> tuple[VcspInstance, BooleanCodec]:
    """One-hot/two-hot encoding of an expanded instance.

    Each variable becomes as many bits as its base domain had states; moves
    are single bit flips.  Every constraint is lifted over the bit blocks of
    its scope, keeping its value on decodable codes and 0 on junk, so arities
    grow to the sum of the block widths.
    """
    codec = _generic_codec(emap)
    names = []
    for k, coll in enumerate(codec.collections):
        for b in range(coll.width):
            names.append(f"{expanded.var_names[k]}.{b}")
    domains = tuple(BIT for _ in range(codec.total_bits))

    constraints = []
    for c in expanded.constraints:
        colls = [codec.collections[v] for v in c.scope]
        strides = [1] * len(c.scope)
        for i in range(len(c.scope) - 2, -1, -1):
            strides[i] = strides[i + 1] * expanded.domains[c.scope[i + 1]].size
        scope = tuple(
            coll.offset + b for coll in colls for b in range(coll.width)
        )
        tensor = []
        for bits in itertools.product((0, 1), repeat=len(scope)):
            idx = 0
            pos = 0
            ok = True
            for coll, st in zip(colls, strides):
                sid = coll.decode(bits[pos : pos + coll.width])
                pos += coll.width
                if sid is None:
                    ok = False
                    break
                idx += sid * st
            tensor.append(c.values[idx] if ok else 0)
        constraints.append(ValuedConstraint(scope, tuple(tensor), c.label))

    inst = VcspInstance(
        domains,
        tuple(constraints),
        family=expanded.family + "-bits",
        base_n=expanded.base_n,
        var_names=tuple(names),
    )
    return _finish(inst, "boolean_encode_generic"), codec


# -- the arity-5 pathwidth-4 Boolean instance ---------------------------------


def _pw4_codec(emap: ExpansionMap) -> BooleanCodec:
    """Like the generic codec, but odd (2-bit) collections accept both 00 and
    11 for their intermediate state."""
    colls = []
    offset = 0
    for dom in emap.doms:
        codes = _one_two_hot_codes(dom)
        if dom.n_main == 2:
            codes.append(((0, 0), dom.n_main))
        colls.append(CollectionCodec(dom.n_main, offset, dom.spec.states, tuple(codes)))
        offset += dom.n_main
    return BooleanCodec(tuple(colls))


_EVEN_MAIN = {(1, 0, 0): 0, (0, 1, 0): 1, (0, 0, 1): 2}
_ODD_MAIN = {(1, 0): 0, (0, 1): 1}
_EVEN_SIGMA = {(1, 1, 0): "ab", (0, 1, 1): "bc"}
_DUAL = ((0, 0), (1, 1))


def _sparse_tensor(total_bits: int, entries: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """Dense row-major bit tensor from its nonzero entries."""
    values = [0] * (1 << total_bits)
    for bits, v in entries.items():
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        values[idx] = v
    return tuple(values)


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
    emap = ExpansionMap(tuple(ExpandedDomain.of(d) for d in _chain_domains(n)))
    codec = _pw4_codec(emap)
    scale = 2 * n + 1
    penalty = -scale * f_max(n)

    off = [c.offset for c in codec.collections]
    width = [c.width for c in codec.collections]
    names = []
    for k in range(n):
        for b in range(width[k]):
            names.append(f"G{k + 1}.{b}")
    domains = tuple(BIT for _ in range(codec.total_bits))

    def block(k: int) -> tuple[int, ...]:
        return tuple(range(off[k], off[k] + width[k]))

    constraints: list[ValuedConstraint] = []

    # Lifted chain tables between consecutive collections (zero off the
    # one-hot main codes), plus the pinned unary at the end of the chain.
    for k in range(1, n):
        stem, w, table = _chain_link(k)
        left_main = _ODD_MAIN if k % 2 == 1 else _EVEN_MAIN
        right_main = _EVEN_MAIN if k % 2 == 1 else _ODD_MAIN
        entries = {
            uc + vc: scale * w * table[u][v]
            for uc, u in left_main.items()
            for vc, v in right_main.items()
        }
        constraints.append(
            ValuedConstraint(
                block(k - 1) + block(k),
                _sparse_tensor(5, entries),
                f"{stem}~@G{k}-G{k + 1}",
            )
        )
    stem, w, table = _chain_link(n)
    last_main = _ODD_MAIN if n % 2 == 1 else _EVEN_MAIN
    entries = {uc: scale * w * table[u][0] for uc, u in last_main.items()}
    constraints.append(
        ValuedConstraint(
            block(n - 1), _sparse_tensor(width[n - 1], entries), f"{stem}~@G{n}-A"
        )
    )

    # Odd positions: unary dual-code bonus and the split minimisation parts.
    for k in range(1, n + 1, 2):
        l = (k - 1) // 2
        constraints.append(
            ValuedConstraint(
                block(k - 1),
                _sparse_tensor(2, {code: n - k + 1 for code in _DUAL}),
                f"U~{l}@G{k}",
            )
        )
        if l < 1:
            continue
        wt = scale * (weight_m(l) + 1)
        entries = {
            uc + code: wt * DUAL_COL[code][u]
            for uc, u in _EVEN_MAIN.items()
            for code in _DUAL
        }
        constraints.append(
            ValuedConstraint(
                block(k - 2) + block(k - 1),
                _sparse_tensor(5, entries),
                f"T~{l}-@G{k - 1}-G{k}",
            )
        )
        if k < n:
            entries = {
                code + vc: wt * DUAL_ROW[code][v]
                for code in _DUAL
                for vc, v in _EVEN_MAIN.items()
            }
            constraints.append(
                ValuedConstraint(
                    block(k - 1) + block(k),
                    _sparse_tensor(5, entries),
                    f"T~{l}+@G{k}-G{k + 1}",
                )
            )
        else:
            entries = {code: wt * DUAL_ROW[code][0] for code in _DUAL}
            constraints.append(
                ValuedConstraint(
                    block(k - 1), _sparse_tensor(2, entries), f"T~{l}+@G{k}-A"
                )
            )

    # Even positions: unary intermediate bonus and the flank-bit minimisation
    # constraint.  The left flank is the second bit of the previous collection
    # (0 reads A, 1 reads B); the right flank is the first bit of the next
    # collection (1 reads A, 0 reads B), so consecutive scopes stay disjoint.
    for k in range(2, n + 1, 2):
        l = k // 2
        constraints.append(
            ValuedConstraint(
                block(k - 1),
                _sparse_tensor(3, {code: n - k + 1 for code in _EVEN_SIGMA}),
                f"V~{l}@G{k}",
            )
        )
        profile = {"ab": even_min_ab(weight_m(l)), "bc": even_min_bc(weight_m(l))}
        left_flank = off[k - 2] + 1
        if k < n:
            entries = {
                (a,) + code + (b,): scale * profile[kind][a][0 if b else 1]
                for code, kind in _EVEN_SIGMA.items()
                for a in (0, 1)
                for b in (0, 1)
            }
            constraints.append(
                ValuedConstraint(
                    (left_flank,) + block(k - 1) + (off[k],),
                    _sparse_tensor(5, entries),
                    f"S~{l}@G{k}",
                )
            )
        else:
            entries = {
                (a,) + code: scale * profile[kind][a][0]
                for code, kind in _EVEN_SIGMA.items()
                for a in (0, 1)
            }
            constraints.append(
                ValuedConstraint(
                    (left_flank,) + block(k - 1),
                    _sparse_tensor(4, entries),
                    f"S~{l}@G{k}-A",
                )
            )

    # Adjacent-intermediate penalty on every consecutive collection pair; the
    # two orientations share their tensors.
    j_odd_even = _sparse_tensor(
        5, {code + ec: penalty for code in _DUAL for ec in _EVEN_SIGMA}
    )
    j_even_odd = _sparse_tensor(
        5, {ec + code: penalty for ec in _EVEN_SIGMA for code in _DUAL}
    )
    for k in range(1, n):
        tensor = j_odd_even if k % 2 == 1 else j_even_odd
        constraints.append(
            ValuedConstraint(
                block(k - 1) + block(k), tensor, f"J~@G{k}G{k + 1}"
            )
        )

    inst = VcspInstance(
        domains,
        tuple(constraints),
        family="bool-pw4",
        base_n=n,
        var_names=tuple(names),
    )
    inst = _finish(inst, f"build_boolean_pw4({n})")

    # Canonical decomposition: chain-table scopes and flank-constraint scopes
    # in path order; every bag has at most 5 bits.
    bags: list[frozenset[int]] = []
    for l in range(1, n // 2 + 1):
        k = 2 * l
        bags.append(frozenset(block(k - 2) + block(k - 1)))
        s_scope = (off[k - 2] + 1,) + block(k - 1)
        if k < n:
            s_scope += (off[k],)
        bags.append(frozenset(s_scope))
        if k < n:
            bags.append(frozenset(block(k - 1) + block(k)))
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
    violated assignment, or None.

    Decodable assignments with at most one intermediate must match the
    expanded landscape (the odd intermediate through the max over its two
    codes); decodable assignments with exactly two intermediates must stay
    at or below the two-intermediate ceiling.
    """
    doms = landscape.emap.doms
    for bits in itertools.product((0, 1), repeat=codec.total_bits):
        decoded = codec.decode_states(bits)
        if any(s is None for s in decoded):
            continue
        states = tuple(int(s) for s in decoded)  # type: ignore[arg-type]
        n_inter = sum(1 for k, s in enumerate(states) if not doms[k].is_main(s))
        got = inst.fitness(bits)
        if n_inter <= 1:
            odd_sigma = [
                k
                for k, s in enumerate(states)
                if not doms[k].is_main(s) and doms[k].n_main == 2
            ]
            want = landscape.fitness(states)
            if odd_sigma:
                k = odd_sigma[0]
                coll = codec.collections[k]
                best = None
                for code in coll.codes_of(states[k]):
                    y = list(bits)
                    y[coll.offset : coll.offset + coll.width] = code
                    f = inst.fitness(y)
                    if best is None or f > best:
                        best = f
                if best != want:
                    return (
                        f"odd-intermediate max rule broken at bits={bits}: "
                        f"max over codes {best} != expected {want}"
                    )
            elif got != want:
                return f"fitness mismatch at bits={bits}: {got} != expected {want}"
        elif n_inter == 2:
            ceiling = landscape.pair_ceiling(states)
            if got > ceiling:
                return (
                    f"two-intermediate ceiling broken at bits={bits}: "
                    f"{got} > {ceiling}"
                )
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
