"""Exact-integer valued-CSP model.

A VCSP here is a list of finite domains (each with an undirected transition
relation restricting single-variable moves) plus a list of integer-valued
constraints over dense tensors.  Fitness of an assignment is the sum of the
constraint values it selects, read through per-instance tables of term rows
grouped by arity.  All arithmetic uses unbounded Python integers,
so values never wrap and no instance is too large to evaluate exactly.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence


class ModelError(ValueError):
    """Base class for model construction and validation failures."""


class InvalidAssignmentError(ModelError):
    """Assignment has the wrong length or an out-of-range state."""


class BuildError(ModelError):
    """Instance construction failed (bad parameters, malformed input, defects)."""


@dataclass(frozen=True)
class DomainSpec:
    """A variable's ordered state labels plus its undirected move relation.

    Transition pairs are stored normalized as (low, high) state ids.  A domain
    with an empty relation is legal: that variable can never move.
    """

    states: tuple[str, ...]
    transitions: frozenset[tuple[int, int]] = frozenset()
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        states = tuple(str(s) for s in self.states)
        size = len(states)
        object.__setattr__(self, "size", size)
        pairs: set[tuple[int, int]] = set()
        for pair in self.transitions:
            u, v = pair
            if u == v:
                raise ModelError(f"self-transition ({u},{v}) is not allowed")
            if not (0 <= u < size and 0 <= v < size):
                raise ModelError(f"transition ({u},{v}) out of range for {size} states")
            pairs.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", frozenset(pairs))
        adj: list[list[int]] = [[] for _ in range(size)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adjacent", tuple(tuple(sorted(a)) for a in adj))

    def adjacent(self, state: int) -> tuple[int, ...]:
        """States reachable from `state` in one move, ascending."""
        return self._adjacent[state]  # type: ignore[attr-defined]

    def allows(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.transitions


# ValuedConstraint's fields; a NamedTuple cannot define its own __new__, so
# the subclass below adds the one that turns scope and values into tuples.
class _ConstraintFields(NamedTuple):
    scope: tuple[int, ...]
    values: tuple[int, ...]
    label: str = ""


class ValuedConstraint(_ConstraintFields):
    """A scope of distinct variables plus a dense integer value tensor.

    The tensor is flattened row-major in scope order: the first scope variable
    has the largest stride, the last scope variable has stride 1.  A
    constraint is a tuple of its fields, so it equals the plain tuple
    `(scope, values, label)`.
    """

    __slots__ = ()

    def __new__(cls, scope: Sequence[int], values: Sequence[int], label: str = ""):
        return tuple.__new__(cls, (tuple(scope), tuple(values), label))

    @property
    def arity(self) -> int:
        return len(self.scope)


def check_assignment_against(sizes: Sequence[int], x: Sequence[int]) -> None:
    """Raise InvalidAssignmentError unless x is a valid assignment for domains
    of the given sizes."""
    if len(x) == len(sizes) and all(map(operator.lt, x, sizes)) and min(x, default=0) >= 0:
        return
    if len(x) != len(sizes):
        raise InvalidAssignmentError(
            f"assignment has length {len(x)}, expected {len(sizes)}"
        )
    for k, (s, m) in enumerate(zip(x, sizes)):
        if not (0 <= s < m):
            raise InvalidAssignmentError(
                f"state {s} out of range for variable {k} ({m} states)"
            )


def neighbors_of(domains: Sequence[DomainSpec], x: Sequence[int]) -> list[tuple[int, int]]:
    """All permitted single-variable moves (var, new_state), in ascending order."""
    out: list[tuple[int, int]] = []
    for k, dom in enumerate(domains):
        for t in dom.adjacent(x[k]):
            out.append((k, t))
    return out


# A constraint's scope, read in C.
_scope_of = operator.itemgetter(0)
Edge = tuple[tuple[int, ...], str]  # a constraint's scope and label


# (variable, row-major stride) per scope entry of a constraint.
_Strides = tuple[tuple[int, int], ...]

# Scopes up to this arity get their own unrolled loop in `fitness` and, by the
# size of the rest of the scope, in `_delta`; wider ones use a generic loop.
_UNROLLED = 5


def _strides(scope: Sequence[int], sizes: Sequence[int]) -> _Strides:
    """The (var, row-major stride) pairs of a scope: the last variable has
    stride 1, each earlier one the product of the sizes after it."""
    pairs = []
    stride = 1
    for var in reversed(scope):
        pairs.append((var, stride))
        stride *= sizes[var]
    return tuple(reversed(pairs))


@dataclass(frozen=True)
class VcspInstance:
    """Immutable VCSP instance: domains, constraints, and family metadata.

    Construction performs only shallow checks and builds no evaluation
    tables: each table is built from the constraints on first evaluation and
    kept for the instance's lifetime, so an instance that is only built,
    validated or decomposed never pays for them.  The tables group the
    constraints by arity (for `fitness`) or, per variable, by the size of the
    rest of the scope (for `_delta`), so that each scope of up to five
    variables is summed by a loop unrolled for its size with no inner loop
    over the scope; wider scopes keep a generic loop.  `validate()` reports
    structural defects without raising, and builders are expected to reject
    defective instances at build time.
    """

    domains: tuple[DomainSpec, ...]
    constraints: tuple[ValuedConstraint, ...]
    family: str = ""
    base_n: int = 0
    var_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        domains = tuple(self.domains)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        names = tuple(self.var_names) or tuple(f"x{i + 1}" for i in range(len(domains)))
        object.__setattr__(self, "var_names", names)
        object.__setattr__(self, "_sizes", tuple(d.size for d in domains))

    # -- evaluation tables, built on first use -------------------------------

    @cached_property
    def _fitness_tables(self) -> tuple[tuple[tuple, ...], ...]:
        """The constraints as term rows grouped by arity: for arity a = 1..5,
        group a-1 holds flat rows `(values, v1, s1, ..., va)` of the scope's
        variables and their row-major strides, the last stride (always 1)
        left out; the last group holds the wider constraints as
        `(((v1, s1), ...), values)`."""
        sizes = self.sizes
        groups: list[list] = [[] for _ in range(_UNROLLED + 1)]
        for c in self.constraints:
            pairs = _strides(c.scope, sizes)
            if not 0 < len(pairs) <= _UNROLLED:
                groups[_UNROLLED].append((pairs, c.values))
            else:
                row = [c.values]
                for var, stride in pairs:
                    row += (var, stride)
                groups[len(pairs) - 1].append(tuple(row[:-1]))
        return tuple(map(tuple, groups))

    @cached_property
    def _delta_tables(self) -> tuple[tuple[tuple[tuple, ...], ...], ...]:
        """Per variable k, the constraints on k grouped by the size r of the
        rest of their scope: group 0 holds the unary constraints' values; for
        r = 1..4, group r holds flat rows `(values, k's stride, u1, t1, ...,
        ur, tr)` of the other scope variables and their strides; the last
        group holds the wider ones as `(values, k's stride, ((u1, t1), ...))`."""
        sizes = self.sizes
        per_var = [[[] for _ in range(_UNROLLED + 1)] for _ in self.domains]
        for c in self.constraints:
            pairs = _strides(c.scope, sizes)
            for var, stride in pairs:
                rest = tuple(p for p in pairs if p[0] != var)
                if not rest:
                    per_var[var][0].append(c.values)
                elif len(rest) < _UNROLLED:
                    row = [c.values, stride]
                    for p in rest:
                        row += p
                    per_var[var][len(rest)].append(tuple(row))
                else:
                    per_var[var][_UNROLLED].append((c.values, stride, rest))
        return tuple(tuple(map(tuple, groups)) for groups in per_var)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per variable, the variables sharing a constraint with it, ascending."""
        blankets: list[set[int]] = [set() for _ in self.domains]
        for scope in {c.scope for c in self.constraints}:
            for var in scope:
                blankets[var].update(scope)
        return tuple(tuple(sorted(b - {k})) for k, b in enumerate(blankets))

    @cached_property
    def _reference_index(self) -> tuple[tuple[tuple, ...], ...]:
        """The move scorer's own index, built from `scope` and `sizes` alone
        so that it shares nothing with the evaluation tables: per variable k,
        one `(values, ((var, stride), ...), k's stride)` per constraint on k,
        with the scope's row-major strides."""
        sizes = self.sizes
        per_var: list[list[tuple]] = [[] for _ in sizes]
        for c in self.constraints:
            pairs = []
            stride = 1
            for var in reversed(c.scope):
                pairs.append((var, stride))
                stride *= sizes[var]
            row_major = tuple(reversed(pairs))
            for var, stride in row_major:
                per_var[var].append((c.values, row_major, stride))
        return tuple(map(tuple, per_var))

    def _reference_delta(self, x: Sequence[int], k: int, t: int) -> int:
        """Exact fitness change of moving variable k of x to state t: over the
        constraints on k, the raw tensor entry at the moved assignment minus
        the one at x, each indexed row-major from x.  The verifiers score
        moves with it so that a bug in `_delta` cannot vouch for itself.
        No checks."""
        move = t - x[k]
        d = 0
        for values, pairs, stride in self._reference_index[k]:
            idx = 0
            for var, w in pairs:
                idx += x[var] * w
            d += values[idx + move * stride] - values[idx]
        return d

    @property
    def n_vars(self) -> int:
        return len(self.domains)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes  # type: ignore[attr-defined]

    @property
    def max_arity(self) -> int:
        return max(map(len, map(operator.itemgetter(0), self.constraints)), default=0)

    def var_neighbors(self, k: int) -> tuple[int, ...]:
        """Variables sharing at least one constraint with k."""
        return self._neighbors[k]

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of structural defects; empty means the instance is ok.

        In constraint order, each constraint's own: its scope is non-empty,
        repeats no variable and names only known variables, and its tensor
        length is the product of the scope's domain sizes."""
        defects: list[str] = []
        n = self.n_vars
        size_of = self._sizes.__getitem__  # type: ignore[attr-defined]
        for ci, c in enumerate(self.constraints):
            scope = c.scope
            who = c.label or f"constraint #{ci}"
            if len(scope) == 0:
                defects.append(f"{who}: empty scope")
                continue
            if len(set(scope)) != len(scope):
                defects.append(f"{who}: scope {scope} repeats a variable")
            if min(scope) < 0 or max(scope) >= n:
                bad = [v for v in scope if not (0 <= v < n)]
                defects.append(f"{who}: scope refers to unknown variable(s) {bad}")
                continue
            expected = math.prod(map(size_of, scope))
            if len(c.values) != expected:
                defects.append(
                    f"{who}: tensor has {len(c.values)} entries, expected {expected}"
                )
        return defects

    def check_assignment(self, x: Sequence[int]) -> None:
        check_assignment_against(self._sizes, x)  # type: ignore[attr-defined]

    # -- evaluation ---------------------------------------------------------

    def fitness(self, x: Sequence[int]) -> int:
        """Sum of all constraint values selected by x, which is checked first."""
        self.check_assignment(x)
        return self._fitness(x)

    def _fitness(self, x: Sequence[int]) -> int:
        """`fitness` of an assignment its caller has validated, such as a state
        a verifier replayed, enumerated or completed.  No checks."""
        t1, t2, t3, t4, t5, wide = self._fitness_tables
        total = 0
        for values, a in t1:
            total += values[x[a]]
        for values, a, sa, b in t2:
            total += values[x[a] * sa + x[b]]
        for values, a, sa, b, sb, c in t3:
            total += values[x[a] * sa + x[b] * sb + x[c]]
        for values, a, sa, b, sb, c, sc, d in t4:
            total += values[x[a] * sa + x[b] * sb + x[c] * sc + x[d]]
        for values, a, sa, b, sb, c, sc, d, sd, e in t5:
            total += values[x[a] * sa + x[b] * sb + x[c] * sc + x[d] * sd + x[e]]
        for pairs, values in wide:
            idx = 0
            for var, st in pairs:
                idx += x[var] * st
            total += values[idx]
        return total

    def _delta(self, x: Sequence[int], k: int, s: int, v: int) -> int:
        """Fitness change of moving variable k from state s to v.  No checks."""
        if v == s:
            return 0
        r0, r1, r2, r3, r4, wide = self._delta_tables[k]
        d = 0
        for values in r0:
            d += values[v] - values[s]
        for values, stk, a, sa in r1:
            base = x[a] * sa
            d += values[base + v * stk] - values[base + s * stk]
        for values, stk, a, sa, b, sb in r2:
            base = x[a] * sa + x[b] * sb
            d += values[base + v * stk] - values[base + s * stk]
        for values, stk, a, sa, b, sb, c, sc in r3:
            base = x[a] * sa + x[b] * sb + x[c] * sc
            d += values[base + v * stk] - values[base + s * stk]
        for values, stk, a, sa, b, sb, c, sc, e, se in r4:
            base = x[a] * sa + x[b] * sb + x[c] * sc + x[e] * se
            d += values[base + v * stk] - values[base + s * stk]
        for values, stk, rest in wide:
            base = 0
            for var, st in rest:
                base += x[var] * st
            d += values[base + v * stk] - values[base + s * stk]
        return d

    def is_local_solution(self, x: Sequence[int]) -> bool:
        """True iff no permitted move strictly increases fitness."""
        self.check_assignment(x)
        for k, dom in enumerate(self.domains):
            s = x[k]
            for t in dom.adjacent(s):
                if self._delta(x, k, s, t) > 0:
                    return False
        return True

    def all_assignments(self) -> Iterator[tuple[int, ...]]:
        """Iterate the full assignment space in row-major order."""
        import itertools

        return itertools.product(*(range(s) for s in self.sizes))


# -- path decompositions ----------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered list of variable bags."""

    bags: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of checking a path decomposition against an instance.

    `width` is max bag size minus one when the decomposition is valid;
    otherwise `violation` describes the first problem found.
    """

    width: int | None
    violation: str | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_path_decomposition(
    instance: VcspInstance, decomposition: PathDecomposition
) -> DecompositionReport:
    """`check_hypergraph_decomposition` of the instance's own constraints."""
    edges = [(c.scope, c.label) for c in instance.constraints]
    return check_hypergraph_decomposition(instance.n_vars, edges, decomposition)


def check_hypergraph_decomposition(
    n_vars: int, edges: Sequence[Edge], decomposition: PathDecomposition
) -> DecompositionReport:
    """Check that the bags of variables 0..n_vars-1 cover each edge's scope, whose
    label only names a violation, and that each variable's bags are contiguous.

    Every variable's bags are contiguous exactly when each variable enters
    (is in a bag but not in the one before) once.  Then a scope lies inside
    some bag exactly when it lies inside the bag where the latest-entering
    of its variables enters, because intervals that meet pairwise share a
    point.  So a valid decomposition costs one subset test per distinct
    scope, all in one C-level pass; only one that fails it is walked again,
    by `_violation`, to word its first violation."""
    bags = decomposition.bags
    entering = list(map(frozenset.difference, bags, chain((frozenset(),), bags)))
    # the bag where each variable enters (its last entry if it enters twice)
    entry = {v: bi for bi, new in enumerate(entering) for v in new}
    # each distinct scope once, in order of first use
    scopes = list(dict.fromkeys(map(_scope_of, edges)))
    # per scope, the bag where its latest-entering variable enters; read only
    # once the scopes are known to be non-empty and made of bagged variables
    latest = map(max, map(map, repeat(entry.__getitem__), scopes))
    if (
        0 <= min(entry, default=0) and max(entry, default=-1) < n_vars
        and sum(map(len, entering)) == len(entry)
        and all(scopes)
        and entry.keys() >= set().union(*scopes)
        and all(map(frozenset.issuperset, map(bags.__getitem__, latest), scopes))
    ):
        return DecompositionReport(max(map(len, bags), default=0) - 1)
    return DecompositionReport(None, _violation(n_vars, edges, bags, scopes))


def _violation(
    n_vars: int, edges: Sequence[Edge], bags: Sequence[frozenset[int]], scopes: list
) -> str:
    """The first violation of a decomposition that has one, in this order: a
    bag entry that is not a variable; the first distinct scope whose
    variables' bag sets do not intersect (an empty scope, or one with a
    variable in no bag, never is), named by its first edge's label; the first
    variable, in order of first appearance, whose bags are not contiguous."""
    var_bags: dict[int, list[int]] = {}
    for bi, bag in enumerate(bags):
        for v in bag:
            if not (0 <= v < n_vars):
                return f"bag {bi} contains unknown variable {v}"
            var_bags.setdefault(v, []).append(bi)
    for scope in scopes:
        bag_sets = [set(var_bags.get(v, ())) for v in scope]
        if not (bag_sets and set.intersection(*bag_sets)):
            label = next(label for s, label in edges if s == scope)
            who = label or f"scope {sorted(scope)}"
            return f"scope of {who} ({sorted(scope)}) is not inside any bag"
    return next(
        f"variable {v} appears in bags {bs}, which is not a contiguous interval"
        for v, bs in var_bags.items()
        if bs[-1] - bs[0] + 1 != len(bs)
    )


# -- JSON serialization -----------------------------------------------------

_FORMAT_VERSION = 1


def instance_to_json(instance: VcspInstance) -> dict:
    """Instance as a JSON-ready dict (0-based variable ids)."""
    return {
        "version": _FORMAT_VERSION,
        "meta": {"family": instance.family, "n": instance.base_n},
        "variables": [
            {
                "name": instance.var_names[i],
                "states": list(d.states),
                "transitions": sorted([list(p) for p in d.transitions]),
            }
            for i, d in enumerate(instance.domains)
        ],
        "constraints": [
            {"label": c.label, "scope": list(c.scope), "values": list(c.values)}
            for c in instance.constraints
        ],
    }


def _field(obj: dict, key: str, kind: type, who: str, default=None):
    """obj[key] (or `default` when given and the key is absent), which must be
    of exactly `kind`, so JSON booleans never pass as integers."""
    if key not in obj and default is not None:
        return default
    if key not in obj:
        raise BuildError(f"{who} has no {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise BuildError(f"{who}: {key!r} must be of type {kind.__name__}")
    return value


def _items(obj: dict, key: str, kind: type, who: str, default=None) -> list:
    """obj[key] as a list whose items are all of exactly `kind`."""
    values = _field(obj, key, list, who, default)
    if any(type(v) is not kind for v in values):
        raise BuildError(f"{who}: {key!r} must hold only {kind.__name__} items")
    return values


def instance_from_json(data) -> VcspInstance:
    """Instance from its JSON form; a malformed document raises BuildError."""
    if not isinstance(data, dict):
        raise BuildError("instance file must hold a JSON object")
    version = data.get("version")
    if type(version) is not int or version != _FORMAT_VERSION:
        raise BuildError(f"unsupported instance format version {version!r}")
    domains = []
    names = []
    for i, v in enumerate(_items(data, "variables", dict, "instance file")):
        who = f"variable #{i}"
        names.append(_field(v, "name", str, who, default=""))
        pairs = _items(v, "transitions", list, who, default=[])
        if any(len(p) != 2 or any(type(s) is not int for s in p) for p in pairs):
            raise BuildError(f"{who}: every transition must be a pair of state ids")
        states = _items(v, "states", str, who)
        if len(set(states)) != len(states):
            raise BuildError(f"{who}: state labels must be distinct")
        domains.append(DomainSpec(tuple(states), frozenset(map(tuple, pairs))))
    constraints = []
    for i, c in enumerate(_items(data, "constraints", dict, "instance file")):
        who = f"constraint #{i}"
        constraints.append(
            ValuedConstraint(
                tuple(_items(c, "scope", int, who)),
                tuple(_items(c, "values", int, who)),
                _field(c, "label", str, who, default=""),
            )
        )
    meta = _field(data, "meta", dict, "instance file", default={})
    inst = VcspInstance(
        tuple(domains),
        tuple(constraints),
        family=_field(meta, "family", str, "meta", default=""),
        base_n=_field(meta, "n", int, "meta", default=0),
        var_names=tuple(names),
    )
    defects = inst.validate()
    if defects:
        raise BuildError("instance file is defective: " + "; ".join(defects))
    return inst


def save_instance(instance: VcspInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance)), encoding="utf-8")


def read_json(path: str | Path):
    """The JSON document in a file; one nested too deeply raises BuildError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise BuildError(f"{path}: JSON nested too deeply") from None


def load_instance(path: str | Path) -> VcspInstance:
    return instance_from_json(read_json(path))


def decomposition_to_json(d: PathDecomposition) -> dict:
    return {"bags": [sorted(b) for b in d.bags]}
