"""The benchmark's four workloads.

Each workload builds its inputs in `setup` (counted in set-up time), then
`run` makes the timed engine or check calls and checks every output exactly.
A checked unit is one walk or one verify check; a unit that fails adds one
counterexample to `Outcome.failures`.  Workloads reach the package only
through attributes of the `ascentlab` package and its modules, so a traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

# Engine entry points; verify-all times them with a light meter even when
# tracing is off, because they are called from inside the checks.
ENGINE_NAMES = {
    "ascent.ordered_ascent": "ordered",
    "ascent.steepest_ascent": "steepest",
    "ascent.first_improvement_ascent": "first",
}


@dataclass
class Outcome:
    units: int = 0
    failures: list = field(default_factory=list)
    steps: int = 0  # applied steps of the workload's measured walks
    engine_s: float = 0.0  # time inside those engine calls
    counts: dict = field(default_factory=dict)

    def walk(self, trace, seconds: float) -> None:
        self.steps += trace.length
        self.engine_s += seconds
        for key in ("tie_steps", "ambiguous_steps"):
            self.counts[key] = self.counts.get(key, 0) + getattr(trace, key)

    def unit(self, what: str, problems: list[str], **witness) -> None:
        self.units += 1
        if problems:
            self.failures.append({"unit": what, "problems": problems, **witness})


def _timed(clock, fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    return out, clock() - t0


class OrderedChain:
    """Ordered ascent on 2by3: the paper's exponential headline."""

    name = "ordered-chain"
    meter_engines = False

    def __init__(self, small: bool = False):
        self.n = 6 if small else 32

    def setup(self, al, seed: int) -> None:
        self.inst = al.build_2by3(self.n)
        self.start = al.canonical_start("2by3", self.n)

    def instances(self):
        return [self.inst]

    def run(self, al, clock) -> Outcome:
        out = Outcome()
        trace, seconds = _timed(clock, al.ordered_ascent, self.inst, self.start, record_steps=False)
        out.walk(trace, seconds)
        target = al.f_max(self.n)
        problems = []
        if trace.length != target:
            problems.append(f"length {trace.length} != f_max({self.n}) = {target}")
        if not trace.terminal:
            problems.append("not terminal")
        recheck = self.inst.fitness(trace.final)
        if not trace.final_fitness == target == recheck:
            problems.append(
                f"final_fitness {trace.final_fitness}, f_max {target}, re-check {recheck}"
            )
        if trace.ambiguous_steps != 0:
            problems.append(f"{trace.ambiguous_steps} ambiguous steps")
        out.unit(f"ordered 2by3 n={self.n}", problems, final=list(trace.final))
        return out


class SteepestBool:
    """Steepest ascent on bool-pw4: the paper's main result."""

    name = "steepest-bool"
    meter_engines = False

    def __init__(self, small: bool = False):
        self.n = 4 if small else 18

    def setup(self, al, seed: int) -> None:
        self.inst, self.codec, _, self.start = al.build_boolean_pw4(self.n)
        self.base = al.build_2by3(self.n)
        self.base_start = al.canonical_start("2by3", self.n)

    def instances(self):
        return [self.inst]

    def run(self, al, clock) -> Outcome:
        out = Outcome()
        trace, seconds = _timed(clock, al.steepest_ascent, self.inst, self.start, record_steps=False)
        out.walk(trace, seconds)
        target = 2 * al.f_max(self.n)
        problems = []
        if trace.length != target:
            problems.append(f"length {trace.length} != 2*f_max({self.n}) = {target}")
        if not trace.terminal:
            problems.append("not terminal")
        recheck = self.inst.fitness(trace.final)
        if trace.final_fitness != recheck:
            problems.append(f"final_fitness {trace.final_fitness} != re-check {recheck}")
        reference = al.ordered_ascent(self.base, self.base_start, record_steps=False)
        decoded = self.codec.decode_states(trace.final)
        if decoded != list(reference.final):
            problems.append(
                f"decoded final {decoded} != ordered 2by3 final {list(reference.final)}"
            )
        out.unit(f"steepest bool-pw4 n={self.n}", problems, final=list(trace.final))
        return out


# verify-all at a reduced size, for the benchmark's own tests.
SMALL_CAPS = (
    "ordered-length=4",
    "simulation=4",
    "simulation-verify=4",
    "padding=3",
    "boolean=4",
    "boolean-equiv=2",
    "pathwidth=6",
)


class VerifyAll:
    """`ascentlab verify --check all`, in-process, with the default caps."""

    name = "verify-all"
    meter_engines = True

    def __init__(self, small: bool = False):
        self.argv = ["verify", "--check", "all"]
        if small:
            for cap in SMALL_CAPS:
                self.argv += ["--cap", cap]

    def setup(self, al, seed: int) -> None:
        pass

    def run(self, al, clock) -> Outcome:
        out = Outcome()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = al.cli.main(self.argv)
        reports = {}
        for line in buf.getvalue().splitlines():
            report = json.loads(line)
            reports[report["name"]] = report
        for name in al.verification.CHECK_NAMES:
            report = reports.get(name)
            if report is None:
                out.unit(f"verify {name}", ["no report"])
            elif not report["passed"]:
                out.unit(
                    f"verify {name}",
                    [report["details"]],
                    counterexample=report["counterexample"],
                )
            else:
                out.unit(f"verify {name}", [])
        if code != 0 and not out.failures:
            out.failures.append({"unit": "verify exit code", "problems": [f"exit code {code}"]})
        return out


class RandomVcsp:
    """Seeded random VCSPs: big blankets, values beyond 2^63, all three engines."""

    name = "random-vcsp"
    meter_engines = False
    N_VARS = 60
    N_CONSTRAINTS = 150
    VALUE = 2**70

    def __init__(self, small: bool = False):
        self.n_instances = 2 if small else 40
        self.n_starts = 1 if small else 5

    def _instance(self, al, rng: random.Random, i: int):
        domains = []
        for _ in range(self.N_VARS):
            size = rng.randint(2, 4)
            kind = rng.choice(("path", "path", "complete", "complete", "empty"))
            if kind == "path":
                moves = {(s, s + 1) for s in range(size - 1)}
            elif kind == "complete":
                moves = {(s, t) for s in range(size) for t in range(s + 1, size)}
            else:
                moves = set()
            states = tuple("ABCD"[:size])
            domains.append(al.DomainSpec(states, frozenset(moves)))
        constraints = []
        for c in range(self.N_CONSTRAINTS):
            arity = rng.choice((1, 2, 2, 3, 3))
            scope = tuple(rng.sample(range(self.N_VARS), arity))
            cells = 1
            for v in scope:
                cells *= domains[v].size
            values = tuple(rng.randint(-self.VALUE, self.VALUE) for _ in range(cells))
            constraints.append(al.ValuedConstraint(scope, values, f"r{i}.{c}"))
        return al.VcspInstance(tuple(domains), tuple(constraints), family=f"random{i}")

    def setup(self, al, seed: int) -> None:
        rng = random.Random(seed)
        self.cases = []
        for i in range(self.n_instances):
            inst = self._instance(al, rng, i)
            defects = inst.validate()
            if defects:
                raise RuntimeError(f"generated instance {i} is defective: {defects}")
            starts = [
                tuple(rng.randrange(size) for size in inst.sizes)
                for _ in range(self.n_starts)
            ]
            self.cases.append((inst, starts, rng.randrange(2**32)))

    def instances(self):
        return [inst for inst, _, _ in self.cases]

    def run(self, al, clock) -> Outcome:
        out = Outcome()
        for i, (inst, starts, first_seed) in enumerate(self.cases):
            for j, start in enumerate(starts):
                walks = (
                    ("steepest", al.steepest_ascent, {}),
                    ("ordered", al.ordered_ascent, {}),
                    ("first", al.first_improvement_ascent, {"seed": first_seed + j}),
                )
                for engine, fn, extra in walks:
                    trace, seconds = _timed(clock, fn, inst, start, record_steps=False, **extra)
                    out.walk(trace, seconds)
                    problems = []
                    if not trace.terminal:
                        problems.append("not terminal")
                    recheck = inst.fitness(trace.final)
                    if trace.final_fitness != recheck:
                        problems.append(
                            f"final_fitness {trace.final_fitness} != re-check {recheck}"
                        )
                    if not inst.is_local_solution(trace.final):
                        problems.append("final assignment is not a local solution")
                    out.unit(
                        f"{engine} random{i} start {j}",
                        problems,
                        start=list(start),
                        final=list(trace.final),
                    )
        return out


WORKLOADS = {w.name: w for w in (OrderedChain, SteepestBool, VerifyAll, RandomVcsp)}
