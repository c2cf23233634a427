"""One repetition of one workload, in a fresh single-threaded process.

Usage (normally started by run.py):

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED TRACE T_SPAWN

T_SPAWN is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start (CLOCK_MONOTONIC is
system-wide on Linux).  TRACE is 0 or 1.  The process prints one JSON
object: the repetition's timings, checked units, counterexamples, and, when
traced, its per-layer metrics and spans.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time

from tracer import Tracer
from workloads import ENGINE_NAMES, WORKLOADS


def _blanket_log2(instances) -> list[float]:
    """log2 of each variable's blanket space: its own domain size times the
    domain sizes of all its var_neighbors."""
    out = []
    for inst in instances:
        sizes = inst.sizes
        for k in range(inst.n_vars):
            out.append(
                math.log2(sizes[k]) + sum(math.log2(sizes[j]) for j in inst.var_neighbors(k))
            )
    return out


def properties(instances) -> dict[str, float]:
    blankets = _blanket_log2(instances)
    return {
        "model.vars": max(inst.n_vars for inst in instances),
        "model.constraints": max(len(inst.constraints) for inst in instances),
        "model.max_arity": max(inst.max_arity for inst in instances),
        "model.blanket_log2_p50": statistics.median(blankets),
        "model.blanket_log2_max": max(blankets),
    }


# Per-layer metrics read off the tracer's per-name aggregates: metric stem ->
# traced names.  Every `_s` here is self time; the verification checks below
# are inclusive, to line up with their own CheckReport.runtime_s.
SELF_TIMES = {
    "constructions.build_2by3": ("constructions.build_2by3",),
    "constructions.build_3by5": ("constructions.build_3by5",),
    "constructions.build_bool-pw4": ("constructions.build_boolean_pw4",),
    "constructions.simulate_ascent": ("constructions.simulate_ascent",),
    "constructions.pw4_equivalence": ("constructions.pw4_equivalence_violation",),
    "model.instance_init": ("model.VcspInstance.__init__",),
    "model.validate": ("model.VcspInstance.validate",),
    "model.worst_case_bound": ("model.VcspInstance.worst_case_bound",),
    "model.fitness": ("model.VcspInstance.fitness",),
    "model.check_path_decomposition": ("model.check_path_decomposition",),
    "ascent.verify": ("ascent.verify_ascent", "ascent.verify_steepest", "ascent.verify_ordered"),
    "cli.main": ("cli.main",),
}
CALL_COUNTS = {
    "constructions.build": (
        "constructions.build_2by3",
        "constructions.build_3by5",
        "constructions.build_boolean_pw4",
    ),
    "model.instance_init": ("model.VcspInstance.__init__",),
    "model.validate": ("model.VcspInstance.validate",),
    "model.worst_case_bound": ("model.VcspInstance.worst_case_bound",),
    "model.fitness": ("model.VcspInstance.fitness",),
    "ascent.verify": ("ascent.verify_ascent", "ascent.verify_steepest", "ascent.verify_ordered"),
}
CHECKS = {
    "ordered-length": "verification.check_ordered_length",
    "simulation": "verification.check_simulation",
    "padding": "verification.check_padding",
    "boolean": "verification.check_boolean",
    "pathwidth": "verification.check_pathwidth",
    "rank1": "verification.check_rank1",
}


class EngineMeter:
    """Tracer hooks that count engine steps and collect check runtimes."""

    def __init__(self):
        self.steps = {engine: 0 for engine in ENGINE_NAMES.values()}
        self.counts = {"tie_steps": 0, "ambiguous_steps": 0}
        self.walked: dict[int, object] = {}
        self.report_s = {check: 0.0 for check in CHECKS}

    def hooks(self) -> dict:
        out = {name: self._engine_hook(engine) for name, engine in ENGINE_NAMES.items()}
        for check, name in CHECKS.items():
            out[name] = self._check_hook(check)
        return out

    def _engine_hook(self, engine: str):
        def hook(args, trace):
            self.steps[engine] += trace.length
            self.counts["tie_steps"] += trace.tie_steps
            self.counts["ambiguous_steps"] += trace.ambiguous_steps
            self.walked.setdefault(id(args[0]), args[0])

        return hook

    def _check_hook(self, check: str):
        def hook(args, report):
            self.report_s[check] += report.runtime_s

        return hook


def layer_metrics(tracer, root, meter: EngineMeter) -> dict[str, float]:
    stats = tracer.stats

    def total(names, attr):
        return sum(getattr(stats[n], attr) for n in names if n in stats)

    m: dict[str, float] = {}
    for stem, names in SELF_TIMES.items():
        m[f"{stem}_s"] = total(names, "self_s")
    for stem, names in CALL_COUNTS.items():
        m[f"{stem}_calls"] = total(names, "calls")
    for name, engine in ENGINE_NAMES.items():
        seconds = total((name,), "self_s")
        steps = meter.steps[engine]
        m[f"ascent.{engine}_s"] = seconds
        m[f"ascent.{engine}_steps"] = steps
        m[f"ascent.{engine}_steps_per_s"] = steps / seconds if seconds > 0 else 0.0
    m["ascent.tie_steps"] = meter.counts["tie_steps"]
    m["ascent.ambiguous_steps"] = meter.counts["ambiguous_steps"]
    for check, name in CHECKS.items():
        m[f"verification.{check}_s"] = total((name,), "total_s")
        m[f"verification.{check}_report_s"] = meter.report_s[check]
    layers = tracer.layer_self_s()
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = seconds
    m["bench.self_s"] = root.self_s
    m["trace.root_s"] = root.duration_s
    residual = sum(layers.values()) + root.self_s - root.duration_s
    if abs(residual) > 1e-6 * root.duration_s + 1e-9:
        raise RuntimeError(f"layer self times miss the root span by {residual} s")
    return m


# The shared host's speed drifts by up to about 2x over seconds to minutes.
# A SpeedProbe therefore times a fixed kernel every PROBE_PERIOD_S during each
# repetition, and the repetition reports its times in reference seconds:
# seconds on a machine where CALIBRATION_LOOPS of the kernel take
# REFERENCE_S.  The kernel mimics the engines' inner loop (scope walks,
# big-integer table sums, small frozensets) without calling the package, so a
# change to the program cannot move it.  The factor cancels when two commits
# are compared on one machine; the measured seconds stay in the repetition's
# "raw" block.
CALIBRATION_LOOPS = 60_000
REFERENCE_S = 0.1
PROBE_LOOPS = 3_000
PROBE_PERIOD_S = 0.1


def calibrate(loops: int) -> float:
    t0 = time.perf_counter()
    scopes = [(i, (i + 1) % 32, (i + 7) % 32) for i in range(32)]
    strides = (9, 3, 1)
    values = [(i * 2654435761) % 2**71 - 2**70 for i in range(27)]
    x = [i % 3 for i in range(32)]
    total = 0
    kept = []
    for it in range(loops):
        k = it & 31
        for scope in (scopes[k], scopes[(k + 5) & 31]):
            idx = 0
            for var, st in zip(scope, strides):
                idx += x[var] * st
            total += values[idx]
        x[k] = (x[k] + 1) % 3
        if it & 7 == 0:
            kept.append(frozenset((k, it & 15)))
            if len(kept) > 256:
                kept.clear()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while a repetition runs.

    A SIGALRM interval timer runs the calibration kernel on the main thread,
    between two bytecodes of whatever is running.  The time spent in the
    handler is excluded from every interval read through `clock`, so the
    benchmark's timings and spans never contain it.
    """

    def __init__(self):
        self.excluded_s = 0.0
        self.per_loop_s: list[float] = []

    def sample(self, loops: int = PROBE_LOOPS) -> None:
        t0 = time.perf_counter()
        self.per_loop_s.append(calibrate(loops) / loops)
        self.excluded_s += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.excluded_s

    def scale(self) -> float:
        """Reference seconds per measured second."""
        mean = sum(self.per_loop_s) / len(self.per_loop_s)
        return REFERENCE_S / (mean * CALIBRATION_LOOPS)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def execute(workload, seed: int, traced: bool, t_spawn: float) -> dict:
    """Set up, run and check one workload object; return the repetition."""
    import ascentlab
    import ascentlab.cli

    probe = SpeedProbe()
    meter = EngineMeter()
    tracer = Tracer(clock=probe.clock, hooks=meter.hooks())
    if traced:
        tracer.install(ascentlab)
    elif workload.meter_engines:
        tracer.install(ascentlab, only=frozenset(ENGINE_NAMES))
    try:
        probe.sample(CALIBRATION_LOOPS)
        with probe:
            t0 = probe.clock()
            with tracer.root(f"bench.{workload.name}") as root:
                workload.setup(ascentlab, seed)
                setup_s = time.monotonic() - t_spawn - probe.excluded_s
                outcome = workload.run(ascentlab, probe.clock)
            wall_s = probe.clock() - t0
    finally:
        tracer.uninstall()
    probe.sample(CALIBRATION_LOOPS)
    scale = probe.scale()

    if workload.meter_engines:
        steps = sum(meter.steps.values())
        engine_s = sum(tracer.stats[n].self_s for n in ENGINE_NAMES if n in tracer.stats)
        counts = meter.counts
    else:
        steps, engine_s, counts = outcome.steps, outcome.engine_s, outcome.counts
    rep = {
        "traced": traced,
        "setup_s": setup_s * scale,
        "wall_s": wall_s * scale,
        "engine_s": engine_s * scale,
        "steps": steps,
        "counts": counts,
        "units": outcome.units,
        "failures": outcome.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "engine_s": engine_s,
            "probe_samples": len(probe.per_loop_s),
            "scale": scale,
        },
    }
    if traced:
        layers = layer_metrics(tracer, root, meter)
        for key in layers:
            if key.endswith("_per_s"):
                layers[key] /= scale
            elif key.endswith("_s"):
                layers[key] *= scale
        walked = workload.instances() if hasattr(workload, "instances") else meter.walked.values()
        layers.update(properties(list(walked)))
        rep["layers"] = layers
        rep["spans"] = tracer.span_records()
    return rep


def main(argv: list[str]) -> int:
    name, seed, traced, t_spawn = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    rep = execute(WORKLOADS[name](), seed, traced, t_spawn)
    json.dump(rep, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
