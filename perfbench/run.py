"""ascentlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  Repetitions of the workload run one after
another (a closed loop with one client), each in a fresh single-threaded
Python process started from worker.py, until S seconds have passed and at
least MIN_REPS have run.  With --trace 0 the last stdout line carries the
end-to-end metrics (medians over the repetitions); with --trace 1 untraced
and traced repetitions alternate and it carries the per-layer metrics of the
traced ones, including the tracing overhead.  The line before it is the full
record: environment block, per-metric sample counts and quartiles, counts,
and counterexamples.  --out appends that record to a JSON-lines file that
compare.py reads; traced runs also write their spans under .bench_out/.

Every checked unit that fails prints its counterexample to stderr; its
repetition is counted as failed, not timed, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count; `p` is the highest whole percentile
    with at least ten samples beyond it (None below eleven samples)."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0], None, xs[0])
    p = None
    if n >= 11:
        pct = (100 * (n - 10)) // n
        p = {"percentile": pct, "value": xs[max(0, -(-pct * n // 100) - 1)]}
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": n, "p": p}


def spawn(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(traced)), repr(t_spawn)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {workload} repetition exceeded {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    reps: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(spawn(workload, seed, traced))
        plain = sum(not r["traced"] for r in reps)
        enough = plain >= (MIN_TRACED_REPS if trace else MIN_REPS)
        if trace:
            enough = enough and len(reps) - plain >= MIN_TRACED_REPS
        if enough and time.monotonic() >= deadline:
            return reps


def end_to_end(rep: dict) -> dict[str, float]:
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "steps_per_s": rep["steps"] / rep["engine_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def _columns(rows: list[dict]) -> dict[str, list]:
    return {k: [row[k] for row in rows] for k in rows[0]} if rows else {}


def aggregate(reps: list[dict], trace: bool, units_of: dict) -> tuple[dict, dict]:
    """(contract result, per-metric summaries) from a run's repetitions.

    Repetitions with a failed unit are counted in `failed` and left out of
    every timing."""
    good = [r for r in reps if not r["failures"]]
    attempted = sum(r["units"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    samples = _columns([end_to_end(r) for r in good if not r["traced"]])
    if trace:
        wall = samples.get("wall_s")
        samples = _columns([r["layers"] for r in good if r["traced"]])
        if samples and wall:
            samples["trace.overhead_ratio"] = [
                statistics.median(samples["trace.root_s"]) / statistics.median(wall)
            ]
    stats = {k: summary(v) for k, v in samples.items()}
    metrics = {k: {"value": s["median"], "unit": units_of[k]} for k, s in stats.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, stats


def environment(seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "numba_imports": _imports("numba"),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        pass
    sys.path.insert(0, str(SRC))
    from ascentlab import ascent, constructions

    # Which ordered path the ordered-chain walk takes: the compiled runner
    # only when this gate is true.
    chain = constructions.build_2by3(WORKLOADS["ordered-chain"]().n)
    env["fast_ordered_applicable"] = ascent._fast_ordered_applicable(chain)
    return env


def _imports(module: str) -> bool:
    try:
        importlib.import_module(module)
    except Exception:  # any import failure, as ascentlab._fastpath treats it
        return False
    return True


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def units_table() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "ascentlab" / "__init__.py").is_file():
        print(f"error: no ascentlab sources under {SRC}", file=sys.stderr)
        return 2
    units_of = units_table()
    # Compile once up front so no repetition pays for writing bytecode.
    compileall.compile_dir(str(SRC / "ascentlab"), quiet=2)

    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    result, stats = aggregate(reps, bool(args.trace), units_of)
    for rep in reps:
        for failure in rep["failures"]:
            print("FAILED " + json.dumps(failure), file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "loop": "closed, one client, one fresh process per repetition",
        "repetitions": len(reps),
        "counts": reps[0]["counts"],
        "counts_repeat": all(r["counts"] == reps[0]["counts"] for r in reps),
        "summary": stats,
        "raw": {
            key: summary([r["raw"][key] for r in reps if not r["traced"]])
            for key in ("wall_s", "setup_s", "scale")
        },
        "result": result,
    }
    if args.trace:
        trace_dir = ROOT / ".bench_out"
        trace_dir.mkdir(exist_ok=True)
        spans = [r["spans"] for r in reps if r["traced"]]
        path = trace_dir / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "repetitions": spans}))
        record["spans_file"] = str(path.relative_to(ROOT))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
