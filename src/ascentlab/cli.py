"""Command-line front end: generate instances, run ascents, verify claims.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error,
3 step limit reached before a local solution.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .ascent import ordered_ascent, steepest_ascent, trace_to_csv, trace_to_json
from .constructions import (
    FAMILIES,
    build_boolean_pw4,
    build_family,
    canonical_start,
)
from .model import (
    BuildError,
    ModelError,
    decomposition_to_json,
    load_instance,
    read_json,
    save_instance,
)
from .verification import CHECK_NAMES, DEFAULT_CAPS, run_check

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_STEP_LIMIT = 3

# The walks `ascend` runs, by `--engine`.
_ENGINES = {"steepest": steepest_ascent, "ordered": ordered_ascent}

# Every line break `str.splitlines` knows, escaped, so that an error message
# quoting a label or a path from the input stays on one line.
_ONE_LINE = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _Parser(argparse.ArgumentParser):
    """Refuses malformed arguments with `BuildError`, which `main` reports as
    one `error:` line; the subparsers are of this class too."""

    def error(self, message: str):
        raise BuildError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ascentlab",
        description="Exact-integer VCSP landscapes with provably long ascents.",
    )
    parser.add_argument("--version", action="version", version=f"ascentlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build an instance and write it as JSON")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", required=True, type=int, help="number of chain positions")
    gen.add_argument("--out", required=True, help="output instance path (.json)")

    asc = sub.add_parser("ascend", help="run one ascent and print a summary")
    asc.add_argument("--instance", help="instance JSON produced by gen")
    asc.add_argument("--family", choices=FAMILIES, help="build in memory instead")
    asc.add_argument("--n", type=int)
    asc.add_argument("--engine", default="steepest", choices=tuple(_ENGINES))
    asc.add_argument(
        "--start",
        default="canonical",
        help="'canonical' or a JSON file with a list of state ids or labels",
    )
    asc.add_argument("--step-limit", type=int, default=None)
    asc.add_argument(
        "--trace",
        help="write the trace here (.csv or .json); without it no step is recorded",
    )

    ver = sub.add_parser("verify", help="run the structural checks")
    ver.add_argument(
        "--check", default="all", help=f"one of {', '.join(CHECK_NAMES)} or 'all'"
    )
    ver.add_argument(
        "--cap",
        action="append",
        default=[],
        help="size cap, either N (for the selected check) or name=N; repeatable",
    )
    return parser


def _output(path: str) -> Path:
    """`path`, checked before the work that fills it: if it is a directory or
    has none to hold it, reading it fails as writing would, creating nothing."""
    out = Path(path)
    if out.is_dir() or not out.parent.is_dir():
        out.open().close()
    return out


def _cmd_gen(args) -> int:
    out = _output(args.out)
    if args.family == "bool-pw4":
        stem = out.with_suffix("")
        codec_path, decomp_path = (_output(f"{stem}.{kind}.json") for kind in ("codec", "decomp"))
        instance, codec, decomp, _ = build_boolean_pw4(args.n)
        save_instance(instance, out)
        codec_path.write_text(json.dumps(codec.to_json()), encoding="utf-8")
        decomp_path.write_text(json.dumps(decomposition_to_json(decomp)), encoding="utf-8")
    else:
        save_instance(build_family(args.family, args.n), out)
    print(json.dumps({"written": str(out), "family": args.family, "n": args.n}))
    return EXIT_OK


def _load_start(args, instance) -> tuple[int, ...]:
    if args.start == "canonical":
        if not instance.family:
            raise BuildError("instance has no family tag; provide --start FILE")
        # Every family has at least one variable per position.
        if instance.base_n > instance.n_vars:
            raise BuildError(
                f"meta.n = {instance.base_n} cannot fit an instance of "
                f"{instance.n_vars} variables"
            )
        return canonical_start(instance.family, instance.base_n)
    data = read_json(args.start)
    if not isinstance(data, list):
        raise BuildError("start file must hold a list of state ids or labels")
    if len(data) != instance.n_vars:
        raise BuildError(f"assignment has length {len(data)}, expected {instance.n_vars}")
    values = []
    for k, v in enumerate(data):
        states = instance.domains[k].states
        if type(v) is int:
            values.append(v)
        elif isinstance(v, str) and v in states:
            values.append(states.index(v))
        else:
            raise BuildError(
                f"start value {v!r} for variable {k} is neither a state id nor a label"
            )
    return tuple(values)


def _run_engine(args, instance, start, record: bool):
    """One walk of the engine named by `--engine`."""
    return _ENGINES[args.engine](instance, start, args.step_limit, record_steps=record)


def _cmd_ascend(args) -> int:
    if bool(args.instance) == bool(args.family):
        raise BuildError("give exactly one of --instance or --family/--n")
    if (args.n is None) == bool(args.family):
        raise BuildError("give --n with --family and only with it")
    trace_path = args.trace and _output(args.trace)
    if trace_path and trace_path.suffix.lower() not in (".csv", ".json"):
        raise BuildError(f"--trace {args.trace!r} must end in .csv or .json")
    instance = load_instance(args.instance) if args.instance else build_family(args.family, args.n)
    start = _load_start(args, instance)
    t0 = time.perf_counter()
    trace = _run_engine(args, instance, start, bool(trace_path))
    seconds = time.perf_counter() - t0

    if trace_path:
        if trace_path.suffix.lower() == ".json":
            trace_path.write_text(json.dumps(trace_to_json(trace, instance)), encoding="utf-8")
        else:
            with trace_path.open("w", encoding="utf-8") as fh:
                trace_to_csv(trace, instance, fh)

    summary = {
        "family": instance.family,
        "n": instance.base_n,
        "engine": args.engine,
        "start": args.start,
        "steps": trace.length,
        "terminal": trace.terminal,
        "final_fitness": trace.final_fitness,
        "seconds": round(seconds, 6),
        "steps_per_sec": round(trace.length / max(seconds, 1e-9), 1),
        "tie_steps": trace.tie_steps,
        "ambiguous_steps": trace.ambiguous_steps,
    }
    print(json.dumps(summary))
    return EXIT_OK if trace.terminal else EXIT_STEP_LIMIT


def _parse_caps(raw: list[str], check: str) -> dict[str, int]:
    caps: dict[str, int] = {}
    for item in raw:
        if "=" in item:
            key, _, value = item.partition("=")
            if key not in DEFAULT_CAPS:
                raise BuildError(f"unknown cap {key!r}; known: {sorted(DEFAULT_CAPS)}")
            caps[key] = int(value)
        else:
            if check not in DEFAULT_CAPS:
                capped = [name for name in CHECK_NAMES if name in DEFAULT_CAPS]
                raise BuildError(f"bare --cap N needs a single --check of {capped}; use name=N")
            caps[check] = int(item)
    low = {key: n for key, n in caps.items() if n < 2}
    if low:
        raise BuildError(f"caps must be at least 2 (every check starts at n=2), got {low}")
    return caps


def _cmd_verify(args) -> int:
    check = args.check
    if check != "all" and check not in CHECK_NAMES:
        raise BuildError(f"unknown check {check!r}; known: {CHECK_NAMES} or 'all'")
    caps = _parse_caps(args.cap, check)
    names = CHECK_NAMES if check == "all" else (check,)
    all_ok = True
    for name in names:
        report = run_check(name, caps)
        print(json.dumps(report.to_json()))
        all_ok = all_ok and report.passed
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "ascend":
            return _cmd_ascend(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (ModelError, OSError, ValueError) as exc:
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
