"""Command-line interface: commands, formats, and exit codes."""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ascentlab
from ascentlab import build_2by3, f_max, instance_to_json, load_instance
from ascentlab.cli import _build_parser, main
from references import brute_force_extremes


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "chain2.json"
    code, out, _ = run(capsys, "gen", "--family", "2by3", "--n", "2", "--out", str(path))
    assert code == 0 and json.loads(out)["n"] == 2
    inst = load_instance(path)
    _, hi, _ = brute_force_extremes(inst)
    assert hi == 5
    mem = build_2by3(2)
    rng = random.Random(0)
    for _ in range(1000):
        x = tuple(rng.randrange(d.size) for d in inst.domains)
        assert inst.fitness(x) == mem.fitness(x)


def test_gen_boolean_writes_sidecars(tmp_path, capsys):
    path = tmp_path / "b4.json"
    code, _, _ = run(capsys, "gen", "--family", "bool-pw4", "--n", "4", "--out", str(path))
    assert code == 0
    inst = load_instance(path)
    assert inst.n_vars == 10 and inst.max_arity == 5
    codec = json.loads((tmp_path / "b4.codec.json").read_text())
    assert codec["collections"][0]["bits"] == 2
    decomp = json.loads((tmp_path / "b4.decomp.json").read_text())
    assert all(len(bag) <= 5 for bag in decomp["bags"])


def test_gen_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--family", "2by3", "--n", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "n >= 2" in err


def test_ascend_summary(capsys):
    code, out, _ = run(capsys, "ascend", "--family", "2by3", "--n", "4", "--engine", "ordered")
    summary = json.loads(out)
    assert code == 0
    assert summary["steps"] == 22 and summary["terminal"] is True
    assert summary["final_fitness"] == f_max(4)


def test_ascend_expanded_steepest(capsys):
    code, out, _ = run(capsys, "ascend", "--family", "3by5", "--n", "4", "--engine", "steepest")
    assert code == 0 and json.loads(out)["steps"] == 2 * f_max(4) == 44


# With h = n // 2, the even-n bool-pw4 walk ties at 3 * 2^h - 3 steps.
@pytest.mark.parametrize("family,n,ties", [("3by5", 4, 0), ("bool-pw4", 6, 3 * 2**3 - 3)])
def test_ascend_summary_counts_tied_steps(capsys, family, n, ties):
    code, out, _ = run(capsys, "ascend", "--family", family, "--n", str(n), "--engine", "steepest")
    summary = json.loads(out)
    assert list(summary) == [
        "family", "n", "engine", "start", "steps", "terminal", "final_fitness",
        "seconds", "steps_per_sec", "tie_steps", "ambiguous_steps",
    ]
    assert code == 0 and summary["steps"] == 2 * f_max(n)
    assert summary["tie_steps"] == ties and summary["ambiguous_steps"] == 0


def test_ascend_step_limit_exit_code(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, out, _ = run(
        capsys,
        "ascend", "--family", "2by3", "--n", "4",
        "--engine", "ordered", "--step-limit", "1", "--trace", str(trace),
    )
    assert code == 3
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "step,var,from,to,fitness" and len(lines) == 2


def test_ascend_start_file_and_json_trace(tmp_path, capsys):
    start = tmp_path / "start.json"
    start.write_text(json.dumps(["B", "C"]))
    trace = tmp_path / "t.json"
    code, out, _ = run(
        capsys,
        "ascend", "--family", "2by3", "--n", "2",
        "--start", str(start), "--trace", str(trace),
    )
    assert code == 0 and json.loads(out)["steps"] == 0
    assert json.loads(trace.read_text())["terminal"] is True


def test_ascend_flag_conflicts(capsys, monkeypatch):
    import ascentlab.cli as cli

    code, _, err = run(capsys, "ascend", "--family", "2by3")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "ascend")
    assert code == 2
    # An instance file sets its own n: `--n` with it is refused before loading.
    monkeypatch.setattr(cli, "load_instance", _must_not_run)
    code, out, err = run(capsys, "ascend", "--instance", "i.json", "--n", "7")
    _assert_usage_error(code, out, err)
    assert err == "error: give --n with --family and only with it\n"


def test_the_trace_suffix_picks_the_format_in_any_case(tmp_path, capsys):
    for name, first in (("t.JSON", "{"), ("t.Csv", "step,var,from,to,fitness")):
        code, _, _ = run(
            capsys, "ascend", "--family", "2by3", "--n", "2", "--trace", str(tmp_path / name)
        )
        assert code == 0 and (tmp_path / name).read_text().startswith(first)


@pytest.mark.parametrize("name", ["t.txt", "t", "t.json.gz"])
def test_a_trace_without_a_csv_or_json_suffix_fails_before_the_work(
    tmp_path, capsys, monkeypatch, name
):
    import ascentlab.cli as cli

    monkeypatch.setattr(cli, "build_family", _must_not_run)
    trace = tmp_path / name
    code, out, err = run(capsys, "ascend", "--family", "2by3", "--n", "4", "--trace", str(trace))
    _assert_usage_error(code, out, err)
    assert err == f"error: --trace {str(trace)!r} must end in .csv or .json\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,start",
    [
        (["bogus"], None),
        (["bench", "--family", "2by3", "--n-list", "2"], None),
        (["ascend", "--family", "2by3", "--n", "2", "--engine", "first"], None),
        (["ascend", "--family", "2by3", "--n", "2", "--seed", "1"], None),
        (["ascend", "--family", "2by3", "--n", "abc"], None),
        (["ascend", "--family", "2by3", "--n", "2", "--start"], {"values": [0, 0]}),
    ],
    ids=["bogus", "bench", "engine-first", "seed", "n-abc", "start-object"],
)
def test_removed_commands_and_options_exit_2(tmp_path, capsys, argv, start):
    # `ascend` runs steepest or ordered from a list start; there is no
    # second runner, no seeded engine and no object start file.  The
    # parser's own refusals are one `error:` line too, with no usage line.
    if start is not None:
        path = tmp_path / "start.json"
        path.write_text(json.dumps(start))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, out, err)
    assert "Traceback" not in err and "usage:" not in err


def test_summary_only_is_not_an_option(capsys):
    # Summary mode is what `ascend` runs unless --trace asks for the steps.
    code, out, err = run(capsys, "ascend", "--family", "2by3", "--n", "4", "--summary-only")
    _assert_usage_error(code, out, err)
    assert err == "error: unrecognized arguments: --summary-only\n"


@pytest.mark.parametrize("engine", ["steepest", "ordered"])
def test_ascend_prints_the_same_summary_with_and_without_a_trace(tmp_path, capsys, engine):
    argv = ["ascend", "--family", "bool-pw4", "--n", "6", "--engine", engine]
    summaries = []
    for extra in ([], ["--trace", str(tmp_path / "t.csv")]):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        summary = json.loads(out)
        del summary["seconds"], summary["steps_per_sec"]
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    steps = len((tmp_path / "t.csv").read_text().splitlines()) - 1
    assert steps == summaries[1]["steps"] > 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before its output path was checked")


@pytest.mark.parametrize(
    "argv,stage,name",
    [
        (["ascend", "--family", "2by3", "--n", "32", "--engine", "ordered", "--trace"],
         "_run_engine", "t.csv"),
        (["ascend", "--family", "2by3", "--n", "4", "--trace"], "_run_engine", "t.json"),
        (["gen", "--family", "2by3", "--n", "4", "--out"], "build_family", "i.json"),
        (["gen", "--family", "bool-pw4", "--n", "4", "--out"], "build_boolean_pw4", "b.json"),
        (["ascend", "--family", "2by3", "--n", "4", "--trace"], "build_family", "b.csv"),
    ],
)
def test_a_missing_output_directory_fails_before_the_work(
    tmp_path, capsys, monkeypatch, argv, stage, name
):
    import ascentlab.cli as cli

    monkeypatch.setattr(cli, stage, _must_not_run)
    missing = tmp_path / "missing" / name
    code, out, err = run(capsys, *argv, str(missing))
    _assert_usage_error(code, out, err)
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == []


def test_a_sidecar_path_that_is_a_directory_fails_before_the_build(
    tmp_path, capsys, monkeypatch
):
    import ascentlab.cli as cli

    monkeypatch.setattr(cli, "build_boolean_pw4", _must_not_run)
    blocked = tmp_path / "b.codec.json"
    blocked.mkdir()
    code, out, err = run(
        capsys, "gen", "--family", "bool-pw4", "--n", "4", "--out", str(tmp_path / "b.json")
    )
    _assert_usage_error(code, out, err)
    assert err == f"error: [Errno 21] Is a directory: '{blocked}'\n"
    assert list(tmp_path.iterdir()) == [blocked]


@pytest.mark.parametrize(
    "where,error", [("file/t.csv", "[Errno 20] Not a directory"), ("dir", "[Errno 21] Is a directory")]
)
def test_an_unwritable_trace_path_fails_before_the_walk(
    tmp_path, capsys, monkeypatch, where, error
):
    import ascentlab.cli as cli

    monkeypatch.setattr(cli, "_run_engine", _must_not_run)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    bad = tmp_path / where
    code, out, err = run(capsys, "ascend", "--family", "2by3", "--n", "4", "--trace", str(bad))
    _assert_usage_error(code, out, err)
    assert err == f"error: {error}: '{bad}'\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]


@pytest.mark.parametrize(
    "argv,option",
    [
        (["ascend", "--family", "2by3", "--n", "4", "--trace="], "--trace"),
        (["ascend", "--family", "2by3", "--n", "4", "--instance="], "--instance"),
        (["ascend", "--family", "2by3", "--n", "4", "--start="], "--start"),
        (["gen", "--family", "2by3", "--n", "4", "--out="], "--out"),
    ],
    ids=["trace", "instance", "start", "out"],
)
def test_an_empty_path_option_exits_2_naming_the_option(capsys, monkeypatch, argv, option):
    # An empty path is neither ignored (no trace, or the family run in place
    # of an instance) nor opened as the working directory.
    import ascentlab.cli as cli

    monkeypatch.setattr(cli, "build_family", _must_not_run)
    code, out, err = run(capsys, *argv)
    _assert_usage_error(code, out, err)
    assert err == f"error: argument {option}: needs a path, got ''\n"


_REMOVE = object()


def _put(doc, path, value=_REMOVE):
    """Set the entry of `doc` at `path` to `value`, or remove it."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is _REMOVE:
        del doc[last]
    else:
        doc[last] = value


def _edited(*path, to=_REMOVE):
    """The 2by3 n=2 instance document with the entry at `path` set to `to`,
    or removed."""
    doc = instance_to_json(build_2by3(2))
    _put(doc, path, to)
    return doc


def _bits(n, count):
    """A document of `count` bits with no constraints, tagged bool-pw4 of
    length n."""
    bit = {"states": ["0", "1"], "transitions": [[0, 1]]}
    return {
        "version": 1,
        "meta": {"family": "bool-pw4", "n": n},
        "variables": [bit] * count,
        "constraints": [],
    }


MALFORMED_INPUTS = {
    "instance-is-a-list": ("--instance", [instance_to_json(build_2by3(2))]),
    "instance-without-variables": ("--instance", _edited("variables")),
    "instance-without-constraints": ("--instance", _edited("constraints")),
    "variable-without-states": ("--instance", _edited("variables", 0, "states")),
    "constraint-without-values": ("--instance", _edited("constraints", 0, "values")),
    "fractional-value": ("--instance", _edited("constraints", 0, "values", 1, to=1.9)),
    "boolean-value": ("--instance", _edited("constraints", 0, "values", 1, to=True)),
    "boolean-version": ("--instance", _edited("version", to=True)),
    "repeated-state-label": ("--instance", _edited("variables", 0, "states", to=["A", "A"])),
    "start-object-without-values": ("--start", {"states": [0, 0]}),
    "start-is-a-number": ("--start", 5),
    "start-labels-too-long": ("--start", ["A", "B", "A"]),
    "fractional-start": ("--start", [0, 1.5]),
    "bool-pw4-of-length-0": ("--instance", _bits(0, 0)),
    "bool-pw4-of-length-1": ("--instance", _bits(1, 2)),
}


def _assert_usage_error(code, out, err):
    """Exit 2, nothing on stdout and one `error:` line on stderr."""
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1


def _ascend_on_file(tmp_path, capsys, flag, text):
    """`ascend` with `text` as its instance file or as the start file of the
    2by3 n=2 instance; the usage error it must end in is asserted."""
    path = tmp_path / "input.json"
    path.write_text(text)
    if flag == "--instance":
        source = ["--instance", str(path)]
    else:
        source = ["--family", "2by3", "--n", "2", "--start", str(path)]
    _assert_usage_error(*run(capsys, "ascend", *source))


@pytest.mark.parametrize(
    "flag,document", list(MALFORMED_INPUTS.values()), ids=list(MALFORMED_INPUTS)
)
def test_malformed_input_files_exit_2(tmp_path, capsys, flag, document):
    _ascend_on_file(tmp_path, capsys, flag, json.dumps(document))


@pytest.mark.parametrize("flag", ["--instance", "--start"])
def test_deeply_nested_input_files_exit_2(tmp_path, capsys, flag):
    _ascend_on_file(tmp_path, capsys, flag, "[" * 100_000 + "]" * 100_000)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _nodes(node, path=()):
    """(path, value) of every entry below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


# Any text, with line breaks made common.
TEXT = st.text(max_size=4) | st.text(st.sampled_from("a\n\r\x85\u2028"), max_size=4)

# Keys an instance document cannot do without.
REQUIRED = (
    ("version",), ("variables",), ("constraints",), ("variables", 1, "states"),
    ("constraints", 0, "scope"), ("constraints", 1, "values"),
)


@st.composite
def malformed_instances(draw):
    """A JSON document that is not a sound instance: not an object, an entry
    of the 2by3 n=2 document with another JSON type, a required key missing,
    or a bad version, scope, tensor, transition or state list.  Names and
    labels take any text, which alone keeps a document sound."""
    doc = instance_to_json(build_2by3(2))
    for entry in doc["variables"]:
        entry["name"] = draw(TEXT)
    for entry in doc["constraints"]:
        entry["label"] = draw(TEXT)
    var = draw(st.sampled_from(doc["variables"]))
    constraint = draw(st.sampled_from(doc["constraints"]))
    size = len(var["states"])
    kind = draw(st.sampled_from(
        ("root", "type", "missing", "version", "scope", "tensor", "transition", "states")
    ))
    if kind == "root":
        return draw(JSON.filter(lambda v: not isinstance(v, dict)))
    if kind == "type":
        path, old = draw(st.sampled_from(list(_nodes(doc))))
        _put(doc, path, draw(JSON.filter(lambda v: type(v) is not type(old))))
    elif kind == "missing":
        _put(doc, draw(st.sampled_from(REQUIRED)))
    elif kind == "version":
        doc["version"] = draw(st.integers().filter(lambda v: v != 1))
    elif kind == "scope":
        constraint["scope"] = draw(st.lists(st.integers(-2, 3), max_size=4).filter(
            lambda s: not s or len(set(s)) < len(s) or min(s) < 0 or max(s) > 1
        ))
    elif kind == "tensor":
        wrong = st.lists(st.integers(), max_size=8)
        constraint["values"] = draw(wrong.filter(lambda v: len(v) != len(constraint["values"])))
    elif kind == "transition":
        pair = st.integers(-2, size + 1)
        bad = draw(
            pair.filter(lambda s: 0 <= s < size).map(lambda s: [s, s])
            | st.lists(pair, min_size=2, max_size=2).filter(
                lambda p: not all(0 <= s < size for s in p)
            )
            | st.lists(pair, max_size=4).filter(lambda p: len(p) != 2)
        )
        at = draw(st.integers(0, len(var["transitions"])))
        var["transitions"].insert(at, bad)
    else:
        var["states"].insert(draw(st.integers(0, size)), draw(st.sampled_from(var["states"])))
    return doc


@settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(malformed_instances())
def test_fuzzed_malformed_instance_files_exit_2(tmp_path, capsys, document):
    _ascend_on_file(tmp_path, capsys, "--instance", json.dumps(document))


# A start value for 2by3 n=3: a state id in range or not, a label of some
# domain or of none, or any other JSON.
START_VALUE = st.integers(-1, 3) | st.integers() | st.sampled_from(("A", "B", "C", "sAB")) | JSON
# Start lists of any length, of the right length, and sound ones.
START_LIST = (
    st.lists(START_VALUE, max_size=5)
    | st.lists(START_VALUE, min_size=3, max_size=3)
    | st.lists(st.integers(0, 1) | st.sampled_from(("A", "B")), min_size=3, max_size=3)
)
START = (
    START_LIST
    | st.fixed_dictionaries({"values": START_LIST | JSON}, optional={"states": JSON})
    | JSON
)


@settings(
    max_examples=300, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(START)
def test_fuzzed_start_files_run_or_exit_2(tmp_path, capsys, document):
    path = tmp_path / "start.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "ascend", "--family", "2by3", "--n", "3", "--start", str(path))
    if code == 2:
        _assert_usage_error(code, out, err)
    else:
        assert code in (0, 3) and err == ""
        assert len(out.splitlines()) == 1 and json.loads(out)["n"] == 3


def test_oversized_meta_n_exits_2_before_building_a_start(tmp_path):
    # A start of 10^9 states would exhaust memory, so the run gets a capped
    # address space: a CLI that builds the start fails fast instead.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_edited("meta", "n", to=10**9)))
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = Path(ascentlab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "ascentlab.cli", "ascend", "--instance", str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: meta.n") and done.stderr.count("\n") == 1


def test_a_long_ordered_walk_runs_in_a_small_address_space():
    # Without --trace no step is recorded, so a 3.1M-step walk fits in 128 MB
    # of address space; recording its steps would need several times that.
    cap = 128 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = Path(ascentlab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "ascentlab", "ascend", "--family", "2by3", "--n", "34",
         "--engine", "ordered"],
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["steps"] == f_max(34)


def test_the_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```bash\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 7
    for line in lines:
        command = line.partition("#")[0].split()
        assert command[0] == "ascentlab"
        _build_parser().parse_args(command[1:])


@pytest.mark.parametrize(
    "check, cap",
    [
        pytest.param(check, cap, id=cap)
        for check, cap in [
            ("pathwidth", "pathwidth=-3"),
            ("pathwidth", "pathwidth=1"),
            ("boolean", "boolean-equiv=0"),
            ("pathwidth", "1"),
        ]
    ],
)
def test_verify_rejects_caps_below_two(capsys, check, cap):
    code, out, err = run(capsys, "verify", "--check", check, "--cap", cap)
    assert code == 2 and out == "" and "at least 2" in err


@pytest.mark.parametrize(
    "check, cap, value",
    [
        ("pathwidth", "pathwidth=x", "x"),
        ("pathwidth", "x", "x"),
        ("all", "pathwidth=", ""),
        ("pathwidth", "pathwidth=1.5", "1.5"),
        ("pathwidth", "1_0", "1_0"),
    ],
    ids=["named-x", "bare-x", "empty", "decimal-point", "underscore"],
)
def test_verify_refuses_a_cap_that_is_not_a_whole_number(capsys, monkeypatch, check, cap, value):
    import ascentlab.cli as cli

    monkeypatch.setattr(cli, "run_check", _must_not_run)
    code, out, err = run(capsys, "verify", "--check", check, "--cap", cap)
    _assert_usage_error(code, out, err)
    assert err == f"error: cap 'pathwidth' needs a whole number, got {value!r}\n"


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "rank1")
    report = json.loads(out.strip())
    assert code == 0 and report["passed"] is True and report["name"] == "rank1"


def test_verify_with_caps(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--check", "all",
        "--cap", "ordered-length=4", "--cap", "simulation=3",
        "--cap", "simulation-verify=2", "--cap", "padding=3",
        "--cap", "boolean=3", "--cap", "boolean-equiv=2", "--cap", "pathwidth=5",
    )
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 6
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_bare_cap_applies_to_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "pathwidth", "--cap", "6")
    assert code == 0 and json.loads(out.strip())["params"]["n_max"] == 6


def test_verify_simulation_names_the_re_verification_it_ran(capsys):
    # a bare cap below the simulation-verify cap re-verifies only up to itself
    code, out, _ = run(capsys, "verify", "--check", "simulation", "--cap", "3")
    report = json.loads(out.strip())
    assert code == 0 and report["params"] == {"n_max": 3, "verify_max": 10}
    assert report["details"].endswith("for n=2..3 (full neighborhood re-verification up to n=3)")


@pytest.mark.parametrize("check", ["rank1", "all"])
def test_verify_bare_cap_needs_a_check_with_that_cap(capsys, check):
    code, out, err = run(capsys, "verify", "--check", check, "--cap", "5")
    _assert_usage_error(code, out, err)
    assert "bare --cap N needs a single --check" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "padding", "--cap", "simulation=5"], "does not read cap 'simulation'"),
        (["--check", "rank1", "--cap", "pathwidth=3"], "does not read cap 'pathwidth'"),
        (["--check", "padding", "--cap", "padding=3", "--cap", "padding=4"], "given twice"),
    ],
    ids=["other-check", "rank1", "twice"],
)
def test_verify_refuses_a_cap_its_check_does_not_read(capsys, monkeypatch, argv, message):
    import ascentlab.cli as cli

    def refuse(name, caps):
        raise AssertionError(f"check {name} ran")

    monkeypatch.setattr(cli, "run_check", refuse)
    code, out, err = run(capsys, "verify", *argv)
    _assert_usage_error(code, out, err)
    assert message in err


@pytest.mark.parametrize(
    "check, cap", [("simulation", "simulation-verify=3"), ("boolean", "boolean-equiv=2")]
)
def test_verify_reads_the_caps_named_after_its_check(capsys, check, cap):
    code, out, _ = run(capsys, "verify", "--check", check, "--cap", "3", "--cap", cap)
    assert code == 0 and json.loads(out)["passed"]


def test_verify_legacy_check_names(capsys):
    # Once names of ordered-length and simulation; no alias maps them.
    for name in ("prop11", "theorem8"):
        code, out, err = run(capsys, "verify", "--check", name, "--cap", "4")
        _assert_usage_error(code, out, err)
        assert err.startswith(f"error: unknown check {name!r}")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "bogus")
    assert code == 2 and "unknown check" in err


def test_ascend_boolean_instance_from_file(tmp_path, capsys):
    path = tmp_path / "b2.json"
    run(capsys, "gen", "--family", "bool-pw4", "--n", "2", "--out", str(path))
    code, out, _ = run(capsys, "ascend", "--instance", str(path), "--engine", "steepest")
    assert code == 0 and json.loads(out)["steps"] == 2 * f_max(2)


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    import ascentlab.cli as cli
    from ascentlab.verification import CheckReport

    def fake_run_check(name, caps):
        return CheckReport(name, {}, False, "forced", {"why": "injected"}, 0.0)

    monkeypatch.setattr(cli, "run_check", fake_run_check)
    code, out, _ = run(capsys, "verify", "--check", "rank1")
    report = json.loads(out.strip())
    assert code == 1 and report["passed"] is False and report["counterexample"]


def test_verify_reports_a_short_reference_walk(capsys, monkeypatch):
    from ascentlab import verification

    real = verification._doubled_walk

    def truncated(landscape):
        yield from list(real(landscape))[:-2]  # the last base move's two doubled moves

    monkeypatch.setattr(verification, "_doubled_walk", truncated)
    code, out, err = run(
        capsys, "verify", "--check", "boolean", "--cap", "boolean-equiv=2", "--cap", "boolean=3"
    )
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and err == ""
    report = json.loads(lines[0])
    assert report["name"] == "boolean" and report["passed"] is False
    assert report["counterexample"]["n"] == 2


def test_python_dash_m_runs_the_cli():
    src = Path(ascentlab.__file__).resolve().parents[1]

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ascentlab", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    done = module("--version")
    assert done.returncode == 0 and done.stdout.strip() == f"ascentlab {ascentlab.__version__}"
    done = module("ascend", "--help")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: ascentlab ascend")
    done = module("verify", "--check", "nope")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_141_and_prints_nothing(buffered):
    src = Path(ascentlab.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ascentlab", "verify", "--check", "rank1"],
            env={**env, "PYTHONPATH": str(src)},
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (141, "")


def test_running_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    from ascentlab import verification

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(verification, "check_boolean", exhausted)
    code, out, err = run(capsys, "verify", "--check", "all")
    names = [json.loads(line)["name"] for line in out.splitlines()]
    assert (code, names) == (2, ["ordered-length", "simulation", "padding"])
    assert err == "error: check 'boolean' ran out of memory\n"

    import ascentlab.cli as cli

    monkeypatch.setattr(cli, "_run_engine", exhausted)
    assert run(capsys, "ascend", "--family", "2by3", "--n", "3") == (2, "", "error: MemoryError\n")
