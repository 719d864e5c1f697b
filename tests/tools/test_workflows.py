"""CI workflow integrity: every ``run:`` step names things that exist.

Nothing executes the workflows before they land, so a step can keep naming
a file, a module, a pytest option or a ``repro`` subcommand long after it
was deleted, and the job only breaks on the runner.  For every ``run:``
step of ``.github/workflows/ci.yml`` and ``nightly.yml`` this checks that

* every repo path it names exists: a path whose first component is a
  top-level entry of the repo, or a bare ``name.ext`` file argument;
* every ``python -m`` module resolves;
* every ``python -m repro.harness.cli`` invocation parses under the real
  ``repro`` argument parser;
* every ``--run-*`` option and ``-m`` marker given to pytest is registered.
"""

from __future__ import annotations

import importlib.util
import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest
import yaml

from repro.harness.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW_DIR = ROOT / ".github" / "workflows"
WORKFLOWS = ("ci.yml", "nightly.yml")

#: Top-level entries of the repo: a token ``<entry>/...`` is a repo path.
TOP_LEVEL = {path.name for path in ROOT.iterdir()} - {".git"}

#: Suffixes that make a bare positional argument a repo file.
FILE_SUFFIXES = {".py", ".json", ".toml", ".yml", ".yaml", ".md", ".txt", ".cfg", ".ini"}

#: Command prefixes that only change how the command runs, with their
#: argument counts (``taskset -c 0 python ...``).
WRAPPERS = {"taskset": 2}


def run_steps(workflow: dict) -> Iterator[Tuple[str, str]]:
    """``(job: step name, script)`` for every ``run:`` step of a workflow."""
    for job_id, job in workflow["jobs"].items():
        for step in job.get("steps", []):
            if "run" in step:
                yield f"{job_id}: {step.get('name', step['run'])}", step["run"]


def commands(script: str) -> List[List[str]]:
    """Split a step's shell script into argv lists (expressions substituted)."""
    script = re.sub(r"\$\{\{[^}]*\}\}", "1", script).replace("\\\n", " ")
    argvs: List[List[str]] = []
    for line in script.splitlines():
        argv: List[str] = []
        for token in shlex.split(line, comments=True) + [";"]:
            if token in ("&&", "||", ";", "|"):
                if argv:
                    argvs.append(argv)
                argv = []
            else:
                argv.append(token)
    return argvs


def unwrap(argv: List[str]) -> List[str]:
    """Drop leading ``VAR=value`` assignments and wrappers like ``taskset -c 0``."""
    while argv:
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*=.*", argv[0]):
            argv = argv[1:]
        elif argv[0] in WRAPPERS:
            argv = argv[1 + WRAPPERS[argv[0]]:]
        else:
            break
    return argv


def repo_paths(argv: List[str]) -> Iterator[str]:
    for previous, token in zip([""] + argv, argv):
        if token.startswith(("-", "/")) or "=" in token or "$" in token or previous == "-c":
            continue
        if "/" in token and token.split("/")[0] in TOP_LEVEL:
            yield token
        elif "/" not in token and Path(token).suffix in FILE_SUFFIXES:
            if not previous.startswith("--"):  # an option's value is an output
                yield token


def module_exists(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def repro_parse_error(args: List[str]) -> str:
    try:
        build_parser().parse_args(args)
    except SystemExit as exc:
        return f"`repro {' '.join(args)}` does not parse (exit {exc.code})"
    return ""


def pytest_problems(args: List[str], config: pytest.Config) -> List[str]:
    problems = []
    for token in args:
        option = token.split("=")[0]
        if option.startswith("--run-"):
            try:
                config.getoption(option)
            except ValueError:
                problems.append(f"pytest option {option} is not registered")
    markers = {line.split(":")[0].strip() for line in config.getini("markers")}
    for flag, expression in zip(args, args[1:]):
        if flag == "-m":
            names = set(re.findall(r"[A-Za-z_]\w*", expression)) - {"and", "or", "not"}
            problems += [f"pytest marker {name!r} is not registered" for name in names - markers]
    return problems


def command_problems(argv: List[str], config: pytest.Config) -> List[str]:
    """Everything ``argv`` names that does not exist or does not parse."""
    argv = unwrap(argv)
    problems = [f"missing path {path}" for path in repo_paths(argv) if not (ROOT / path).exists()]
    if len(argv) >= 3 and argv[0] in ("python", "python3") and argv[1] == "-m":
        module, args = argv[2], argv[3:]
        if not module_exists(module):
            problems.append(f"no module {module}")
        elif module == "repro.harness.cli":
            problems.append(repro_parse_error(args))
        elif module == "pytest":
            problems += pytest_problems(args, config)
    return [problem for problem in problems if problem]


def script_problems(script: str, config: pytest.Config) -> List[str]:
    return [problem for argv in commands(script) for problem in command_problems(argv, config)]


def load(name: str) -> dict:
    return yaml.safe_load((WORKFLOW_DIR / name).read_text())


def test_the_workflow_files_are_the_checked_ones():
    assert sorted(path.name for path in WORKFLOW_DIR.glob("*.yml")) == sorted(WORKFLOWS)


@pytest.mark.parametrize("name", WORKFLOWS)
def test_every_run_step_names_what_exists(name, pytestconfig):
    broken = {
        step: problems
        for step, script in run_steps(load(name))
        if (problems := script_problems(script, pytestconfig))
    }
    assert broken == {}


@pytest.mark.parametrize("name", WORKFLOWS)
def test_every_workflow_has_run_steps_the_checker_understands(name):
    argvs = [unwrap(argv) for _, script in run_steps(load(name)) for argv in commands(script)]
    assert argvs and all(argv for argv in argvs)
    assert any(argv[:3] == ["python", "-m", "pytest"] for argv in argvs)


@pytest.mark.parametrize(
    "script, expected",
    [
        (
            "python -m pytest benchmarks/retired_bench.py -q",
            "missing path benchmarks/retired_bench.py",
        ),
        ("cp RETIRED_BASELINE.json /tmp/baseline.json", "missing path RETIRED_BASELINE.json"),
        (
            "python -m repro.harness.cli retired compare \\\n  /tmp/a.json /tmp/b.json",
            "`repro retired compare /tmp/a.json /tmp/b.json` does not parse",
        ),
        ("python -m benchmarks.retired_load --smoke", "no module benchmarks.retired_load"),
        ("PYTHONPATH=src python -m pytest tests --run-retired", "--run-retired is not registered"),
        ("python -m pytest benchmarks -m perf", "marker 'perf' is not registered"),
        ("taskset -c 0 python tools/no_such_tool.py", "missing path tools/no_such_tool.py"),
    ],
)
def test_a_stale_step_is_caught(script, expected, pytestconfig):
    problems = script_problems(script, pytestconfig)
    assert any(expected in problem for problem in problems), problems


@pytest.mark.parametrize(
    "script",
    [
        "python -m pytest benchmarks/scenario_suite.py --run-scenarios \\\n  --write-results -q -s",
        "python -m repro.harness.cli trace summarize nightly_trace.jsonl",
        "python -m benchmarks.ledger --seed ${{ github.run_number }} --out ledger.json",
        'python -c "import repro.api, repro.service"',
        "taskset -c 0 python -m pytest -q tests/engine -m faults",
    ],
)
def test_a_live_step_passes(script, pytestconfig):
    assert script_problems(script, pytestconfig) == []


def test_the_nightly_runs_the_ledger_and_uploads_its_outputs():
    nightly = load("nightly.yml")
    scripts = [script.strip() for _, script in run_steps(nightly)]
    assert (
        "python -m benchmarks.ledger --seed ${{ github.run_number }} "
        "--out ledger.json --spans-dir ledger-spans"
    ) in scripts
    uploaded = {
        step["with"]["path"].rstrip("/")
        for job in nightly["jobs"].values()
        for step in job["steps"]
        if str(step.get("uses", "")).startswith("actions/upload-artifact")
    }
    assert {"ledger.json", "ledger-spans"} <= uploaded
