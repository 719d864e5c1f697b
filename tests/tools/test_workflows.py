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
* every ``--run-*`` option and ``-m`` marker given to pytest is registered;
* every job that runs pytest over ``tests/`` installs an extra listing each
  third-party module ``tests/`` imports at module level (collection aborts
  on the first missing one).
"""

from __future__ import annotations

import ast
import importlib.metadata
import importlib.util
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

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


def module_level_imports(path: Path) -> Set[str]:
    """Top-level package names a file imports in its module body."""
    names: Set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def third_party_test_imports() -> Set[str]:
    """Modules outside the stdlib and this repo that collecting ``tests/`` imports."""
    local = TOP_LEVEL | {path.name for path in (ROOT / "src").iterdir()}
    imported = set().union(*map(module_level_imports, (ROOT / "tests").rglob("*.py")))
    return imported - set(sys.stdlib_module_names) - local - {"__future__"}


def normalize(requirement: str) -> str:
    """Distribution name of a requirement string, PEP 503-normalized."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
    return re.sub(r"[-_.]+", "-", name).lower()


def project_requirements() -> Dict[str, Set[str]]:
    """``{extra: distributions}`` from pyproject.toml; ``""`` is the base list."""
    text = (ROOT / "pyproject.toml").read_text()
    lists = {"": re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)}
    section = text.split("[project.optional-dependencies]", 1)[1].split("\n[", 1)[0]
    lists.update(re.findall(r"^(\w+) = \[(.*?)\]", section, re.M | re.S))
    return {
        extra: {normalize(req) for req in re.findall(r'"([^"]+)"', body)}
        for extra, body in lists.items()
    }


def distributions_of(module: str) -> Set[str]:
    """Distributions that provide ``module`` (its own name when not installed)."""
    found = importlib.metadata.packages_distributions().get(module, [module])
    return {normalize(name) for name in found}


def installed_extras(job: dict) -> Set[str]:
    """Extras a job installs with ``pip install -e .[a,b]``."""
    return {
        extra.strip()
        for step in job.get("steps", [])
        for group in re.findall(r"pip install -e \.\[([^\]]*)\]", step.get("run", ""))
        for extra in group.split(",")
    }


def runs_pytest_over_tests(job: dict) -> bool:
    """A ``python -m pytest`` whose paths include ``tests/`` (no path: the rootdir)."""
    for step in job.get("steps", []):
        for argv in commands(step.get("run", "")):
            argv = unwrap(argv)
            if argv[:3] != ["python", "-m", "pytest"]:
                continue
            roots = [arg.split("/")[0] for arg in argv[3:] if not arg.startswith("-")]
            roots = [root for root in roots if root in TOP_LEVEL]
            if not roots or "tests" in roots:
                return True
    return False


def missing_test_dependencies(job: dict) -> Set[str]:
    """Third-party modules ``tests/`` imports that the job's extras do not list."""
    requirements = project_requirements()
    provided = set(requirements[""])
    for extra in installed_extras(job):
        provided |= requirements.get(extra, set())
    return {
        module for module in third_party_test_imports() if not distributions_of(module) & provided
    }


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


@pytest.mark.parametrize("name", WORKFLOWS)
def test_jobs_running_the_tests_install_what_collection_imports(name):
    missing = {
        job_id: missing_test_dependencies(job)
        for job_id, job in load(name)["jobs"].items()
        if runs_pytest_over_tests(job)
    }
    assert missing
    assert missing == dict.fromkeys(missing, set())


def test_test_imports_are_found_and_mapped_to_distributions():
    modules = third_party_test_imports()
    assert {"numpy", "pytest", "yaml", "hypothesis"} <= modules
    assert not modules & {"repro", "tests", "benchmarks", "os", "__future__"}
    assert "pyyaml" in distributions_of("yaml")


def test_a_job_installing_too_little_is_caught():
    job = {
        "steps": [
            {"run": "python -m pip install -e .[lint]"},
            {"run": "PYTHONPATH=src python -m pytest tests -m faults -q"},
        ]
    }
    assert runs_pytest_over_tests(job)
    assert {"pytest", "yaml", "hypothesis"} <= missing_test_dependencies(job)


@pytest.mark.parametrize(
    "script, over_tests",
    [
        ("python -m pytest -x -q --strict-markers", True),
        ("taskset -c 0 python -m pytest -q tests/engine", True),
        ("python -m pytest benchmarks -q --write-results", False),
        ("python -m benchmarks.ledger --smoke", False),
    ],
)
def test_which_steps_run_pytest_over_tests(script, over_tests):
    assert runs_pytest_over_tests({"steps": [{"run": script}]}) is over_tests


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
