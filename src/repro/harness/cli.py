"""Command-line interface: run any algorithm on any workload from the shell.

Examples
--------
Run SelSync on the ResNet analog with 8 simulated workers::

    python -m repro.harness.cli run --workload resnet101 --algorithm selsync \
        --num-workers 8 --iterations 200 --param delta=0.3

Every :class:`~repro.harness.experiment.RunConfig` field is a flag (the
field name with dashes); algorithm params go through the repeatable
``--param KEY=VALUE`` (VALUE parsed as JSON, else kept as a string).

Compare against BSP and print a Table-I style row::

    python -m repro.harness.cli compare --workload vgg11 --iterations 200

List the available workloads and algorithms::

    python -m repro.harness.cli list

Run a registered scenario from the declarative registry (see
:mod:`repro.scenarios`), optionally rescaled and archived as JSON::

    python -m repro.harness.cli scenario                     # list scenarios
    python -m repro.harness.cli scenario --tag paper-scale   # filter by tag
    python -m repro.harness.cli scenario fig6-delta-sweep --iterations 80 \
        --json /tmp/fig6.json

Inject a seeded crash/straggler fault process (see :mod:`repro.faults`)::

    python -m repro.harness.cli run --workload deep_mlp --algorithm selsync \
        --iterations 64 --failure-rate 0.05 --mttr 5 --fault-seed 7
    python -m repro.harness.cli scenario fault-replay-deep-mlp --fault-seed 3

Serve the experiment service and submit jobs to it over HTTP (see
:mod:`repro.service`)::

    python -m repro.harness.cli serve --port 8080 --db jobs.sqlite3
    python -m repro.harness.cli submit scenario '{"name": "quickstart"}' --wait

Record runs to the persistent history and inspect their trends (see
:mod:`repro.results`)::

    python -m repro.harness.cli scenario quickstart --record results.sqlite3
    python -m repro.harness.cli scenario history                # list scenarios
    python -m repro.harness.cli scenario history quickstart --metrics lssr

Summarize a telemetry span trace recorded via ``REPRO_TRACE_FILE`` (see
:mod:`repro.telemetry`)::

    python -m repro.harness.cli trace summarize /tmp/trace.jsonl
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from typing import Dict, Optional, Sequence

from repro.harness.experiment import TRAINERS, WORKLOAD_PRESETS, ConfigError, RunConfig
from repro.harness.reporting import format_table, results_to_rows, table1_headers

#: ``repro compare``'s methods; ``--param`` pairs update the SelSync entry.
COMPARE_METHODS = {
    "bsp": ("bsp", {}),
    "fedavg": ("fedavg", {"participation": 1.0, "sync_factor": 0.25}),
    "ssp": ("ssp", {"staleness": 100}),
    "selsync": ("selsync", {"delta": 0.3}),
}


def _add_config_flags(parser: argparse.ArgumentParser, source: type, names: Sequence[str],
                      help_format: str = "default: {default}") -> None:
    """One ``--field-name`` flag per field in ``names`` of the dataclass ``source``.

    The flag's type comes from the field's annotation.  An absent flag is
    absent from the namespace, so the field keeps the dataclass default.
    """
    hints = typing.get_type_hints(source)
    defaults = {f.name: f.default for f in dataclasses.fields(source)}
    for name in names:
        kind = next((a for a in typing.get_args(hints[name]) if a is not type(None)),
                    hints[name])
        required = defaults[name] is dataclasses.MISSING
        options = dict(default=argparse.SUPPRESS, required=required,
                       help=None if required else help_format.format(default=defaults[name]))
        if kind is bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options["type"] = kind
        parser.add_argument("--" + name.replace("_", "-"), **options)


def _config_fields(args: argparse.Namespace, names: Sequence[str]) -> Dict[str, object]:
    """The :class:`RunConfig` fields among ``names`` given on the command line."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


#: The ``repro run`` flags: every RunConfig field but ``params`` (see ``--param``).
RUN_FLAGS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "params")


def _cmd_list(_: argparse.Namespace) -> int:
    print("workloads :", ", ".join(sorted(WORKLOAD_PRESETS)))
    print("algorithms:", ", ".join(sorted(TRAINERS)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import RunRequest, run as api_run

    try:
        request = RunRequest(
            kind="experiment",
            params=_parse_pairs(args.param, "--param"),
            **_config_fields(args, RUN_FLAGS),
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    config = request.target
    out = api_run(request)
    result = out.results["run"]
    rows = [[
        out.label, result.iterations, round(result.lssr, 3),
        round(result.best_metric, 4), round(result.sim_time_seconds, 1),
    ]]
    print(format_table(
        ["method", "iterations", "LSSR", f"best {result.metric_name}", "simulated time (s)"],
        rows, title=f"{config.workload} on {config.num_workers} simulated workers",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.api import RunRequest, run as api_run

    fields = _config_fields(args, RUN_FLAGS)
    workload = fields.pop("workload")
    methods = dict(COMPARE_METHODS)
    algorithm, params = methods["selsync"]
    methods["selsync"] = (algorithm, {**params, **_parse_pairs(args.param, "--param")})
    try:
        request = RunRequest(
            kind="comparison", methods=methods, workloads=[workload], baseline="bsp",
            use_convergence=False, **fields,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    print(f"running {', '.join(methods)} ...", file=sys.stderr)
    out = api_run(request)
    results = {label: out.results[f"{workload}/{label}"] for label in methods}
    rows = results_to_rows(results, baseline_key="bsp")
    print(format_table(table1_headers(), rows, title=f"Comparison — {workload}, "
                       f"{request.target.num_workers} workers"))
    return 0


#: ``repro scenario run`` exit codes (stable CLI contract, asserted by tests).
EXIT_SCENARIO_ERROR = 2
EXIT_PARITY_FAILURE = 3


def _emit_json_error(path: Optional[str], *, code: str, message: str, **extra: object) -> None:
    """Write a structured JSON error (instead of a report) under ``--json``."""
    if not path:
        return
    with open(path, "w") as fh:
        json.dump({"error": {"code": code, "message": message, **extra}}, fh, indent=2)
    print(f"[error report written to {path}]", file=sys.stderr)


def _parse_pairs(pairs: Optional[Sequence[str]], flag: str) -> Dict[str, object]:
    """Parse repeated ``KEY=VALUE`` flags (VALUE as JSON, else as a string)."""
    parsed: Dict[str, object] = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            print(f"error: {flag} expects key=value, got {pair!r}", file=sys.stderr)
            raise SystemExit(EXIT_SCENARIO_ERROR)
        try:
            parsed[key] = json.loads(raw)
        except json.JSONDecodeError:
            parsed[key] = raw
    return parsed


def _cmd_scenario_history(args: argparse.Namespace) -> int:
    """``repro scenario history [SCENARIO]`` — render stored trend series."""
    import os

    from repro.harness.reporting import trend_table
    from repro.results import history_payload
    from repro.service.store import Store

    # Both forms only read: opening a missing path would create an empty store.
    if not os.path.exists(args.store):
        print(f"error: no results store at {args.store!r} "
              "(record runs with --record or repro serve first)", file=sys.stderr)
        return EXIT_SCENARIO_ERROR
    with Store(args.store) as handle:
        if args.extra is None:
            names = handle.scenarios()
            print(format_table(
                ["scenario"], [[name] for name in names],
                title=f"recorded scenarios in {args.store}",
            ))
            return 0
        payload = history_payload(
            handle,
            args.extra,
            metrics=[m.strip() for m in args.metrics.split(",") if m.strip()]
            if args.metrics else None,
            where=_parse_pairs(args.where, "--where") or None,
            last=args.last,
        )
        if not payload["series"]:
            print(f"error: no recorded history for scenario {args.extra!r} "
                  f"in {args.store}", file=sys.stderr)
            _emit_json_error(args.json, code="no_history",
                             message=f"no recorded history for {args.extra!r}",
                             scenario=args.extra)
            return EXIT_SCENARIO_ERROR
        tables = [
            trend_table(metric, points, title=f"{args.extra}: {metric}")
            for metric, points in payload["series"].items()
        ]
        print("\n\n".join(tables))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"[history written to {args.json}]", file=sys.stderr)
        return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.api import SCENARIO_OVERRIDES, RunRequest, run as api_run
    from repro.scenarios import get_scenario, scenario_names

    # "history" is a reserved subcommand-style name: the optional second
    # positional is the scenario whose stored trends to show.
    if args.name == "history":
        return _cmd_scenario_history(args)
    if args.name is None:
        rows = []
        for name in scenario_names(tag=args.tag):
            scenario = get_scenario(name)
            rows.append([name, scenario.kind, ", ".join(scenario.tags), scenario.title])
        title = "registered scenarios" + (f" (tag: {args.tag})" if args.tag else "")
        print(format_table(["name", "kind", "tags", "title"], rows, title=title))
        return 0
    print(f"running scenario {args.name!r} ...", file=sys.stderr)
    try:
        out = api_run(RunRequest(
            kind="scenario", scenario=args.name, **_config_fields(args, SCENARIO_OVERRIDES),
        ), record_to=args.record)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit_json_error(args.json, code="scenario_error", message=str(exc),
                         scenario=args.name)
        return EXIT_SCENARIO_ERROR
    report = out.report
    print(report.table())
    if report.endpoints:
        verdicts = ", ".join(
            f"{anchor}={info['matches_sweep_endpoint']}"
            for anchor, info in report.endpoints.items()
        )
        print(f"\nexact endpoint parity vs existing trainers: {verdicts}")
        failed = sorted(
            anchor for anchor, info in report.endpoints.items()
            if not info["matches_sweep_endpoint"]
        )
        if failed:
            print(f"error: endpoint parity verification failed for {failed}",
                  file=sys.stderr)
            _emit_json_error(
                args.json, code="endpoint_parity_failure",
                message=f"endpoint parity verification failed for {failed}",
                scenario=args.name, failed_anchors=failed,
                endpoints=report.endpoints,
            )
            return EXIT_PARITY_FAILURE
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"[report written to {args.json}]", file=sys.stderr)
    return 0


def _print_to_step_summary(output: str) -> None:
    """Print ``output`` and append it to the CI job summary when one is set."""
    import os

    print(output)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(output + "\n")


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    """``repro trace summarize FILE`` — per-phase time-share table of a trace."""
    import os

    from repro.telemetry import summarize_trace

    if not os.path.exists(args.file):
        print(f"error: no trace file at {args.file!r}", file=sys.stderr)
        return 2
    summary = summarize_trace(args.file)
    if summary["span_count"] == 0:
        print(f"error: {args.file!r} contains no spans", file=sys.stderr)
        return 2
    phases = sorted(
        summary["phases"].items(), key=lambda item: item[1]["total_seconds"], reverse=True
    )
    rows = [
        [
            name,
            stats["count"],
            round(stats["total_seconds"], 4),
            round(stats["mean_seconds"] * 1000.0, 3),
            f"{stats['share'] * 100.0:.1f}%",
        ]
        for name, stats in phases
    ]
    output = format_table(
        ["phase", "spans", "total (s)", "mean (ms)", "share of wall"],
        rows,
        title=f"trace summary — {args.file} "
        f"(wall {summary['wall_seconds']:.3f}s, {summary['span_count']} spans)",
    )
    _print_to_step_summary(output)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"[summary written to {args.json}]", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import QuotaManager, serve

    quotas = QuotaManager(
        max_active_jobs=args.max_active if args.max_active > 0 else None,
        rate=args.rate if args.rate > 0 else None,
        burst=args.burst,
    )
    serve(
        host=args.host,
        port=args.port,
        db_path=args.db,
        workers=args.service_workers,
        quotas=quotas,
        results_db=args.results_db,
    )
    return 0


def _parse_payload(raw: str) -> Dict[str, object]:
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            raw = fh.read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: payload is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"error: payload must be a JSON object, got {type(payload).__name__}")
    return payload


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url, tenant=args.tenant)
    payload = _parse_payload(args.payload)
    try:
        job = client.submit(args.action, payload)
        if args.wait:
            job = client.wait(job["id"], timeout=args.timeout)
    except ServiceClientError as exc:
        print(f"error ({exc.status} {exc.code}): {exc}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(exc.body or {"error": {"code": exc.code, "message": str(exc)}},
                          fh, indent=2)
        return 2
    except (TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.wait and job["state"] != "DONE":
        print(f"job {job['id']} finished {job['state']}"
              + (f": {job.get('error')}" if job.get("error") else ""), file=sys.stderr)
        print(json.dumps(job, indent=2))
        return 1
    output: Dict[str, object] = {"job": job}
    if args.wait:
        output["records"] = list(client.iter_records(job["id"]))
    print(json.dumps(output, indent=2))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(output, fh, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser: the ``list``, ``run``, ``compare``,
    ``scenario``, ``serve``, ``trace`` and ``submit`` subcommands."""
    from repro.api import SCENARIO_OVERRIDES
    from repro.scenarios import ComparisonScenario

    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list workloads and algorithms")
    list_parser.set_defaults(func=_cmd_list)

    param_help = ("algorithm param KEY=VALUE, VALUE as JSON (repeatable; "
                  "e.g. delta=0.3, aggregation=grad)")
    run_parser = sub.add_parser("run", help="run one algorithm on one workload")
    _add_config_flags(run_parser, RunConfig, RUN_FLAGS)
    run_parser.add_argument("--param", action="append", metavar="KEY=VALUE", help=param_help)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare", help="compare SelSync against the baselines")
    _add_config_flags(compare_parser, RunConfig, ["workload"])
    _add_config_flags(compare_parser, ComparisonScenario, [
        f.name for f in dataclasses.fields(ComparisonScenario) if f.name in RUN_FLAGS
    ])
    compare_parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                                help="SelSync " + param_help)
    compare_parser.set_defaults(func=_cmd_compare)

    scenario_parser = sub.add_parser(
        "scenario", help="list or run scenarios from the declarative registry"
    )
    scenario_parser.add_argument(
        "name", nargs="?", default=None,
        help="registered scenario name (omit to list scenarios; 'history' to "
        "inspect the persistent run store)",
    )
    scenario_parser.add_argument(
        "extra", nargs="?", default=None,
        help="with 'history': the recorded scenario to show (omit to list)",
    )
    scenario_parser.add_argument("--tag", default=None, help="filter the listing by tag")
    scenario_parser.add_argument(
        "--record", default=None, metavar="DB",
        help="append the finished run to this persistent results store",
    )
    scenario_parser.add_argument(
        "--store", default="repro_results.sqlite3", metavar="DB",
        help="results store queried by 'history' (default repro_results.sqlite3)",
    )
    scenario_parser.add_argument(
        "--metrics", default=None,
        help="with 'history': comma-separated metric restriction",
    )
    scenario_parser.add_argument(
        "--last", type=int, default=None, metavar="K",
        help="with 'history': keep only the most recent K runs per series",
    )
    scenario_parser.add_argument(
        "--where", action="append", default=None, metavar="KEY=VALUE",
        help="with 'history': restrict sweep records to one grid point "
        "(repeatable)",
    )
    _add_config_flags(scenario_parser, RunConfig, SCENARIO_OVERRIDES,
                      help_format="override the registered scenario's value")
    scenario_parser.add_argument(
        "--json", default=None, metavar="PATH", help="write the report as JSON to PATH"
    )
    scenario_parser.set_defaults(func=_cmd_scenario)

    serve_parser = sub.add_parser(
        "serve", help="run the multi-tenant experiment service (see repro.service)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080)
    serve_parser.add_argument(
        "--db", default="repro_jobs.sqlite3",
        help="SQLite job-queue path (':memory:' for ephemeral)",
    )
    serve_parser.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="concurrent job-executing worker threads",
    )
    serve_parser.add_argument(
        "--max-active", type=int, default=8, metavar="N",
        help="per-tenant active-job quota (0 disables)",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=10.0,
        help="per-tenant sustained submissions/second (0 disables rate limiting)",
    )
    serve_parser.add_argument(
        "--burst", type=float, default=20.0, help="per-tenant submission burst size"
    )
    serve_parser.add_argument(
        "--results-db", default="repro_results.sqlite3", metavar="DB",
        help="store every finished job's run is filed in "
        "(served back via GET /v1/history)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    trace_parser = sub.add_parser(
        "trace", help="inspect telemetry trace files (see repro.telemetry)"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase time-share summary of a JSONL trace file",
        description="repro trace summarize FILE: aggregate a JSONL span trace "
        "(written by a run under REPRO_TRACE_FILE) into a per-phase "
        "count/total/share table.",
    )
    trace_summarize.add_argument("file", help="JSONL trace file to summarize")
    trace_summarize.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the summary dict as JSON to PATH",
    )
    trace_summarize.set_defaults(func=_cmd_trace_summarize)

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a running experiment service"
    )
    submit_parser.add_argument(
        "action",
        choices=("experiment", "sweep", "comparison", "throughput", "scenario"),
        help="submission action (one top-level action key)",
    )
    submit_parser.add_argument(
        "payload",
        help="JSON payload for the action, inline or @file "
        "(e.g. '{\"name\": \"quickstart\"}')",
    )
    submit_parser.add_argument("--url", default="http://127.0.0.1:8080")
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job is terminal and print its records",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout in seconds"
    )
    submit_parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write the output JSON to PATH"
    )
    submit_parser.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
