"""Built-in scenarios: the paper's figures plus the large-N sweep suite.

Importing this module populates :data:`repro.scenarios.registry.REGISTRY`
with every scenario the benchmarks, examples and CLI reference by name.

Tag conventions
---------------
``figure``
    Regenerates one of the paper's figures/tables (the ``benchmarks/``
    suite runs these per-PR at reduced scale).
``example``
    Referenced by scripts under ``examples/``.
``delta-sweep``
    Sweeps the SelSync δ threshold.
``paper-scale``
    The large-N (64–256) sweeps that only became affordable with the
    batched engine; the nightly ``--run-scenarios`` job runs these at
    registered size and checks their sweep contract (see
    ``benchmarks/scenario_suite.py``).  Tier-1 checks the same contract
    on the N=64 sweeps at reduced size.
``faults``
    Fault-injection reliability scenarios (worker crashes, checkpoint
    rejoins, straggler bursts) with deterministic-replay and
    loss-continuity gates; tier-1 and the nightly scenario suite run
    these.  Deliberately
    **not** tagged ``paper-scale`` — they follow different contracts than
    the δ-sweep suite.
"""

from __future__ import annotations

from repro.faults.schedule import crash, rejoin, straggler_burst
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import (
    ComparisonScenario,
    FaultScenario,
    SweepScenario,
    ThroughputScenario,
)

#: The Fig. 6 grid: δ = 0 is BSP, the 1e9 sentinel exceeds every observed
#: Δ(gᵢ) and degenerates to pure local SGD.
FIG6_DELTAS = (0.0, 0.05, 0.1, 0.25, 0.5, 1e9)

#: Grids for the large-N exact-endpoint sweeps, spread so intermediate δ
#: values land strictly between the BSP and local-SGD extremes under the
#: gradient-aggregation / no-forced-first-sync configuration they run in.
DEEP_MLP_DELTAS = (0.0, 0.1, 1.0, 2.0, 1e9)
TRANSFORMER_DELTAS = (0.0, 0.1, 0.25, 0.5, 1e9)

#: Cluster sizes of the paper-scale δ-sweeps.
PAPER_SCALE_WORKERS = (64, 128, 256)

#: Exact-endpoint configuration: gradient aggregation without a forced
#: first sync is the regime where SelSync δ=0 reproduces BSPTrainer and
#: δ→∞ reproduces a never-syncing LocalSGDTrainer bit-for-bit.
EXACT_ENDPOINT_PARAMS = {"aggregation": "grad", "sync_on_first_step": False}


def _table1_methods(full: bool = False):
    """Table I's method grid (the full paper grid under ``full=True``)."""
    methods = {
        "bsp": ("bsp", {}),
        "fedavg(1,0.25)": ("fedavg", {"participation": 1.0, "sync_factor": 0.25}),
        "fedavg(0.5,0.25)": ("fedavg", {"participation": 0.5, "sync_factor": 0.25}),
        "ssp(s=100)": ("ssp", {"staleness": 100}),
        "selsync(0.3)": ("selsync", {"delta": 0.3}),
        "selsync(0.5)": ("selsync", {"delta": 0.5}),
    }
    if full:
        methods.update(
            {
                "fedavg(1,0.125)": ("fedavg", {"participation": 1.0, "sync_factor": 0.125}),
                "fedavg(0.5,0.125)": ("fedavg", {"participation": 0.5, "sync_factor": 0.125}),
                "ssp(s=200)": ("ssp", {"staleness": 200}),
            }
        )
    return methods


# --------------------------------------------------------------------------- #
# figure scenarios (benchmarks/ run these, overriding iterations per scale)
# --------------------------------------------------------------------------- #
register_scenario(
    SweepScenario(
        name="fig6-delta-sweep",
        title="Fig. 6 — δ sweep between fully synchronous (δ=0) and fully local training",
        workload="resnet101",
        algorithm="selsync",
        grid={"delta": FIG6_DELTAS},
        num_workers=4,
        iterations=200,
        tags=("figure", "delta-sweep"),
    )
)

register_scenario(
    SweepScenario(
        name="fig6-transformer-delta-sweep",
        title="Fig. 6 (transformer) — δ sweep on the batched transformer analog",
        workload="transformer",
        algorithm="selsync",
        grid={"delta": FIG6_DELTAS},
        num_workers=8,
        iterations=80,
        batch_size=8,
        tags=("figure", "delta-sweep", "transformer"),
    )
)

register_scenario(
    ThroughputScenario(
        name="fig1a-throughput",
        title="Fig. 1a — relative throughput vs cluster size (PS, 5 Gbps)",
        workloads=("resnet101", "vgg11", "alexnet", "transformer"),
        worker_counts=(1, 2, 4, 8, 16),
        topology="ps",
        tags=("figure",),
    )
)

register_scenario(
    ComparisonScenario(
        name="table1-comparison",
        title="Table I — BSP vs FedAvg vs SSP vs SelSync",
        methods=_table1_methods(),
        workloads=("resnet101",),
        num_workers=4,
        iterations=160,
        tags=("figure", "table1"),
    )
)

register_scenario(
    ComparisonScenario(
        name="table1-comparison-full",
        title="Table I — BSP vs FedAvg vs SSP vs SelSync (full method grid)",
        methods=_table1_methods(full=True),
        workloads=("resnet101", "vgg11", "alexnet", "transformer"),
        num_workers=16,
        iterations=400,
        tags=("figure", "table1", "full-scale"),
    )
)

register_scenario(
    ComparisonScenario(
        name="table1-transformer",
        title="Table I (transformer) — method grid on the language-model workload",
        methods=_table1_methods(),
        workloads=("transformer",),
        num_workers=8,
        iterations=160,
        tags=("figure", "table1", "transformer"),
    )
)


# --------------------------------------------------------------------------- #
# example scenarios (examples/ look these up by name)
# --------------------------------------------------------------------------- #
for _workload in ("resnet101", "vgg11", "alexnet", "transformer", "deep_mlp"):
    register_scenario(
        SweepScenario(
            name=f"delta-sweep-{_workload}",
            title=f"δ sweep — {_workload}",
            workload=_workload,
            algorithm="selsync",
            grid={"delta": (0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 1e9)},
            num_workers=4,
            iterations=120,
            tags=("example", "delta-sweep"),
        )
    )

register_scenario(
    ComparisonScenario(
        name="quickstart",
        title="SelSync quickstart — BSP vs SelSync(δ=0.3)",
        methods={"bsp": ("bsp", {}), "selsync": ("selsync", {"delta": 0.3})},
        workloads=("resnet101",),
        num_workers=4,
        iterations=150,
        eval_every=25,
        use_convergence=False,
        tags=("example",),
    )
)


# --------------------------------------------------------------------------- #
# paper-scale δ-sweeps: the large-N suite the engine PRs made affordable.
# Exact-endpoint configuration (gradient aggregation, no forced first sync)
# so the runner can pin δ=0 to BSPTrainer and δ=max to LocalSGDTrainer.
# --------------------------------------------------------------------------- #
for _n in PAPER_SCALE_WORKERS:
    register_scenario(
        SweepScenario(
            name=f"deep-mlp-delta-n{_n}",
            title=f"δ sweep — deep-MLP analog, N={_n} (exact BSP/local-SGD endpoints)",
            workload="deep_mlp",
            algorithm="selsync",
            grid={"delta": DEEP_MLP_DELTAS},
            params=dict(EXACT_ENDPOINT_PARAMS),
            num_workers=_n,
            iterations=24,
            batch_size=4,
            verify_endpoints=True,
            tags=("paper-scale", "delta-sweep", "nightly"),
        )
    )
    register_scenario(
        SweepScenario(
            name=f"transformer-delta-n{_n}",
            title=f"δ sweep — transformer analog, N={_n} (exact BSP/local-SGD endpoints)",
            workload="transformer",
            algorithm="selsync",
            grid={"delta": TRANSFORMER_DELTAS},
            params=dict(EXACT_ENDPOINT_PARAMS),
            num_workers=_n,
            iterations=12,
            batch_size=2,
            verify_endpoints=True,
            tags=("paper-scale", "delta-sweep", "nightly", "transformer"),
        )
    )


# --------------------------------------------------------------------------- #
# fault-injection reliability scenarios (repro.faults): each runs twice with
# the same fault seed and must replay byte-identically; crashes must not
# break loss continuity.  See the "faults" tag convention above.
# --------------------------------------------------------------------------- #
register_scenario(
    FaultScenario(
        name="fault-replay-deep-mlp",
        title="Fault replay — SelSync survives a crash, a straggler burst and "
        "a checkpoint rejoin (deep-MLP analog)",
        workload="deep_mlp",
        algorithm="selsync",
        events=(
            crash(2, 8),
            straggler_burst(1, 12, duration=6, slowdown=3.0),
            rejoin(2, 24),
            crash(0, 40),
            rejoin(0, 56),
        ),
        checkpoint_every=8,
        num_workers=4,
        iterations=64,
        tags=("faults", "nightly"),
    )
)

register_scenario(
    FaultScenario(
        name="fault-random-deep-mlp-bsp",
        title="Fault process — BSP under a seeded crash/straggler process "
        "(deep-MLP analog)",
        workload="deep_mlp",
        algorithm="bsp",
        fault_seed=7,
        failure_rate=0.04,
        straggler_fraction=0.1,
        mttr=6,
        checkpoint_every=8,
        num_workers=4,
        iterations=64,
        tags=("faults", "nightly"),
    )
)

register_scenario(
    FaultScenario(
        name="fault-replay-transformer",
        title="Fault replay — SelSync crash/rejoin on the transformer analog",
        workload="transformer",
        algorithm="selsync",
        events=(crash(3, 6), rejoin(3, 18)),
        checkpoint_every=6,
        num_workers=4,
        iterations=32,
        tags=("faults", "nightly", "transformer"),
    )
)
