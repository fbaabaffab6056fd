"""Scenario-matrix experiment harness.

Workloads x machine configs x fault plans, fanned out over worker
processes that boot from shared snapshots, with pluggable evaluators
asserting the machine's invariants (three-tier cycle parity, golden
cycle pins, supervised-recovery convergence) on every cell and
canonical-JSON result artifacts that reproduce byte-identically.

Run one from the command line::

    python -m repro.exp run demo --workers 4 --output demo.json
"""

from .campaigns import (
    CLUSTER_FAULT_TEMPLATE,
    DEMO_FAULT_TEMPLATE,
    MATRICES,
    ablation_matrix,
    cluster_matrix,
    demo_matrix,
    monte_carlo_matrix,
)
from .configs import (
    CONFIG_VARIANTS,
    ConfigVariant,
    config_hash,
    hash_payload,
    variant,
)
from .evaluate import (
    EVALUATORS,
    ClusterEvaluator,
    ConvergenceEvaluator,
    Evaluator,
    GoldenPinEvaluator,
    HoldAccountingEvaluator,
    TierParityEvaluator,
    default_evaluators,
)
from .matrix import (
    CLUSTER_WORKLOAD,
    WORKLOAD_DEFS,
    ExperimentMatrix,
    WorkloadDef,
    clear_boot_cache,
    derive_seed,
    execute_cell,
)
from .results import (
    aggregate,
    canonical_dumps,
    diff_results,
    format_ablation_table,
    format_summary,
    load_result,
    save_result,
)
from .scenario import ScenarioSpec

__all__ = [
    "CLUSTER_FAULT_TEMPLATE",
    "CLUSTER_WORKLOAD",
    "CONFIG_VARIANTS",
    "ClusterEvaluator",
    "ConfigVariant",
    "ConvergenceEvaluator",
    "DEMO_FAULT_TEMPLATE",
    "EVALUATORS",
    "Evaluator",
    "ExperimentMatrix",
    "GoldenPinEvaluator",
    "HoldAccountingEvaluator",
    "MATRICES",
    "ScenarioSpec",
    "TierParityEvaluator",
    "WORKLOAD_DEFS",
    "WorkloadDef",
    "ablation_matrix",
    "aggregate",
    "canonical_dumps",
    "clear_boot_cache",
    "cluster_matrix",
    "config_hash",
    "default_evaluators",
    "demo_matrix",
    "derive_seed",
    "diff_results",
    "execute_cell",
    "format_ablation_table",
    "format_summary",
    "hash_payload",
    "load_result",
    "monte_carlo_matrix",
    "save_result",
    "variant",
]
