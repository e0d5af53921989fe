"""Experiment harness: scenarios, workloads, runners and the campaign
engine.  :mod:`repro.experiments.evaluation` declares every table and
figure of the paper's evaluation as data (import it directly).

docs/architecture.md maps the package and its data flow; ``repro list``
names every experiment.
"""

from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    ReplicateSpec,
    ReplicateTask,
    ResultCache,
    campaign_result_from_records,
    campaign_result_from_stream,
    campaign_spec_hash,
    merge_caches,
    run_campaign,
    run_replicate_specs,
)
from repro.experiments.orchestrator import (
    OrchestratorError,
    OrchestratorResult,
    orchestrate_campaign,
)
from repro.experiments.protocols import ProtocolConfig, as_protocol_config
from repro.experiments.runner import (
    available_protocols,
    build_world,
    run_replicates,
    run_single,
)
from repro.experiments.stream import (
    StreamError,
    load_stream,
    merge_streams,
    stream_task_count,
    union_records,
)
from repro.experiments.scenarios import PAPER_TABLE1, Scenario
from repro.experiments.suites import (
    available_suites,
    build_suite,
    suite_description,
)
from repro.experiments.workload import WorkloadSpec, generate_workload

__all__ = [
    "PAPER_TABLE1",
    "CampaignResult",
    "CampaignSpec",
    "OrchestratorError",
    "OrchestratorResult",
    "ProtocolConfig",
    "ReplicateSpec",
    "ReplicateTask",
    "ResultCache",
    "Scenario",
    "StreamError",
    "WorkloadSpec",
    "as_protocol_config",
    "available_protocols",
    "available_suites",
    "build_suite",
    "build_world",
    "campaign_result_from_records",
    "campaign_result_from_stream",
    "campaign_spec_hash",
    "generate_workload",
    "load_stream",
    "merge_caches",
    "merge_streams",
    "orchestrate_campaign",
    "run_campaign",
    "run_replicate_specs",
    "run_replicates",
    "run_single",
    "stream_task_count",
    "suite_description",
    "union_records",
]
