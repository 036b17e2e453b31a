"""Campaign service layer: declarative sweeps behind ``repro serve``.

The campaign — not the single run — is the first-class experiment object.
This package provides:

* :mod:`repro.service.schema` — the versioned declarative campaign format
  (YAML/JSON) with strict validation and round-trip dump/load;
* :mod:`repro.service.planner` — expansion of a campaign of any kind
  (grid, microbenchmark, litmus) into its deduplicated
  :class:`~repro.analysis.parallel.RunSpec` cells (the one expansion
  helper shared by figures, the litmus check, sweep, validate and the
  service);
* :mod:`repro.service.fabric` — the shard pool that executes submitted
  campaigns through a shared :class:`~repro.analysis.parallel.Runner`,
  persists campaign state, and resumes half-done campaigns after a
  restart purely from cache state;
* :mod:`repro.service.http` — the stdlib-asyncio HTTP/1.1 surface
  started by ``repro serve`` (submit/status/results/NDJSON event
  streams);
* :mod:`repro.service.client` — the urllib client behind
  ``repro client`` and ``repro campaign run --remote``.

Layer contract (enforced by ``arch_lint``): the service may import
``repro.analysis`` but never ``repro.core``/``repro.memory``/``repro.sim``
directly — all simulation goes through the Runner.
"""

from repro.service.schema import (
    Campaign,
    CampaignError,
    ConfigSpec,
    GridSpec,
    OutputSpec,
    WorkloadSpec,
    default_campaign_dir,
    dump_campaign,
    load_campaign,
    loads_campaign,
)
from repro.service.planner import (
    CampaignCell,
    campaign_config_map,
    campaign_id,
    campaign_scale,
    expand_campaign,
    iter_cells,
)
from repro.service.fabric import CampaignRun, ShardPool
from repro.service.client import ServiceClient, ServiceError

__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignError",
    "CampaignRun",
    "ConfigSpec",
    "GridSpec",
    "OutputSpec",
    "ServiceClient",
    "ServiceError",
    "ShardPool",
    "WorkloadSpec",
    "campaign_config_map",
    "campaign_id",
    "campaign_scale",
    "default_campaign_dir",
    "dump_campaign",
    "expand_campaign",
    "iter_cells",
    "load_campaign",
    "loads_campaign",
]
