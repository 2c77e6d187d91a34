"""RUBiS-like three-tier service model (the paper's target application).

Since the topology refactor the three tiers are interpreted from the
``rubis`` entry of the scenario library (:mod:`repro.topology.library`)
by the generic tier engine (:mod:`repro.topology.engine`); this package
keeps the catalogue and the configuration API.  The client emulators and
the ground-truth recorder serve every scenario and live in
:mod:`repro.topology.workload` and :mod:`repro.topology.groundtruth`.
"""

from .deployment import (
    APP_IP,
    APP_PORT,
    DB_IP,
    DB_PORT,
    RubisConfig,
    RubisDeployment,
    RubisRunResult,
    WEB_IP,
    WEB_PORT,
    run_rubis,
)
from .requests import (
    BROWSE_ONLY_MIX,
    CATALOG,
    DEFAULT_MIX,
    QuerySpec,
    RequestType,
    VIEW_ITEM,
    WORKLOAD_MIXES,
    expected_query_count,
    expected_thread_holding_time,
    mix_by_name,
)

__all__ = [
    "APP_IP",
    "APP_PORT",
    "BROWSE_ONLY_MIX",
    "CATALOG",
    "DB_IP",
    "DB_PORT",
    "DEFAULT_MIX",
    "QuerySpec",
    "RequestType",
    "RubisConfig",
    "RubisDeployment",
    "RubisRunResult",
    "VIEW_ITEM",
    "WEB_IP",
    "WEB_PORT",
    "WORKLOAD_MIXES",
    "expected_query_count",
    "expected_thread_holding_time",
    "mix_by_name",
    "run_rubis",
]
