"""colosim: deterministic simulator for co-located data-parallel training jobs.

Multiple distributed training jobs time-share one GPU so that one job's
gradient synchronization overlaps another job's compute.  The package models
the schedule with an integer-nanosecond dispatch recurrence, prices
synchronization with ring-allreduce and parameter-server cost models, and
ships a numerical SGD oracle showing the interleaving leaves every job's
parameter trajectory bit-for-bit unchanged.
"""

from .comm import (
    Architecture,
    ClusterSpec,
    comm_time,
)
from .engine import (
    Phase,
    Span,
    Trace,
    trace_to_chrome_json,
    trace_to_json,
)
from .errors import ComparisonError, ConfigError, InvalidTraceError
from .metrics import Metrics, compare, measure, report
from .scenario import Scenario, load_config
from .scheduler import (
    Policy,
    SchedulePlan,
    makespan,
    predicted_speedup,
    simulate,
    steady_state_period,
    validate_trace,
)
from .workload import JobProfile, fixture_profile

__version__ = "0.1.0"
