"""Queueing-delay minimization toolkit for overloaded layered networks."""

from .analytics import (
    DelayReport,
    analytic_report,
    empirical_report,
    packet_delay,
    path_weights,
)
from .discrete import TaggedRun, tagged_run
from .engine import (
    EngineError,
    PacketSinkError,
    QueueState,
    Trajectory,
    effective_rates,
    run,
    step,
)
from .network import (
    UNBOUNDED,
    ArrivalProfile,
    LayeredNetwork,
    Link,
    NetworkFormatError,
    RateAssignment,
    ServiceProfile,
    SimConfig,
    ValidationError,
    ensure_valid,
    fan_in_tree,
    full_connection,
    load,
    save,
    single_sink,
    validate,
)
from .optimize import (
    InfeasibleError,
    ObjectiveSpec,
    OverloadVerdict,
    balanced_growth_gamma,
    co_optimize,
    overload_check,
    throughput_tight_gamma,
)
from .policies import (
    BackpressurePolicy,
    CheckResult,
    QueueProportionalPolicy,
    StaticPolicy,
    backpressure_rates,
    check_min_delay_layered,
    check_min_delay_single_sink,
    check_min_delay_tree,
    construct_rate_proportional,
    initial_backlog_weights,
    max_link_rate_rates,
    parent_source_set,
    queue_proportional_rates,
    tree_rate_proportional,
)

__version__ = "0.1.0"
