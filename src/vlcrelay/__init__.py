"""Discrete-event simulator and statistics toolkit for a visible-light
decode-and-relay vehicular link: PHY framing, relay state machine,
loss-cluster statistics, latency prediction, and stopping-distance
analysis."""

from .channel import (
    ErrorProcess,
    GilbertElliott,
    IidBit,
    IidPacket,
    NbCluster,
    PerDistanceTable,
    per_at,
    sample_losses,
)
from .clusters import (
    ClusterDistribution,
    Family,
    FitResult,
    LatencyParams,
    ModelTable,
    extract_clusters,
    fit,
    latency_from_clusters,
    nb_pmf,
    prediction_error,
    quantile,
    sal_curve,
    select_best,
)
from .codec import (
    ChipStream,
    deframe,
    frame,
    manchester_decode,
    manchester_encode,
    validate_preamble,
)
from .node import (
    LinkConfig,
    Mode,
    compute_per,
    estimate_ber_upper,
)
from .safety import (
    SafetyScenario,
    brake_distance,
    comparison_table,
    reaction_distance,
    stop_distance,
    vlc_reaction_latency,
)
from .sim import (
    PacketTrace,
    Summary,
    read_trace,
    read_trace_csv,
    relay,
    run,
    summarize,
    write_trace,
    write_trace_csv,
)

__version__ = "0.1.0"
