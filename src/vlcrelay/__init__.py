"""Discrete-event simulator and statistics toolkit for a visible-light
decode-and-relay vehicular link: PHY framing, relay state machine,
loss-cluster statistics, latency prediction, and stopping-distance
analysis.

The names below load lazily (PEP 562): ``import vlcrelay`` loads no
submodule, and a name imports its module, and only that, on first use.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "channel": ("ErrorProcess", "GilbertElliott", "IidBit", "IidPacket", "NbCluster",
                "PerDistanceTable", "per_at", "sample_losses"),
    "clusters": ("ClusterDistribution", "extract_clusters", "fit", "select_best"),
    "codec": ("ChipStream", "deframe", "frame", "manchester_decode", "manchester_encode",
              "validate_preamble"),
    "laws": ("Family", "FitResult", "LatencyParams", "ModelTable", "latency_from_clusters",
             "quantile", "sal_curve"),
    "node": ("LinkConfig", "Mode", "compute_per"),
    "safety": ("brake_distance", "comparison_table", "reaction_distance",
               "vlc_reaction_latency"),
    "sim": ("PacketTrace", "Summary", "read_trace", "read_trace_csv", "relay", "run",
            "summarize", "write_trace", "write_trace_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
