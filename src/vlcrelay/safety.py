"""Road-safety arithmetic: reaction, braking, and stopping distances.

A braking actor travels v * t_reaction before the brakes bite, then
v^2 / (2 mu g) to standstill.  The comparison table pits a human driver,
an RF link at its standardized worst-case latency, and the optical relay
link (reaction time derived from the cluster-latency model at a 99%
delivery target) against each other over the same scenarios.
"""

from __future__ import annotations

import math

from ._errors import SafetyError
from ._record import Record
from ._tables import data_path, read_table
from .laws import LatencyParams, ModelTable, sal_curve

G_DEFAULT = 9.8  # m/s^2; pins braking distances to the published precision
MU_DEFAULT = 0.7  # dry asphalt, good tires
T_REACTION_HUMAN_S = 1.37  # fastest measured driver reaction
T_REACTION_RF_S = 0.100  # standardized worst-case RF road-safety latency
SAFETY_BAUD = 57000  # long-range delivery favors the slower, reliable rate
SAFETY_TARGET = 0.99


class NegativeLatency(SafetyError):
    pass


def kmh_to_ms(v_kmh: float) -> float:
    return v_kmh / 3.6


def brake_distance(v_ms: float, mu: float = MU_DEFAULT, g: float = G_DEFAULT) -> float:
    """Braking distance v^2 / (2 mu g) in meters."""
    if not (0 < mu < math.inf and 0 < g < math.inf):  # NaN fails
        raise SafetyError("mu and g must be finite and positive")
    if not 0 <= v_ms < math.inf:
        raise SafetyError(f"speed must be finite and >= 0, got {v_ms}")
    return v_ms * v_ms / (2.0 * mu * g)


def reaction_distance(v_ms: float, t_reaction_s: float) -> float:
    """Distance covered before braking starts: v * t."""
    if not (0 <= v_ms < math.inf and 0 <= t_reaction_s < math.inf):  # NaN fails
        raise SafetyError("speed and reaction time must be finite and >= 0")
    return v_ms * t_reaction_s


def vlc_reaction_latency(adr_latency_s: float, pt_s: float) -> float:
    """First correct reception lands one packet time before the relay ends."""
    if not pt_s <= adr_latency_s < math.inf:  # NaN fails
        raise NegativeLatency(f"relay latency {adr_latency_s} s is not finite or "
                              f"shorter than packet time {pt_s} s")
    return adr_latency_s - pt_s


class ComparisonRow(Record):
    v_kmh: float
    distance_m: float
    per: float
    vlc_reaction_latency_s: float
    vlc_relay_latency_s: float
    brake_m: float
    reaction_vlc_m: float
    reaction_rf_m: float
    reaction_human_m: float
    stop_vlc_m: float
    stop_rf_m: float
    stop_human_m: float


def comparison_table(rows, mu: float = MU_DEFAULT, g: float = G_DEFAULT,
                     t_human_s: float = T_REACTION_HUMAN_S,
                     t_rf_s: float = T_REACTION_RF_S,
                     baud: int = SAFETY_BAUD, target: float = SAFETY_TARGET,
                     table: ModelTable | None = None,
                     vlc_reaction_s: float | None = None) -> list[ComparisonRow]:
    """Actor comparison over (speed km/h, distance m, per) scenarios.

    Each row's relay latency is ``laws.sal_curve``'s at its PER and
    ``target``; the optical actor's reaction time is that less one packet
    time, unless ``vlc_reaction_s`` overrides it.
    """
    rows = list(rows)
    if not rows:
        raise SafetyError("comparison_table needs at least one scenario row")
    params = LatencyParams.from_baud(baud)
    points = sal_curve([per for _, _, per in rows], [target], table or ModelTable.bundled(),
                       params)
    out = []
    for (v_kmh, distance_m, per), point in zip(rows, points):
        reaction_s = (vlc_reaction_s if vlc_reaction_s is not None
                      else vlc_reaction_latency(point.latency_s, params.pt_s))
        v = kmh_to_ms(v_kmh)
        brake = brake_distance(v, mu, g)
        r_vlc = reaction_distance(v, reaction_s)
        r_rf = reaction_distance(v, t_rf_s)
        r_human = reaction_distance(v, t_human_s)
        out.append(ComparisonRow(
            v_kmh=float(v_kmh), distance_m=float(distance_m), per=float(per),
            vlc_reaction_latency_s=reaction_s, vlc_relay_latency_s=point.latency_s,
            brake_m=brake,
            reaction_vlc_m=r_vlc, reaction_rf_m=r_rf, reaction_human_m=r_human,
            stop_vlc_m=brake + r_vlc, stop_rf_m=brake + r_rf,
            stop_human_m=brake + r_human,
        ))
    return out


def bundled_scenarios() -> list[tuple[float, float, float]]:
    """Reference (speed, distance, per) rows shipped with the package."""
    return read_scenarios_csv(data_path("safety_scenarios.csv"))


def _scenario_row(row: dict[str, str]) -> tuple[float, float, float]:
    v_kmh, distance_m, per = (float(row[k]) for k in ("v_kmh", "distance_m", "per"))
    if not 0.0 <= v_kmh < math.inf:
        raise ValueError(f"v_kmh must be finite and >= 0, got {v_kmh}")
    if not 0.0 <= distance_m < math.inf:
        raise ValueError(f"distance_m must be finite and >= 0, got {distance_m}")
    if not 0.0 <= per <= 1.0:
        raise ValueError(f"per must be in [0, 1], got {per}")
    return v_kmh, distance_m, per


def read_scenarios_csv(path) -> list[tuple[float, float, float]]:
    rows = read_table(path, ("v_kmh", "distance_m", "per"), _scenario_row, SafetyError)
    if not rows:
        raise SafetyError(f"{path}: no scenario rows")
    return rows
