"""Link configuration: timing of the transmitter and the relay stage.

The receiver decodes each packet, bit-compares it against a stored
reference, and re-transmits it on a rear lamp when it matches.  While that
relay transmission is in flight the node cannot listen.  Whether it then
misses the next packet is a matter of timing alone,
``LinkConfig.relay_blocks``: on such a link at most every second packet can
be relayed (``sim.relay``), and the packet-error accounting below corrects
for that.  The mode only sets the period; back-to-back broadcast blocks,
and a beacon link or a broadcast link with a wide enough gap does not.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum
from numbers import Integral

from ._record import Record

FRAME_BITS = 32  # a frame: 2-byte preamble + 2-byte payload (codec)
CHIPS_PER_FRAME = 2 * FRAME_BITS  # Manchester: two chips per bit
DEFAULT_PREAMBLE = b"\xff\xff"
REFERENCE_PAYLOAD = b"\xa5\xa5"


class ConfigError(ValueError):
    """Invalid link parameter."""


class EmptyTrace(ValueError):
    """Operation needs at least one packet."""


class Mode(str, Enum):
    BROADCAST = "broadcast"
    BEACON = "beacon"


# the text key of each time field: the same number in microseconds
_US_KEYS = {"ipd_us": "ipd_s", "beacon_interval_us": "beacon_interval_s",
            "t_proc_us": "t_proc_s", "guard_us": "guard_s"}


class LinkConfig(Record):
    baud: int = 230000
    mode: Mode = Mode.BROADCAST
    ipd_s: float = 0.0
    beacon_interval_s: float = 0.1
    t_proc_s: float = 10e-6
    guard_s: float = 28.5e-6

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if not isinstance(self.baud, Integral):
            raise ConfigError(f"baud must be an integer, got {self.baud!r}")
        if self.baud <= 0:
            raise ConfigError(f"baud must be positive, got {self.baud}")
        for name in ("ipd_s", "beacon_interval_s", "t_proc_s", "guard_s"):
            value = getattr(self, name)
            if not math.isfinite(value):  # NaN would pass every check below
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.ipd_s < 0:
            raise ConfigError(f"ipd_s must be >= 0, got {self.ipd_s}")
        if self.t_proc_s < 0:
            raise ConfigError(f"t_proc_s must be >= 0, got {self.t_proc_s}")
        if self.guard_s < 0:
            raise ConfigError(f"guard_s must be >= 0, got {self.guard_s}")
        if self.mode is Mode.BEACON and self.beacon_interval_s <= self.packet_time_s:
            raise ConfigError(
                f"beacon_interval_s must exceed the packet time "
                f"({self.packet_time_s:.6g} s), got {self.beacon_interval_s}"
            )
        if self.dead_time_s >= self.period_s:
            # the relay could then block a packet two or more slots later,
            # which the relay rule in sim.relay does not model
            raise ConfigError(
                f"t_proc_s + guard_s ({self.dead_time_s:.6g} s) must be shorter "
                f"than the transmit period ({self.period_s:.6g} s)")

    def text_fields(self) -> dict[str, str]:
        """The fields as trace-header text, keyed as the ``simulate`` flags."""
        return {"mode": self.mode.value, "baud": str(self.baud),
                **{key: repr(getattr(self, name) * 1e6) for key, name in _US_KEYS.items()}}

    @classmethod
    def from_text_fields(cls, fields: Mapping) -> "LinkConfig":
        """The config that the ``text_fields`` keys of ``fields`` spell, as
        text or numbers; a key that is absent or None takes the default."""
        kwargs = {key: fields[key] for key in ("mode", "baud") if fields.get(key) is not None}
        if isinstance(kwargs.get("baud"), str):
            kwargs["baud"] = int(kwargs["baud"])
        kwargs.update({name: float(fields[key]) / 1e6 for key, name in _US_KEYS.items()
                       if fields.get(key) is not None})
        return cls(**kwargs)

    @property
    def packet_time_s(self) -> float:
        return CHIPS_PER_FRAME / self.baud

    @property
    def dead_time_s(self) -> float:
        """Decode + turnaround delay between reception end and relay start."""
        return self.t_proc_s + self.guard_s

    @property
    def l0_s(self) -> float:
        """Minimum first-tx-bit to last-relayed-bit latency."""
        return 2 * self.packet_time_s + self.t_proc_s + self.guard_s

    @property
    def period_s(self) -> float:
        """Spacing between consecutive transmit starts."""
        if self.mode is Mode.BEACON:
            return self.beacon_interval_s
        return self.packet_time_s + self.ipd_s

    @property
    def relay_blocks(self) -> bool:
        """Whether a relay transmission reaches into the next packet, which
        the node then cannot hear: ``period < 2 pt + dead``."""
        return self.period_s < 2 * self.packet_time_s + self.dead_time_s


def compute_per(n_transmitted: int, n_relayed: int, config: LinkConfig) -> float:
    """Packet error rate from the relay counts of a link.

    A link whose relay does not block (``LinkConfig.relay_blocks`` false)
    reports the lost fraction directly.  A blocking one rescales so the
    ideal half-relayed stream maps to 0 and none-relayed maps to 1, because
    the relay stage can never exceed half the transmitted packets when each
    relay blocks the next packet.

    So a blocking link's ``per`` is not the channel loss rate.  There a
    packet is relayed iff it is received and the one before it was not
    relayed; with iid loss ``p`` the relayed fraction tends to
    ``(1 - p) / (2 - p)`` and ``per`` to ``p / (2 - p)``: losing a packet
    the relay would have been deaf to anyway costs no relay.
    """
    if n_transmitted < 1:
        raise EmptyTrace("PER needs at least one transmitted packet")
    ratio = n_relayed / n_transmitted
    if config.relay_blocks:
        per = 1.0 - 2.0 * ratio
    else:
        per = 1.0 - ratio
    return min(1.0, max(0.0, per))

