"""The packet blocks of the channel draw and the one run scan over them.

``channel`` draws its flags a block at a time, and ``sim`` (the relay
parity, the latency column, ``summarize``) reads every run from
``_runs_before``.  It is a module of its own so that ``simulate`` loads
none of the fits.  ``clusters`` counts its loss runs without it, from
Python ints, so that ``analyze`` of a binary trace loads no numpy.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 14  # packets per block of the draws and the run scans


def _packet_blocks(n: int):
    """Slices of ``_BLOCK`` consecutive packets that cover ``n``."""
    for lo in range(0, n, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, n))


def _runs_before(received: np.ndarray, value: bool):
    """Per packet block: the block and, for each of its packets, how many
    packets just before it have ``received == value``.  With ``value``
    False that is the loss run a received packet ends; with True, a
    received packet's offset in its run of receptions.  The scan carries
    the last index of the other value across blocks."""
    last = -1
    for block in _packet_blocks(received.size):
        idx = np.arange(block.start, block.stop)
        ends = np.where(received[block] != value, idx, last)
        np.maximum.accumulate(ends, out=ends)  # the last other-value index so far
        idx -= 1  # minus the last other-value index before each packet
        idx[0] -= last
        idx[1:] -= ends[:-1]
        yield block, idx
        last = int(ends[-1])


def _trailing_run(received: np.ndarray, last_runs: np.ndarray) -> int:
    """The losses after the last packet, from the last block's runs."""
    return 0 if received[-1] else int(last_runs[-1]) + 1
