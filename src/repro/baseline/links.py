"""Link-layer model for the packet-level baseline simulator.

The baseline reproduces BFTSim's cost structure (NSDI'08: P2 dataflow on
top of ns-2), where every protocol message becomes MTU-sized packets pushed
through store-and-forward links with serialization and propagation delay.
This module provides the link primitive: a FIFO transmission queue with
finite bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Maximum transmission unit in bytes (standard Ethernet payload).
MTU_BYTES: int = 1500


@dataclass
class PacketTiming:
    """When a packet's transmission starts and when it fully arrives."""

    start: float
    arrival: float


class Link:
    """A point-to-point FIFO link.

    Args:
        bandwidth_bytes_per_ms: serialization rate (e.g. 125 bytes/us =
            1 Gbit/s would be 125_000 bytes/ms).
        propagation_ms: one-way propagation delay added after the last bit
            is serialized.
    """

    def __init__(self, bandwidth_bytes_per_ms: float, propagation_ms: float) -> None:
        if bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be > 0")
        if propagation_ms < 0:
            raise ValueError("propagation delay must be >= 0")
        self.bandwidth = float(bandwidth_bytes_per_ms)
        self.propagation = float(propagation_ms)
        self._free_at = 0.0

    def transmit(self, size_bytes: int, now: float) -> PacketTiming:
        """Queue one packet for transmission at ``now``.

        Store-and-forward: the packet occupies the transmitter for
        ``size / bandwidth`` starting when the link is free, then takes the
        propagation delay to arrive.
        """
        start = max(now, self._free_at)
        serialization = size_bytes / self.bandwidth
        self._free_at = start + serialization
        return PacketTiming(start=start, arrival=self._free_at + self.propagation)


def packetize(message_bytes: int) -> list[int]:
    """Split a message into MTU-sized packet payloads (last one partial)."""
    if message_bytes <= 0:
        return [64]  # even empty protocol messages cost headers
    full, rest = divmod(message_bytes, MTU_BYTES)
    sizes = [MTU_BYTES] * full
    if rest:
        sizes.append(rest)
    return sizes
