"""Protocol packets.

Four packet kinds implement the two MVAPICH2 protocols:

* ``EAGER`` — header + payload in one shot, for small messages.
* ``RTS`` — Request-To-Send, carrying the piggybacked compression
  header (paper Figure 3: "we piggyback the compression-related header
  information into the RTS packet to avoid extra message exchanges"),
  the wire size, both CRC stamps and a relayed image's ``origin_seq``:
  the whole description of the message, read by the receiver from here.
* ``CTS`` — Clear-To-Send, from receiver once its buffers are ready.
* ``DATA`` — the (possibly compressed) payload bytes, nothing else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.header import CompressionHeader

__all__ = ["PacketKind", "Packet", "CONTROL_PACKET_BYTES"]

#: base size of a control packet (RTS/CTS) before the piggybacked header
CONTROL_PACKET_BYTES = 64


class PacketKind(enum.Enum):
    EAGER = "eager"
    RTS = "rts"
    CTS = "cts"
    DATA = "data"


@dataclass
class Packet:
    """One protocol message between two ranks."""

    kind: PacketKind
    src: int
    dst: int
    tag: int
    seq: int
    header: Optional[CompressionHeader] = None
    payload: Any = None
    wire_nbytes: int = 0
    #: partition index for pipelined DATA packets (0 otherwise)
    part: int = 0
    #: CRC32 the delivered (decompressed) data must match, carried on
    #: the RTS.  Rides existing control fields, so it does not change
    #: control_bytes()/wire time.
    crc: Optional[int] = None
    #: retransmission attempt this DATA packet answers (0 = original)
    attempt: int = 0
    #: CRC32 of the wire bytes themselves (the compressed image), used
    #: by keep-compressed relays to verify their own hop *without*
    #: decompressing.  Rides the same control fields as ``crc``.
    wire_crc: Optional[int] = None
    #: on the RTS of a relayed (keep-compressed) hop: the seq assigned
    #: when the wire image was packed (or reduced) at its origin
    origin_seq: Optional[int] = None

    def control_bytes(self) -> int:
        """Bytes this packet occupies as a control message."""
        extra = self.header.nbytes if self.header is not None else 0
        return CONTROL_PACKET_BYTES + extra

    def __repr__(self) -> str:
        return (
            f"<Packet {self.kind.value} {self.src}->{self.dst} "
            f"tag={self.tag} seq={self.seq}>"
        )
