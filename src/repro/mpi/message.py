"""Protocol packets: one type per kind, each carrying what its readers use.

* :class:`Eager` — envelope + payload in one shot, for small messages.
* :class:`Rts` — Request-To-Send: the envelope and the whole description
  of the message, a :class:`~repro.mpi.wire.WireImage` without its
  bytes.  It piggybacks the compression header (paper Figure 3: "we
  piggyback the compression-related header information into the RTS
  packet to avoid extra message exchanges").
* :class:`Cts` — Clear-To-Send once the receiver's buffers are ready;
  also the NACK that asks for a retransmission.
* :class:`Data` — the (possibly compressed) payload bytes, nothing else.

Eager, CTS and DATA packets are built per message, so they are plain
slotted dataclasses: a frozen one costs twice as much to build.  An
eager send is itself its envelope (:class:`repro.mpi.eager.EagerSend`
subclasses :class:`Eager`), so the eager path builds no packet at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.header import CompressionHeader
from repro.mpi.wire import WireImage

__all__ = ["Eager", "Rts", "Cts", "Data", "CONTROL_PACKET_BYTES"]

#: base size of a control packet (RTS/CTS/NACK) before the piggybacked header
CONTROL_PACKET_BYTES = 64


class _Addressed:
    """The matching report's text for a packet with a full address,
    named by its packet type (a subclass, such as the eager send that
    is its own envelope, keeps its packet type's name)."""

    __slots__ = ()

    def __repr__(self) -> str:
        kind = next(cls for cls in type(self).__mro__
                    if _Addressed in cls.__bases__)
        return (f"<Packet {kind.__name__.lower()} {self.src}->{self.dst} "
                f"tag={self.tag} seq={self.seq}>")


@dataclass(slots=True, repr=False)
class Eager(_Addressed):
    src: int
    dst: int
    tag: int
    seq: int
    payload: Any


@dataclass(frozen=True, slots=True, repr=False)
class Rts(_Addressed):
    """The envelope and the :class:`WireImage` it announces, bytes
    aside.  The CRCs and ``origin_seq`` ride existing control fields."""

    src: int
    dst: int
    tag: int
    seq: int
    header: CompressionHeader
    wire_nbytes: int
    crc: Optional[int]
    wire_crc: Optional[int]
    origin_seq: Optional[int]

    @classmethod
    def describing(cls, image: WireImage, src: int, dst: int, tag: int,
                   seq: int) -> "Rts":
        return cls(src, dst, tag, seq, image.header, image.wire_nbytes,
                   image.crc, image.wire_crc, image.origin_seq)

    def image(self, payload) -> WireImage:
        """The described image around the delivered DATA ``payload``."""
        return WireImage(self.header, payload, self.wire_nbytes, self.crc,
                         self.wire_crc, self.origin_seq)

    @property
    def relayed(self) -> bool:
        """A keep-compressed image: checked by its wire CRC, not decoded."""
        return self.origin_seq is not None

    @property
    def streamed(self) -> bool:
        return self.header.pipelined

    @property
    def compressed(self) -> bool:
        return self.header.compressed

    @property
    def n_parts(self) -> int:
        """DATA packets of the original push."""
        return self.header.n_partitions if self.streamed else 1

    def meta(self, attempt: int = 0) -> dict:
        """Span ids a step of this message adds after its own: a
        retransmission's ``attempt``, then a relayed ``origin_seq``."""
        meta = {"attempt": attempt} if attempt else {}
        if self.relayed:
            meta["origin_seq"] = self.origin_seq
        return meta

    def control_bytes(self) -> int:
        """Bytes this packet occupies as a control message."""
        return CONTROL_PACKET_BYTES + self.header.nbytes


@dataclass(slots=True, repr=False)
class Cts(_Addressed):
    src: int
    dst: int
    tag: int
    seq: int

    def control_bytes(self) -> int:
        return CONTROL_PACKET_BYTES


@dataclass(slots=True)
class Data:
    """Payload bytes, routed by ``(seq, part, attempt)``; ``src`` feeds
    the receiver's last-heard table, which the hang diagnostics print."""

    src: int
    seq: int
    part: int
    attempt: int
    payload: Any
