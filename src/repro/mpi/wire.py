"""Keep-compressed wire images for compression-aware collectives.

The naive collective path decompresses and recompresses the payload at
every hop of the algorithm's communication graph.  gZCCL/ZCCL-style
keep-compressed forwarding packs the payload *once* at the originating
rank, relays the resulting :class:`WireImage` — header, compressed
bytes, and both CRC stamps — across intermediate ranks untouched, and
decompresses *once* at each rank that actually consumes the data.

Two CRCs travel with the image:

``crc``
    CRC32 of the data the final consumer must reconstruct (the same
    post-decompression stamp point-to-point rendezvous uses).
``wire_crc``
    CRC32 of the compressed wire bytes themselves, so an intermediate
    relay can verify its own hop — and NACK its immediate upstream for
    a retransmission — without paying a decompression kernel.

``origin_seq`` is the protocol sequence number assigned when the image
was packed; every relayed hop carries it in its trace spans so the
trace sanitizer can tie the hop back to the originating compression.

A :class:`WireImage` is also the only thing the rendezvous protocol
ships: a plain ``send`` packs its data into one for the length of that
message (never relayed: no ``wire_crc``, no ``origin_seq``).  On the
wire its description rides the RTS (:class:`~repro.mpi.message.Rts`)
and DATA carries only ``payload``.  The RTS's ``relayed`` — the image
has an ``origin_seq`` — keeps ``origin_seq`` out of a plain message's
spans and tells ``irecv`` to verify the ``wire_crc`` and hand the image
on as a :class:`WireImage`, for ``isend`` to relay, instead of decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.header import CompressionHeader

__all__ = ["WireImage"]


@dataclass
class WireImage:
    """One packed message as it travels between ranks."""

    header: CompressionHeader
    #: bytes that go on the wire: a uint8 array for compressed images,
    #: the raw user array when the pack fell back to uncompressed
    payload: Any
    wire_nbytes: int
    #: CRC32 of the decoded (post-decompression) data
    crc: Optional[int] = None
    #: CRC32 of ``payload``'s bytes as they ride the wire
    wire_crc: Optional[int] = None
    #: seq assigned at pack time at the originating rank; ``None`` for
    #: the image of a plain send, which is never relayed
    origin_seq: Optional[int] = None

    @property
    def compressed(self) -> bool:
        return self.header.compressed

    def __repr__(self) -> str:
        state = "compressed" if self.compressed else "raw"
        return (f"<WireImage {state} {self.wire_nbytes}B "
                f"origin_seq={self.origin_seq}>")
