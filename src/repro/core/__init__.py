"""The paper's contribution: on-the-fly GPU message compression for MPI.

This package implements Section III's framework and the optimized
schemes of Sections IV (MPC-OPT) and V (ZFP-OPT):

* :mod:`repro.core.config` — a single :class:`CompressionConfig` whose
  flags select the naive integration or any combination of the proposed
  optimizations (pre-allocated buffer pools, GDRCopy size retrieval,
  multi-stream kernel decomposition, device-attribute caching), making
  every optimization individually ablatable.
* :mod:`repro.core.header` — the compression header (control
  parameters ``A`` + kernel results ``B``) that the framework
  piggybacks on the rendezvous RTS packet to avoid an extra message
  exchange.
* :mod:`repro.core.engine` — the sender/receiver pipelines (the
  paper's seven steps, Algorithms 1-3), charging modelled GPU/driver
  costs while running the *real* codecs on the payload: one send-plan
  builder driven by the codec's declared capabilities, plus the
  per-message-size partition-count table for MPC-OPT's kernel
  decomposition.
"""

from repro.core.config import CompressionConfig
from repro.core.header import CompressionHeader
from repro.core.engine import CompressionEngine, SendPlan, partitions_for_message

__all__ = [
    "CompressionConfig",
    "CompressionHeader",
    "CompressionEngine",
    "SendPlan",
    "partitions_for_message",
]
