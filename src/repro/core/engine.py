"""Sender/receiver compression pipelines (the paper's Algorithms 1-3).

The engine is instantiated once per MPI rank.  It owns the rank's
pre-allocated buffer pools and CUDA streams, and exposes four
generator subroutines the MPI protocol layer calls:

``sender_prepare``
    Steps 1-3 of Figure 4, and the only place a compressed
    :class:`SendPlan` is built: decide whether to compress, obtain
    device buffers (pool vs. ``cudaMalloc``), launch the compression
    kernel(s), retrieve the compressed size (GDRCopy vs.
    ``cudaMemcpy``), combine partitions, and build the header that the
    protocol layer piggybacks on the RTS packet.
``sender_release``
    Return pooled buffers / free temporaries once the send completes.
``receiver_prepare``
    Step between RTS and CTS: allocate the temporary device buffer for
    the incoming compressed payload.
``receiver_complete``
    Steps 6-7, once per DATA part: launch the decompression kernel(s)
    of the partitions the part carries — all of them, or one streamed
    partition — and restore the original data.

The framework is codec-agnostic: what a codec costs around its kernel
it declares as *capabilities* on its
:class:`~repro.compression.base.Compressor` class, and both ends read
those, never the codec's name, so :func:`repro.compression.register`
alone admits a codec.  ``docs/protocol.md`` tabulates codec x
capability and the step order.

Codec faults are injected here and nowhere else: the two sites that
run a codec on live traffic — ``sender_prepare`` and
``receiver_complete`` — go through ``_compress`` / ``_decode``, which
consult ``sim.faults``.  The expected-value decode of
``_plan_crc`` and the fused reduction are never faulted.

Real numpy codecs run on the actual payload (compression ratios are
measured, not assumed); kernel durations come from the calibrated
:mod:`repro.compression.perfmodel` models and every driver-level cost
(malloc, memcpy, GDRCopy, attribute queries) is charged on the shared
simulation clock with a tracer span, so latency breakdowns
(Figs 6/8/10) fall out of the traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.compression import get_compressor, kernel_cost_model_for
from repro.compression.base import CompressedData
from repro.compression.cache import GLOBAL_CODEC_CACHE, handout
from repro.core.config import CompressionConfig
from repro.core.header import CompressionHeader
from repro.errors import CompressionError
from repro.gpu.device import Device
from repro.gpu.pool import BufferPool, SizeClassBufferPool
from repro.utils.integrity import crc32_of_parts, payload_crc32
from repro.utils.units import KiB, MiB

__all__ = ["CompressionEngine", "SendPlan", "partitions_for_message"]

_MAX_STREAMS = 16
#: ZFP's zfp_stream / zfp_field construction cost (paper Sec. V: ~9us)
_STREAM_FIELD_TIME = 9e-6

#: (max message bytes, partitions) — first matching row wins.  Section
#: IV fine-tunes the partition count per message size experimentally;
#: this is that schedule for the modelled V100/RTX parts (tuned against
#: the paper matrix's ``ablation/partitions/p*`` entries): small
#: messages cannot amortize extra kernel launches, large ones gain from
#: more concurrent kernels with fewer thread blocks each (less busy-wait
#: synchronization).
_SCHEDULE = ((128 * KiB, 1), (1 * MiB, 2), (4 * MiB, 4), (float("inf"), 8))


def partitions_for_message(nbytes: int) -> int:
    """Tuned partition count for one message size."""
    return next(parts for limit, parts in _SCHEDULE if nbytes <= limit)


@dataclass
class SendPlan:
    """Everything the protocol layer needs to ship one message.

    A *streamed* plan (``header.pipelined``) has no combined
    ``payload``: the protocol layer runs ``kernel_run(i)`` (a generator
    subroutine) for each partition — charging that partition's
    compression kernel and size retrieval — and puts
    ``comps[i].payload`` on the wire as soon as it returns, overlapping
    compression with transfer.
    """

    header: CompressionHeader
    payload: Optional[np.ndarray]  # bytes that go on the wire (or the raw array)
    wire_nbytes: int
    resources: list = field(default_factory=list)
    #: CRC32 of the data the receiver should reconstruct (the clean
    #: decompression round-trip for compressed sends, the raw bytes
    #: otherwise); piggybacked on RTS/DATA for integrity checking
    crc: Optional[int] = None
    comps: list = field(default_factory=list)  # streamed: the partitions
    kernel_run: object = None  # streamed: callable(i) -> generator
    #: CRC32 of ``payload`` when the plan has it: the raw bytes' stamp,
    #: or the key a lossless image's decode was recorded under
    wire_crc: Optional[int] = None

    @property
    def compressed(self) -> bool:
        return self.header.compressed


def _partition_counts(n_elements: int, parts: int) -> list[int]:
    """Element count per partition — must match ``np.array_split``."""
    base, rem = divmod(n_elements, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


class CompressionEngine:
    """Per-rank compression state machine."""

    def __init__(self, sim, device: Device, config: CompressionConfig):
        self.sim = sim
        self.device = device
        self.config = config
        self._codecs: dict = {}
        # Pre-allocated pools, built at init (MPI_Init) off the
        # critical path — MPC-OPT optimizations 1 & 2.
        self.data_pool = self.doff_pool = None
        if config.enabled and config.use_buffer_pool:
            self.data_pool = SizeClassBufferPool(
                device, min_bytes=64 * KiB, max_bytes=256 * MiB, count_per_class=2
            )
            self.doff_pool = BufferPool(device, 4 * KiB, count=8)
        self.streams = [device.new_stream() for _ in range(_MAX_STREAMS)]

    # -- helpers -----------------------------------------------------------
    def _codec(self, algorithm: str, **params):
        key = (algorithm, tuple(sorted(params.items())))
        if key not in self._codecs:
            self._codecs[key] = get_compressor(algorithm, **params)
        return self._codecs[key]

    def _transport_codec(self):
        """The codec the current config would put on the wire."""
        return self._codec(self.config.algorithm, **self.config.codec_params())

    def _header_codec(self, header: CompressionHeader):
        """The codec a received header names."""
        return self._codec(header.algorithm, **header.codec_params())

    # The two codec calls on live traffic.  Under a plan with codec
    # faults they run for real, past every memo: a hit would skip a
    # draw, and a corrupted result stored under the codec's key would
    # poison later clean runs in the same process.
    def _codec_faults(self):
        """The fault injector when its plan has codec faults (every
        memo is bypassed then), else None."""
        faults = self.sim.faults
        return faults if faults is not None and faults.codec_faults else None

    def _learns(self, codec) -> bool:
        """True when an image ``codec`` encodes here records its decode
        (:meth:`CodecCache.learn_decode`): the codec is lossless, so the
        decode is the source, and no codec fault bypasses the memo."""
        return codec.lossless and self._codec_faults() is None

    def _compress(self, codec, data: np.ndarray) -> CompressedData:
        """One partition's compression on the send path (memoized
        host-side; kernel time is charged regardless)."""
        faults = self._codec_faults()
        if faults is None:
            return GLOBAL_CODEC_CACHE.compress(codec, data)
        if faults.should_fail_compress(codec.name):
            raise CompressionError(
                f"injected {codec.name} compression-kernel failure")
        return GLOBAL_CODEC_CACHE.run_compress(codec, data)

    def _decode(self, codec, payload, comps,
                fingerprint: Optional[int] = None) -> tuple:
        """Decode the partitions one DATA part carries on the receive
        path: ``(parts, crc)``, the decoded partitions in order
        and the CRC-32 of their concatenation.  The parts are the decode
        memo's read-only arrays (:meth:`CodecCache.decode_parts`: hand
        them out through :func:`~repro.compression.cache.handout`), or
        under a plan with codec faults real decodes, each hashed for
        real."""
        faults = self._codec_faults()
        if faults is None:
            return GLOBAL_CODEC_CACHE.decode_parts(codec, payload, comps,
                                                   fingerprint, want_crc=True)
        outs = [faults.maybe_corrupt_decompressed(
                    codec.name, GLOBAL_CODEC_CACHE.run_decompress(codec, c))
                for c in comps]
        return outs, crc32_of_parts((payload_crc32(o), o.nbytes) for o in outs)

    def _plan_crc(self, codec, data, comps) -> int:
        """CRC32 of what the receiver must reconstruct, folded from the
        partitions' CRCs (no partition is hashed twice).

        Lossless codecs round-trip to the original bytes, so the raw
        CRC suffices: the codec cache already hashed each partition as
        its lookup fingerprint (``src_crc32``); a partition compressed
        past the memo (a plan with codec faults) has none, and the
        source is hashed for real.  Lossy codecs (zfp/sz) are checked
        against the *clean* decompression of the wire bytes — straight
        through the decode memo, so a fault plane can neither corrupt
        nor draw RNG for the expected value, and the receiver's lookup
        of the same bytes finds the CRC with the entry.
        """
        if codec.lossless:
            crcs = [c.meta.get("src_crc32") for c in comps]
            if None in crcs:
                return payload_crc32(data)
            return crc32_of_parts(
                zip(crcs, (c.original_nbytes for c in comps)))
        if len(comps) == 1:
            crc = comps[0].meta.get("out_crc32")
            if crc is None:
                crc = GLOBAL_CODEC_CACHE.decoded_crc(
                    codec, comps[0].payload, comps)
                # Decompression is deterministic, so the expected-value
                # CRC can ride on the (cache-shared) comp for re-sends.
                comps[0].meta["out_crc32"] = crc
            return crc
        return crc32_of_parts(
            (GLOBAL_CODEC_CACHE.decoded_crc(codec, c.payload, (c,)),
             c.original_nbytes) for c in comps)

    def _acquire(self, pool, nbytes: int, label: str):
        """Pool hit (cheap) or cudaMalloc (the naive path's cost)."""
        if pool is not None:
            return (yield from pool.acquire(nbytes, label))
        return (yield from self.device.malloc(nbytes, label))

    def _acquire_doff(self):
        return self._acquire(self.doff_pool, self.device.spec.sm_count * 4, "d_off")

    def _release(self, resources: list):
        for buf in resources:
            if buf.pooled:
                pool = self.doff_pool if buf.capacity == 4 * KiB else self.data_pool
                yield from pool.release(buf)
            else:
                yield from self.device.free(buf)

    def sender_release(self, plan: SendPlan):
        """Return the send-side buffers (after the data has left)."""
        yield from self._release(plan.resources)
        plan.resources = []

    def _host_setup(self):
        """What a ``host_setup`` codec does on the CPU before a kernel
        launch (ZFP, Section V): construct zfp_stream / zfp_field
        (~9us), then get_max_grid_dims — a per-message
        cudaGetDeviceProperties in the naive library vs. a cached
        cudaDeviceGetAttribute in ZFP-OPT."""
        t0 = self.sim.now
        yield self.sim.timeout(_STREAM_FIELD_TIME)
        if self.sim.tracer is not None:
            self.sim.tracer.span(t0, self.sim.now, "zfp_stream_field", "create",
                                 rank=self.device.device_id, track="main")
        if self.config.cache_device_attrs:
            yield from self.device.get_device_attribute("max_grid_dim_x", cached=True)
        else:
            yield from self.device.get_device_properties()

    def _size_copy(self, nbytes: int):
        """Retrieve compressed size(s): GDRCopy (OPT) vs cudaMemcpy (naive)."""
        if self.config.use_gdrcopy:
            yield from self.device.gdrcopy(nbytes, "compressed_size")
        else:
            yield from self.device.memcpy_d2h(nbytes, "compressed_size")

    def _record_compression(self, codec_name: str, bytes_in: int,
                            bytes_out: int) -> bool:
        """Feed the compression-ratio metrics (CR = bytes_in/bytes_out);
        False when the result did not shrink and the raw bytes ship."""
        shrank = bytes_out < bytes_in
        tracer = self.sim.tracer
        if tracer is not None and shrank:
            tracer.metrics.inc("compress.bytes_in", bytes_in, codec=codec_name)
            tracer.metrics.inc("compress.bytes_out", bytes_out, codec=codec_name)
        elif tracer is not None:
            tracer.metrics.inc("compress.fallback", codec=codec_name)
        return shrank

    def _kernel_times(self, kind: str, algorithm: str, sizes, blocks: int) -> list:
        """Modelled duration of one ``kind`` (compress / decompress /
        reduce) kernel per entry of ``sizes`` (uncompressed bytes) at
        ``blocks`` thread blocks, each fed (in microseconds) to the
        ``{kind}.kernel_us`` histogram."""
        time_of = getattr(kernel_cost_model_for(algorithm), f"{kind}_time")
        durations = [time_of(n, blocks, self.device.spec.sm_count) for n in sizes]
        tracer = self.sim.tracer
        if tracer is not None:
            for d in durations:
                tracer.metrics.observe(f"{kind}.kernel_us", d * 1e6, codec=algorithm)
        return durations

    def _run_partition_kernels(self, durations: list[float], blocks: int,
                               category: str, solo_label: str = "p0",
                               solo_stream: int = 0):
        """Launch one kernel per partition on separate CUDA streams (a
        lone kernel on stream ``solo_stream``, labelled ``solo_label``).

        Kernels overlap on the device (bounded by the SM pool), but
        their *submissions* serialize on the CPU — one enqueue per
        stream — which is what makes over-partitioning small messages a
        loss and motivates the tuned schedule.
        """
        if len(durations) == 1:
            yield from self.streams[solo_stream].run_kernel(
                durations[0], blocks, category, solo_label)
            return
        submit = self.device.spec.kernel_launch
        procs = []
        for i, d in enumerate(durations):
            if i:
                yield self.sim.timeout(submit)
            procs.append(self.sim.process(
                self.streams[i % _MAX_STREAMS].run_kernel(d, blocks, category, f"p{i}"),
                name=f"{category}-p{i}",
            ))
        yield self.sim.all_of(procs)

    # -- sender ---------------------------------------------------------------
    def _raw_plan(self, data) -> SendPlan:
        nbytes = int(data.nbytes) if isinstance(data, np.ndarray) else len(data)
        crc = payload_crc32(data)
        return SendPlan(header=CompressionHeader.uncompressed(nbytes),
                        payload=data, wire_nbytes=nbytes, crc=crc, wire_crc=crc)

    def sender_prepare(self, data, force_uncompressed: bool = False,
                       stream: bool = False):
        """Compress (or not) and produce a :class:`SendPlan`.

        ``force_uncompressed`` skips the compression pipeline entirely —
        the protocol layer uses it when a peer's compression circuit
        breaker is open.  ``stream`` says the caller can put partitions
        on the wire one by one (a plain send can, a packed wire image
        cannot); with ``config.pipeline`` and a codec whose partitions
        are ``streamable`` the plan is then a streamed one.

        One step order for every codec, each step paid only by the
        codecs that declare it: host set-up -> data buffer -> ``d_off``
        -> compress -> kernels -> size copy unless fixed-rate ->
        combine -> fallback / record / header / CRC.  The kernel
        schedule is the one fork: launch every partition now and
        combine, or hand the caller a ``kernel_run(i)`` closure.

        A lossless codec then records the decode of every DATA part the
        receiver will look up — the whole image, or each streamed
        partition — as its source (:meth:`_learns`), so the receiver's
        memo lookup hits; the whole image's wire CRC, the key, is kept
        as ``plan.wire_crc``.
        """
        cfg = self.config
        if (force_uncompressed or not cfg.enabled
                or not isinstance(data, np.ndarray)
                or data.dtype.type not in (np.float32, np.float64)
                or data.nbytes < cfg.threshold):
            return self._raw_plan(data)
        codec = self._transport_codec()
        if data.dtype.type not in codec.supported_dtypes:
            return self._raw_plan(data)
        spec = self.device.spec
        name = cfg.algorithm
        nbytes = data.nbytes

        def compress(parts: int) -> list:
            # Real compression, one partition at a time.
            return [self._compress(codec, p)
                    for p in np.array_split(data, parts)]

        parts = cfg.partitions or partitions_for_message(nbytes)
        # Never partition below one SM per kernel or 64 elements each.
        parts = max(1, min(parts, spec.sm_count, data.size // 64 or 1))
        comps = None
        streamed = stream and cfg.pipeline and codec.streamable and parts >= 2
        if streamed:
            # A stream's partition sizes ride the RTS ahead of its
            # kernels, and data that does not compress is not worth
            # streaming: it takes the whole-message plan below.
            comps = compress(parts)
            streamed = sum(c.nbytes for c in comps) < nbytes
        if not (streamed or codec.multi_kernel):
            parts, comps = 1, None

        itemsize = data.dtype.itemsize
        expected = [codec.expected_compressed_bytes(n, itemsize)
                    for n in _partition_counts(data.size, parts)]
        fixed_rate = expected[0] is not None
        resources = []
        kernel_run = None
        try:
            if codec.host_setup:
                yield from self._host_setup()
            comp_buf = yield from self._acquire(
                self.data_pool,
                sum(expected) if fixed_rate else codec.staging_bytes(nbytes),
                f"{name}_compressed")
            resources.append(comp_buf)
            if codec.needs_offsets:
                resources.append((yield from self._acquire_doff()))
            if comps is None:
                comps = compress(parts)
            sizes = [c.nbytes for c in comps]

            if streamed:
                # Pipelining wants *staggered* completions: chunks run
                # back to back on one stream at half-device width (the
                # paper's "half the SMs is roughly the same as using
                # full GPU"), so chunk 0 is on the wire while chunk 1 is
                # still compressing.
                half = max(1, spec.sm_count // 2)

                def kernel_run(i: int):
                    duration, = self._kernel_times(
                        "compress", name, [comps[i].original_nbytes], half)
                    yield from self.streams[0].run_kernel(
                        duration, half, "compression_kernel", f"pipe{i}")
                    if not fixed_rate:
                        yield from self._size_copy(4)
            else:
                # Modelled kernel executions (concurrent when partitioned).
                blocks = max(1, spec.sm_count // parts)
                durations = self._kernel_times(
                    "compress", name, [c.original_nbytes for c in comps], blocks)
                # (a lone kernel of an undecomposed codec is labelled by
                # the codec, as its traces always were)
                yield from self._run_partition_kernels(
                    durations, blocks, "compression_kernel",
                    "p0" if codec.multi_kernel else name)
                if not fixed_rate:
                    yield from self._size_copy(4 * parts)
                # Merge partition outputs into one contiguous buffer
                # (fixed order, Sec. IV); partition 0 is already in place.
                if parts > 1:
                    yield from self.device.memcpy_d2d(sum(sizes[1:]), "combine")
        except BaseException:
            yield from self._release(resources)
            raise
        wire_nbytes = sum(sizes)
        if not self._record_compression(name, nbytes, wire_nbytes):
            # Incompressible: fall back to the raw message (the kernel
            # time was still spent — that is the price of trying).
            yield from self._release(resources)
            return self._raw_plan(data)
        plan = SendPlan(
            header=CompressionHeader.for_message(
                name, data.dtype, data.size, codec.header_param(), sizes,
                pipelined=streamed),
            payload=None, wire_nbytes=wire_nbytes, resources=resources,
            crc=self._plan_crc(codec, data, comps),
        )
        if streamed:
            plan.comps, plan.kernel_run = comps, kernel_run
            if self._learns(codec):
                for c in comps:
                    GLOBAL_CODEC_CACHE.learn_decode(
                        codec, c.payload, (c,), payload_crc32(c.payload),
                        c.meta.get("src_crc32"))
        else:
            plan.payload = (np.concatenate([c.payload for c in comps])
                            if parts > 1 else comps[0].payload)
            comp_buf.write(plan.payload)
            if self._learns(codec):
                plan.wire_crc = payload_crc32(plan.payload)
                GLOBAL_CODEC_CACHE.learn_decode(
                    codec, plan.payload, comps, plan.wire_crc, plan.crc)
        return plan

    # -- compressed-domain reduction (hZCCL-style) ---------------------------
    def reduce_capable(self, op) -> bool:
        """True when reduction collectives may combine *compressed* wire
        payloads directly via :meth:`reduce_wire_payload` instead of
        decoding at every hop: compression on, the reduction is a plain
        sum, and the configured codec advertises
        :attr:`~repro.compression.base.Compressor.reduce_supported`."""
        if not self.config.enabled or op is not np.add:
            return False
        return bool(self._transport_codec().reduce_supported)

    def reduce_wire_payload(self, header: CompressionHeader, local: np.ndarray,
                            other_header: CompressionHeader, other_payload,
                            other_wire_crc: Optional[int] = None):
        """Add a received compressed image onto an operand this rank
        holds raw (generator subroutine).

        ``header`` is the header of the image this rank packed from (or
        reduced into) ``local``; ``other_header``/``other_payload`` are
        the image that arrived.  Both must be compressed images of the
        same shape (same codec, element count and partitioning — which
        reduction collectives guarantee because every rank packs the
        same chunk geometry).  One fused partial-decode + add +
        re-encode kernel is charged per partition.

        On the host only the operand that *arrived* is decoded: the
        rank's own operand is lossless-round-trip equal to ``local``,
        so per partition the result's bits are exactly
        ``compress(add(decompress(a), decompress(b)))`` — the
        :meth:`~repro.compression.base.Compressor.reduce_compressed`
        contract, operand order preserved — and the post-decode stamp
        of that result is the CRC of the sum itself.  The arrival is
        decoded through the memo, keyed by ``other_wire_crc`` (the wire
        CRC its relay check verified), and its entry leaves the memo:
        this step is the one reader of a partial sum.  Its encoder
        recorded that decode, so it is a hit unless the image came from
        elsewhere; a plan with codec faults decodes for real, past the
        memo.

        Returns ``(header, payload, crc, wire_crc, total)`` for the
        combined image — an uncompressed header with ``total`` as the
        payload when the partial sums stop compressing.  ``total`` is
        the raw sum, for the caller to hold as its next ``local``;
        ``crc`` is its CRC32, the image's post-decode stamp, and
        ``wire_crc`` the CRC32 of ``payload``.  A lossless codec records
        the decode of the combined image: the sum.
        """
        if not (header.compressed and other_header.compressed):
            raise CompressionError("reduce_wire_payload needs two compressed operands")
        same = ("algorithm", "n_elements", "n_partitions", "dtype_name")
        if any(getattr(header, f) != getattr(other_header, f) for f in same):
            raise CompressionError(
                f"wire reduction operand mismatch: {header!r} vs {other_header!r}"
            )
        dtype = np.dtype(header.dtype_name)
        if local.dtype != dtype or local.shape != (header.n_elements,):
            raise CompressionError(
                f"local operand {local.shape}x{local.dtype} does not match {header!r}"
            )
        codec = self._header_codec(header)
        parts = header.n_partitions

        # Fused kernels, one per partition, like the decode path.
        blocks = max(1, self.device.spec.sm_count // parts)
        durations = self._kernel_times(
            "reduce", header.algorithm,
            [c * dtype.itemsize for c in _partition_counts(header.n_elements, parts)],
            blocks)
        yield from self._run_partition_kernels(durations, blocks, "reduction_kernel")

        comps = self._partition_comps(other_header, other_payload)
        if self._codec_faults() is None:
            arrived, _ = GLOBAL_CODEC_CACHE.decode_parts(
                codec, other_payload, comps, other_wire_crc, keep=False)
        else:
            arrived = [GLOBAL_CODEC_CACHE.run_decompress(codec, c) for c in comps]
        total = np.empty(header.n_elements, dtype=dtype)
        reduced, sums = [], []
        start = 0
        for comp, part in zip(comps, arrived):
            stop = start + comp.n_elements
            sums.append(total[start:stop])
            np.add(local[start:stop], part, out=sums[-1])
            reduced.append(GLOBAL_CODEC_CACHE.run_compress(codec, sums[-1]))
            start = stop
        sizes = [c.nbytes for c in reduced]
        crc = payload_crc32(total)

        if not self._record_compression(header.algorithm, total.nbytes, sum(sizes)):
            # Partial sums stopped compressing: degrade this
            # accumulator to a raw image.
            return CompressionHeader.uncompressed(total.nbytes), total, crc, crc, total

        payload = np.concatenate([c.payload for c in reduced]) \
            if parts > 1 else reduced[0].payload
        wire_crc = payload_crc32(payload)
        if self._learns(codec):
            # A copy of each sum, not a view: ``total`` stays the
            # caller's, freed with the collective's operands, while the
            # memo keeps the final sums until they are read (views of
            # ``total`` read 2.0% more peak RSS than no record on
            # ``coll-relay-16``, copies 0.9%, on a 2-core VM: the pinned
            # operands fragment the heap).
            GLOBAL_CODEC_CACHE.learn_decode(codec, payload, reduced, wire_crc,
                                            crc, parts=[s.copy() for s in sums])
        out_header = CompressionHeader.for_message(
            header.algorithm, dtype, header.n_elements, header.param, sizes,
        )
        return out_header, payload, crc, wire_crc, total

    # -- receiver -----------------------------------------------------------
    def receiver_prepare(self, header: CompressionHeader):
        """Between RTS and CTS: obtain the temporary device buffer (and
        ``d_off``, for a codec that needs it) for the incoming
        compressed payload."""
        if not header.compressed:
            return []
        resources = []
        try:
            resources.append((yield from self._acquire(
                self.data_pool, header.wire_bytes, "recv_compressed")))
            if self._header_codec(header).needs_offsets:
                resources.append((yield from self._acquire_doff()))
        except BaseException:
            yield from self._release(resources)
            raise
        return resources

    @staticmethod
    def _partition_comps(header: CompressionHeader, payload,
                         index=None) -> list:
        """Partitions ``index`` (default: all) of a compressed message,
        in order, as :class:`CompressedData` views into ``payload``,
        which holds exactly their bytes."""
        payload = np.ascontiguousarray(payload, dtype=np.uint8)
        dtype = np.dtype(header.dtype_name)
        params = header.codec_params()
        counts = _partition_counts(header.n_elements, header.n_partitions)
        comps, offset = [], 0
        for i in range(header.n_partitions) if index is None else index:
            size = header.partition_sizes[i]
            comps.append(CompressedData(
                algorithm=header.algorithm, payload=payload[offset:offset + size],
                n_elements=counts[i], dtype=dtype, params=params,
            ))
            offset += size
        if offset != payload.nbytes:
            raise CompressionError(
                f"payload has {payload.nbytes} bytes but partitions account for {offset}"
            )
        return comps

    def receiver_complete(self, header: CompressionHeader, payload, resources: list,
                          part: Optional[int] = None,
                          fingerprint: Optional[int] = None):
        """After a DATA part lands: decode the partitions it carries.

        A part carries every partition (``part`` None: the whole image)
        or, in the original push of a streamed message, partition
        ``part`` alone.  The part sets the kernel geometry: the whole
        image pays the codec's host set-up and runs one kernel per
        partition at ``sm/P`` blocks; a streamed partition runs one
        half-device kernel on its own stream, with no host set-up —
        arrivals are already staggered by the wire, and adjacent parts
        may overlap pairwise.

        Returns ``(data, crc)``; ``crc`` is the CRC32 of ``data``'s
        bytes — served from the decode memo when these wire bytes were
        decoded before, so the caller's integrity check does not hash a
        buffer the cache already vouches for.  ``data`` is the message,
        handed out, for the whole image, and the partition lent
        read-only (the caller concatenates the parts) for one streamed
        partition.  ``resources`` are released once decoded and the
        list emptied.  ``fingerprint`` is the CRC32 of ``payload`` when
        the caller has already verified one (the relay check's wire
        CRC); it keys the memo lookup instead of a second hash.
        """
        if not header.compressed:
            return payload, payload_crc32(payload)
        codec = self._header_codec(header)
        sm = self.device.spec.sm_count
        if part is None:
            if codec.host_setup:
                yield from self._host_setup()
            index = range(header.n_partitions)
            blocks, stream, label = max(1, sm // len(index)), 0, "p0"
        else:
            index = (part,)
            blocks, stream, label = max(1, sm // 2), part % _MAX_STREAMS, f"pipe{part}"
        counts = _partition_counts(header.n_elements, header.n_partitions)
        itemsize = np.dtype(header.dtype_name).itemsize
        durations = self._kernel_times(
            "decompress", header.algorithm, [counts[i] * itemsize for i in index],
            blocks)
        yield from self._run_partition_kernels(
            durations, blocks, "decompression_kernel", label, stream)

        # Real decompression: one memo lookup for the part, partition by
        # partition on a miss.
        parts, crc = self._decode(
            codec, payload, self._partition_comps(header, payload, index),
            fingerprint=fingerprint,
        )

        yield from self._release(resources)
        resources.clear()
        return (handout(parts) if part is None else parts[0]), crc
