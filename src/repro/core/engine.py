"""Sender/receiver compression pipelines (the paper's Algorithms 1-3).

The engine is instantiated once per MPI rank.  It owns the rank's
pre-allocated buffer pools and CUDA streams, and exposes four
generator subroutines the MPI protocol layer calls:

``sender_prepare``
    Steps 1-3 of Figure 4: decide whether to compress, obtain device
    buffers (pool vs. ``cudaMalloc``), launch the compression
    kernel(s), retrieve the compressed size (GDRCopy vs.
    ``cudaMemcpy``), combine partitions, and build the header that the
    protocol layer piggybacks on the RTS packet.
``sender_release``
    Return pooled buffers / free temporaries once the send completes.
``receiver_prepare``
    Step between RTS and CTS: allocate the temporary device buffer for
    the incoming compressed payload.
``receiver_complete``
    Steps 6-7: launch the decompression kernel(s) and restore the
    original data.

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
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core.adaptive import AdaptivePolicy
from repro.core.config import CompressionConfig
from repro.core.header import CompressionHeader
from repro.core.tuning import partitions_for_message
from repro.errors import CompressionError
from repro.gpu.device import Device
from repro.gpu.pool import BufferPool, SizeClassBufferPool
from repro.utils.integrity import payload_crc32
from repro.utils.units import KiB, MiB

__all__ = ["CompressionEngine", "SendPlan"]

_MAX_STREAMS = 16
#: ZFP's zfp_stream / zfp_field construction cost (paper Sec. V: ~9us)
_ZFP_STREAM_FIELD_TIME = 9e-6


@dataclass
class SendPlan:
    """Everything the protocol layer needs to ship one message."""

    header: CompressionHeader
    payload: np.ndarray  # bytes that go on the wire (or the raw array)
    wire_nbytes: int
    resources: list = field(default_factory=list)
    #: CRC32 of the data the receiver should reconstruct (the clean
    #: decompression round-trip for compressed sends, the raw bytes
    #: otherwise); piggybacked on RTS/DATA for integrity checking
    crc: Optional[int] = None

    @property
    def compressed(self) -> bool:
        return self.header.compressed


@dataclass
class PipelinedSendPlan:
    """A send split into independently-compressed, streamable partitions.

    The protocol layer runs ``kernel_run(i)`` (a generator subroutine)
    for each partition — charging that partition's compression kernel
    and size retrieval — and puts ``comps[i].payload`` on the wire as
    soon as it returns, overlapping compression with transfer.
    """

    header: CompressionHeader
    comps: list
    resources: list = field(default_factory=list)
    kernel_run: object = None  # callable(i) -> generator
    crc: Optional[int] = None  # CRC32 of the reassembled decompressed data

    @property
    def n_parts(self) -> int:
        return len(self.comps)


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
        self.adaptive_policy: Optional[AdaptivePolicy] = (
            AdaptivePolicy() if config.adaptive else None
        )
        # Pre-allocated pools, built at init (MPI_Init) off the
        # critical path — MPC-OPT optimizations 1 & 2.
        if config.enabled and config.use_buffer_pool:
            self.data_pool = SizeClassBufferPool(
                device, min_bytes=64 * KiB, max_bytes=256 * MiB, count_per_class=2
            )
            self.doff_pool = BufferPool(device, 4 * KiB, count=8)
        else:
            self.data_pool = None
            self.doff_pool = None
        self.streams = [device.new_stream() for _ in range(_MAX_STREAMS)]

    # -- helpers -----------------------------------------------------------
    def _codec(self, algorithm: str, **params):
        key = (algorithm, tuple(sorted(params.items())))
        if key not in self._codecs:
            self._codecs[key] = get_compressor(algorithm, **params)
        return self._codecs[key]

    def _compressible(self, data) -> bool:
        cfg = self.config
        return (
            cfg.enabled
            and isinstance(data, np.ndarray)
            and data.dtype.type in (np.float32, np.float64)
            and data.nbytes >= cfg.threshold
        )

    def _plan_crc(self, codec, data, comps) -> int:
        """CRC32 of what the receiver must reconstruct.

        Lossless codecs round-trip to the original bytes, so the raw
        CRC suffices.  Lossy codecs (zfp/sz) are checked against the
        *clean* decompression of the wire bytes — computed with the
        unwrapped codec so an installed fault wrapper can neither
        corrupt nor draw RNG for the expected value.
        """
        clean = getattr(codec, "inner", codec)
        if clean.lossless:
            if len(comps) == 1 and comps[0].n_elements == data.size:
                # The codec cache already CRC'd exactly these bytes as
                # its lookup fingerprint; recomputing would hash the
                # full source buffer a second time per send.
                crc = comps[0].meta.get("src_crc32")
                if crc is not None:
                    return crc
            return payload_crc32(data)
        if len(comps) == 1:
            crc = comps[0].meta.get("out_crc32")
            if crc is None:
                # Hashed once, inside the decode memo: the receiver's
                # lookup of these wire bytes finds the CRC with the entry.
                _, crc = GLOBAL_CODEC_CACHE.decode(
                    clean, comps[0].payload, comps, want_crc=True)
                # Decompression is deterministic, so the expected-value
                # CRC can ride on the (cache-shared) comp for re-sends.
                comps[0].meta["out_crc32"] = crc
            return crc
        outs = [GLOBAL_CODEC_CACHE.decompress(clean, c) for c in comps]
        return payload_crc32(np.concatenate(outs))

    def _acquire_data_buffer(self, nbytes: int, label: str):
        """Pool hit (cheap) or cudaMalloc (the naive path's cost)."""
        if self.data_pool is not None:
            buf = yield from self.data_pool.acquire(nbytes, label)
        else:
            buf = yield from self.device.malloc(nbytes, label)
        return buf

    def _acquire_doff(self, label: str = "d_off"):
        if self.doff_pool is not None:
            buf = yield from self.doff_pool.acquire(self.device.spec.sm_count * 4, label)
        else:
            buf = yield from self.device.malloc(self.device.spec.sm_count * 4, label)
        return buf

    def _release(self, resources: list):
        for buf in resources:
            if buf.pooled:
                pool = self.doff_pool if buf.capacity == 4 * KiB else self.data_pool
                yield from pool.release(buf)
            else:
                yield from self.device.free(buf)

    def sender_release(self, plan: "SendPlan | PipelinedSendPlan"):
        """Return the send-side buffers (after the data has left)."""
        yield from self._release(plan.resources)
        plan.resources = []

    # -- sender ---------------------------------------------------------------
    def sender_prepare(self, data, path_bandwidth: float = 0.0,
                       force_uncompressed: bool = False):
        """Compress (or not) and produce a :class:`SendPlan`.

        ``path_bandwidth`` (bytes/s of the route to the destination)
        feeds the adaptive policy when enabled.  ``force_uncompressed``
        skips the compression pipeline entirely — the protocol layer
        uses it when a peer's compression circuit breaker is open.
        """
        if not force_uncompressed and self._compressible(data):
            if self.adaptive_policy is None or self.adaptive_policy.should_compress(
                data.nbytes, path_bandwidth
            ):
                if self.config.algorithm == "mpc":
                    plan = yield from self._send_mpc(data)
                elif self.config.algorithm == "zfp":
                    plan = yield from self._send_zfp(data)
                else:
                    plan = yield from self._send_generic(data)
                return plan
        nbytes = int(data.nbytes) if isinstance(data, np.ndarray) else len(data)
        header = CompressionHeader.uncompressed(nbytes)
        return SendPlan(header=header, payload=data, wire_nbytes=nbytes,
                        crc=payload_crc32(data))

    def _run_partition_kernels(self, durations: list[float], blocks: int, category: str):
        """Launch one kernel per partition on separate CUDA streams.

        Kernels overlap on the device (bounded by the SM pool), but
        their *submissions* serialize on the CPU — one enqueue per
        stream — which is what makes over-partitioning small messages a
        loss and motivates the tuned schedule.
        """
        if len(durations) == 1:
            yield from self.streams[0].run_kernel(durations[0], blocks, category, "p0")
            return
        submit = self.device.spec.kernel_launch
        failstop = getattr(self.sim, "failstop", None)
        procs = []
        for i, d in enumerate(durations):
            if i:
                yield self.sim.timeout(submit)
            p = self.sim.process(
                self.streams[i % _MAX_STREAMS].run_kernel(d, blocks, category, f"p{i}"),
                name=f"{category}-p{i}",
            )
            if failstop is not None:
                # Partition kernels belong to this device's rank (ranks
                # map 1:1 onto GPUs) so a fail-stop kill sweeps them up.
                failstop.adopt(self.device.device_id, p)
            procs.append(p)
        yield self.sim.all_of(procs)

    def _send_mpc(self, data: np.ndarray):
        cfg = self.config
        spec = self.device.spec
        model = kernel_cost_model_for("mpc")
        codec = self._codec("mpc", dimensionality=cfg.mpc_dimensionality)
        nbytes = data.nbytes

        parts = cfg.partitions or partitions_for_message(nbytes)
        # Never partition below one SM per kernel or 64 elements each.
        parts = max(1, min(parts, spec.sm_count, data.size // 64 or 1))

        t_prepare_start = self.sim.now
        resources = []
        try:
            bound = nbytes + nbytes // 16 + 4096  # worst-case MPC expansion
            comp_buf = yield from self._acquire_data_buffer(bound, "mpc_compressed")
            resources.append(comp_buf)
            doff = yield from self._acquire_doff()
            resources.append(doff)

            # Real compression, one partition at a time (memoized host-side;
            # kernel time is charged below regardless).
            pieces = np.array_split(data, parts)
            comps = [GLOBAL_CODEC_CACHE.compress(codec, p) for p in pieces]
            sizes = [c.nbytes for c in comps]

            # Modelled kernel executions (concurrent when partitioned).
            blocks = max(1, spec.sm_count // parts)
            durations = [
                model.compress_time(p.nbytes, blocks, spec.sm_count) for p in pieces
            ]
            self._observe_kernels("compress", "mpc", durations)
            yield from self._run_partition_kernels(durations, blocks, "compression_kernel")

            # Retrieve compressed size(s): GDRCopy (OPT) vs cudaMemcpy (naive).
            size_bytes = 4 * parts
            if cfg.use_gdrcopy:
                yield from self.device.gdrcopy(size_bytes, "compressed_size")
            else:
                yield from self.device.memcpy_d2h(size_bytes, "compressed_size")

            # Merge partition outputs into one contiguous buffer (fixed
            # order, Sec. IV); partition 0 is already in place.
            if parts > 1:
                yield from self.device.memcpy_d2d(sum(sizes[1:]), "combine")

            payload = np.concatenate([c.payload for c in comps]) if parts > 1 else comps[0].payload
            if self.adaptive_policy is not None:
                blocks_r = max(1, spec.sm_count // parts)
                est_decompr = max(
                    model.decompress_time(p.nbytes, blocks_r, spec.sm_count) for p in pieces
                )
                self.adaptive_policy.record(
                    nbytes, nbytes / max(1, payload.nbytes),
                    self.sim.now - t_prepare_start, est_decompr,
                )
        except BaseException:
            yield from self._release(resources)
            raise
        if payload.nbytes >= nbytes:
            # Incompressible: fall back to the raw message (the kernel
            # time was still spent — that is the price of trying).
            self._record_compression("mpc", nbytes, payload.nbytes, fallback=True)
            yield from self._release(resources)
            return SendPlan(
                header=CompressionHeader.uncompressed(nbytes),
                payload=data, wire_nbytes=nbytes, crc=payload_crc32(data),
            )
        self._record_compression("mpc", nbytes, payload.nbytes)
        comp_buf.write(payload)
        header = CompressionHeader.for_message(
            "mpc", data.dtype, data.size, cfg.mpc_dimensionality, sizes
        )
        return SendPlan(
            header=header, payload=payload, wire_nbytes=payload.nbytes,
            resources=resources, crc=self._plan_crc(codec, data, comps),
        )

    def _zfp_grid_dims(self):
        """ZFP's get_max_grid_dims: per-message cudaGetDeviceProperties
        in the naive library vs. a cached cudaDeviceGetAttribute in
        ZFP-OPT (Section V)."""
        if self.config.cache_device_attrs:
            yield from self.device.get_device_attribute("max_grid_dim_x", cached=True)
        else:
            yield from self.device.get_device_properties()

    def _zfp_stream_field(self):
        """Construct zfp_stream / zfp_field (CPU-side, ~9us)."""
        t0 = self.sim.now
        yield self.sim.timeout(_ZFP_STREAM_FIELD_TIME)
        if self.sim.tracer is not None:
            self.sim.tracer.span(t0, self.sim.now, "zfp_stream_field", "create",
                                 rank=self.device.device_id, track="main")

    def _record_compression(self, codec_name: str, bytes_in: int,
                            bytes_out: int, fallback: bool = False) -> None:
        """Feed the compression-ratio metrics (CR = bytes_in/bytes_out)."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        if fallback:
            tracer.metrics.inc("compress.fallback", codec=codec_name)
        else:
            tracer.metrics.inc("compress.bytes_in", bytes_in, codec=codec_name)
            tracer.metrics.inc("compress.bytes_out", bytes_out, codec=codec_name)

    def _observe_kernels(self, kind: str, codec_name: str, durations) -> None:
        """Feed per-launch kernel durations (microseconds) into the
        ``compress.kernel_us`` / ``decompress.kernel_us`` histograms."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        name = f"{kind}.kernel_us"
        for d in durations:
            tracer.metrics.observe(name, d * 1e6, codec=codec_name)

    def _send_zfp(self, data: np.ndarray):
        cfg = self.config
        spec = self.device.spec
        model = kernel_cost_model_for("zfp")
        codec = self._codec("zfp", rate=cfg.zfp_rate)
        nbytes = data.nbytes

        t_prepare_start = self.sim.now
        resources = []
        try:
            yield from self._zfp_stream_field()
            yield from self._zfp_grid_dims()

            expected = codec.expected_compressed_bytes(data.size, data.dtype.itemsize)
            comp_buf = yield from self._acquire_data_buffer(expected, "zfp_compressed")
            resources.append(comp_buf)

            comp = GLOBAL_CODEC_CACHE.compress(codec, data)  # real compression
            duration = model.compress_time(nbytes, spec.sm_count, spec.sm_count)
            self._observe_kernels("compress", "zfp", [duration])
            yield from self.streams[0].run_kernel(
                duration, spec.sm_count, "compression_kernel", "zfp"
            )
            # No size copy: ZFP's compressed size is predictable (Sec. III).
            if self.adaptive_policy is not None:
                est_decompr = model.decompress_time(nbytes, spec.sm_count, spec.sm_count)
                self.adaptive_policy.record(
                    nbytes, nbytes / max(1, comp.nbytes),
                    self.sim.now - t_prepare_start, est_decompr,
                )
        except BaseException:
            yield from self._release(resources)
            raise
        if comp.nbytes >= nbytes:
            # CR < 1 at this rate/size: ship raw rather than expand.
            self._record_compression("zfp", nbytes, comp.nbytes, fallback=True)
            yield from self._release(resources)
            return SendPlan(
                header=CompressionHeader.uncompressed(nbytes),
                payload=data, wire_nbytes=nbytes, crc=payload_crc32(data),
            )
        self._record_compression("zfp", nbytes, comp.nbytes)
        comp_buf.write(comp.payload)
        header = CompressionHeader.for_message(
            "zfp", data.dtype, data.size, cfg.zfp_rate, (comp.nbytes,)
        )
        return SendPlan(
            header=header, payload=comp.payload, wire_nbytes=comp.nbytes,
            resources=resources, crc=self._plan_crc(codec, data, [comp]),
        )

    def _generic_codec(self):
        cfg = self.config
        if cfg.algorithm == "sz":
            # Compress with the bound as the header carries it (a
            # float32), so both ends run the same codec and the
            # sender's expected-value decode is the receiver's.
            param = CompressionHeader.encode_sz_bound(cfg.sz_error_bound)
            bound = CompressionHeader.decode_sz_bound(param)
            return self._codec("sz", error_bound=bound), param
        return self._codec(cfg.algorithm), 0

    def _send_generic(self, data: np.ndarray):
        """Any other registry codec (sz/gfc/fpc) as the transport
        compressor: one full-device kernel, size retrieved like MPC's
        (data-dependent compressed size)."""
        cfg = self.config
        spec = self.device.spec
        model = kernel_cost_model_for(cfg.algorithm)
        codec, param = self._generic_codec()
        nbytes = data.nbytes
        if data.dtype.type not in codec.supported_dtypes:
            return SendPlan(
                header=CompressionHeader.uncompressed(nbytes),
                payload=data, wire_nbytes=nbytes, crc=payload_crc32(data),
            )
        resources = []
        try:
            bound = nbytes + nbytes // 4 + 8192
            comp_buf = yield from self._acquire_data_buffer(bound, f"{cfg.algorithm}_compressed")
            resources.append(comp_buf)
            comp = GLOBAL_CODEC_CACHE.compress(codec, data)
            duration = model.compress_time(nbytes, spec.sm_count, spec.sm_count)
            self._observe_kernels("compress", cfg.algorithm, [duration])
            yield from self.streams[0].run_kernel(
                duration, spec.sm_count, "compression_kernel", cfg.algorithm
            )
            if cfg.use_gdrcopy:
                yield from self.device.gdrcopy(4, "compressed_size")
            else:
                yield from self.device.memcpy_d2h(4, "compressed_size")
        except BaseException:
            yield from self._release(resources)
            raise
        if comp.nbytes >= nbytes:
            self._record_compression(cfg.algorithm, nbytes, comp.nbytes,
                                     fallback=True)
            yield from self._release(resources)
            return SendPlan(
                header=CompressionHeader.uncompressed(nbytes),
                payload=data, wire_nbytes=nbytes, crc=payload_crc32(data),
            )
        self._record_compression(cfg.algorithm, nbytes, comp.nbytes)
        comp_buf.write(comp.payload)
        header = CompressionHeader.for_message(
            cfg.algorithm, data.dtype, data.size, param, (comp.nbytes,)
        )
        return SendPlan(header=header, payload=comp.payload,
                        wire_nbytes=comp.nbytes, resources=resources,
                        crc=self._plan_crc(codec, data, [comp]))

    # -- pipelined extension -------------------------------------------------
    def sender_prepare_pipelined(self, data, path_bandwidth: float = 0.0):
        """Build a :class:`PipelinedSendPlan`, or return ``None`` when
        the message should take the ordinary path (not compressible,
        too small to split, or incompressible data).

        Works for both codecs: ZFP partitions are independent 4-block
        groups, MPC partitions reset the LNV predictor exactly as in
        the paper's combined scheme (Section IV notes the ratio impact
        is negligible).
        """
        cfg = self.config
        if not (cfg.pipeline and self._compressible(data)):
            return None
        spec = self.device.spec
        nbytes = data.nbytes
        parts = cfg.partitions or partitions_for_message(nbytes)
        parts = max(1, min(parts, spec.sm_count, data.size // 64 or 1))
        if parts < 2:
            return None
        model = kernel_cost_model_for(cfg.algorithm)
        if cfg.algorithm == "mpc":
            codec = self._codec("mpc", dimensionality=cfg.mpc_dimensionality)
            param = cfg.mpc_dimensionality
        else:
            codec = self._codec("zfp", rate=cfg.zfp_rate)
            param = cfg.zfp_rate

        pieces = np.array_split(data, parts)
        comps = [GLOBAL_CODEC_CACHE.compress(codec, p) for p in pieces]
        sizes = [c.nbytes for c in comps]
        if sum(sizes) >= nbytes:
            return None  # incompressible: take the raw fallback path
        self._record_compression(cfg.algorithm, nbytes, sum(sizes))

        resources = []
        try:
            bound = nbytes + nbytes // 16 + 4096
            comp_buf = yield from self._acquire_data_buffer(bound, "pipe_compressed")
            resources.append(comp_buf)
            if cfg.algorithm == "mpc":
                doff = yield from self._acquire_doff()
                resources.append(doff)
            else:
                yield from self._zfp_stream_field()
                yield from self._zfp_grid_dims()
        except BaseException:
            yield from self._release(resources)
            raise

        # Pipelining wants *staggered* completions: chunks run back to
        # back on one stream at half-device width (the paper's "half
        # the SMs is roughly the same as using full GPU"), so chunk 0
        # is on the wire while chunk 1 is still compressing.
        blocks = max(1, spec.sm_count // 2)
        engine = self

        def kernel_run(i: int):
            duration = model.compress_time(pieces[i].nbytes, blocks, spec.sm_count)
            engine._observe_kernels("compress", cfg.algorithm, [duration])
            yield from engine.streams[0].run_kernel(
                duration, blocks, "compression_kernel", f"pipe{i}"
            )
            if cfg.algorithm == "mpc":
                # per-partition compressed-size retrieval
                if cfg.use_gdrcopy:
                    yield from engine.device.gdrcopy(4, "compressed_size")
                else:
                    yield from engine.device.memcpy_d2h(4, "compressed_size")

        header = CompressionHeader.for_message(
            cfg.algorithm, data.dtype, data.size, param, sizes, pipelined=True
        )
        return PipelinedSendPlan(
            header=header, comps=comps, resources=resources, kernel_run=kernel_run,
            crc=self._plan_crc(codec, data, comps),
        )

    def pipelined_receive_part(self, header: CompressionHeader, part: int, payload):
        """Decompress one arrived partition (generator subroutine)."""
        spec = self.device.spec
        model = kernel_cost_model_for(header.algorithm)
        codec = self._codec(header.algorithm, **header.codec_params())
        dtype = np.dtype(header.dtype_name)
        counts = _partition_counts(header.n_elements, header.n_partitions)
        # Half-device kernels: arrivals are already staggered by the
        # wire, adjacent parts may overlap pairwise.
        blocks = max(1, spec.sm_count // 2)
        duration = model.decompress_time(counts[part] * dtype.itemsize, blocks,
                                         spec.sm_count)
        self._observe_kernels("decompress", header.algorithm, [duration])
        yield from self.streams[part % _MAX_STREAMS].run_kernel(
            duration, blocks, "decompression_kernel", f"pipe{part}"
        )
        comp = CompressedData(
            algorithm=header.algorithm,
            payload=np.ascontiguousarray(payload, dtype=np.uint8),
            n_elements=counts[part], dtype=dtype, params=header.codec_params(),
        )
        return GLOBAL_CODEC_CACHE.decompress(codec, comp)

    # -- compressed-domain reduction (hZCCL-style) ---------------------------
    def reduce_capable(self, op) -> bool:
        """True when reduction collectives may combine *compressed* wire
        payloads directly via :meth:`reduce_wire_payload` instead of
        decoding at every hop: compression on, the reduction is a plain
        sum, and the configured codec advertises
        :attr:`~repro.compression.base.Compressor.reduce_supported`."""
        cfg = self.config
        if not cfg.enabled or op is not np.add:
            return False
        codec = self._transport_codec()
        clean = getattr(codec, "inner", codec)
        return bool(clean.reduce_supported)

    def _transport_codec(self):
        """The codec the current config would put on the wire."""
        cfg = self.config
        if cfg.algorithm == "mpc":
            return self._codec("mpc", dimensionality=cfg.mpc_dimensionality)
        if cfg.algorithm == "zfp":
            return self._codec("zfp", rate=cfg.zfp_rate)
        return self._generic_codec()[0]

    def reduce_wire_payload(self, header: CompressionHeader, local: np.ndarray,
                            other_header: CompressionHeader, other_payload,
                            want_crc: bool = False):
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
        of that result is the CRC of the sum itself.

        Returns ``(header, payload, crc, total)`` for the combined
        image — an uncompressed header with ``total`` as the payload
        when the partial sums stop compressing.  ``total`` is the raw
        sum, for the caller to hold as its next ``local``; ``crc`` (the
        post-decode stamp) is computed only when ``want_crc`` —
        integrity checking is the only consumer.
        """
        if not (header.compressed and other_header.compressed):
            raise CompressionError("reduce_wire_payload needs two compressed operands")
        if (header.algorithm != other_header.algorithm
                or header.n_elements != other_header.n_elements
                or header.n_partitions != other_header.n_partitions
                or header.dtype_name != other_header.dtype_name):
            raise CompressionError(
                f"wire reduction operand mismatch: {header!r} vs {other_header!r}"
            )
        dtype = np.dtype(header.dtype_name)
        if local.dtype != dtype or local.shape != (header.n_elements,):
            raise CompressionError(
                f"local operand {local.shape}x{local.dtype} does not match {header!r}"
            )
        spec = self.device.spec
        model = kernel_cost_model_for(header.algorithm)
        codec = self._codec(header.algorithm, **header.codec_params())
        clean = getattr(codec, "inner", codec)
        parts = header.n_partitions
        counts = _partition_counts(header.n_elements, parts)

        # Fused kernels, one per partition, like the decode path.
        blocks = max(1, spec.sm_count // parts)
        durations = [
            model.reduce_time(c * dtype.itemsize, blocks, spec.sm_count)
            for c in counts
        ]
        self._observe_kernels("reduce", header.algorithm, durations)
        yield from self._run_partition_kernels(durations, blocks, "reduction_kernel")

        total = np.empty(header.n_elements, dtype=dtype)
        reduced = []
        start = 0
        for comp in self._partition_comps(other_header, other_payload):
            stop = start + comp.n_elements
            np.add(local[start:stop],
                   GLOBAL_CODEC_CACHE.run_decompress(clean, comp),
                   out=total[start:stop])
            reduced.append(GLOBAL_CODEC_CACHE.run_compress(clean, total[start:stop]))
            start = stop
        sizes = [c.nbytes for c in reduced]
        crc = payload_crc32(total) if want_crc else None

        raw_nbytes = total.nbytes
        if sum(sizes) >= raw_nbytes:
            # Partial sums stopped compressing: degrade this
            # accumulator to a raw image.
            self._record_compression(header.algorithm, raw_nbytes,
                                     sum(sizes), fallback=True)
            return CompressionHeader.uncompressed(raw_nbytes), total, crc, total

        self._record_compression(header.algorithm, raw_nbytes, sum(sizes))
        payload = np.concatenate([c.payload for c in reduced]) \
            if parts > 1 else reduced[0].payload
        out_header = CompressionHeader.for_message(
            header.algorithm, dtype, header.n_elements, header.param, sizes,
        )
        return out_header, payload, crc, total

    # -- receiver -----------------------------------------------------------
    def receiver_prepare(self, header: CompressionHeader):
        """Between RTS and CTS: obtain the temporary device buffer (and
        MPC's d_off) for the incoming compressed payload."""
        if not header.compressed:
            return []
        resources = []
        try:
            buf = yield from self._acquire_data_buffer(header.wire_bytes, "recv_compressed")
            resources.append(buf)
            if header.algorithm == "mpc":
                doff = yield from self._acquire_doff()
                resources.append(doff)
        except BaseException:
            yield from self._release(resources)
            raise
        return resources

    @staticmethod
    def _partition_comps(header: CompressionHeader, payload) -> list:
        """The partitions of a compressed wire payload, in order, as
        :class:`CompressedData` views into it."""
        payload = np.ascontiguousarray(payload, dtype=np.uint8)
        dtype = np.dtype(header.dtype_name)
        params = header.codec_params()
        counts = _partition_counts(header.n_elements, header.n_partitions)
        comps, offset = [], 0
        for count, size in zip(counts, header.partition_sizes):
            comps.append(CompressedData(
                algorithm=header.algorithm, payload=payload[offset:offset + size],
                n_elements=count, dtype=dtype, params=params,
            ))
            offset += size
        if offset != payload.nbytes:
            raise CompressionError(
                f"payload has {payload.nbytes} bytes but partitions account for {offset}"
            )
        return comps

    def receiver_complete(self, header: CompressionHeader, payload, resources: list,
                          fingerprint: Optional[int] = None,
                          want_crc: bool = False):
        """After the data lands: decompress and restore the original.

        Returns ``(data, crc)``; ``crc`` is the CRC32 of ``data``'s
        bytes when ``want_crc`` (else ``None``) — served from the decode
        memo when these wire bytes were decoded before, so the caller's
        integrity check does not hash a buffer the cache already
        vouches for.  ``fingerprint`` is the CRC32 of ``payload`` when
        the caller has already verified one (the relay check's wire
        CRC); it keys the memo lookup instead of a second hash.
        """
        if not header.compressed:
            return payload, (payload_crc32(payload) if want_crc else None)
        spec = self.device.spec
        model = kernel_cost_model_for(header.algorithm)
        codec = self._codec(header.algorithm, **header.codec_params())
        dtype = np.dtype(header.dtype_name)

        if header.algorithm == "zfp":
            yield from self._zfp_stream_field()
            yield from self._zfp_grid_dims()

        parts = header.n_partitions
        counts = _partition_counts(header.n_elements, parts)
        blocks = max(1, spec.sm_count // parts)
        durations = [
            model.decompress_time(c * dtype.itemsize, blocks, spec.sm_count)
            for c in counts
        ]
        self._observe_kernels("decompress", header.algorithm, durations)
        yield from self._run_partition_kernels(durations, blocks, "decompression_kernel")

        # Real decompression: one memo lookup for the whole message,
        # partition by partition on a miss.
        result, crc = GLOBAL_CODEC_CACHE.decode(
            codec, payload, self._partition_comps(header, payload),
            fingerprint=fingerprint, want_crc=want_crc,
        )

        yield from self._release(resources)
        return result, crc
