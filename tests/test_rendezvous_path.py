"""The one rendezvous path, pinned scenario by scenario.

User data, relayed wire images, pipelined sends and retransmissions go
through one send path, one receive path and one recovery loop.  Each
scenario (two-rank pt2pt, or six ranks of keep-compressed collectives,
under a config and a fault plan) is pinned in the run layers of
``tests/pins.py`` and in ``faults``, the injector's final RNG state.
"""

import pytest

from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core import CompressionConfig
from repro.errors import CompressionError, RetryExhaustedError
from repro.faults import FaultPlan
from repro.mpi.cluster import Cluster
from repro.mpi.comm import ANY_TAG
from repro.mpi.resilience import ResilienceConfig
from repro.omb.payload import make_payload
from repro.utils.integrity import payload_crc32
from repro.utils.units import KiB, MiB

from tests import pins

MPC = CompressionConfig.mpc_opt()
MPC_PIPE = CompressionConfig.mpc_opt(partitions=4).with_(pipeline=True)
ZFP_PIPE = CompressionConfig.zfp_opt(8).with_(pipeline=True, partitions=4)
OFF = CompressionConfig.disabled()
SZ = CompressionConfig(enabled=True, algorithm="sz")

PT2PT_CONFIGS = {"mpc-opt": MPC, "mpc-pipe4": MPC_PIPE, "zfp8-pipe4": ZFP_PIPE,
                 "off": OFF, "sz": SZ}
COLL_CONFIGS = {"mpc-opt": MPC, "off": OFF, "zfp8-pipe4": ZFP_PIPE,
                "rehop": MPC.with_(keep_compressed=False)}

PLANS = {
    "clean": None,
    "drop": FaultPlan(seed=11, drop_rate=0.3),
    "drop+corrupt": FaultPlan(seed=12, drop_rate=0.2, corrupt_rate=0.2),
    "silent": FaultPlan(seed=13, decompress_corrupt_rate=0.3),
    "oom+pool": FaultPlan(seed=14, oom_rate=0.3, pool_fail_rate=0.3),
    "compress-fail": FaultPlan(seed=15, compress_fail_rate=0.5),
    "mixed": FaultPlan(seed=20, corrupt_rate=0.1, compress_fail_rate=0.1,
                       decompress_corrupt_rate=0.2),
    # every collective row completes, keep-compressed ones with retries
    # at ``unpack_wire``
    "alloc": FaultPlan(seed=19, oom_rate=0.3, pool_fail_rate=0.3),
}
#: collectives run under every plan but ``oom+pool`` (``alloc`` has its
#: rates); ``rehop`` (decode and recompress at every hop) under the
#: codec and allocation plans only
COLL_PLANS = [p for p in PLANS if p != "oom+pool"]
REHOP_PLANS = ("silent", "compress-fail", "mixed", "alloc")

SCENARIOS = [("pt2pt", c, p) for c in PT2PT_CONFIGS for p in PLANS
             if p != "alloc"] \
    + [("coll", c, p) for c in COLL_CONFIGS if c != "rehop" for p in COLL_PLANS] \
    + [("coll", "rehop", p) for p in REHOP_PLANS]


def _coll(comm):
    """Keep-compressed relays (allgather, bcast) and the reduce step
    (ring allreduce) on six ranks, distinct data per rank."""
    mine = make_payload("wave", 384 * KiB, seed=comm.rank)
    blocks = yield from comm.allgather(mine)
    total = yield from comm.allreduce(make_payload("wave", 768 * KiB,
                                                   seed=10 + comm.rank),
                                      algorithm="ring")
    root = yield from comm.bcast(mine if comm.rank == 0 else None, root=0)
    return [payload_crc32(x) for x in (*blocks, total, root)]


def _scenario(kind: str, config: str, plan: str) -> pins.Scenario:
    if kind == "pt2pt":
        return pins.Scenario(pins.pt2pt, PT2PT_CONFIGS[config],
                             faults=PLANS[plan], may_raise=True)
    return pins.Scenario(_coll, COLL_CONFIGS[config], ("longhorn", 3, 2),
                         PLANS[plan], may_raise=True)


FAMILY = pins.Family("rendezvous", {"/".join(s): _scenario(*s)
                                    for s in SCENARIOS},
                     pins.BASE + ("faults",))


@pytest.mark.parametrize("kind,config,plan", SCENARIOS,
                         ids=["-".join(s) for s in SCENARIOS])
def test_scenario_matches_parent(kind, config, plan):
    assert FAMILY.moved("/".join((kind, config, plan))) == {}


@pytest.mark.parametrize("cell", ["pt2pt/mpc-pipe4/mixed", "coll/mpc-opt/silent"])
def test_a_warm_memo_makes_the_same_run(monkeypatch, cell):
    """A memo hit never skips a draw: a codec-fault cell observed from a
    cold codec memo, then again with the memo the first run left warm,
    makes the same run in every layer, the injector's RNG state too."""
    scenario = FAMILY.cells[cell]
    cold = pins.digests(scenario.observe(), FAMILY.layers)
    hits = GLOBAL_CODEC_CACHE.hits
    monkeypatch.setattr(GLOBAL_CODEC_CACHE, "clear", lambda: None)
    warm = pins.digests(scenario.observe(), FAMILY.layers)
    assert GLOBAL_CODEC_CACHE.hits > hits
    assert set(cold) == {"result", "time", "spans", "metrics", "mechanism",
                         "faults"}
    assert warm == cold


# -- a failed receive returns its staging buffers -----------------------------

def _pools_home(runtime) -> bool:
    pools = []
    for rank in range(2):
        eng = runtime.engine_of(rank)
        pools += [eng.doff_pool] + eng.data_pool._classes
    return all(p.free_count == p.total for p in pools)


@pytest.mark.parametrize(
    "config,max_retries,error",
    [(MPC_PIPE, 0, CompressionError),
     (MPC_PIPE.with_(pipeline=False), 0, CompressionError),
     (MPC_PIPE, 2, RetryExhaustedError)],
    ids=["pipelined", "unpipelined", "pipelined-retried"])
@pytest.mark.parametrize("seed", range(3))
def test_failed_receive_returns_its_buffers(config, max_retries, error, seed):
    """Every partition is corrupted: the receive fails — with the
    decoder's own error when nothing may be retransmitted, with the
    exhausted budget's when the streamed attempt 0 is followed by two
    whole-image retransmissions — and with every pooled buffer of both
    ranks back home."""
    payload = make_payload("omb", 1 * MiB)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(payload, 1)
            return None
        try:
            yield from comm.recv(0)
        except error:
            yield comm.sim.timeout(1e-3)  # let the other parts drain
            return "failed"

    res = Cluster("longhorn", 2, 1).run(
        rank_fn, config=config, faults=FaultPlan(seed=seed, corrupt_rate=1.0),
        resilience=ResilienceConfig(max_retries=max_retries))
    assert res.values[1] == "failed"
    assert _pools_home(res.runtime)
    assert res.tracer.metrics.counter_total("resilience.decode_error") \
        == 1 + max_retries


# -- the posted tag never reaches the handshake --------------------------------

@pytest.mark.parametrize("config", [MPC, MPC_PIPE], ids=["rndv", "pipelined"])
def test_any_tag_receive_has_the_same_trace(config):
    payload = make_payload("wave", 1 * MiB, seed=1)

    def rank_fn(comm, tag):
        if comm.rank == 0:
            yield from comm.send(payload, 1, tag=5)
            return None
        return payload_crc32((yield from comm.recv(0, tag=tag)))

    a, b = (pins.run(Cluster("longhorn", 2, 1), rank_fn, config=config,
                     args=(tag,)) for tag in (5, ANY_TAG))
    assert pins.digests(a) == pins.digests(b)
