"""Every collective, pinned to the commit before ISSUE 19.

ISSUE 19 rewrote ``mpi/collectives.py`` as schedule tables run by one
exchange driver over a raw/wire plane, claiming no change to any span,
metric, event count or result bit.  ``PINS`` below was captured from
the commit *before* that change and nothing was regenerated after it.

Per cluster shape, config and collective call a cell pins two layers,
so a change of mechanism alone (ROADMAP item 2: fewer scheduler events,
nothing else) moves one integer per cell and leaves the digests green:

``PINS`` (*observable*)
    one digest over ``[r.key() for r in tracer.records]``,
    ``tracer.metrics.as_dict()``, ``elapsed`` and every rank's returned
    bytes;
``EVENTS`` (*mechanism*)
    ``tracer.event_count``.

The split was captured on the commit before ISSUE 23 by a run that
first reproduced all 450 one-layer digests (which folded ``(elapsed,
event_count)`` together) and hashed the two layers from those same
runs.  ``python -m tests.test_collective_pins`` prints both tables —
after checking that every observable digest still equals its constant.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core import CompressionConfig
from repro.mpi.cluster import Cluster
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

SHAPES = ((2, 1), (3, 1), (2, 2), (5, 1), (4, 2), (3, 3))

CONFIGS = {
    "disabled": CompressionConfig.disabled(),
    "mpc-opt": CompressionConfig.mpc_opt(),
    "mpc-opt-rehop": CompressionConfig.mpc_opt().with_(keep_compressed=False),
    "zfp8": CompressionConfig.zfp_opt(8),
    "naive-mpc": CompressionConfig.naive_mpc(),
}


def _wave(comm, nbytes=256 * KiB, salt=0):
    return make_payload("wave", nbytes, seed=comm.rank + salt)


def _bcast(root, nbytes=256 * KiB):
    def call(comm):
        data = _wave(comm, nbytes) if comm.rank == root else None
        return (yield from comm.bcast(data, root=root))
    return call


def _gather_last(comm):
    return (yield from comm.gather(_wave(comm), root=comm.size - 1))


def _scatter_1(comm):
    chunks = None
    if comm.rank == 1:
        chunks = [make_payload("wave", 256 * KiB, seed=d)
                  for d in range(comm.size)]
    return (yield from comm.scatter(chunks, root=1))


def _allgather(comm):
    return (yield from comm.allgather(_wave(comm)))


def _allgather_int32(comm):
    data = np.arange(64 * KiB, dtype=np.int32) * (comm.rank + 1)
    return (yield from comm.allgather(data))


def _reduce_1(comm):
    return (yield from comm.reduce(_wave(comm), root=1))


def _allreduce(algorithm, op=None):
    # 1 MiB: the ring's 1/size chunks sit above the 128 KiB compression
    # threshold on up to 8 ranks and below it on 9.
    def call(comm):
        return (yield from comm.allreduce(_wave(comm, 1 * MiB), op=op,
                                          algorithm=algorithm))
    return call


def _alltoall(comm):
    chunks = [_wave(comm, salt=100 * d) for d in range(comm.size)]
    return (yield from comm.alltoall(chunks))


def _barrier(comm):
    yield from comm.barrier()


#: call name -> (rank function, needs a power-of-two communicator)
CALLS = {
    "bcast-root0": (_bcast(0), False),
    "bcast-root1": (_bcast(1), False),
    "bcast-eager": (_bcast(0, 4 * KiB), False),
    "gather-last": (_gather_last, False),
    "scatter-root1": (_scatter_1, False),
    "allgather": (_allgather, False),
    "allgather-int32": (_allgather_int32, False),
    "reduce-root1": (_reduce_1, False),
    "allreduce-ring": (_allreduce("ring"), False),
    "allreduce-ring-max": (_allreduce("ring", np.maximum), False),
    "allreduce-rd": (_allreduce("recursive_doubling"), True),
    "allreduce-rd-max": (_allreduce("recursive_doubling", np.maximum), True),
    "allreduce-reduce-bcast": (_allreduce("reduce_bcast"), False),
    "allreduce-default": (_allreduce(None), False),
    "alltoall": (_alltoall, False),
    "barrier": (_barrier, False),
}


def _calls_for(size: int) -> list:
    return [name for name, (_, pow2) in CALLS.items()
            if not pow2 or size & (size - 1) == 0]


def _feed(h, value) -> None:
    """Hash a rank's return value: arrays by dtype, shape and bytes."""
    if isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for v in value:
            _feed(h, v)
    elif value is None:
        h.update(b"N")
    else:
        arr = np.asarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())


def _observe(shape: tuple, config: str, call: str) -> tuple:
    """``(observable digest, event count)`` of one call."""
    GLOBAL_CODEC_CACHE.clear()
    res = Cluster("longhorn", *shape).run(CALLS[call][0],
                                          config=CONFIGS[config])
    tracer = res.tracer
    h = hashlib.sha256()
    h.update(repr([r.key() for r in tracer.records]).encode())
    h.update(json.dumps(tracer.metrics.as_dict(), sort_keys=True).encode())
    h.update(repr(res.elapsed).encode())
    _feed(h, res.values)
    return h.hexdigest()[:16], tracer.event_count


def _row(shape: tuple, config: str) -> dict:
    """``call -> (observable digest, event count)`` for every call of
    :func:`_calls_for`, in that order."""
    return {call: _observe(shape, config, call)
            for call in _calls_for(shape[0] * shape[1])}


def _moved(shape: tuple, config: str, row: dict) -> dict:
    """``call -> the layers of its cell that differ from the pins``."""
    key = f"{shape[0]}x{shape[1]}/{config}"
    want = zip(PINS[key].split(), map(int, EVENTS[key].split()), strict=True)
    moved = {}
    for (call, got), pinned in zip(row.items(), want, strict=True):
        layers = [name for name, g, w in zip(("observable", "events"),
                                             got, pinned) if g != w]
        if layers:
            moved[call] = layers
    return moved


PINS = {
    '2x1/disabled':
        '16bea68164446c7e 2fc0815b7a4a9ddb 2ab72639de776b4e 9e88354dc5309905 '
        '99d0cadcb7e33cce d11e3b5f84e34683 63972862680d72ba 483c0f244ee47c83 '
        '27a12358b057703f 99dee616eb5d3247 460332394829bf21 2eff61ac3662c25c '
        'cb9bd09d8629916f 460332394829bf21 2804587addc18047 57485b186e463535',
    '2x1/mpc-opt':
        'cf5f24484d33de84 e69f2b2744feac2d a20a71f4505540e0 cea49482716b466c '
        '5cb20eadc93659bc 928be2cb5ad3bea2 53c238b2dd4b8537 534cd978c96cecf6 '
        '638cb668ecf60f53 bc49a2484ff2f720 eca360d5e5d336cf 4f3a82f58f26aa84 '
        'dcd22f4ae8611c23 eca360d5e5d336cf 6851b75a334ec360 57485b186e463535',
    '2x1/mpc-opt-rehop':
        '8d6d6e4cfdc56c14 88147366668d6f93 2ab72639de776b4e cea49482716b466c '
        '751496ecaf55f12e 6321f3a3cd11e0f7 63972862680d72ba 534cd978c96cecf6 '
        'da6e8f6d7ea85040 bc49a2484ff2f720 7c17feab14846237 4f3a82f58f26aa84 '
        '37481ca4398dc89c 7c17feab14846237 4d9ddd049fbcb4ab 57485b186e463535',
    '2x1/zfp8':
        '92a9bf9a61f0f819 8dac34c819b515fa a20a71f4505540e0 115ca70d44bcd81f '
        'eadd82a5c167d40b 28171745cba45337 53c238b2dd4b8537 7b8cfbcc6dddb483 '
        '0dd1e6caf817b733 55155f7d5dd3c331 65cb195d0f972c85 963e0708e1e13f6e '
        'bb6ff5007b91ea41 65cb195d0f972c85 01a7a181f3aa9c30 57485b186e463535',
    '2x1/naive-mpc':
        'eb83473159364bc7 d009a24f81d9aa8d a20a71f4505540e0 9ddf021077d4132a '
        'c55f7834a0251f00 e2a9741a20541aea 53c238b2dd4b8537 6e5ee50e28856196 '
        'a5d03755a554aad8 ce109582eb5ac9bb 40248de9f656b543 c9a6b15106478cd3 '
        '9ea0a22e407eb8e6 40248de9f656b543 6dd6b3e60f1edd8e 57485b186e463535',
    '3x1/disabled':
        '58d18b8f1306c712 9d80a1bf56374a3c f09ce74f0c776d4e 6cf94e4565a2173f '
        '26471a24f192d006 bfd3349f632ccfab 1c99c11396493a54 b18445e6a7d8542e '
        'a4ded8dcb9e85ac8 5fe54635afe9f884 09264228b7197aa6 a4ded8dcb9e85ac8 '
        '49a96af17fc15a34 d4492148a3e0d572',
    '3x1/mpc-opt':
        '1ad44df7d7b4ca4c 8593a3c2d62984cc 6914de90c7ad5e70 933eff078b82204f '
        '29278481363dd37d 956ea4dbd79fd350 eeca006be740c824 cf1b91ad48483744 '
        '3cd7eec8f85d01a0 68a615f6d8c1c1cd 552d8b527b57919e 3cd7eec8f85d01a0 '
        '90c1c114a9b40326 d4492148a3e0d572',
    '3x1/mpc-opt-rehop':
        '96cac0f457c37d10 b475422b7d5d0451 f09ce74f0c776d4e 933eff078b82204f '
        '8d72a58921bf8094 b20befd6cfd3a75e 1c99c11396493a54 cf1b91ad48483744 '
        'afc01b51bdf1fa4a 68a615f6d8c1c1cd d998e5b9ec3ffb99 afc01b51bdf1fa4a '
        'bfe8ad559d0e822c d4492148a3e0d572',
    '3x1/zfp8':
        '43cbc9123a46ec4a daa8b42891639cd6 6914de90c7ad5e70 4f16467a437eb33a '
        'c7ecc1ff2d899105 3319d5bb426e0149 eeca006be740c824 b71219700b21bdc7 '
        'da013472c210cdee 8064775a958a2e28 a3d40bede8a6a189 da013472c210cdee '
        '127942298ffad377 d4492148a3e0d572',
    '3x1/naive-mpc':
        '420f4ad588844f10 8250790b5d6e80a2 6914de90c7ad5e70 1208c69eed49461a '
        '2527e35ac810a8bb e00698d16c9a4d0d eeca006be740c824 8b0fe1b0fb3133f6 '
        'd075869c1c23c23e 4244c5e87bb64efe 9b8068f04cb39440 d075869c1c23c23e '
        '627c591684958b44 d4492148a3e0d572',
    '2x2/disabled':
        'fd3ef2bec4aae2f0 dbf6dd4256885c4c b9beb068d4110805 7ee0c03d06f52c63 '
        '7c58e6b9d7680b87 b57fb5b39453d0ca 58bde0959eaf74d6 f0d66cc8214cf587 '
        '0f13eaa44c31ef21 1cc9362a46358a83 d65d08bb9fd72251 004585d16d401867 '
        '1f72eba7a7df9807 d65d08bb9fd72251 3ac83b6c4a938652 28816b889558d10a',
    '2x2/mpc-opt':
        '7fa705943ff7c025 02acccc74d9a5dba cb5937af5a116f77 8c1f62ed7046a63e '
        '6c2f862f1f6285c7 d02cbf4ed1ab1a94 a29a25504748941d 39073d0313ea6e7c '
        'c931acc52f60d578 ed20682cb4e80eb1 9700747505566ff6 ce6fa8407f961320 '
        'bdb5abe471ff9f7b 9700747505566ff6 f4009b5ede649ff8 28816b889558d10a',
    '2x2/mpc-opt-rehop':
        '0dbd497a4b18f19a 5cf15997476e9398 b9beb068d4110805 8c1f62ed7046a63e '
        '1c5d9e8ab37c5585 533635fff7de9b15 58bde0959eaf74d6 39073d0313ea6e7c '
        'ac49c2b57209dad3 ed20682cb4e80eb1 f9194fa78dd46926 ce6fa8407f961320 '
        '2d0c597a64608bc6 f9194fa78dd46926 f4795386b0eefbb2 28816b889558d10a',
    '2x2/zfp8':
        '90df472026fd1a82 1ae8bdea174e308b cb5937af5a116f77 d70500e00f1cced0 '
        '2243792072bd62b3 99b913ecddcb4152 a29a25504748941d 0e22256525e4f912 '
        'b6b7b4e9a7acae3a d87a203168c1b559 fdb5d131068aedf1 1703a3e390a20a3e '
        '2ae244c9d47fc2d0 fdb5d131068aedf1 62e7d6a12158f92f 28816b889558d10a',
    '2x2/naive-mpc':
        '39b4eb7a5d4ee906 f71e2ae468eed984 cb5937af5a116f77 eb1c7531df527f70 '
        'fe5763a19aab4933 19a14651a14dbdb0 a29a25504748941d bbaef45c1c32b52c '
        'b0ee86e944fadca9 17b3c77f0dea24f7 bc0e53cb968d5ce3 f9d3696028966a6a '
        '199f6b2ea7c67f7f bc0e53cb968d5ce3 3f2de2b1117bd6d8 28816b889558d10a',
    '5x1/disabled':
        '8dd8b4af1e18b36b 74804abb58bef307 aaf0d115419cb5e1 262f0fb846ac55d6 '
        '69fe1a8b743c8cbe de93b01876f887d9 3a713bf3cbebf581 1718648623ccdc10 '
        '50c72bdab61df591 4be92aa08a548365 fb0eb6ecd046f02e 50c72bdab61df591 '
        '09a7b8d286088dea 4970ce97dba1f3ae',
    '5x1/mpc-opt':
        '35c4ac86b40f2e80 6305c9f908e7f810 e84829b0a9f13e4a be1eb628242a4b89 '
        'c09cd5951e73376b 45cad74cd502e9e9 ea3724b4e45d928e ab7ed783df01fea9 '
        '9f4e74034a8ed1f0 80408acddb3d9db6 d1416df9fe664a80 9f4e74034a8ed1f0 '
        '7e3d9a3aea176feb 4970ce97dba1f3ae',
    '5x1/mpc-opt-rehop':
        '262d614c41d7ecdd 0d97e9f5e56eae7b aaf0d115419cb5e1 be1eb628242a4b89 '
        '9eb131ccab3ff57e 8e5376fafd1c45ac 3a713bf3cbebf581 ab7ed783df01fea9 '
        '50a5acad80426f31 80408acddb3d9db6 107d0175cc2250d9 50a5acad80426f31 '
        '41f825b0c77af6f2 4970ce97dba1f3ae',
    '5x1/zfp8':
        'fba2d15b5ad5017d a82857b0ea3cd4c9 e84829b0a9f13e4a 2e1dc2be8fc93050 '
        'bcce807266d627d4 32272eacec3bc106 ea3724b4e45d928e 6e7634d2e4839084 '
        '416a8a9b4321f7c4 d589bddd10a1c81d 411281d4fd9a0158 416a8a9b4321f7c4 '
        '8b891afcf976b60b 4970ce97dba1f3ae',
    '5x1/naive-mpc':
        '5547d4485ae34a00 70536a57e41ad62a e84829b0a9f13e4a 5b2a52f55b213378 '
        '38570765476952ee ff3dd2e6f26ab2fc ea3724b4e45d928e 55da4d90d4e46c1d '
        '22db9880faa3feb7 7ecd58fb8d06ec36 009e1821cb895cb0 22db9880faa3feb7 '
        'a2d173b3ffb0a43d 4970ce97dba1f3ae',
    '4x2/disabled':
        '02c8001e0293ad56 ab82761462deba86 21b6d8d35e33b522 7812cb2ff07c313a '
        '04e4efdb6c64a69e 66a96e963c5ea675 4a2dc0b0564eeb54 0c3f127a973c1715 '
        '83aa5cbb161ab7aa ede7e5d10390f7c1 a11f5adf2f2e9a5e 72a9b6758dd48315 '
        'e85600326ead03c8 a11f5adf2f2e9a5e 6545604ae084e5a7 901dd719544fb5e4',
    '4x2/mpc-opt':
        '330f65bf639104a3 c06cf1374c50c27c 63da49a0463bcd89 7838d74e40415814 '
        'a286f69386b12b79 99f15fbc1f49d888 110eccf0afb017fe c0246301e2d8febe '
        '4bd6d0679314dfcb 8429d1cf86b4a13d 5b8bfa23a52101db 7bcd918497830369 '
        '3e5329f70c1cc0dd 5b8bfa23a52101db 843d3103eb4b44a3 901dd719544fb5e4',
    '4x2/mpc-opt-rehop':
        'e740cb4d9309f9f5 702a3741c6db33dc 21b6d8d35e33b522 7838d74e40415814 '
        '28a7fb8c92e01ffa 430a75ec0275e7fb 4a2dc0b0564eeb54 c0246301e2d8febe '
        'c0e0a4c4ee721107 8429d1cf86b4a13d 7604e06529b4fb1c 7bcd918497830369 '
        'd315806cb6737e27 7604e06529b4fb1c 9d5e29551ee87834 901dd719544fb5e4',
    '4x2/zfp8':
        '10fd280d8f1e8851 d69bfd887509970b 63da49a0463bcd89 de4d0fbea6a7350c '
        '39402d67c3c5617e fa5d03480345d5a5 110eccf0afb017fe cb270c70efed6b86 '
        'e073df8a8cf58882 874ce9a6b53ac1c3 0f32ddcfcb8edd5b bbc17db22f84eca6 '
        '82799d56fac626a0 0f32ddcfcb8edd5b 262dbcf2f5098339 901dd719544fb5e4',
    '4x2/naive-mpc':
        'f38ac1c783968ec5 bdbc5ea203a1a5c2 63da49a0463bcd89 63ca17f35612a757 '
        'ea644167b8e29508 50585dd64dc5a33b 110eccf0afb017fe 0d57b0d20f19fca9 '
        '0e4c24597b77bd31 510c5da7a4a5ed35 69f31bce687c34c8 4080454923bd6a10 '
        'cbc6796b5615c740 69f31bce687c34c8 3b16158b3f1efe89 901dd719544fb5e4',
    '3x3/disabled':
        'ff7ed924f3ed7b0e 0a37c70d491e6b67 f9d3bb13e990cfc8 05dd062d61bab8ce '
        '6e4175111f80d79f 7ceca7b35ae9a804 1e1d8053fd9d3a70 3c9511a3c57090b5 '
        '04a74b1fbfc234bb 8b6c7f76acf1841c ebef14ae849fe175 04a74b1fbfc234bb '
        '50dac1899f8f56df f2e5148c49137464',
    '3x3/mpc-opt':
        '9923a0f2b2ca070d 3b83016346e24e94 335b2424873d564e a9d0d120eb80a3d4 '
        '4a304daee3b75d3c e5d692b7f050a0b6 ad41f6e58c1e4c8d 57d1a2c46304dc70 '
        'fd68fbb58ddf9184 8b6c7f76acf1841c 4e3b6e0bf0ef36df fd68fbb58ddf9184 '
        'b878fc50f72decbc f2e5148c49137464',
    '3x3/mpc-opt-rehop':
        '7343d8bd9c61aa8f 6c1f9487539c8916 f9d3bb13e990cfc8 a9d0d120eb80a3d4 '
        '1d2ac3344b99f1e1 29d96c0eb7228db5 1e1d8053fd9d3a70 57d1a2c46304dc70 '
        '04a74b1fbfc234bb 8b6c7f76acf1841c 9fac516ab95e726f 04a74b1fbfc234bb '
        'df51afdac280c858 f2e5148c49137464',
    '3x3/zfp8':
        '593e3cf0ddffab2a fbcbfdb32f9519a7 335b2424873d564e d5202186ce8afb77 '
        '6b0046e94a2da4a6 3d4f0ad216255ffc ad41f6e58c1e4c8d 53fd721c18d33473 '
        '04a74b1fbfc234bb 8b6c7f76acf1841c d52b74c0dcf66f7a 04a74b1fbfc234bb '
        '0cbc2a22a97f98be f2e5148c49137464',
    '3x3/naive-mpc':
        '4241ef188be4c085 504840df334db252 335b2424873d564e 0c34416f0377a516 '
        '480e0116545828ca a67ab130cb3e0273 ad41f6e58c1e4c8d 9b2603a48bc0c91d '
        'fd68fbb58ddf9184 8b6c7f76acf1841c 68a5e67d0462b0bc fd68fbb58ddf9184 '
        'c3983124829a4bdb f2e5148c49137464',
}

EVENTS = {
    '2x1/disabled':
        '12 12 8 12 12 20 20 12 '
        '38 38 20 20 22 20 20 10',
    '2x1/mpc-opt':
        '50 50 8 46 50 96 20 46 '
        '214 174 120 88 94 120 96 10',
    '2x1/mpc-opt-rehop':
        '46 46 8 46 46 88 20 46 '
        '174 174 88 88 90 88 88 10',
    '2x1/zfp8':
        '28 28 8 26 28 50 20 26 '
        '88 88 46 46 50 46 50 10',
    '2x1/naive-mpc':
        '31 31 8 27 31 58 20 27 '
        '120 98 64 50 56 64 58 10',
    '3x1/disabled':
        '24 24 16 24 24 57 57 23 '
        '118 118 44 118 57 27',
    '3x1/mpc-opt':
        '82 82 16 92 98 231 57 91 '
        '537 519 170 537 285 27',
    '3x1/mpc-opt-rehop':
        '91 91 16 92 91 261 57 91 '
        '519 519 179 519 261 27',
    '3x1/zfp8':
        '49 49 16 51 53 126 57 50 '
        '258 258 93 258 144 27',
    '3x1/naive-mpc':
        '54 54 16 53 60 147 57 53 '
        '312 291 104 312 171 27',
    '2x2/disabled':
        '33 36 21 35 36 118 118 34 '
        '232 232 80 80 63 80 120 42',
    '2x2/mpc-opt':
        '110 113 21 135 146 430 118 136 '
        '1016 1036 346 352 242 346 576 42',
    '2x2/mpc-opt-rehop':
        '136 136 21 135 136 520 118 136 '
        '1036 1036 352 352 268 352 524 42',
    '2x2/zfp8':
        '66 69 21 73 78 242 118 74 '
        '512 512 180 180 132 180 292 42',
    '2x2/naive-mpc':
        '73 76 21 79 89 276 118 79 '
        '592 580 196 200 148 196 344 42',
    '5x1/disabled':
        '47 47 31 48 48 185 185 45 '
        '373 373 87 373 185 65',
    '5x1/mpc-opt':
        '144 144 31 183 194 675 185 181 '
        '1615 1725 320 1615 945 65',
    '5x1/mpc-opt-rehop':
        '181 181 31 183 181 865 185 181 '
        '1725 1725 357 1725 865 65',
    '5x1/zfp8':
        '89 89 31 100 103 380 185 98 '
        '850 850 178 850 470 65',
    '5x1/naive-mpc':
        '98 98 31 105 118 445 185 105 '
        '960 965 198 960 565 65',
    '4x2/disabled':
        '77 83 49 85 86 540 540 78 '
        '1072 1072 248 248 147 248 568 132',
    '4x2/mpc-opt':
        '232 237 49 321 338 1804 540 316 '
        '2648 2696 903 1054 540 903 2696 132',
    '4x2/mpc-opt-rehop':
        '316 316 49 321 316 2416 540 316 '
        '2696 2696 1048 1054 624 1048 2436 132',
    '4x2/zfp8':
        '144 150 49 175 178 1044 540 170 '
        '2368 2368 528 528 299 528 1360 132',
    '4x2/naive-mpc':
        '159 164 49 185 205 1192 540 183 '
        '2592 2696 524 598 334 524 1604 132',
    '3x3/disabled':
        '89 92 57 96 97 681 681 89 '
        '1353 1353 169 1353 759 201',
    '3x3/mpc-opt':
        '264 266 57 368 386 2283 681 361 '
        '1353 1353 617 1353 3477 201',
    '3x3/mpc-opt-rehop':
        '361 361 57 368 361 3105 681 361 '
        '1353 1353 713 1353 3140 201',
    '3x3/zfp8':
        '166 168 57 202 203 1320 681 194 '
        '1353 1353 343 1353 1758 201',
    '3x3/naive-mpc':
        '180 184 57 211 234 1521 681 209 '
        '1353 1353 380 1353 2073 201',
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_collectives_reproduce_the_parent(shape, config):
    # the diff names the calls and, per call, the layer that moved
    assert _moved(shape, config, _row(shape, config)) == {}


def test_pin_count():
    assert sum(len(row.split()) for row in PINS.values()) >= 400
    assert {k: len(v.split()) for k, v in EVENTS.items()} \
        == {k: len(v.split()) for k, v in PINS.items()}


if __name__ == "__main__":
    rows = {(shape, config): _row(shape, config)
            for shape in SHAPES for config in CONFIGS}
    moved = {}
    for (shape, config), row in rows.items():
        calls = [call for call, layers in _moved(shape, config, row).items()
                 if "observable" in layers]
        if calls:
            moved[f"{shape[0]}x{shape[1]}/{config}"] = calls
    if moved:
        raise SystemExit(f"observable layer moved, no table printed: {moved}")
    for name, layer, per_line in (("PINS", 0, 4), ("EVENTS", 1, 8)):
        print(f"{name} = {{")
        for (shape, config), row in rows.items():
            cells = [str(cell[layer]) for cell in row.values()]
            print(f"    '{shape[0]}x{shape[1]}/{config}':")
            for i in range(0, len(cells), per_line):
                end = " '" if i + per_line < len(cells) else "',"
                print(f"        '{' '.join(cells[i:i + per_line])}{end}")
        print("}\n")
