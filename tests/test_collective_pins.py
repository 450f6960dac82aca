"""Every collective, pinned to the commit before ISSUE 19.

ISSUE 19 rewrote ``mpi/collectives.py`` as schedule tables run by one
exchange driver over a raw/wire plane, claiming no change to any span,
metric, event count or result bit.  ``PINS`` below was captured from
the commit *before* that change (``python -m tests.test_collective_pins``
prints the table) and nothing was regenerated after it: per cluster
shape and config, one digest per collective call over ``[r.key() for r
in tracer.records]``, ``tracer.metrics.as_dict()``, ``(elapsed,
event_count)`` and every rank's returned bytes.
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


def _observe(shape: tuple, config: str, call: str) -> str:
    GLOBAL_CODEC_CACHE.clear()
    res = Cluster("longhorn", *shape).run(CALLS[call][0],
                                          config=CONFIGS[config])
    tracer = res.tracer
    h = hashlib.sha256()
    h.update(repr([r.key() for r in tracer.records]).encode())
    h.update(json.dumps(tracer.metrics.as_dict(), sort_keys=True).encode())
    h.update(repr((res.elapsed, tracer.event_count)).encode())
    _feed(h, res.values)
    return h.hexdigest()[:16]


def _row(shape: tuple, config: str) -> tuple:
    """One digest per call of :func:`_calls_for`, in that order."""
    return tuple(_observe(shape, config, call)
                 for call in _calls_for(shape[0] * shape[1]))


PINS = {
    '2x1/disabled':
        'dc0c0898a220cd5b bf56d3ba1ac894f3 d0f32df07b3fb0a4 387149fb9798776e '
        '8b957e9b85e67555 6841dc1efc19bbd2 eee1d87938c6e550 72b755744bd7ed3a '
        '5ade90b5232ad0eb 1cf61e294ae364b0 9e29dab90a0e06e5 b09c92db2beeb920 '
        'cf4183fb1366d061 9e29dab90a0e06e5 bc284118f347d010 c3f091f1dd846f68',
    '2x1/mpc-opt':
        '8c661c5f0ddaebe2 22c0c13f9f25c864 2af77df417ea033e 9e62caec6e50e215 '
        'ba1779ce0f7e0948 9973a55a5e807a01 c2fc5f70abc869ec fc000eb25b7dd510 '
        'a11340822e5b4830 2517e00330d6f2bf b530d9187a4157e5 f5e15af9f55b0d9c '
        '9e56b0fa00bde793 b530d9187a4157e5 c58906028e786800 c3f091f1dd846f68',
    '2x1/mpc-opt-rehop':
        '10c1d01e4b5ca9b9 aed140f9786a9ed0 d0f32df07b3fb0a4 9e62caec6e50e215 '
        '0966ed7b2c34594a e0f7568a56a299ad eee1d87938c6e550 fc000eb25b7dd510 '
        '103225e03dbfcf7b 2517e00330d6f2bf ac578059b6aa0d72 f5e15af9f55b0d9c '
        'aa1aad5d4e4bc06d ac578059b6aa0d72 c100e113be3baf87 c3f091f1dd846f68',
    '2x1/zfp8':
        '431052c006fa62c2 917b14d224270ad4 2af77df417ea033e 7945b957bbc89e53 '
        '67cb6b23c0f5ea06 5157827eaef82260 c2fc5f70abc869ec a2df6fbd990cef8d '
        'eb55d4a852148491 7534d44632883923 38a782e67e96c793 860a815f897faa18 '
        '4c334765e088781f 38a782e67e96c793 b762a533f6b511bd c3f091f1dd846f68',
    '2x1/naive-mpc':
        'ea1d3e8cd9c8cedf 882307fd98db2cc9 2af77df417ea033e 1895a1f727fddc4b '
        'bd88328fe42c1ad1 57cb07b0e9c109c3 c2fc5f70abc869ec 222f7920dd2fc3af '
        '012f6e6bdb92f412 e94e5d79246684e2 07d7a6eeff5409df 8fdac54b91321d23 '
        'dc58a452209217fc 07d7a6eeff5409df 02b96bd12ecfcd2a c3f091f1dd846f68',
    '3x1/disabled':
        'b105fe9851ee0925 ea3e93f3e3719ff2 4d36ef9eafd02c98 687fc1c54a42f770 '
        '50c14a54dc233d34 a15ad01ff2681d52 36f1d234b60642a2 61646dcf0e7f5c56 '
        '32da42b8e4909e8e 5b0cbc11fb8e3a20 c98ae13784de285a 32da42b8e4909e8e '
        'aaaffff48a8ed2b9 fce04b543c4126b1',
    '3x1/mpc-opt':
        '3dda0f792168e45d 08073c06261147de 976976c1d5b08c33 726c80e897429754 '
        '9c71fae4fd67bbb6 5afa72a5608abdc3 ecee015132a5e222 63b09104e16305cc '
        '290252aefb64dd1f 2f55125eb52f45ee 1e74462234597937 290252aefb64dd1f '
        '66d8475ece8f4d98 fce04b543c4126b1',
    '3x1/mpc-opt-rehop':
        'baffeb9aa438b6d3 ad0eb4efa1baa731 4d36ef9eafd02c98 726c80e897429754 '
        'ac4892d237ca5b53 a298de3777ee835e 36f1d234b60642a2 63b09104e16305cc '
        '8c648be83b42c436 2f55125eb52f45ee ebdc94232fed76e7 8c648be83b42c436 '
        '81a5391b2f8a1de2 fce04b543c4126b1',
    '3x1/zfp8':
        '76f9071b939ad99c cd496ddf9b45ce8b 976976c1d5b08c33 3b58a4811e8550b5 '
        'd819d50de8a9c6b4 44335cba43b3b2f5 ecee015132a5e222 760c585a2e9127d4 '
        '078e3dcd44fd4d60 c9d650a567428a47 5a772a166476a664 078e3dcd44fd4d60 '
        '0b79007505e1d0e4 fce04b543c4126b1',
    '3x1/naive-mpc':
        '44faf13c6567f63a be8e5f541c79a30c 976976c1d5b08c33 a191471ff9c06e75 '
        '40675199f68fac59 400b976b0c297622 ecee015132a5e222 3ff17fb96c9bc672 '
        'c8a7c87f158ba034 0888cf9a3534db8c 1cae63a1b9d58b9a c8a7c87f158ba034 '
        'b92837f393467338 fce04b543c4126b1',
    '2x2/disabled':
        'e47908c08fb7ea8a ebb2adaa708883fd 3184638324b7f713 5d6a4818a516baec '
        '79653b086ebaa504 33b3c4c688af8ffc 7cea1acd7fea01f7 cbbdba992b2c4e28 '
        '220e7f2ff56dd313 6fc45d69a72efdee a076b7fff20d5690 d7b30682fcf1d7e7 '
        'f5c64cf7e48d663e a076b7fff20d5690 309f50018dcc31de 98bc85dc0af10b1a',
    '2x2/mpc-opt':
        '705081c255cf859b 595114a4b3c7d2d7 9e3e60a67bccea4a 3ac73d4599712329 '
        '9b5155b6b5d6d7d7 2bed058da7772920 6539ccdafa6de0b1 ccb0a87f712ca1e7 '
        '20498859352d7923 fd7722a1d3797ca7 7525202d7ff7efcf d49b4aee7b426058 '
        '6d820faa0fafaa94 7525202d7ff7efcf 49689f8afe90279f 98bc85dc0af10b1a',
    '2x2/mpc-opt-rehop':
        'b681c4e22d4a439f 55315ad7cbdfbab9 3184638324b7f713 3ac73d4599712329 '
        'f3c2770954b50dc2 3d0a25e3e23288f6 7cea1acd7fea01f7 ccb0a87f712ca1e7 '
        'c658b3d92879d71f fd7722a1d3797ca7 6c21872212d050f6 d49b4aee7b426058 '
        'c939340f24f01ed0 6c21872212d050f6 dff5ebb51bcf85a1 98bc85dc0af10b1a',
    '2x2/zfp8':
        '947743e01b5334f3 97db0b3580abd4ca 9e3e60a67bccea4a 031f70c6e21f16b1 '
        '11ac043689fc9941 2052f9fae10904ee 6539ccdafa6de0b1 49d1df685c5c8d25 '
        '32f6e830bad74636 66bc8ab4857ec5d6 7976db83168ad9d2 de6923e8fdc962a1 '
        '57cb001ee96442a3 7976db83168ad9d2 d3f544ec616f7999 98bc85dc0af10b1a',
    '2x2/naive-mpc':
        'bec1f0140dc95b55 57dae62871737611 9e3e60a67bccea4a fb1f3444bfa21359 '
        '6ae59738ec3a8c8c 44593e305ba53a78 6539ccdafa6de0b1 41500f0ea48dcd20 '
        '1ef955b42c8c9c14 570a7ccd5b9818f8 9f27d6e993f1f4b4 a6b2da8676b3f70b '
        '8511fad7f5d46e45 9f27d6e993f1f4b4 d400c71a3769cdad 98bc85dc0af10b1a',
    '5x1/disabled':
        '9c1de2295d919af4 6f8b3b86b87dee04 dbe7875e5f570514 36b523f6a7e15efa '
        '70e6882d69931540 920308c29e03d762 504f19f5a6e66cd4 6972c21987b8555a '
        'b205da09d06ca1d1 d340b016fcb8ed05 79597b27b356b167 b205da09d06ca1d1 '
        '5add8b24a7369967 007c38ade1e82ba2',
    '5x1/mpc-opt':
        '78f24302d8cd32bc 499945a4a6744c3e 4eef5f6ebd92ff44 78f87d2ccbabc315 '
        '365cd8d8fba9ed3b 6522e22537ee18d5 a359448cdb6150ff 06e7edeba71119aa '
        '54cf3ace21ea250f 307e28f05e822466 db8a1c2f8a3b68af 54cf3ace21ea250f '
        '7dcf3da2035137e0 007c38ade1e82ba2',
    '5x1/mpc-opt-rehop':
        '5978a322945e2e95 266bc78a89ccf546 dbe7875e5f570514 78f87d2ccbabc315 '
        '0baddb4004a1bfda 2561ce4cb2c4a8c2 504f19f5a6e66cd4 06e7edeba71119aa '
        '303df94def2bb3cb 307e28f05e822466 04d3e9648bd1ad5d 303df94def2bb3cb '
        '011dba11b4a0907d 007c38ade1e82ba2',
    '5x1/zfp8':
        'a0b6087b324295a7 2ad4d49faee418f5 4eef5f6ebd92ff44 81618b7c5677a251 '
        'f960e690d124c363 30950fe2e45bf768 a359448cdb6150ff f59e77a7c43c7249 '
        '5b0928c115d36c0f 7b27f452c76896c2 79433c20e6935e40 5b0928c115d36c0f '
        '980ccd95ebe7150d 007c38ade1e82ba2',
    '5x1/naive-mpc':
        '22179bfdb92d08fd 69f28bfc1e06b14b 4eef5f6ebd92ff44 8484743ccd6dfe0c '
        '46840deb8006c3df 56863e82d3d3f0a2 a359448cdb6150ff 48a784797d54d404 '
        'e18e45c94d28202b 86364181aa81d1cc 45342eaa65ba52a0 e18e45c94d28202b '
        '79842341a06fd202 007c38ade1e82ba2',
    '4x2/disabled':
        'a639a9a68f575d71 20970b5fd723fe4e 2bd4c5318c7d5130 e2021bdc027163a2 '
        'bb8340db969fa5fc 5187a9acba3f3045 87042efefa37f6ef 67a7276305faedfa '
        '9a8b1f0257b3aa51 31b83fb14ceba775 fc2e84be13dc4ec6 e4a1008d22208ff3 '
        '52b9b2bcad604a52 fc2e84be13dc4ec6 4956d49c76b27473 b80c0e3dcbcc733f',
    '4x2/mpc-opt':
        '780da65de2db43c4 21eeb2935adc093f 154813a0f92fb23f ae3609cd4b00e3fe '
        '313611e97c1ccb0f f01d5182c9111589 822d9e61bb6a59d6 712c8385129a84ca '
        '5b0fba9a6125a2e1 9e46a9a2dbd22f52 df58f17b5a1d0317 8509378ca19c83e7 '
        '0c53170d4b731122 df58f17b5a1d0317 d904e60071167be4 b80c0e3dcbcc733f',
    '4x2/mpc-opt-rehop':
        'fb3c165de88ba7a2 d04bdba823d86c8f 2bd4c5318c7d5130 ae3609cd4b00e3fe '
        '252d650e3f6fcb1a accdbce48b5d14b9 87042efefa37f6ef 712c8385129a84ca '
        '2c342af7df7b5d9e 9e46a9a2dbd22f52 9ca6a6456cf6f6bf 8509378ca19c83e7 '
        '1e092a461f3d7a57 9ca6a6456cf6f6bf 14fd3672f8fd157b b80c0e3dcbcc733f',
    '4x2/zfp8':
        '93b80be7f904df03 517291f5c9db71dd 154813a0f92fb23f 6f3cb1fe4b7bd805 '
        '28dac15ee553e7c7 8726e53e3ace4439 822d9e61bb6a59d6 422e7f75a6164d0a '
        '1684190f79a0d1b1 11ffebc047b299f4 8b4003f5c90044d8 7e3e40ff2258b770 '
        'ece1826c6333a7f8 8b4003f5c90044d8 efbf9d2123659a1e b80c0e3dcbcc733f',
    '4x2/naive-mpc':
        'af5f8da6cddd4218 b0576d215138cda6 154813a0f92fb23f ebc808cdb773e0d3 '
        '4b96eecaeb1fb655 7ceb07cafe87c0e8 822d9e61bb6a59d6 552bf02e25b0ca91 '
        '00e7dd58859be806 d733b3ec345dc3cc c8bff619c507f35c 27b8e1bd68c98469 '
        'f9f4e4f15a29d90c c8bff619c507f35c 092bbfddd64b6887 b80c0e3dcbcc733f',
    '3x3/disabled':
        '54766a152a008515 86e329c97223fb02 239ac774de65aa66 e6664ce707282a38 '
        'd017e00aac84eaf0 98eda134dc067445 ca2badeb83c4d35f 75ea3d8d002f8fc9 '
        'd69ad36f66d2cc9a fa447ebc60dee637 183085839e48b816 d69ad36f66d2cc9a '
        '91dae04b8377994e ebf17e4bfda6e00f',
    '3x3/mpc-opt':
        'd408068b049a3b7c a1127c88ee5c9f7e 6e969f4f6f808c61 83f52fb175c27890 '
        '0fe90b47b7782e15 a993d7a2b6b01bb1 34fe86cb31c599e8 df096f26273b49dc '
        '8b79913a898a9f88 fa447ebc60dee637 fc3cf99a54693a46 8b79913a898a9f88 '
        'b9972ac50b429d67 ebf17e4bfda6e00f',
    '3x3/mpc-opt-rehop':
        '5f6e2864e44fb64b 43f3710629f8bed3 239ac774de65aa66 83f52fb175c27890 '
        'cf7152d94d5230b6 0fe68da43ad0923d ca2badeb83c4d35f df096f26273b49dc '
        'd69ad36f66d2cc9a fa447ebc60dee637 f778c89fc932dc1b d69ad36f66d2cc9a '
        'dbd24175d1562ddf ebf17e4bfda6e00f',
    '3x3/zfp8':
        'eb97aa767c7233ac 44efb9691feb62c1 6e969f4f6f808c61 14a961aabceedc6d '
        '36c118c6b6b4cf25 0a9ffaef94a34814 34fe86cb31c599e8 b8019604ad45f368 '
        'd69ad36f66d2cc9a fa447ebc60dee637 99992e1f7263c494 d69ad36f66d2cc9a '
        'ca4ebd8817f316bf ebf17e4bfda6e00f',
    '3x3/naive-mpc':
        'ad24d498c213f14e 6f8ea94974dffb50 6e969f4f6f808c61 bb7ecec714637711 '
        '09bff7af00f882bb 3b82ab417c13b08f 34fe86cb31c599e8 bdbc9875b6ea8a3c '
        '8b79913a898a9f88 fa447ebc60dee637 25d7f82c97c34f40 8b79913a898a9f88 '
        '228bc87aecea6975 ebf17e4bfda6e00f',
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_collectives_reproduce_the_parent(shape, config):
    calls = _calls_for(shape[0] * shape[1])
    want = PINS[f"{shape[0]}x{shape[1]}/{config}"].split()
    assert len(want) == len(calls)
    got = dict(zip(calls, _row(shape, config)))
    assert got == dict(zip(calls, want))  # the diff names the calls


def test_pin_count():
    assert sum(len(row.split()) for row in PINS.values()) >= 400


if __name__ == "__main__":
    print("PINS = {")
    for shape in SHAPES:
        for config in CONFIGS:
            row = _row(shape, config)
            print(f"    '{shape[0]}x{shape[1]}/{config}':")
            for i in range(0, len(row), 4):
                end = " '" if i + 4 < len(row) else "',"
                print(f"        '{' '.join(row[i:i + 4])}{end}")
    print("}")
