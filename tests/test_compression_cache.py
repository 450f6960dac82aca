"""Codec memoization cache."""

import inspect
import zlib

import numpy as np
import pytest

from repro.compression import MpcCompressor, ZfpCompressor, available, get_compressor
from repro.compression.base import CompressedData
from repro.compression.cache import CodecCache
from repro.compression.registry import _REGISTRY
from repro.errors import CompressionError


def test_compress_hit_on_equal_bytes(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    a = rng.standard_normal(1000).astype(np.float32)
    b = a.copy()  # different object, same bytes
    c1 = cache.compress(codec, a)
    c2 = cache.compress(codec, b)
    assert cache.hits == 1 and cache.misses == 1
    assert c1 is c2


def test_different_params_miss(rng):
    cache = CodecCache()
    a = rng.standard_normal(1000).astype(np.float32)
    cache.compress(MpcCompressor(1), a)
    cache.compress(MpcCompressor(2), a)
    assert cache.misses == 2


def test_different_codec_miss(rng):
    cache = CodecCache()
    a = rng.standard_normal(1000).astype(np.float32)
    cache.compress(MpcCompressor(1), a)
    cache.compress(ZfpCompressor(16), a)
    assert cache.misses == 2


def test_decompress_returns_fresh_copy(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    a = rng.standard_normal(1000).astype(np.float32)
    comp = codec.compress(a)
    d1 = cache.decode(codec, comp.payload, (comp,))[0]
    d2 = cache.decode(codec, comp.payload, (comp,))[0]
    assert cache.hits == 1
    assert np.array_equal(d1, d2)
    d1[0] = 999.0  # mutating one must not poison the other
    d3 = cache.decode(codec, comp.payload, (comp,))[0]
    assert d3[0] != 999.0


def test_lru_eviction(rng):
    cache = CodecCache(max_bytes=10_000)
    codec = MpcCompressor(1)
    arrays = [rng.standard_normal(2000).astype(np.float32) for _ in range(8)]
    for a in arrays:
        cache.compress(codec, a)
    cache.compress(codec, arrays[0])  # early entry was evicted
    assert cache.misses == 9
    assert cache._bytes <= 10_000


def test_clear(rng):
    cache = CodecCache()
    cache.compress(MpcCompressor(1), rng.standard_normal(100).astype(np.float32))
    cache.clear()
    assert cache.hits == cache.misses == 0
    assert len(cache._store) == 0


def test_cache_correctness_under_mpc_roundtrip(rng):
    cache = CodecCache()
    codec = MpcCompressor(2)
    x = np.cumsum(rng.standard_normal(5000)).astype(np.float32)
    comp = cache.compress(codec, x)
    y = cache.decode(codec, comp.payload, (comp,))[0]
    assert np.array_equal(x.view(np.uint32), y.view(np.uint32))


# -- parameter-complete keys ---------------------------------------------------

#: two values per constructor parameter any registered codec declares
_PARAM_VALUES = {"dimensionality": (1, 2), "rate": (8, 12),
                 "error_bound": (1e-1, 1e-5)}


def _codec_variants():
    """Every registered codec x every constructor parameter: a pair of
    instances that differ in that parameter only."""
    for name in available():
        for param in inspect.signature(_REGISTRY[name]).parameters:
            lo, hi = _PARAM_VALUES[param]  # KeyError: teach this table the new knob
            yield pytest.param(name, param, lo, hi, id=f"{name}-{param}")


def _input_for(codec, rng):
    x = np.cumsum(rng.standard_normal(4096)).astype(codec.supported_dtypes[0])
    return x.reshape(64, 64) if codec.name == "zfp2d" else x


def test_every_registered_codec_parameter_is_covered():
    assert {p.values[0] for p in _codec_variants()} == {"mpc", "zfp", "zfp2d", "sz"}


@pytest.mark.parametrize("name,param,lo,hi", list(_codec_variants()))
def test_instances_differing_in_a_parameter_never_share_entries(
        rng, name, param, lo, hi):
    cache = CodecCache()
    a, b = get_compressor(name, **{param: lo}), get_compressor(name, **{param: hi})
    x = _input_for(a, rng)
    comp_a = cache.compress(a, x)
    comp_b = cache.compress(b, x)
    assert comp_a is not comp_b
    assert (cache.hits, cache.misses) == (0, 2)
    assert comp_b.payload.tobytes() == b.compress(x).payload.tobytes()
    # the same wire bytes, decoded by a differently-built codec: a miss
    cache.decode(a, comp_a.payload, (comp_a,))
    try:
        cache.decode(b, comp_a.payload, (comp_a,))
    except CompressionError:
        pass  # a rate the stream was not written at; still no hit
    assert cache.hits == 0


def test_sz_bounds_do_not_collide(rng):
    """The reported case: 1e-1 then 1e-5 on the same data returned the
    coarse stream for the fine bound."""
    cache = CodecCache()
    x = np.cumsum(rng.standard_normal(5000)).astype(np.float32)
    cache.compress(get_compressor("sz", error_bound=1e-1), x)
    fine = get_compressor("sz", error_bound=1e-5)
    comp = cache.compress(fine, x)
    assert np.abs(fine.decompress(comp) - x).max() <= 1e-5


# -- message-granularity decode memo -------------------------------------------

def _message(rng, parts=3, n=3001):
    """A compressed message the way the engine lays it out: partitions
    compressed one by one, payloads concatenated."""
    codec = MpcCompressor(1)
    x = np.cumsum(rng.standard_normal(n)).astype(np.float32)
    pieces = [codec.compress(p) for p in np.array_split(x, parts)]
    payload = np.concatenate([c.payload for c in pieces])
    comps, offset = [], 0
    for c in pieces:
        comps.append(CompressedData("mpc", payload[offset:offset + c.nbytes],
                                    c.n_elements, c.dtype, c.params))
        offset += c.nbytes
    return codec, x, payload, comps


def test_decode_is_one_entry_per_message_with_a_memoized_crc(rng):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)
    out, crc = cache.decode(codec, payload, comps, want_crc=True)
    assert out.tobytes() == x.tobytes() and crc == zlib.crc32(x.view(np.uint8))
    assert cache.stats()["entries"] == 1
    assert cache.stats()["decompress_execs"] == len(comps)
    again, crc2 = cache.decode(codec, payload.copy(), comps, want_crc=True,
                               fingerprint=zlib.crc32(payload))
    assert (cache.hits, cache.misses) == (1, 1)
    assert again.tobytes() == x.tobytes() and crc2 == crc
    assert cache.stats()["decompress_execs"] == len(comps)


def test_decode_hit_does_not_rehash(rng, monkeypatch):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)
    fingerprint = zlib.crc32(payload)
    cache.decode(codec, payload, comps, fingerprint=fingerprint, want_crc=True)
    hashed = []
    real = zlib.crc32
    monkeypatch.setattr(zlib, "crc32",
                        lambda data, *a: hashed.append(len(data)) or real(data, *a))
    _, crc = cache.decode(codec, payload, comps, fingerprint=fingerprint,
                          want_crc=True)
    assert hashed == [] and crc == real(x.view(np.uint8))


def test_crc_is_filled_in_by_the_first_check_that_wants_it(rng):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)
    assert cache.decode(codec, payload, comps)[1] is None
    assert cache.decode(codec, payload, comps, want_crc=True)[1] \
        == zlib.crc32(x.view(np.uint8))


def test_mutating_a_hit_does_not_change_the_next_one(rng):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)
    first, _ = cache.decode(codec, payload, comps)      # the miss's copy
    first[:] = -1.0
    second, crc = cache.decode(codec, payload, comps, want_crc=True)
    second[:] = -2.0
    third, crc3 = cache.decode(codec, payload, comps, want_crc=True)
    assert third.tobytes() == x.tobytes()
    assert crc == crc3 == zlib.crc32(x.view(np.uint8))


def test_multi_part_hand_outs_are_fresh_and_the_stored_parts_read_only(rng):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)            # three partitions
    miss, _ = cache.decode(codec, payload, comps)
    hit, _ = cache.decode(codec, payload, comps)
    stored, _ = cache.decode_parts(codec, payload, comps)
    assert (cache.hits, cache.misses) == (2, 1)
    assert len(stored) == len(comps)
    assert b"".join(p.tobytes() for p in stored) == x.tobytes()
    assert not any(p.flags.writeable for p in stored)
    with pytest.raises(ValueError):
        stored[0][0] = 0.0
    for out in (miss, hit):
        assert out.flags.writeable and out.flags.owndata
        assert not any(np.shares_memory(out, p) for p in stored)
    miss[:] = -1.0
    hit[:] = -2.0
    again, crc = cache.decode(codec, payload, comps, want_crc=True)
    assert again.tobytes() == x.tobytes()
    assert crc == zlib.crc32(x.view(np.uint8))


def test_decoded_crc_is_the_decode_entry_crc(rng):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)
    crc = cache.decoded_crc(codec, payload, comps)
    assert crc == zlib.crc32(x.view(np.uint8))
    out, crc2 = cache.decode(codec, payload, comps, want_crc=True)
    assert (cache.hits, cache.misses) == (1, 1)
    assert crc2 == crc and out.tobytes() == x.tobytes()


def test_fingerprint_collision_with_different_bytes_is_a_miss(rng):
    cache = CodecCache()
    codec = get_compressor("null")  # equal-length streams for any input
    x, y = (rng.standard_normal(500).astype(np.float32) for _ in range(2))
    cx, cy = codec.compress(x), codec.compress(y)
    cache.decode(codec, cx.payload, (cx,), fingerprint=7)
    out, crc = cache.decode(codec, cy.payload, (cy,), fingerprint=7, want_crc=True)
    assert (cache.hits, cache.misses) == (0, 2)
    assert out.tobytes() == y.tobytes() and crc == zlib.crc32(y.view(np.uint8))
    # the colliding entry was replaced, not left beside the new one
    assert cache.stats()["entries"] == 1


def test_lru_accounting_equals_the_live_entries(rng):
    cache = CodecCache(max_bytes=60_000)
    codec = MpcCompressor(1)
    for seed in range(12):  # mixed compress / decode traffic, with evictions
        r = np.random.default_rng(seed)
        x = np.cumsum(r.standard_normal(1500)).astype(np.float32)
        comp = cache.compress(codec, x)
        cache.decode(codec, comp.payload, (comp,))
        _, _, payload, comps = _message(r, parts=2, n=1999)
        cache.decode(codec, payload, comps, want_crc=seed % 2 == 0)
        cache.decode(codec, payload, comps)
        live = sum(e.nbytes for e in cache._store.values())
        assert cache.stats()["bytes"] == live <= 60_000
        assert cache.stats()["entries"] == len(cache._store)
    assert cache.stats()["entries"] < 36  # something was evicted


def test_stats_keeps_its_keys_and_adds_execution_counts(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    x = np.cumsum(rng.standard_normal(1000)).astype(np.float32)
    comp = cache.compress(codec, x)
    cache.compress(codec, x)
    cache.decode(codec, comp.payload, (comp,))
    cache.run_decompress(codec, comp)  # counted, not memoized
    assert cache.stats() == {
        "hits": 1, "misses": 2, "bytes_saved": x.nbytes,
        "entries": 2, "bytes": cache._bytes,
        "compress_execs": 1, "decompress_execs": 2,
    }


# -- recorded decodes (learn_decode) -------------------------------------------

#: float bit patterns a decode must restore exactly: quiet and
#: signalling NaNs with payload bits, +-0, +-inf and denormals
_SPECIAL_BITS = {
    np.float32: np.array([0x7FC00001, 0xFFC00000, 0x7F800001, 0xFFBFFFFF,
                          0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
                          0x00000001, 0x807FFFFF], dtype=np.uint32),
    np.float64: np.array([0x7FF8000000000001, 0xFFF8000000000000,
                          0x7FF0000000000001, 0xFFF7FFFFFFFFFFFF,
                          0x0000000000000000, 0x8000000000000000,
                          0x7FF0000000000000, 0xFFF0000000000000,
                          0x0000000000000001, 0x800FFFFFFFFFFFFF],
                         dtype=np.uint64),
}

_LOSSLESS = [(name, dtype) for name in available()
             for dtype in (np.float32, np.float64)
             if get_compressor(name).lossless
             and dtype in get_compressor(name).supported_dtypes]


def _salted(rng, n, dtype):
    """Smooth data with every special bit pattern at random places."""
    x = np.cumsum(rng.standard_normal(n) * 1e-2).astype(dtype)
    specials = _SPECIAL_BITS[dtype].view(dtype)
    at = rng.choice(n, size=min(n, 3 * specials.size), replace=False)
    x[at] = np.resize(specials, at.size)
    return x


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("name,dtype", _LOSSLESS,
                         ids=[f"{n}-{np.dtype(d).name}" for n, d in _LOSSLESS])
def test_a_recorded_decode_is_a_real_decode_bit_for_bit(name, dtype, parts):
    rng = np.random.default_rng(44)
    codec = get_compressor(name)
    for n in (5, 33, 1001, 4099):                       # ragged lengths
        cache = CodecCache()
        x = _salted(rng, n, dtype)
        comps = [cache.compress(codec, p) for p in np.array_split(x, parts)]
        payload = np.concatenate([c.payload for c in comps])
        cache.learn_decode(codec, payload, comps, zlib.crc32(payload),
                           zlib.crc32(x.view(np.uint8)))
        got, crc = cache.decode_parts(codec, payload.copy(), comps,
                                      want_crc=True)
        assert cache.stats()["decompress_execs"] == 0   # a hit
        want = [codec.decompress(c) for c in comps]
        assert [g.dtype for g in got] == [w.dtype for w in want]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert crc == zlib.crc32(np.concatenate(want).view(np.uint8))
        assert not any(g.flags.writeable for g in got)


def test_a_recorded_decode_is_the_compress_entrys_snapshot(rng):
    """The decoded partition is the compress entry's reference copy: no
    new copy, and a later write to the sent buffer cannot reach it."""
    cache = CodecCache()
    codec = MpcCompressor(1)
    x = np.cumsum(rng.standard_normal(3000)).astype(np.float32)
    comp = cache.compress(codec, x)
    cache.learn_decode(codec, comp.payload, (comp,),
                       zlib.crc32(comp.payload), zlib.crc32(x.view(np.uint8)))
    (part,), _ = cache.decode_parts(codec, comp.payload, (comp,))
    refs = [e.ref for e in cache._store.values() if e.value is comp]
    assert len(refs) == 1 and np.shares_memory(part, refs[0])
    sent = x.copy()
    x[:] = 0.0
    assert part.tobytes() == sent.tobytes()
    # the weight counts the shared partition, as a miss's entry would
    assert cache.stats()["bytes"] == sum(e.nbytes for e in cache._store.values())
    assert cache._store[next(reversed(cache._store))].nbytes \
        == x.nbytes + comp.nbytes + 64


def test_nothing_is_recorded_once_the_source_left_the_memo(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    x = np.cumsum(rng.standard_normal(3000)).astype(np.float32)
    comp = cache.compress(codec, x)
    cache.clear()
    cache.learn_decode(codec, comp.payload, (comp,),
                       zlib.crc32(comp.payload), zlib.crc32(x.view(np.uint8)))
    assert cache.stats()["entries"] == 0
    out, _ = cache.decode(codec, comp.payload, (comp,))  # a real decode
    assert cache.stats()["decompress_execs"] == 1
    assert out.tobytes() == x.tobytes()


def test_a_lookup_that_does_not_keep_takes_the_entry_out(rng):
    cache = CodecCache()
    codec, x, payload, comps = _message(rng)
    cache.decode(codec, payload, comps)                 # stored
    entries, nbytes = cache.stats()["entries"], cache.stats()["bytes"]
    parts, _ = cache.decode_parts(codec, payload, comps, keep=False)
    assert b"".join(p.tobytes() for p in parts) == x.tobytes()
    assert cache.stats()["entries"] == entries - 1
    assert cache.stats()["bytes"] < nbytes
    # a miss that does not keep stores nothing
    parts, _ = cache.decode_parts(codec, payload, comps, keep=False)
    assert b"".join(p.tobytes() for p in parts) == x.tobytes()
    assert cache.stats()["entries"] == entries - 1
    assert (cache.hits, cache.misses) == (1, 2)
