"""Tests for the cipher engines and the crypto cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import CryptoCostModel, FastXorEngine, RealAesCbcEngine


class TestCryptoCostModel:
    def test_costs_scale_with_size(self):
        model = CryptoCostModel()
        assert model.encrypt_cycles(4096) > model.encrypt_cycles(64)

    def test_chunk_cost_comparable_to_transition(self):
        """A 4 kB CBC chunk costs the same order as an enclave transition,
        which is what makes the crypto pipeline ocall-bound."""
        model = CryptoCostModel()
        assert 5_000 < model.encrypt_cycles(4096) < 40_000

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CryptoCostModel().encrypt_cycles(-1)


class TestRealEngine:
    def test_roundtrip(self):
        engine = RealAesCbcEngine(bytes(32), bytes(16))
        data = b"some confidential file contents"
        assert engine.decrypt(engine.encrypt(data)) == data

    def test_rejects_wrong_key_size(self):
        with pytest.raises(ValueError):
            RealAesCbcEngine(bytes(16), bytes(16))


class TestFastEngine:
    def test_roundtrip(self):
        engine = FastXorEngine(b"key-material", bytes(16))
        data = b"x" * 1000
        assert engine.decrypt(engine.encrypt(data)) == data

    def test_ciphertext_length_matches_real_engine(self):
        real = RealAesCbcEngine(bytes(32), bytes(16))
        fast = FastXorEngine(bytes(32), bytes(16))
        for n in (0, 1, 15, 16, 17, 4096):
            data = bytes(n)
            assert len(fast.encrypt(data)) == len(real.encrypt(data))

    def test_different_keys_produce_different_ciphertext(self):
        a = FastXorEngine(b"key-a", bytes(16))
        b = FastXorEngine(b"key-b", bytes(16))
        assert a.encrypt(b"payload") != b.encrypt(b"payload")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            FastXorEngine(b"", bytes(16))


@given(data=st.binary(min_size=0, max_size=10_000))
def test_fast_engine_roundtrip_property(data):
    engine = FastXorEngine(b"prop-key", bytes(16))
    assert engine.decrypt(engine.encrypt(data)) == data


# Draw the length first so long inputs (past the 4 KiB mark) are common.
@given(data=st.integers(0, 5_000).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
def test_fast_engine_xor_matches_a_bytewise_xor(data):
    engine = FastXorEngine(b"prop-key", bytes(16))
    keystream = engine._pad * (len(data) // 256 + 1)
    expected = bytes(a ^ b for a, b in zip(data, keystream))
    assert engine._xor(data) == expected
