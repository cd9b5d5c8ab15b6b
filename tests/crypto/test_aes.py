"""AES block-cipher tests against the FIPS-197 vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import AES
from repro.crypto.aes import INV_SBOX, SBOX


class TestFips197Vectors:
    """Appendix C of FIPS-197: the canonical example vectors."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_aes128_appendix_b(self):
        """FIPS-197 Appendix B worked example."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES(key).encrypt_block(plaintext) == expected

    @pytest.mark.parametrize(
        ("keylen", "ciphertext"),
        [
            (16, "69c4e0d86a7b0430d8cdb78070b4c55a"),
            (24, "dda97ca4864cdfe06eaf70a0ec0d7191"),
            (32, "8ea2b7ca516745bfeafc49904b496089"),
        ],
    )
    def test_decrypt_vectors(self, keylen, ciphertext):
        """Appendix C's inverse-cipher results, for each key size."""
        block = bytes.fromhex(ciphertext)
        assert AES(bytes(range(keylen))).decrypt_block(block) == self.PLAINTEXT

    @pytest.mark.parametrize("keylen", [16, 24, 32])
    def test_decrypt_inverts_encrypt_on_vectors(self, keylen):
        key = bytes(range(keylen))
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(self.PLAINTEXT)) == self.PLAINTEXT


class TestSbox:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_inverse_sbox_is_inverse(self):
        assert all(INV_SBOX[SBOX[i]] == i for i in range(256))

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestKeyHandling:
    def test_invalid_key_length_rejected(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_invalid_block_length_rejected(self):
        cipher = AES(bytes(16))
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"not-16-bytes")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"xx")

    @pytest.mark.parametrize("keylen,rounds", [(16, 10), (24, 12), (32, 14)])
    def test_round_counts(self, keylen, rounds):
        assert AES(bytes(keylen)).rounds == rounds


@given(
    key=st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_roundtrip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
def test_encryption_changes_data(key, block):
    """AES has no fixed points we should stumble on by chance."""
    encrypted = AES(key).encrypt_block(block)
    assert len(encrypted) == 16
    # Deterministic under the same key.
    assert AES(key).encrypt_block(block) == encrypted
