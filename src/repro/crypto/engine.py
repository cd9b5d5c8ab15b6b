"""Cipher engines for the simulated crypto pipeline.

The pipeline charges in-enclave cipher work through
:class:`CryptoCostModel` (cycles a hardware-accelerated AES-256-CBC costs
on the paper's CPU).  Two data transforms implement the actual bytes:

- :class:`RealAesCbcEngine` — the genuine AES-256-CBC from
  :mod:`repro.crypto.cbc`.  Used in examples and correctness tests.
- :class:`FastXorEngine` — a length- and padding-faithful stand-in
  (keystream XOR + PKCS#7) that is invertible and fast enough to stream
  megabytes through the benchmark harness.  The *simulated* cycle cost is
  identical to the real engine's; only the host-Python cost differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import BLOCK_SIZE
from repro.crypto.cbc import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad


@dataclass(frozen=True)
class CryptoCostModel:
    """In-enclave cycle cost of AES-256-CBC on the paper's CPU.

    With AES-NI inside an enclave, bulk AES-CBC costs a few cycles per
    byte (CBC encryption is serial, so it is slower than GCM); the setup
    cost covers the EVP context and key schedule per chunk.
    """

    cycles_per_byte: float = 2.6
    setup_cycles: float = 900.0

    def encrypt_cycles(self, nbytes: int) -> float:
        """Enclave cycles to encrypt an ``nbytes`` chunk."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.setup_cycles + nbytes * self.cycles_per_byte

    def decrypt_cycles(self, nbytes: int) -> float:
        """Enclave cycles to decrypt an ``nbytes`` chunk."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.setup_cycles + nbytes * self.cycles_per_byte


class RealAesCbcEngine:
    """The genuine AES-256-CBC transform."""

    def __init__(self, key: bytes, iv: bytes) -> None:
        if len(key) != 32:
            raise ValueError("AES-256 key must be 32 bytes")
        self.key = key
        self.iv = iv

    def encrypt(self, plaintext: bytes) -> bytes:
        """AES-256-CBC encrypt with PKCS#7 padding."""
        return cbc_encrypt(self.key, self.iv, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """AES-256-CBC decrypt, stripping PKCS#7 padding."""
        return cbc_decrypt(self.key, self.iv, ciphertext)


class FastXorEngine:
    """Length/padding-faithful stand-in cipher for large benchmark runs.

    Applies PKCS#7 padding and XORs with a key-derived 256-byte repeating
    keystream.  Ciphertext length matches the real engine exactly
    (``len(pkcs7_pad(plaintext))``), decryption round-trips, and malformed
    "ciphertext" fails unpadding — enough fidelity for the I/O pipeline,
    at hundreds of MB/s of host-Python throughput.
    """

    def __init__(self, key: bytes, iv: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        # Fold the key material into a 64-bit seed, then expand it with an
        # LCG; deterministic per (key, iv) and sensitive to every byte.
        raw = key + iv
        state = len(raw)
        for offset in range(0, len(raw), 8):
            state ^= int.from_bytes(raw[offset : offset + 8], "big")
        mask = 2**64 - 1
        stream = bytearray()
        while len(stream) < 256:
            state = (state * 6364136223846793005 + 1442695040888963407) & mask
            stream.extend(state.to_bytes(8, "big"))
        self._pad = bytes(stream[:256])

    def _xor(self, data: bytes) -> bytes:
        # One big-int XOR at every length: the same bytes as a bytewise
        # XOR, without a per-byte Python loop.
        n = len(data)
        pad = (self._pad * (n // 256 + 1))[:n]
        return (int.from_bytes(data, "big") ^ int.from_bytes(pad, "big")).to_bytes(n, "big")

    def encrypt(self, plaintext: bytes) -> bytes:
        """Pad then XOR-transform (length-faithful stand-in)."""
        return self._xor(pkcs7_pad(plaintext, BLOCK_SIZE))

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse XOR-transform then unpad."""
        return pkcs7_unpad(self._xor(ciphertext), BLOCK_SIZE)
