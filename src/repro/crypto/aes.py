"""The AES block cipher (FIPS-197), pure Python.

S-box substitution, row shifts, GF(2^8) column mixing and the Rijndael
key schedule, supporting 128-, 192- and 256-bit keys.  The simulated
pipeline prices cipher work with a cycle model and only runs the real
cipher where correctness matters, but that still means tens of thousands
of blocks per run, so the rounds use the classic 32-bit table form
("T-tables"): the state is four column words, and one lookup per byte
yields that byte's SubBytes and MixColumns contribution to its column.
The tables are built on first use from the S-boxes and the GF(2^8)
products (x2/x3 for MixColumns, x9/x11/x13/x14 for InvMixColumns);
nothing is multiplied bit by bit per block.
"""

from __future__ import annotations

from functools import cache

BLOCK_SIZE = 16

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


def _build_sbox() -> tuple[bytes, bytes]:
    """Construct the AES S-box and its inverse from first principles."""
    # Multiplicative inverses in GF(2^8) via exp/log tables (generator 3).
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    inv = bytearray(256)
    for value in range(256):
        g_inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((g_inv << shift) | (g_inv >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[value] = result
        inv[result] = value
    return bytes(sbox), bytes(inv)


SBOX, INV_SBOX = _build_sbox()


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication (schoolbook)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _column_tables(sbox: bytes, factors: tuple[int, int, int, int]) -> list[tuple[int, ...]]:
    """The four T-tables of one cipher direction.

    Entry ``x`` of the first table is the column word (row 0 in the top
    byte) that substituted byte ``sbox[x]`` contributes from row 0 of the
    mixing matrix — ``factors`` is that matrix column.  Rows 1-3 use the
    same word rotated right by 8, 16 and 24 bits.
    """
    f0, f1, f2, f3 = factors
    first = [
        (_gmul(s, f0) << 24) | (_gmul(s, f1) << 16) | (_gmul(s, f2) << 8) | _gmul(s, f3)
        for s in sbox
    ]
    tables = [tuple(first)]
    for shift in (8, 16, 24):
        tables.append(tuple(((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF for w in first))
    return tables


@cache
def _tables() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The MixColumns and InvMixColumns T-tables, built on first use.

    Most runs never touch the real cipher, so importing the module does
    not pay for them.
    """
    return _column_tables(SBOX, (2, 1, 1, 3)), _column_tables(INV_SBOX, (14, 9, 13, 11))


def _inv_mix_word(word: int, td: list[tuple[int, ...]]) -> int:
    """InvMixColumns of one column word (for the decryption round keys).

    The decryption tables apply InvSubBytes first, so each byte goes
    through the forward S-box to cancel it.
    """
    td0, td1, td2, td3 = td
    return (
        td0[SBOX[word >> 24]]
        ^ td1[SBOX[(word >> 16) & 255]]
        ^ td2[SBOX[(word >> 8) & 255]]
        ^ td3[SBOX[word & 255]]
    )


class AES:
    """AES block cipher with a fixed key.

    Args:
        key: 16, 24 or 32 bytes (AES-128/192/256).
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise ValueError(f"key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        self._round_keys = self._expand_key(self.key)
        self._te, self._td = _tables()
        # Round keys as column words.  Decryption runs the equivalent
        # inverse cipher: InvMixColumns is linear, so its middle round
        # keys are pre-mixed and AddRoundKey can follow the table lookup.
        self._enc_keys = [
            tuple(int.from_bytes(bytes(rk[c : c + 4]), "big") for c in range(0, 16, 4))
            for rk in self._round_keys
        ]
        last = len(self._enc_keys) - 1
        self._dec_keys = [
            words if r in (0, last) else tuple(_inv_mix_word(w, self._td) for w in words)
            for r, words in enumerate(self._enc_keys)
        ]

    # ------------------------------------------------------------------
    # Key schedule
    # ------------------------------------------------------------------
    def _expand_key(self, key: bytes) -> list[list[int]]:
        """Rijndael key schedule: one 16-byte round key per round + 1."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        rcon = 1
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            word = list(words[i - 1])
            if i % nk == 0:
                word = word[1:] + word[:1]  # RotWord
                word = [SBOX[b] for b in word]  # SubWord
                word[0] ^= rcon
                rcon = _xtime(rcon)
            elif nk > 6 and i % nk == 4:
                word = [SBOX[b] for b in word]
            words.append([w ^ p for w, p in zip(word, words[i - nk])])
        return [
            [b for word in words[4 * r : 4 * r + 4] for b in word]
            for r in range(self.rounds + 1)
        ]

    # ------------------------------------------------------------------
    # Block operations (state: four big-endian column words, row 0 on top)
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        keys = self._enc_keys
        te0, te1, te2, te3 = self._te
        k0, k1, k2, k3 = keys[0]
        w0 = int.from_bytes(block[0:4], "big") ^ k0
        w1 = int.from_bytes(block[4:8], "big") ^ k1
        w2 = int.from_bytes(block[8:12], "big") ^ k2
        w3 = int.from_bytes(block[12:16], "big") ^ k3
        # ShiftRows: row r of column c comes from column c + r.
        for rnd in range(1, self.rounds):
            k0, k1, k2, k3 = keys[rnd]
            w0, w1, w2, w3 = (
                te0[w0 >> 24] ^ te1[(w1 >> 16) & 255] ^ te2[(w2 >> 8) & 255] ^ te3[w3 & 255] ^ k0,
                te0[w1 >> 24] ^ te1[(w2 >> 16) & 255] ^ te2[(w3 >> 8) & 255] ^ te3[w0 & 255] ^ k1,
                te0[w2 >> 24] ^ te1[(w3 >> 16) & 255] ^ te2[(w0 >> 8) & 255] ^ te3[w1 & 255] ^ k2,
                te0[w3 >> 24] ^ te1[(w0 >> 16) & 255] ^ te2[(w1 >> 8) & 255] ^ te3[w2 & 255] ^ k3,
            )
        return _final_round(SBOX, keys[self.rounds], (w0, w1, w2, w3), 1)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("block must be 16 bytes")
        keys = self._dec_keys
        td0, td1, td2, td3 = self._td
        k0, k1, k2, k3 = keys[self.rounds]
        w0 = int.from_bytes(block[0:4], "big") ^ k0
        w1 = int.from_bytes(block[4:8], "big") ^ k1
        w2 = int.from_bytes(block[8:12], "big") ^ k2
        w3 = int.from_bytes(block[12:16], "big") ^ k3
        # InvShiftRows: row r of column c comes from column c - r.
        for rnd in range(self.rounds - 1, 0, -1):
            k0, k1, k2, k3 = keys[rnd]
            w0, w1, w2, w3 = (
                td0[w0 >> 24] ^ td1[(w3 >> 16) & 255] ^ td2[(w2 >> 8) & 255] ^ td3[w1 & 255] ^ k0,
                td0[w1 >> 24] ^ td1[(w0 >> 16) & 255] ^ td2[(w3 >> 8) & 255] ^ td3[w2 & 255] ^ k1,
                td0[w2 >> 24] ^ td1[(w1 >> 16) & 255] ^ td2[(w0 >> 8) & 255] ^ td3[w3 & 255] ^ k2,
                td0[w3 >> 24] ^ td1[(w2 >> 16) & 255] ^ td2[(w1 >> 8) & 255] ^ td3[w0 & 255] ^ k3,
            )
        return _final_round(INV_SBOX, keys[0], (w0, w1, w2, w3), -1)


def _final_round(
    sbox: bytes, key: tuple[int, ...], words: tuple[int, int, int, int], step: int
) -> bytes:
    """(Inv)SubBytes, (Inv)ShiftRows and AddRoundKey, without mixing.

    ``step`` is +1 for ShiftRows (row r from column c + r) and -1 for
    InvShiftRows (row r from column c - r).
    """
    out = bytearray(16)
    for c in range(4):
        word = (
            (sbox[words[c] >> 24] << 24)
            | (sbox[(words[(c + step) % 4] >> 16) & 255] << 16)
            | (sbox[(words[(c + 2 * step) % 4] >> 8) & 255] << 8)
            | sbox[words[(c + 3 * step) % 4] & 255]
        ) ^ key[c]
        out[4 * c : 4 * c + 4] = word.to_bytes(4, "big")
    return bytes(out)
