"""MDS erasure code: field arithmetic, round trips, and error paths."""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycache.erasure import (
    decode,
    encode,
    gf_inv,
    gf_mul,
    make_code,
    xor_bytes,
)


def gf_mul_oracle(a: int, b: int) -> int:
    """Independent oracle: carry-less multiply, reduce modulo x^8+x^4+x^3+x^2+1."""
    result = 0
    for bit in range(8):
        if (b >> bit) & 1:
            result ^= a << bit
    for bit in range(15, 7, -1):
        if (result >> bit) & 1:
            result ^= 0x11D << (bit - 8)
    return result


class TestField:
    def test_mul_matches_oracle_exhaustively(self):
        for a in range(256):
            for b in range(0, 256, 7):
                assert gf_mul(a, b) == gf_mul_oracle(a, b)

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\x00") == b"\xf0\xf0"
        assert xor_bytes(b"", b"") == b""
        with pytest.raises(ValueError):
            xor_bytes(b"a", b"ab")

    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
    @settings(max_examples=60)
    def test_xor_is_involutive(self, a, b):
        size = min(len(a), len(b))
        a, b = a[:size], b[:size]
        assert xor_bytes(xor_bytes(a, b), b) == a


class TestMakeCode:
    def test_identity_code(self):
        code = make_code(2, 2)
        assert code.generator == ((1, 0), (0, 1))

    def test_systematic_prefix(self):
        code = make_code(4, 2)
        assert code.generator[0] == (1, 0)
        assert code.generator[1] == (0, 1)

    def test_determinism(self):
        assert make_code(6, 3).generator == make_code(6, 3).generator

    def test_parity_row_matches_matrix_vector_oracle(self):
        code = make_code(3, 2)
        data = [bytes([5, 200]), bytes([17, 3])]
        pieces = encode(code, data)
        row = code.generator[2]
        for byte in range(2):
            expected = gf_mul_oracle(row[0], data[0][byte]) ^ gf_mul_oracle(
                row[1], data[1][byte]
            )
            assert pieces[2][byte] == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_parity_bytes_match_per_byte_sum(self, data):
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, min(n, 4)))
        size = data.draw(st.integers(0, 24))
        pieces = [data.draw(st.binary(min_size=size, max_size=size)) for _ in range(k)]
        code = make_code(n, k)
        out = encode(code, pieces)
        for row, parity in zip(code.generator[k:], out[k:]):
            expected = bytearray(size)
            for coeff, piece in zip(row, pieces):
                for j, byte in enumerate(piece):
                    expected[j] ^= gf_mul_oracle(coeff, byte)
            assert parity == expected

    @pytest.mark.parametrize("n,k", [(256, 2), (3, 0), (2, 3)])
    def test_invalid_shapes(self, n, k):
        with pytest.raises(ValueError):
            make_code(n, k)

    def test_large_code_round_trips_sampled_subsets(self):
        # n > 12 takes the randomized construction check; verify it decodes.
        code = make_code(20, 4)
        rng = random.Random(99)
        data = [rng.randbytes(16) for _ in range(4)]
        pieces = encode(code, data)
        for _ in range(25):
            idx = sorted(rng.sample(range(1, 21), 4))
            assert decode(code, [(i, pieces[i - 1]) for i in idx]) == data


class TestRoundTrip:
    def test_identity_encode(self):
        code = make_code(2, 2)
        assert encode(code, [b"ab", b"cd"]) == [b"ab", b"cd"]

    def test_zero_inputs_give_zero_outputs(self):
        code = make_code(5, 3)
        assert encode(code, [bytes(4)] * 3) == [bytes(4)] * 5

    def test_any_two_of_three(self):
        code = make_code(3, 2)
        rng = random.Random(11)
        data = [rng.randbytes(32) for _ in range(2)]
        pieces = encode(code, data)
        for idx in itertools.combinations(range(1, 4), 2):
            assert decode(code, [(i, pieces[i - 1]) for i in idx]) == data

    def test_4_2_parity_pieces_recover_1kib(self):
        code = make_code(4, 2)
        rng = random.Random(42)
        data = [rng.randbytes(1024) for _ in range(2)]
        pieces = encode(code, data)
        assert decode(code, [(3, pieces[2]), (4, pieces[3])]) == data

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (6, 3), (6, 2)])
    def test_exhaustive_piece_subsets(self, n, k):
        code = make_code(n, k)
        rng = random.Random(1000 * n + k)
        data = [rng.randbytes(64) for _ in range(k)]
        pieces = encode(code, data)
        for idx in itertools.combinations(range(1, n + 1), k):
            assert decode(code, [(i, pieces[i - 1]) for i in idx]) == data

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=40)
    def test_linearity(self, x, y):
        code = make_code(5, 2)
        a = [x.to_bytes(8, "big"), y.to_bytes(8, "big")]
        b = [y.to_bytes(8, "big"), x.to_bytes(8, "big")]
        summed = [xor_bytes(p, q) for p, q in zip(a, b)]
        enc_sum = encode(code, summed)
        sum_enc = [xor_bytes(p, q) for p, q in zip(encode(code, a), encode(code, b))]
        assert enc_sum == sum_enc


def oracle_pieces(code, data: list[bytes]) -> list[bytes]:
    """Every piece of ``data``, each byte summed from gf_mul_oracle products."""
    return [
        bytes(
            functools.reduce(
                operator.xor, (gf_mul_oracle(c, piece[j]) for c, piece in zip(row, data))
            )
            for j in range(len(data[0]))
        )
        for row in code.generator
    ]


class TestSingleTermRows:
    """Index sets whose inverse rows have one nonzero coefficient.

    Systematic pieces give rows with one coefficient 1.  A parity piece of a
    k=1 code gives a row with one coefficient other than 1, as does every
    parity row of its generator.
    """

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_decode_matches_oracle(self, k, data):
        n = data.draw(st.integers(k + 1, 8))
        size = data.draw(st.integers(1, 16))
        blocks = [data.draw(st.binary(min_size=size, max_size=size)) for _ in range(k)]
        code = make_code(n, k)
        pieces = oracle_pieces(code, blocks)
        assert encode(code, blocks) == pieces
        systematic = data.draw(st.permutations(range(1, k + 1)))
        out = decode(code, [(i, pieces[i - 1]) for i in systematic])
        assert out == blocks
        # At least one parity piece; the rest systematic (none when k = 1).
        own = data.draw(st.integers(max(0, 2 * k - n), k - 1))
        parity = data.draw(st.permutations(range(k + 1, n + 1)))[: k - own]
        mixed = data.draw(st.permutations(systematic[:own] + parity))
        assert decode(code, [(i, pieces[i - 1]) for i in mixed]) == blocks


class TestDecodeErrors:
    def test_duplicate_indices(self):
        code = make_code(4, 2)
        with pytest.raises(ValueError, match="duplicate"):
            decode(code, [(1, b"x"), (1, b"y")])

    def test_wrong_count(self):
        code = make_code(4, 2)
        with pytest.raises(ValueError, match="exactly 2"):
            decode(code, [(1, b"x")])

    def test_index_out_of_range(self):
        code = make_code(4, 2)
        with pytest.raises(ValueError, match="outside"):
            decode(code, [(0, b"x"), (5, b"y")])

    def test_length_mismatch(self):
        code = make_code(4, 2)
        with pytest.raises(ValueError, match="length"):
            encode(code, [b"ab", b"abc"])
