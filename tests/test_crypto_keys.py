"""Tests for key generation primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto
from repro.crypto.keys import (
    KeyPair,
    SymmetricKey,
    generate_keypair,
    generate_keypairs,
    is_probable_prime,
    prime_mask,
)
from tests.oracles import generate_keypair_scalar, random_prime


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 15, 91, 561, 7917):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        for c in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        assert is_probable_prime(2**61 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime((2**31 - 1) * (2**13 - 1))

    def test_random_prime_width(self):
        rng = np.random.default_rng(0)
        for bits in (8, 16, 32):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_random_prime_min_bits(self):
        with pytest.raises(ValueError):
            random_prime(2, np.random.default_rng(0))


class TestKeypair:
    def test_generates_valid_rsa(self):
        kp = generate_keypair(np.random.default_rng(1), bits=64)
        m = 123456789
        c = pow(m, kp.public.e, kp.public.n)
        assert pow(c, kp.private.d, kp.private.n) == m

    def test_distinct_keypairs(self):
        rng = np.random.default_rng(2)
        a = generate_keypair(rng)
        b = generate_keypair(rng)
        assert a.public.n != b.public.n

    def test_deterministic_given_rng(self):
        a = generate_keypair(np.random.default_rng(3))
        b = generate_keypair(np.random.default_rng(3))
        assert a.public.n == b.public.n

    def test_modulus_width(self):
        kp = generate_keypair(np.random.default_rng(4), bits=64)
        assert 60 <= kp.public.bits <= 64

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**30))
    def test_roundtrip_property(self, m):
        kp = generate_keypair(np.random.default_rng(5), bits=64)
        c = pow(m % kp.public.n, kp.public.e, kp.public.n)
        assert pow(c, kp.private.d, kp.private.n) == m % kp.public.n


class TestPrimeMask:
    """The vectorised primality path agrees with ``is_probable_prime``."""

    @staticmethod
    def _check(values):
        got = prime_mask(np.array(values, dtype=np.uint64)).tolist()
        assert got == [is_probable_prime(int(v)) for v in values]

    def test_every_n_below_2_17(self):
        self._check(range(1 << 17))

    def test_strong_pseudoprimes_rejected(self):
        # Strong pseudoprimes to base 2, bases 2-3, 2-3-5 and 2-3-5-7.
        values = (2047, 1373653, 25326001, 3215031751)
        assert not prime_mask(np.array(values, dtype=np.uint64)).any()
        self._check(values)

    def test_carmichael_numbers_rejected(self):
        values = (561, 1105, 1729, 2465, 2821, 6601)
        assert not prime_mask(np.array(values, dtype=np.uint64)).any()

    def test_32_bit_edges(self):
        # Largest 32-bit prime, and 2**32 - 1 = 3·5·17·257·65537.
        edges = np.array([4294967291, 4294967295], dtype=np.uint64)
        assert prime_mask(edges).tolist() == [True, False]

    def test_wide_values_use_scalar_test(self):
        self._check((2**61 - 1, (2**31 - 1) * (2**13 - 1), 2**64 - 59, 2**64 - 1))


#: ``np.random.default_rng(seed)`` seeds whose first oracle keypair
#: discards a ``(p, q)`` pair, found by searching with the oracle.
P_EQ_Q_SEED, P_EQ_Q_BITS = 0, 8
PHI_SEED, PHI_BITS = 1011, 64


def _oracle_keys(seed: int, count: int, bits: int, retries=None) -> list[KeyPair]:
    rng = np.random.default_rng(seed)
    return [generate_keypair_scalar(rng, bits, retries) for _ in range(count)]


class TestKeypairsMatchOracle:
    """``generate_keypairs`` returns exactly the one-at-a-time keys."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.sampled_from((8, 12, 16, 24, 32, 48, 64, 96)),
        count=st.integers(1, 40),
    )
    def test_equals_successive_oracle_calls(self, seed, bits, count):
        got = generate_keypairs(np.random.default_rng(seed), count, bits)
        assert got == _oracle_keys(seed, count, bits)

    @pytest.mark.parametrize(
        "seed,bits,reason",
        [(P_EQ_Q_SEED, P_EQ_Q_BITS, "p == q"), (PHI_SEED, PHI_BITS, "phi % e == 0")],
    )
    def test_retry_branches(self, seed, bits, reason):
        retries: list[str] = []
        want = _oracle_keys(seed, 3, bits, retries)
        assert reason in retries  # the pinned seed really takes the branch
        assert generate_keypairs(np.random.default_rng(seed), 3, bits) == want

    def test_network_sized_batch(self):
        got = generate_keypairs(np.random.default_rng(7), 300)
        assert got == _oracle_keys(7, 300, 64)

    def test_single_key_is_first_of_batch(self):
        a = generate_keypair(np.random.default_rng(8), bits=32)
        assert a == generate_keypairs(np.random.default_rng(8), 5, 32)[0]

    def test_zero_count_draws_nothing(self):
        rng = np.random.default_rng(9)
        assert generate_keypairs(rng, 0) == []
        assert rng.integers(0, 1 << 30) == np.random.default_rng(9).integers(0, 1 << 30)


class TestKeypairValidation:
    @pytest.mark.parametrize("bits", [0, 5, 129, 140])
    def test_bad_modulus_width(self, bits):
        msg = f"modulus width must be 6\\.\\.128 bits, got bits={bits}"
        with pytest.raises(ValueError, match=msg):
            generate_keypairs(np.random.default_rng(0), 1, bits)

    def test_bad_width_on_single_key(self):
        with pytest.raises(ValueError, match="modulus width"):
            generate_keypair(np.random.default_rng(0), bits=5)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            generate_keypairs(np.random.default_rng(0), -1)

    @pytest.mark.parametrize("bits", [6, 7, 128])
    def test_extreme_widths(self, bits):
        keys = generate_keypairs(np.random.default_rng(1), 3, bits)
        assert keys == _oracle_keys(1, 3, bits)
        for kp in keys:
            c = pow(2, kp.public.e, kp.public.n)
            assert pow(c, kp.private.d, kp.private.n) == 2

    def test_exported(self):
        assert "generate_keypairs" in repro.crypto.__all__
        assert repro.crypto.generate_keypairs is generate_keypairs


class TestSymmetricKey:
    def test_empty_material_raises(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"")

    def test_generate_length(self):
        k = SymmetricKey.generate(np.random.default_rng(0), length=24)
        assert len(k.material) == 24

    def test_int_roundtrip(self):
        k = SymmetricKey.generate(np.random.default_rng(1), length=16)
        assert SymmetricKey.from_int(k.as_int(), 16) == k

    def test_generate_deterministic(self):
        a = SymmetricKey.generate(np.random.default_rng(2))
        b = SymmetricKey.generate(np.random.default_rng(2))
        assert a == b
