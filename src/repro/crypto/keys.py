"""Key material: RSA-style keypairs and symmetric keys.

Keypairs are textbook RSA over primes found with Miller–Rabin.  The
default modulus is tiny (64-bit) because these keys exist to exercise
the protocols' key-distribution paths, not to resist attack; see
``repro.crypto.cost_model`` for how the *simulated* expense of
realistic key sizes is charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Deterministic Miller-Rabin witness sets: these bases are proven
# sufficient for all n below the stated bounds.
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_WITNESSES_32 = (2, 7, 61)  # n < 4,759,123,141

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
)

#: Modulus widths ``generate_keypairs`` accepts: each prime needs at
#: least 3 bits, and a 64-bit prime is the widest a uint64 candidate holds.
_MIN_MODULUS_BITS = 6
_MAX_MODULUS_BITS = 128


def is_probable_prime(n: int) -> bool:
    """Miller–Rabin primality test (deterministic for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES_64:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _powmod(base: int, exp: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Elementwise ``base**exp % n`` over uint64 arrays with ``n < 2**32``.

    Every intermediate stays below ``n**2 < 2**64``, so uint64 products
    never wrap.
    """
    result = np.ones_like(n)
    b = np.uint64(base) % n
    e = exp.copy()
    while e.any():
        odd = (e & np.uint64(1)).astype(bool)
        result = np.where(odd, result * b % n, result)
        b = b * b % n
        e >>= np.uint64(1)
    return result


def _strong_probable_prime_u32(n: np.ndarray) -> np.ndarray:
    """Miller–Rabin to bases (2, 7, 61) over odd uint64 ``61 < n < 2**32``.

    The three bases are exact (no strong pseudoprime passes all of
    them) for every n below 4,759,123,141.  Each base runs only on the
    values every earlier base passed.
    """
    m = n - np.uint64(1)
    low = m & (~m + np.uint64(1))  # 2**r, the largest power of 2 dividing m
    r = np.bitwise_count(low - np.uint64(1)).astype(np.int64)
    d = m // low
    live = np.arange(n.size)
    for a in _MR_WITNESSES_32:
        nl, ml, rl = n[live], m[live], r[live]
        x = _powmod(a, d[live], nl)
        passed = (x == 1) | (x == ml)
        for i in range(1, int(rl.max(initial=0))):
            x = x * x % nl
            passed |= (x == ml) & (i < rl)
        live = live[passed]
    ok = np.zeros(n.shape, dtype=bool)
    ok[live] = True
    return ok


def prime_mask(n: np.ndarray) -> np.ndarray:
    """Elementwise :func:`is_probable_prime` over a uint64 array.

    Trial division by ``_SMALL_PRIMES`` first; survivors below ``2**32``
    go to a vectorised Miller–Rabin, wider ones to the scalar test.
    """
    n = np.asarray(n, dtype=np.uint64)
    out = np.isin(n, _SMALL_PRIMES)
    idx = np.flatnonzero(n > _SMALL_PRIMES[-1])
    cand = n[idx]
    for p in _SMALL_PRIMES:
        keep = cand % np.uint64(p) != 0
        idx, cand = idx[keep], cand[keep]
    narrow = cand < np.uint64(1 << 32)
    out[idx[narrow]] = _strong_probable_prime_u32(cand[narrow])
    out[idx[~narrow]] = [is_probable_prime(int(c)) for c in cand[~narrow]]
    return out


@dataclass(frozen=True)
class PublicKey:
    """RSA public part ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        """Modulus width in bits."""
        return self.n.bit_length()


@dataclass(frozen=True)
class PrivateKey:
    """RSA private part ``(n, d)``."""

    n: int
    d: int


@dataclass(frozen=True)
class KeyPair:
    """An RSA keypair owned by one node."""

    public: PublicKey
    private: PrivateKey


def _block_size(primes_needed: int, half: int) -> int:
    """Candidates to draw for ``primes_needed`` odd ``half``-bit primes.

    By the prime number theorem an odd ``half``-bit number is prime
    with probability about ``2 / (half·ln 2)``; 10 % slack plus a small
    constant makes a second block rare.
    """
    return int(primes_needed * half * math.log(2) / 2 * 1.1) + 16


def generate_keypairs(
    rng: np.random.Generator, count: int, bits: int = 64
) -> list[KeyPair]:
    """Generate ``count`` textbook-RSA keypairs with ``bits``-bit moduli.

    Each prime has ``bits // 2`` bits: a candidate is drawn with its top
    bit (exact width) and bottom bit (odd) forced and kept if prime.
    Consecutive primes pair up as ``(p, q)``; a pair with ``p == q`` or
    with ``e`` dividing ``φ = (p-1)(q-1)`` is discarded and the next
    pair tried.  The keys equal those of drawing one candidate at a
    time, because a Generator's bounded draws yield the same values
    from one ``size=m`` call as from ``m`` scalar calls.

    Candidates are drawn and tested in blocks, so ``rng`` is left
    advanced by whole blocks: past the last candidate used, not at it.
    Give key generation a stream of its own.

    Parameters
    ----------
    rng:
        Source of randomness.
    count:
        Number of keypairs (``>= 0``).
    bits:
        Modulus width, ``6 <= bits <= 128``; the two primes get
        ``bits // 2`` bits each.
    """
    if not _MIN_MODULUS_BITS <= bits <= _MAX_MODULUS_BITS:
        raise ValueError(
            f"modulus width must be {_MIN_MODULUS_BITS}..{_MAX_MODULUS_BITS} "
            f"bits, got bits={bits}"
        )
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    half = bits // 2
    top = np.uint64(1 << (half - 1))
    e = 65537
    keys: list[KeyPair] = []
    primes: list[int] = []
    while len(keys) < count:
        m = _block_size(2 * (count - len(keys)) - len(primes), half)
        raw = rng.integers(0, 1 << (half - 2), size=m, dtype=np.uint64)
        cand = top | (raw << np.uint64(1)) | np.uint64(1)
        primes.extend(cand[prime_mask(cand)].tolist())
        paired = len(primes) & ~1
        for i in range(0, paired, 2):
            if len(keys) == count:
                break
            p, q = primes[i], primes[i + 1]
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if phi % e == 0:
                continue
            n = p * q
            keys.append(KeyPair(PublicKey(n, e), PrivateKey(n, pow(e, -1, phi))))
        del primes[:paired]
    return keys


def generate_keypair(rng: np.random.Generator, bits: int = 64) -> KeyPair:
    """One keypair: ``generate_keypairs(rng, 1, bits)[0]``.

    Like :func:`generate_keypairs`, leaves ``rng`` advanced by a whole
    block of candidates.
    """
    return generate_keypairs(rng, 1, bits)[0]


@dataclass(frozen=True)
class SymmetricKey:
    """A shared symmetric key (raw bytes).

    In ALERT this is ``K_s^S``: the per-session key the source embeds
    (public-key-encrypted) in its first packet to the destination.
    """

    material: bytes

    def __post_init__(self) -> None:
        if not self.material:
            raise ValueError("empty key material")

    @classmethod
    def generate(cls, rng: np.random.Generator, length: int = 16) -> "SymmetricKey":
        """Draw ``length`` random key bytes."""
        return cls(bytes(int(b) for b in rng.integers(0, 256, size=length)))

    def as_int(self) -> int:
        """Key material as a big-endian integer (for RSA wrapping)."""
        return int.from_bytes(self.material, "big")

    @classmethod
    def from_int(cls, value: int, length: int) -> "SymmetricKey":
        """Rebuild a key from its integer form."""
        return cls(value.to_bytes(length, "big"))
