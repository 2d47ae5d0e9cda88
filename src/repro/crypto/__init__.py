"""Cryptographic substrate.

Two layers, deliberately separated:

* **Functional layer** (`keys`, `cipher`, `pseudonym`): real — if
  toy-strength — primitives (Miller–Rabin RSA keygen, hash-counter
  stream cipher, SHA-1 pseudonyms) so that every key-distribution and
  encrypt/decrypt code path in the protocols actually executes and is
  testable for round-trip correctness.
* **Cost layer** (`cost_model`): the *simulated-time* price of each
  operation, calibrated to the paper's §5.2 measurement ("a typical
  symmetric encryption costs several milliseconds while a public key
  encryption operation costs 2-3 hundred milliseconds" on a 1.8 GHz
  CPU).  Protocol latency figures are driven by this layer, never by
  wall-clock time.
"""

from repro.crypto.cipher import (
    PublicKeyCipher,
    SymmetricCipher,
    hybrid_decrypt,
    hybrid_encrypt,
)
from repro.crypto.cost_model import CryptoCostModel
from repro.crypto.keys import (
    KeyPair,
    SymmetricKey,
    generate_keypair,
    generate_keypairs,
)
from repro.crypto.pseudonym import Pseudonym, PseudonymManager

__all__ = [
    "KeyPair",
    "SymmetricKey",
    "generate_keypair",
    "generate_keypairs",
    "SymmetricCipher",
    "PublicKeyCipher",
    "hybrid_encrypt",
    "hybrid_decrypt",
    "CryptoCostModel",
    "Pseudonym",
    "PseudonymManager",
]
