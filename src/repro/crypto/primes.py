"""Safe primes: generation and a table of embedded, vetted moduli.

The paper's commutative encryption (Section 3.2.1, Example 1) works in
the group of quadratic residues modulo a *safe* prime ``p = 2q + 1``
with both ``p`` and ``q`` prime.

Generating large safe primes in pure Python is slow, so this module
embeds:

* locally generated safe primes from 64 to 512 bits (fast test sizes),
  verified by the test suite, and
* the MODP groups from RFC 2409 (768/1024-bit) and RFC 3526
  (1536/2048-bit), whose moduli are published safe primes.

``safe_prime(bits)`` returns an embedded modulus when available and
falls back to random generation otherwise.
"""

from __future__ import annotations

import random

from .numtheory import _key_rng, is_probable_prime

__all__ = [
    "EMBEDDED_SAFE_PRIMES",
    "safe_prime",
    "generate_safe_prime",
    "is_safe_prime",
    "sophie_germain_order",
]

# RFC 2409 Second Oakley Group (1024-bit MODP), a published safe prime.
_RFC2409_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

# RFC 2409 First Oakley Group (768-bit MODP).
_RFC2409_768 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)

# RFC 3526 Group 5 (1536-bit MODP).
_RFC3526_1536 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)

# RFC 3526 Group 14 (2048-bit MODP).
_RFC3526_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED5290770969 66D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF".replace(" ", ""),
    16,
)

# Locally generated safe primes (seeded search; verified in the test
# suite with deterministic Miller-Rabin where applicable).
EMBEDDED_SAFE_PRIMES: dict[int, int] = {
    64: 0xABA5ABD8BECC230B,
    96: 0x898A146EA6CEC45B33F9744F,
    128: 0xBA7C68AB3EAE6A8F5C13962C8874B533,
    160: 0xBD376C12F8BA5C0F4EFA73260962E34EDE8343AF,
    192: 0xFF52D2C3583D77B78BEA677132B044661E5804987B2151A3,
    256: 0xF2B19788485432E856C0EA5A5F416206E341DD3A152A90D0D39C2273DE2DF0B7,
    384: int(
        "B8617D255DC62742D57D23BD3DC406F3DB2BD1C996796F42"
        "2B26815742F3AA0388CE9339F8CFF159BCC6855589151DEF",
        16,
    ),
    512: int(
        "DFEE7C447AED8C3725B4F9A0D83019D10181A8C8AA0C2FCD998B669851A071BB"
        "DC36BDD7B64A5C61CBAFDDC4753102429BA37C896B00DE03B6AFA6AA8B147523",
        16,
    ),
    768: _RFC2409_768,
    1024: _RFC2409_1024,
    1536: _RFC3526_1536,
    2048: _RFC3526_2048,
}


def sophie_germain_order(p: int) -> int:
    """The prime order ``q = (p - 1) // 2`` of QR_p for a safe prime ``p``."""
    return (p - 1) // 2


def is_safe_prime(p: int, rounds: int = 40) -> bool:
    """True when both ``p`` and ``(p - 1) / 2`` are (probable) primes."""
    return p > 5 and p % 2 == 1 and is_probable_prime(p, rounds) and is_probable_prime((p - 1) // 2, rounds)


def generate_safe_prime(bits: int, rng: random.Random | None = None) -> int:
    """Generate a fresh ``bits``-bit safe prime by random search.

    This is slow for large ``bits`` in pure Python; prefer
    :func:`safe_prime`, which serves embedded moduli for standard sizes.
    """
    if bits < 4:
        raise ValueError("safe primes need at least 4 bits")
    rng = _key_rng(rng)
    while True:
        # Sample q with the top bit set so p = 2q + 1 has exactly `bits` bits.
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        # p = 2q + 1 is prime only if q % 3 != 1 (else 3 | p); cheap filter.
        if q % 3 == 1:
            continue
        if not is_probable_prime(q):
            continue
        p = 2 * q + 1
        if is_probable_prime(p):
            return p


def safe_prime(bits: int, rng: random.Random | None = None) -> int:
    """Return a ``bits``-bit safe prime.

    Embedded, vetted moduli are returned for the standard sizes in
    :data:`EMBEDDED_SAFE_PRIMES`; any other size triggers a (potentially
    slow) random search.
    """
    embedded = EMBEDDED_SAFE_PRIMES.get(bits)
    if embedded is not None:
        return embedded
    return generate_safe_prime(bits, rng)
