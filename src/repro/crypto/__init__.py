"""Cryptographic substrate: number theory, safe primes, QR groups,
commutative encryption, domain hashing, the ext cipher ``K``, and
oblivious transfer.

This package is the "Libraries (including encryption primitives)" box
of the paper's Figure 1, built from scratch on Python bignums; its
exponentiations and Legendre tests run through :mod:`.kernel`, on the
system's GMP where that loads.
"""

from .commutative import CommutativeCipher, PowerCipher
from .engine import (
    CryptoEngine,
    MeteredEngine,
    ThreadPoolEngine,
    SerialEngine,
    create_engine,
    shared_engine,
    shutdown_shared_engines,
)
from .ext_cipher import BlockExtCipher, ExtCipher, MultiplicativeExtCipher
from .groups import QRGroup
from .hashing import (
    DomainHash,
    SquareHash,
    TryIncrementHash,
    collision_probability,
    find_collisions,
    log10_collision_probability,
    value_to_bytes,
)
from .numtheory import (
    crt,
    egcd,
    is_probable_prime,
    is_quadratic_residue,
    jacobi,
    legendre,
    modinv,
    next_probable_prime,
    sqrt_mod,
)
from .batch import BatchSpeedup, measure_speedup, parallel_pow, sequential_pow
from .oracle import RandomOracle
from .ot import NaorPinkasCostModel, OTReceiver, OTSender, run_ot
from .ot_n import OneOfNReceiver, OneOfNSender, run_ot_1_of_n
from .paillier import PaillierPrivateKey, PaillierPublicKey, generate_keypair
from .primes import (
    EMBEDDED_SAFE_PRIMES,
    generate_safe_prime,
    is_safe_prime,
    safe_prime,
    sophie_germain_order,
)

__all__ = [
    "CommutativeCipher",
    "PowerCipher",
    "CryptoEngine",
    "SerialEngine",
    "ThreadPoolEngine",
    "MeteredEngine",
    "create_engine",
    "shared_engine",
    "shutdown_shared_engines",
    "QRGroup",
    "DomainHash",
    "TryIncrementHash",
    "SquareHash",
    "RandomOracle",
    "ExtCipher",
    "MultiplicativeExtCipher",
    "BlockExtCipher",
    "OTSender",
    "OTReceiver",
    "run_ot",
    "OneOfNSender",
    "OneOfNReceiver",
    "run_ot_1_of_n",
    "NaorPinkasCostModel",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_keypair",
    "parallel_pow",
    "sequential_pow",
    "measure_speedup",
    "BatchSpeedup",
    "collision_probability",
    "log10_collision_probability",
    "find_collisions",
    "value_to_bytes",
    "EMBEDDED_SAFE_PRIMES",
    "safe_prime",
    "generate_safe_prime",
    "is_safe_prime",
    "sophie_germain_order",
    "is_probable_prime",
    "next_probable_prime",
    "is_quadratic_residue",
    "jacobi",
    "legendre",
    "sqrt_mod",
    "modinv",
    "egcd",
    "crt",
]
