"""The one modular-exponentiation kernel of the crypto layer.

Every ``x**e mod m`` batch and every Legendre test in
:mod:`repro.crypto` comes here. Where the system's GMP loads (through
stdlib :mod:`ctypes`, nothing installed), a batch runs through
``mpz_powm_sec`` - GMP's side-channel-resistant exponentiation, about
ten times CPython's variable-time ``pow`` at 1024 bits - and a batch of
Jacobi symbols through ``mpz_jacobi``. The interpreter's ``pow`` and
:func:`repro.crypto.numtheory.jacobi` are the other path, taken when
the library does not load, when it fails the known-answer self-test
run at load, and for every call outside ``powm_sec``'s domain
(exponent <= 0, even modulus). Both paths return the same integers, so
nothing above this module can tell which one ran but the clock and
:func:`describe`.

``ctypes`` releases the GIL for the length of each GMP call, and in a
batch's loop each value costs that one call and nothing else: before
the loop the reduced inputs are packed into one buffer of slots a
modulus wide, ``powm_sec`` writes each result straight into its slot
of a second buffer, and after the loop the results are read in one
pass. Every call builds its own buffers and ``mpz`` headers, so two
threads exponentiating at once share nothing.

Writing a result into a slot relies on one thing GMP does not
document: ``mpz_powm_sec`` keeps a result's limbs when their
``_mp_alloc`` already covers the modulus. The self-test asks that of
limbs GMP allocated itself, where a reallocation frees nothing foreign,
and a library that reallocates takes the builtin path.
"""

from __future__ import annotations

import ctypes
from typing import Iterable

from . import numtheory

__all__ = ["pow_many", "jacobi_many", "jacobi", "describe"]

#: Loaded by soname: ``ctypes.util.find_library`` runs ``ldconfig`` in a
#: subprocess, seven times the cost of the load itself.
_SONAME = "libgmp.so.10"


class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``."""

    _fields_ = [
        ("alloc", ctypes.c_int),
        ("size", ctypes.c_int),
        ("limbs", ctypes.c_void_p),
    ]


class _Gmp:
    """The entry points the kernel calls, typed, and the limb size.

    ``powm_sec`` alone is untyped: it is only handed ``byref`` objects made
    once per batch, and converting them again on every call would cost
    as much as the rest of the loop.
    """

    def __init__(self, lib: object):
        z = ctypes.POINTER(_Mpz)

        def bind(name: str, restype: object, *argtypes: object) -> object:
            function = getattr(lib, "__gmpz_" + name)
            function.restype, function.argtypes = restype, argtypes or None
            return function

        self.init2 = bind("init2", None, z, ctypes.c_ulong)
        self.clear = bind("clear", None, z)
        self.roinit = bind("roinit_n", None, z, ctypes.c_char_p, ctypes.c_long)
        self.powm_sec = bind("powm_sec", None)
        self.jacobi = bind("jacobi", ctypes.c_int, z, z)
        self.limb_bytes = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value // 8
        self.version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode()

    def limbs(self, value: int, width: int | None = None) -> bytes:
        """A non-negative ``value`` as a limb array: its little-endian
        bytes, ``width`` of them or as many as its whole limbs take."""
        if width is None:
            limb_bits = 8 * self.limb_bytes
            width = -(-value.bit_length() // limb_bits) * self.limb_bytes
        return value.to_bytes(width, "little")

    def view(self, z: _Mpz, limbs: bytes) -> None:
        """Point ``z`` at ``limbs``, read-only: the bytes must stay
        referenced until the last call that reads ``z``."""
        self.roinit(z, limbs, len(limbs) // self.limb_bytes)


def _slots(reduced: list[int], width: int) -> ctypes.Array:
    """Values below a modulus ``width`` bytes wide, packed in one
    buffer of slots that wide, little-endian."""
    packed = b"".join([x.to_bytes(width, "little") for x in reduced])
    return ctypes.create_string_buffer(packed, len(packed))


def _gmp_pow_many(gmp: _Gmp, xs: Iterable[int], e: int, m: int) -> list[int]:
    e_limbs, m_limbs = gmp.limbs(e), gmp.limbs(m)
    width = len(m_limbs)
    bases = _slots([x % m for x in xs], width)
    results = ctypes.create_string_buffer(len(bases))
    mpz = result, base, exponent, modulus = (_Mpz * 4)()
    gmp.view(exponent, e_limbs)
    gmp.view(modulus, m_limbs)
    # A slot keeps its high zero limbs: powm_sec's mpn layer takes them,
    # and a result slot always has room (see the module docstring).
    base.size = base.alloc = result.alloc = width // gmp.limb_bytes
    args, powm_sec = [ctypes.byref(z) for z in mpz], gmp.powm_sec
    bases_at, results_at = ctypes.addressof(bases), ctypes.addressof(results)
    for offset in range(0, len(bases), width):
        base.limbs, result.limbs = bases_at + offset, results_at + offset
        powm_sec(*args)
    raw = results.raw
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _reallocates(gmp: _Gmp) -> bool:
    """Whether ``powm_sec`` moves a result whose limbs have room for it,
    asked of limbs GMP allocated: :func:`_gmp_pow_many` hands it limbs
    that GMP did not allocate and must not free."""
    result, base, exponent, modulus = (_Mpz * 4)()
    b_limbs, e_limbs, m_limbs = gmp.limbs(3), gmp.limbs(65537), gmp.limbs(2**521 - 1)
    gmp.view(base, b_limbs)
    gmp.view(exponent, e_limbs)
    gmp.view(modulus, m_limbs)
    gmp.init2(result, 8 * len(m_limbs))
    given = result.limbs, result.alloc
    gmp.powm_sec(*[ctypes.byref(z) for z in (result, base, exponent, modulus)])
    moved = (result.limbs, result.alloc) != given
    gmp.clear(result)
    return moved


def _gmp_jacobi_many(gmp: _Gmp, xs: Iterable[int], n: int) -> list[int]:
    n_limbs = gmp.limbs(n)
    width, limb_bits = len(n_limbs), 8 * gmp.limb_bytes
    reduced = [x % n for x in xs]
    packed = _slots(reduced, width)
    top, bottom = (_Mpz * 2)()
    gmp.view(bottom, n_limbs)
    top.alloc = width // gmp.limb_bytes
    at, jacobi, symbols = ctypes.addressof(packed), gmp.jacobi, []
    for x in reduced:
        # mpz_jacobi reads a normalised top: as many limbs as the value
        # takes, not the slot's high zero ones.
        top.limbs, top.size = at, -(-x.bit_length() // limb_bits)
        symbols.append(jacobi(top, bottom))
        at += width
    return symbols


def _self_test(gmp: _Gmp) -> str | None:
    """What the library got wrong on the known answers, or ``None``."""
    if _reallocates(gmp):
        return "mpz_powm_sec reallocated a result that had room"
    for m in (3**41, 2**127 - 1, 2**521 - 1):
        xs = [0, 1, 2, m - 1, m, 2 * m + 1, -5, 7**50]
        for e in (1, 65537, 2**64 + 13):
            if _gmp_pow_many(gmp, xs, e, m) != [pow(x, e, m) for x in xs]:
                return f"mpz_powm_sec disagreed with pow mod {m}"
        for a, symbol in zip(xs, _gmp_jacobi_many(gmp, xs, m)):
            if symbol != numtheory.jacobi(a, m):
                return f"mpz_jacobi disagreed with jacobi({a}, {m})"
    return None


def _load(soname: str) -> tuple[_Gmp | None, str]:
    """``(binding, description)``: the library if it loads and passes
    the self-test, else ``None`` and the reason the builtin path runs."""
    try:
        lib = ctypes.CDLL(soname)
    except OSError as exc:
        return None, f"builtin ({soname} did not load: {exc})"
    return _bind(lib)


def _bind(lib: object) -> tuple[_Gmp | None, str]:
    """:func:`_load` past the load: bind the entry points, self-test."""
    try:
        gmp = _Gmp(lib)
    except (AttributeError, ValueError) as exc:
        return None, f"builtin (not a usable libgmp: {exc})"
    failure = _self_test(gmp)
    if failure is not None:
        return None, f"builtin (self-test failed: {failure})"
    return gmp, f"gmp {gmp.version}"


_active = _load(_SONAME)


def pow_many(xs: Iterable[int], e: int, m: int) -> list[int]:
    """``[pow(x, e, m) for x in xs]``, through GMP where it can."""
    gmp = _active[0]
    if gmp is None or e <= 0 or m < 3 or not m & 1:
        return [pow(x, e, m) for x in xs]
    return _gmp_pow_many(gmp, xs, e, m)


def jacobi_many(xs: Iterable[int], n: int) -> list[int]:
    """``[numtheory.jacobi(x, n) for x in xs]``, through GMP where it can.

    One buffer for the batch and one ``mpz_jacobi`` call a value."""
    gmp = _active[0]
    if gmp is None or n < 3 or not n & 1:
        return [numtheory.jacobi(x, n) for x in xs]
    return _gmp_jacobi_many(gmp, xs, n)


def jacobi(a: int, n: int) -> int:
    """:func:`repro.crypto.numtheory.jacobi`, through GMP where it can."""
    return jacobi_many([a], n)[0]


def describe() -> str:
    """``"gmp <version>"``, or ``"builtin (<why>)"``."""
    return _active[1]
