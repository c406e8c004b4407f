"""The one modular-exponentiation kernel of the crypto layer.

Every ``x**e mod m`` batch and every Legendre test in
:mod:`repro.crypto` comes here. Where the system's GMP loads (through
stdlib :mod:`ctypes`, nothing installed), a batch runs through
``mpz_powm_sec`` - GMP's side-channel-resistant exponentiation, about
ten times CPython's variable-time ``pow`` at 1024 bits - and a Jacobi
symbol through ``mpz_jacobi``. The interpreter's ``pow`` and
:func:`repro.crypto.numtheory.jacobi` are the other path, taken when
the library does not load, when it fails the known-answer self-test
run at load, and for every call outside ``powm_sec``'s domain
(exponent <= 0, even modulus). Both paths return the same integers, so
nothing above this module can tell which one ran but the clock and
:func:`describe`.

``ctypes`` releases the GIL for the length of each GMP call, so every
call builds its own ``mpz`` temporaries: two threads exponentiating at
once share nothing. Inputs are read-only ``mpz`` views
(``mpz_roinit_n``) of the little-endian bytes of a Python ``int``;
only a batch's result is allocated by GMP.
"""

from __future__ import annotations

import ctypes
from typing import Iterable

from . import numtheory

__all__ = ["pow_many", "jacobi", "describe"]

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
    """The entry points the kernel calls, typed, and the limb size."""

    def __init__(self, lib: object):
        z = ctypes.POINTER(_Mpz)

        def bind(name: str, restype: object, *argtypes: object) -> object:
            function = getattr(lib, "__gmpz_" + name)
            function.restype, function.argtypes = restype, argtypes
            return function

        self.init = bind("init", None, z)
        self.clear = bind("clear", None, z)
        self.roinit = bind("roinit_n", None, z, ctypes.c_char_p, ctypes.c_long)
        self.powm_sec = bind("powm_sec", None, z, z, z, z)
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

    def value(self, z: _Mpz) -> int:
        """The non-negative value of ``z``."""
        return int.from_bytes(
            ctypes.string_at(z.limbs, z.size * self.limb_bytes), "little"
        )


def _gmp_pow_many(gmp: _Gmp, xs: Iterable[int], e: int, m: int) -> list[int]:
    result, base, exponent, modulus = (_Mpz * 4)()
    e_limbs, m_limbs = gmp.limbs(e), gmp.limbs(m)
    gmp.view(exponent, e_limbs)
    gmp.view(modulus, m_limbs)
    gmp.init(result)
    try:
        out = []
        for x in xs:
            x_limbs = gmp.limbs(x % m, len(m_limbs))
            gmp.view(base, x_limbs)
            gmp.powm_sec(result, base, exponent, modulus)
            out.append(gmp.value(result))
        return out
    finally:
        gmp.clear(result)


def _gmp_jacobi(gmp: _Gmp, a: int, n: int) -> int:
    top, bottom = (_Mpz * 2)()
    n_limbs = gmp.limbs(n)
    a_limbs = gmp.limbs(a % n, len(n_limbs))
    gmp.view(top, a_limbs)
    gmp.view(bottom, n_limbs)
    return gmp.jacobi(top, bottom)


def _self_test(gmp: _Gmp) -> str | None:
    """What the library got wrong on the known answers, or ``None``."""
    for m in (3**41, 2**127 - 1, 2**521 - 1):
        xs = [0, 1, 2, m - 1, m, 2 * m + 1, -5, 7**50]
        for e in (1, 65537, 2**64 + 13):
            if _gmp_pow_many(gmp, xs, e, m) != [pow(x, e, m) for x in xs]:
                return f"mpz_powm_sec disagreed with pow mod {m}"
        for a in xs:
            if _gmp_jacobi(gmp, a, m) != numtheory.jacobi(a, m):
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


def jacobi(a: int, n: int) -> int:
    """:func:`repro.crypto.numtheory.jacobi`, through GMP where it can."""
    gmp = _active[0]
    if gmp is None or n < 3 or not n & 1:
        return numtheory.jacobi(a, n)
    return _gmp_jacobi(gmp, a, n)


def describe() -> str:
    """``"gmp <version>"``, or ``"builtin (<why>)"``."""
    return _active[1]
