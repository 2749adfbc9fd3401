"""Rational symbols and their Fourier coefficients.

A symbol is a polynomial plus a sum of terms c / (1 - conj(b) z)^m with
|b| < 1, which keeps the analytic continuation past the closed disk and
makes the associated Hankel matrix finite rank.  Coefficients are generated
exactly, so truncation error is controlled by an analytic tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hardy import _as_coeffs, _frozen, _horner

__all__ = [
    "PoleTerm",
    "RationalSymbol",
    "SymbolFormatError",
    "fourier_coefficients",
    "evaluate_symbol",
    "tail_bound",
    "kronecker_rank_bound",
    "parse_symbol",
    "symbol_to_dict",
]

MAX_MULTIPLICITY = 4


class SymbolFormatError(ValueError):
    """Raised for malformed symbol descriptions (bad pole, bad field, ...)."""


@dataclass(frozen=True)
class PoleTerm:
    """One term c / (1 - conj(b) z)^m of a rational symbol."""

    b: complex
    m: int
    c: complex

    def __post_init__(self):
        if any(isinstance(v, (bool, np.bool_)) for v in (self.b, self.m, self.c)):
            raise SymbolFormatError(f"pole fields b, m, c must be numbers, not booleans: {self!r}")
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        if not np.isfinite(self.c):
            raise SymbolFormatError(f"pole residue c = {self.c} must be finite")
        if not abs(self.b) < 1:
            raise SymbolFormatError(
                f"pole parameter b = {self.b} has |b| = {abs(self.b):.6g} >= 1; "
                "symbols must be analytic past the closed disk"
            )
        if not isinstance(self.m, (int, np.integer)) or not 1 <= int(self.m) <= MAX_MULTIPLICITY:
            raise SymbolFormatError(
                f"pole multiplicity must be an integer in 1..{MAX_MULTIPLICITY}, got {self.m!r}"
            )
        object.__setattr__(self, "m", int(self.m))


@dataclass(frozen=True)
class RationalSymbol:
    """Polynomial part plus finitely many pole terms."""

    poly: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.complex128))
    poles: tuple[PoleTerm, ...] = ()

    def __post_init__(self):
        p = _frozen(self.poly)
        if p.ndim != 1:
            raise SymbolFormatError("polynomial part must be a 1-D coefficient list")
        if not np.all(np.isfinite(p.real)) or not np.all(np.isfinite(p.imag)):
            raise SymbolFormatError("polynomial coefficients must be finite")
        object.__setattr__(self, "poly", p)
        object.__setattr__(self, "poles", tuple(self.poles))


def _binomial_weights(n: np.ndarray, m: int) -> np.ndarray:
    """C(n + m - 1, m - 1) for m = 1..4, exact in double precision at desk scale."""
    if m == 1:
        return np.ones_like(n, dtype=np.float64)
    if m == 2:
        return (n + 1).astype(np.float64)
    if m == 3:
        return (n + 1) * (n + 2) / 2.0
    return (n + 1) * (n + 2) * (n + 3) / 6.0


def _conj_powers(b: complex, order: int) -> np.ndarray:
    """conj(b)^n for n = 0 .. order-1 by one running product.

    For n < 1023 and the dyadic b of the tests this stays within 3.6e-15
    relative of the exact powers, where numpy's complex power (libm cpow
    from n = 100 on) is off by up to 3.5e-13.
    """
    p = np.full(order, np.conj(b))
    p[0] = 1.0
    return np.cumprod(p)


def fourier_coefficients(sym: RationalSymbol, order: int) -> np.ndarray:
    """Exact Taylor coefficients u_hat(0) .. u_hat(order-1).

    Coefficients that overflow are refused by _as_coeffs as non-finite,
    so the overflow itself raises no numpy warning.
    """
    n = np.arange(order)
    out = np.zeros(order, dtype=np.complex128)
    k = min(order, sym.poly.size)
    out[:k] = sym.poly[:k]
    with np.errstate(over="ignore", invalid="ignore"):
        for term in sym.poles:
            powers = _conj_powers(term.b, order)
            if term.m == 1:
                out += term.c * powers
            else:
                out += term.c * _binomial_weights(n, term.m) * powers
    return _as_coeffs(out)


def evaluate_symbol(sym: RationalSymbol, z) -> np.ndarray | complex:
    """Evaluate the rational symbol on |z| <= 1 in closed form."""
    zs = np.asarray(z, dtype=np.complex128)
    acc = _horner(sym.poly, zs)
    for term in sym.poles:
        acc = acc + term.c / (1 - np.conj(term.b) * zs) ** term.m
    return complex(acc) if acc.ndim == 0 else acc


def tail_bound(sym: RationalSymbol, order: int) -> float:
    """Upper bound on the l2 norm of the coefficients u_hat(n), n >= order.

    Poles of multiplicity one use the exact geometric tail
    |c| |b|^order / sqrt(1 - |b|^2); higher multiplicities use a monotone
    ratio majorant.  The polynomial part contributes its exact leftover norm.
    """
    total = 0.0
    if sym.poly.size > order:
        total += float(np.linalg.norm(sym.poly[order:]))
    for term in sym.poles:
        total += _pole_tail(abs(term.c), abs(term.b), term.m, order)
    return total


def _pole_tail(c: float, b: float, m: int, start: int) -> float:
    if b == 0.0:
        return 0.0 if start >= m else c * float(_binomial_weights(np.array([0]), m)[0])
    if m == 1:
        return c * b**start / np.sqrt(1 - b * b)

    def term(n: int) -> float:
        return float(_binomial_weights(np.array([n]), m)[0]) * b**n

    def ratio_near_one(n: int) -> bool:
        return (n + m) / (n + 1) * b >= 1.0 - 1e-12

    # the term ratio falls with n, so a ratio still near 1 after 100 000
    # steps is known before the loop: give up with inf at once
    if ratio_near_one(start + 100_000):
        return float("inf")
    # the sum is taken without c, so a large residue cannot overflow its squares
    acc = 0.0
    n = start
    while ratio_near_one(n):
        acc += term(n) ** 2
        n += 1
    rho = (n + m) / (n + 1) * b
    acc += term(n) ** 2 / (1 - rho * rho)
    return c * float(np.sqrt(acc))


def kronecker_rank_bound(sym: RationalSymbol) -> int:
    """Finite-rank bound for the Hankel matrix of the symbol.

    A nonzero polynomial of degree D contributes D + 1, each pole its
    multiplicity.
    """
    nz = np.flatnonzero(sym.poly)
    poly_part = int(nz[-1] + 1) if nz.size else 0
    return poly_part + sum(t.m for t in sym.poles)


# ---------------------------------------------------------------------------
# JSON interchange


def _is_real_number(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not numbers here.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(value, where: str) -> complex:
    if _is_real_number(value):
        z = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real_number, value)):
        z = complex(value[0], value[1])
    else:
        raise SymbolFormatError(f"{where}: expected [re, im], got {value!r}")
    if not np.isfinite(z):
        raise SymbolFormatError(f"{where}: expected finite [re, im], got {value!r}")
    return z


def parse_symbol(doc: dict) -> RationalSymbol:
    """Parse the JSON symbol document {"poly": [[re, im], ...], "poles": [...]}."""
    if not isinstance(doc, dict):
        raise SymbolFormatError("symbol document must be a JSON object")
    unknown = set(doc) - {"poly", "poles"}
    if unknown:
        raise SymbolFormatError(f"unknown symbol fields: {sorted(unknown)}")
    poly_raw = doc.get("poly", [])
    if not isinstance(poly_raw, list):
        raise SymbolFormatError("'poly' must be a list of [re, im] pairs")
    poly = [_parse_complex(v, f"poly[{i}]") for i, v in enumerate(poly_raw)] or [0.0]
    poles = []
    poles_raw = doc.get("poles", [])
    if not isinstance(poles_raw, list):
        raise SymbolFormatError("'poles' must be a list of objects")
    for i, entry in enumerate(poles_raw):
        if not isinstance(entry, dict) or set(entry) - {"b", "m", "c"}:
            raise SymbolFormatError(f"poles[{i}]: expected an object with fields b, m, c")
        b = _parse_complex(entry.get("b"), f"poles[{i}].b")
        c = _parse_complex(entry.get("c", 1.0), f"poles[{i}].c")
        m = entry.get("m", 1)
        if not isinstance(m, int) or isinstance(m, bool):
            raise SymbolFormatError(f"poles[{i}].m: expected an integer, got {m!r}")
        if not abs(b) < 1:
            raise SymbolFormatError(
                f"poles[{i}].b = [{b.real}, {b.imag}] has |b| = {abs(b):.6g} >= 1"
            )
        poles.append(PoleTerm(b=b, m=m, c=c))
    return RationalSymbol(poly=np.asarray(poly, dtype=np.complex128), poles=tuple(poles))


def symbol_to_dict(sym: RationalSymbol) -> dict:
    return {
        "poly": [[float(v.real), float(v.imag)] for v in sym.poly],
        "poles": [
            {
                "b": [float(t.b.real), float(t.b.imag)],
                "m": t.m,
                "c": [float(t.c.real), float(t.c.imag)],
            }
            for t in sym.poles
        ],
    }
