"""Exact singular values of a rational Hankel operator, and outcome classes.

For u = sum_k c_k / (1 - conj(b_k) z)^{m_k} the Hankel matrix is
Gamma = W M W^T, where the columns of W are the Taylor coefficients of the
pole functions (1 - conj(b) z)^{-j}, j <= m, and M is block diagonal with one
m x m block c * C_m per pole term.  C_m couples the pole functions through
the binomial identity

    C(n + l + m - 1, m - 1) = sum_{i, j} C_m[i, j] C(n + i, i) C(l + j, j),

which holds for all n, l once it holds on 0 <= n, l < m, because both sides
are polynomials of degree m - 1 in each index.  With W = QR the operator is
Q (R M R^T) Q^T, and Q has orthonormal columns, so its singular values are
those of the r x r matrix R M R^T.  W is truncated at the first power of two
past which every column stays below 1e-20 (at most L = 2^16 coefficients,
which covers |b| <= 0.99), so the answer does not depend on the package's
truncation order N.

This module does not import the package: it is the independent reference
the benchmark checks reports against.
"""

from __future__ import annotations

from math import comb

import numpy as np

REFERENCE_LENGTH = 1 << 16
DECAYED = 1e-20
RANK_FLOOR = 1e-10  # exact values below RANK_FLOOR * s_max are the kernel

OUTCOMES = ("correct", "flagged", "silently_wrong", "error")


def _coupling(m: int) -> np.ndarray:
    a = np.array([[comb(n + i, i) for i in range(m)] for n in range(m)], dtype=float)
    g = np.array([[comb(n + l + m - 1, m - 1) for l in range(m)] for n in range(m)], dtype=float)
    a_inv = np.linalg.inv(a)
    return a_inv @ g @ a_inv.T


def _length(poles: list[tuple[complex, int, complex]]) -> int:
    # C(n + m - 1, m - 1) |b|^n rises from 1 and then decays, so the first
    # length at which it is below DECAYED is past its peak.
    length = 64
    while length < REFERENCE_LENGTH and any(
        comb(length + m - 1, m - 1) * abs(b) ** length > DECAYED for b, m, _ in poles
    ):
        length *= 2
    return length


def exact_singular_values(doc: dict) -> np.ndarray:
    """Descending nonzero singular values of the Hankel operator of a symbol document."""
    if any(complex(*v) != 0 for v in doc.get("poly", [])):
        raise ValueError("the reference covers pole terms only")
    poles = [
        (complex(*p["b"]), int(p.get("m", 1)), complex(*p.get("c", [1.0, 0.0])))
        for p in doc["poles"]
    ]
    length = _length(poles)
    n = np.arange(length, dtype=float)
    cols, blocks = [], []
    for b, m, c in poles:
        power = np.power(np.conj(b), n) if b != 0 else (n == 0).astype(complex)
        weight = np.ones(length)
        for j in range(m):
            if j:
                weight = weight * (n + j) / j  # C(n + j, j)
            cols.append(weight * power)
        blocks.append(c * _coupling(m))
    w = np.column_stack(cols)
    r = np.linalg.qr(w, mode="r")
    mid = np.zeros((w.shape[1], w.shape[1]), dtype=complex)
    k = 0
    for blk in blocks:
        mid[k : k + blk.shape[0], k : k + blk.shape[0]] = blk
        k += blk.shape[0]
    s = np.linalg.svd(r @ mid @ r.T, compute_uv=False)
    return s[s > RANK_FLOOR * s[0]] if s.size and s[0] > 0 else s[:0]


def _matches(reported: list[float], exact: np.ndarray, atol: float) -> bool:
    got = np.sort(np.asarray(reported, dtype=float))[::-1]
    return got.size == exact.size and bool(np.all(np.abs(got - exact) <= atol))


def sv_rel_err(report: dict, exact: np.ndarray) -> float:
    """Largest error of the reported block values against the exact ones, relative to s_max."""
    got = np.sort([b["s"] for b in report["blocks"] for _ in range(b["multiplicity"])])[::-1]
    k = min(got.size, exact.size)
    if k == 0:
        return 0.0
    return float(np.max(np.abs(got[:k] - exact[:k])) / exact[0])


def classify_analysis(report: dict, exit_code: int, exact: np.ndarray) -> str:
    """Outcome of one analyze operation.

    flagged: exit code 2 or "pass": false.  silently_wrong: exit 0, but a
    reported value (a block value counted with its multiplicity, or an entry
    of "singular_values") is off by more than verify_tol * s_max, or an exact
    value above RANK_FLOOR * s_max is missing or surplus.
    """
    if exit_code != 0 or not report["pass"]:
        return "flagged"
    atol = report["config"]["verify_tol"] * (exact[0] if exact.size else 0.0)
    blocks = [b["s"] for b in report["blocks"] for _ in range(b["multiplicity"])]
    if _matches(blocks, exact, atol) and _matches(report["singular_values"], exact, atol):
        return "correct"
    return "silently_wrong"
