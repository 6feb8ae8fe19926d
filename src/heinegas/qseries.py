"""Minimal q-series helpers: finite and infinite q-Pochhammer symbols.

Only what the one-dimensional count-law oracle needs:

    (z; q)_k   = prod_{i=0}^{k-1} (1 - z q^i)
    (z; q)_inf = prod_{i>=0}   (1 - z q^i)

and the resulting closed-form pmf

    P(X = a) = q^{a(a-1)/2} theta^a / ((q; q)_a * (-theta; q)_inf).

Nothing else from q-calculus is provided on purpose.
"""

from __future__ import annotations

import math

__all__ = ["qpochhammer", "qpochhammer_inf", "heine_pmf_1d"]


def qpochhammer(z: float, q: float, k: int) -> float:
    """Finite symbol (z; q)_k. Requires k >= 0; (z; q)_0 = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    acc = 1.0
    zq = float(z)
    for _ in range(k):
        acc *= 1.0 - zq
        zq *= q
    return acc


_TERM_TOL = 1e-17


def qpochhammer_inf(z: float, q: float) -> float:
    """Infinite symbol (z; q)_inf for |q| < 1, truncated when |z q^i| < 1e-17.

    The dropped tail multiplies the result by prod (1 - z q^i) with
    sum |z q^i| < 1e-17/(1-|q|), a relative error below ~1e-16 for the
    parameter ranges used here.
    """
    if not 0.0 <= abs(q) < 1.0:
        raise ValueError("q must satisfy |q| < 1")
    log_acc = 0.0
    zq = float(z)
    while abs(zq) >= _TERM_TOL:
        log_acc += math.log1p(-zq)
        zq *= q
    # fold in the first-order tail correction
    log_acc += math.log1p(-zq / (1.0 - q)) if q != 0 else 0.0
    return math.exp(log_acc)


def heine_pmf_1d(theta: float, q: float, a: int) -> float:
    """Closed-form point mass of the one-dimensional count law.

    P(X = a) = q^{a(a-1)/2} theta^a / ((q; q)_a (-theta; q)_inf).
    """
    if a < 0:
        return 0.0
    log_num = (a * (a - 1) / 2) * math.log(q) + a * math.log(theta)
    denom = qpochhammer(q, q, a) * qpochhammer_inf(-theta, q)
    return math.exp(log_num) / denom
