"""Symmetric-function kernels: divided-difference sums over eigenvalue
gaps, the bordered-determinant identity, and the collision limit.

The basic object is f(rho) = sum_i k_i(rho_i) / prod_{j != i}(rho_i - rho_j)
on strictly increasing tuples.  It equals a quotient of a Vandermonde
matrix bordered with the k-values by the plain Vandermonde determinant,
annihilates polynomials of degree <= ell - 2, and for a single smooth k
tends to k^(ell-1)(x) / (ell-1)! as the tuple collapses to x.
"""

from __future__ import annotations

import math

import numpy as np

from .jets import Jet

__all__ = [
    "VandermondeError", "sum_over_delta", "det_quotient",
    "collision_limit", "collision_limit_numeric", "corner_vanishes",
    "locate_window_endpoint",
]

GAP_THRESHOLD = 1e-8  # relative smallest admissible eigenvalue gap
CORNER_SCALES = (1e-3, 1e-5)  # tuple sizes of the corner decay estimate


class VandermondeError(ValueError):
    pass


def _check_tuple(rho):
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size < 2:
        raise VandermondeError("need a 1-d tuple of length >= 2")
    scale = 1.0 + np.max(np.abs(rho))
    gaps = np.diff(np.sort(rho))
    if np.min(gaps) < GAP_THRESHOLD * scale:
        raise VandermondeError(
            f"eigenvalue gap {np.min(gaps):.3e} below threshold")
    return rho


def sum_over_delta(ks, rho):
    """sum_i k_i(rho_i) / prod_{j != i} (rho_i - rho_j).

    ``ks`` is either one callable (used for every slot) or a list of
    callables, one per slot.
    """
    rho = _check_tuple(rho)
    ell = rho.size
    if callable(ks):
        ks = [ks] * ell
    if len(ks) != ell:
        raise VandermondeError("one function per tuple entry required")
    total = 0.0
    for i in range(ell):
        denom = np.prod([rho[i] - rho[j] for j in range(ell) if j != i])
        total += ks[i](rho[i]) / denom
    return float(total)


def det_quotient(ks, rho):
    """The same functional as a quotient of determinants: a Vandermonde
    block bordered by the k-values over the full Vandermonde."""
    rho = _check_tuple(rho)
    ell = rho.size
    if callable(ks):
        ks = [ks] * ell
    num = np.vander(rho, ell, increasing=True).T.astype(float)
    num[-1] = [ks[i](rho[i]) for i in range(ell)]
    den = np.vander(rho, ell, increasing=True).T.astype(float)
    return float(np.linalg.det(num) / np.linalg.det(den))


def collision_limit(k, x, ell):
    """k^(ell-1)(x) / (ell-1)! by jet differentiation (ell <= 4)."""
    if ell > 4:
        raise VandermondeError("collision_limit supports ell <= 4")
    if ell == 1:
        return float(np.asarray(k(x)))
    t = Jet.seed(0, np.array([float(x)]), 1, ell - 1)
    f = k(t)
    coeff = f.c[ell - 1].reshape(-1)[0]
    return float(coeff) / math.factorial(ell - 1)


def collision_limit_numeric(k, x, ell):
    """Cross-check: sum_over_delta on shrinking symmetric tuples."""
    vals = []
    for s in (1e-2, 5e-3, 2.5e-3):
        offsets = np.linspace(-1.0, 1.0, ell)
        vals.append(sum_over_delta(k, x + s * offsets))
    return np.asarray(vals)


def corner_vanishes(profile, corner, ell):
    """Does f(rho) -> 0 as the tuple collapses into the corner 0 or 1?

    Evaluates |f| on tuples corner +/- s * pattern for shrinking s and
    estimates the decay exponent p in |f| ~ s^p; vanishing means p above
    the (small, positive) cut 0.02.  The pattern stays inside (0, 1).
    """
    pattern = np.arange(1, ell + 1, dtype=float)
    vals = []
    for s in CORNER_SCALES:
        if corner == 0.0:
            rho = s * pattern
        else:
            rho = 1.0 - s * pattern[::-1]
        if ell == 1:
            vals.append(abs(float(np.asarray(profile(rho[0])))))
        else:
            vals.append(abs(sum_over_delta(profile, rho)))
    vals = np.asarray(vals)
    if vals[-1] < 1e-300:
        return True
    p = (np.log(vals[0] / vals[-1])
         / np.log(CORNER_SCALES[-1] / CORNER_SCALES[0]))
    return bool(-p > 0.02)


def locate_window_endpoint(make_profile, corner, ell, lo, hi, steps=8):
    """Bisection on the corner-vanishing criterion over the parameter C.

    ``make_profile(C)`` returns the eigenvalue profile; the bracket
    [lo, hi] must straddle the behavior flip.  Returns the located
    endpoint to within (hi - lo) / 2^steps.
    """
    f_lo = corner_vanishes(make_profile(lo), corner, ell)
    f_hi = corner_vanishes(make_profile(hi), corner, ell)
    if f_lo == f_hi:
        raise VandermondeError("bracket does not straddle the endpoint")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if corner_vanishes(make_profile(mid), corner, ell) == f_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
