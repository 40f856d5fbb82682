"""Constructors for the explicit local normal forms.

Two layers:

* quotient-level compatible pairs ``(h, L)`` on a real chart ``U``: block
  diagonal in separating coordinates, one block per non-constant eigenvalue.
  Real blocks carry ``eps * Delta_i dx_i^2`` with a polynomial eigenvalue
  ``rho_i(x_i)``; complex-conjugate pairs carry the holomorphic version
  ``-(1/4)(Delta_i dz_i^2 + c.c.)``; eigenvalue-coordinate blocks carry
  ``Delta_i / F_i drho_i^2`` for a profile ``F_i``; Jordan blocks of size
  2 and 3 carry the nilpotent normal forms driven by a function F(rho).
  Each block class writes its own slices of h, L and the projective
  field v; the passes only loop over the blocks.  One pass seeds each
  block once and builds the roots, mu, h and each block's Delta_i,
  Delta_i' and Delta_i''/2: the elementary symmetric functions of the
  differences rho_i - rho_j, from the ``esp_jets`` that gives mu.  L is
  added after that pass, so the metric of a Kahler chart is built
  without it.

* Kahler charts on ``V x U x S`` built from a quotient pair plus flat
  constant-eigenvalue factors: the fibered metric
  ``sum H_ij theta_i theta_j + h + g_c(chi_L(A_c) . , .)`` with
  ``theta_i = dt_i + alpha_i``, and the hermitian endomorphism acting by
  ``A K_i = mu_i K_1 - K_{i+1}`` on the Killing directions.  Two
  independent construction routes are provided: the 'jacobian' route
  assembles the Killing block from the Jacobi matrix P of the symmetric
  functions mu, the 'explicit' route uses the closed component formulas
  (Gram matrix H_ij, coframe action of J), of which each liftable block
  writes its Gram term, its d mu column and its coframe rows of J.  The
  two must agree and the tests hold them to that.

Every field is assembled by block slices: ``_place`` preallocates one
coefficient array per order and writes each block of the normal form into
its slice, with the dtype of the blocks placed.  The blocks are the
Killing (t) block, one block per eigenvalue block of U and the flat
constant (y) block, coupled only through the coframe; a field's y columns
are its t columns carried by alpha, one ``jet_einsum`` each, and the
constant factors are order-0 slices.

Mobility-two charts have a vector field ``v`` (``v_field``) with
``L_v A = A(Id - A)`` and ``L_v g = -gA - (sum rho_i + C) g``: the leaf
term ``sum rho_i (1 - rho_i) d/drho_i`` plus a linear map of the
coordinates, written in closed form (``fit_mobility_field``): it takes
``t_i`` to ``-(i + 1 + C) t_i - i t_(i-1)`` and a flat coordinate ``y`` of
eigenvalue 0 or 1 to ``-(C + ell) y / 2`` or ``-(C + 1) y / 2``.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .jets import (
    Jet, contract, jstack, jet_det, jet_einsum, jet_inv, jet_matmul, jet_trace,
    jet_transpose, polyval, tensor_partial,
)
from .geometry import (
    Box, christoffel, gradient, metric_inverse, riemann,
)
from .ode import OdeError, integrate

__all__ = [
    "Real1D", "Complex2D", "RealRho", "Jordan2", "Jordan3",
    "PowerProfile", "CompatiblePairSpec", "ConstantBlock",
    "BuilderError", "QuotientPair", "KahlerChart", "ChartFields",
    "ProjectiveMobilityChart",
    "build_quotient_pair", "lift_pair", "build_main_example",
    "build_mobility2", "build_mobility2_projective", "mobility_spec",
    "mobility_rhs", "mobility_field", "solve_jordan_odes",
    "JordanOdeSolution", "jordan_pair_spec", "esp_jets",
    "complex_char_poly", "shift_endo",
]

EIGEN_GAP = 1e-6  # samples with closer eigenvalues count as non-regular
# the least distance of two eigenvalue ranges, and of F + x from zero, on
# a spec's window
RANGE_MARGIN = 0.01
ROOT_SAMPLES = 400  # values per root in the eigenvalue-range checks
Y_WINDOW = (-0.8, 0.8)  # each flat constant-factor coordinate's range
# the bytes of per-sample work that one block of samples holds: a run's
# order-2 fields (``cli.Run.check``) and the stack of matrix powers of the
# characteristic polynomial (124 samples at dim 6 with A of order 2), so
# a large batch never holds either whole
BLOCK_BYTES = 1_500_000


def _sample_blocks(n, sample_bytes):
    """Slices of n samples, each of the rows that ``BLOCK_BYTES`` holds at
    ``sample_bytes`` a sample (at least one)."""
    rows = max(1, BLOCK_BYTES // sample_bytes)
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


class BuilderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# eigenvalue profiles and block specs
# ---------------------------------------------------------------------------

class PowerProfile(NamedTuple):
    """F(t) = a (1-t)^(-C) t^expo on (0, 1)."""

    a: float
    C: float
    expo: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.a * (1.0 - t) ** (-self.C) * t ** self.expo

    def jet(self, t: Jet) -> Jet:
        return ((1.0 - t) ** (-self.C)) * (t ** self.expo) * self.a


class _Block:
    """What one eigenvalue block writes into the normal form: ``seed``
    returns its distinct roots (its own first) and the extra jets its
    slices read; each slice method reads the seeded ``_Row``.  The
    defaults are those of one real root of multiplicity one on one
    coordinate."""

    ncoord = 1
    mults = (1,)          # algebraic multiplicity of each distinct root

    def check_window(self):
        """Raise ``BuilderError`` if the block degenerates on its window."""

    def check_lift(self):
        """Raise ``BuilderError`` if the block has no Kahler lift."""

    def own(self, jets):
        """Real jets for a real root, complex-typed next to a complex pair."""
        return [j.real for j in jets]

    def L_slices(self, row):
        return [((row.off + i, row.off + i), row.rho)
                for i in range(self.ncoord)]

    def leaf(self, row):
        """The leaf term r (1 - r) d/dr on the last (eigenvalue) coordinate."""
        return ((row.off + self.ncoord - 1,), row.rho * (1.0 - row.rho))

    def gram(self, row, muh, iu):
        """The block's terms muh_i muh_j q of H on the upper triangle iu."""
        q = self.gram_weight(row)
        return jstack([muh[i] * muh[j] * q for i, j in zip(*iu)])


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _check_drho(b, on_window):
    """Refuse the lift of a polynomial block whose rho' has a zero on its
    closed window (a constant rho has one everywhere)."""
    drho = _derivative(b.rho)
    if not np.any(drho) or np.any(on_window(np.roots(drho[::-1]))):
        raise BuilderError(
            f"rho' of a {type(b).__name__} block vanishes on its window "
            f"{b.window}, so its lift is degenerate")


def _re_im_columns(cs):
    """The real columns (2 Re c, -2 Im c) of complex entries c."""
    return jstack([[2.0 * c.real, -2.0 * c.imag] for c in cs])


class Real1D(_Block):
    """One real non-constant eigenvalue rho(x) on its own coordinate:
    h = eps Delta dx^2."""

    def __init__(self, eps, rho, window):
        if eps == 0:
            raise BuilderError("a real1d block needs eps != 0")
        self.eps = eps
        self.rho = rho        # polynomial coefficients, lowest degree first
        self.window = window  # (lo, hi) for the coordinate

    def root_values(self):
        x = np.linspace(*self.window, ROOT_SAMPLES)
        return [np.polyval(self.rho[::-1], x)]

    def seed(self, seed, off):
        x = seed(off)
        return [polyval(self.rho, x)], polyval(_derivative(self.rho), x)

    def check_lift(self):
        # the explicit Gram weight eps rho'^2 / Delta and the Jacobian
        # route's rho'^2 / (eps Delta) agree only when eps^2 = 1
        if abs(self.eps) != 1:
            raise BuilderError(f"a real1d block of a lift needs eps = 1 or "
                               f"-1, got eps = {self.eps}")
        lo, hi = self.window
        # a double root of rho' may come back split off the axis
        _check_drho(self, lambda z: (
            (np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z)))
            & (z.real >= lo) & (z.real <= hi)))

    def h_slices(self, row):
        return [((row.off, row.off), self.eps * row.delta[0])]

    def gram_weight(self, row):
        return self.eps * row.extra * row.extra / row.delta[0]

    def dmu_column(self, row, muh):
        return ((slice(None), row.off), jstack([m * row.extra for m in muh]))

    def J_rows(self, row, muh, ell):
        """The block's u row of J and its column of the t rows."""
        r, dr, off = row.rho, row.extra, row.off
        col = [(-1.0) ** i * self.eps * (r ** (ell - i)) / dr
               for i in range(1, ell + 1)]
        base = -(self.eps * dr) / row.delta[0]
        return (((off, slice(None)), jstack([base * m for m in muh])),
                ((slice(0, ell), ell + off), jstack([-c for c in col])))


class Complex2D(_Block):
    """A complex-conjugate eigenvalue pair rho(z), z = x + i y:
    h = -(1/4)(Delta dz^2 + c.c.)."""

    ncoord = 2
    mults = (1, 1)

    def __init__(self, rho, window):
        self.rho = rho        # polynomial coefficients of z, lowest first
        self.window = window  # ((xlo, xhi), (ylo, yhi)); keep y away from 0

    def root_values(self):
        (xl, xh), (yl, yh) = self.window
        k = int(np.sqrt(ROOT_SAMPLES)) + 1
        X, Y = np.meshgrid(np.linspace(xl, xh, k), np.linspace(yl, yh, k))
        vals = np.polyval(self.rho[::-1], (X + 1j * Y).ravel())
        return [vals, np.conj(vals)]

    def seed(self, seed, off):
        z = seed(off) + 1j * seed(off + 1)
        r = polyval(self.rho, z)
        return [r, r.conj()], polyval(_derivative(self.rho), z)

    def check_lift(self):
        (xl, xh), (yl, yh) = self.window
        _check_drho(self, lambda z: (z.real >= xl) & (z.real <= xh)
                    & (z.imag >= yl) & (z.imag <= yh))

    def own(self, jets):
        return jets

    def h_slices(self, row):
        d0, blk = row.delta[0], (slice(row.off, row.off + 2),) * 2
        return [(blk, jstack([[(-0.5) * d0.real, 0.5 * d0.imag],
                              [0.5 * d0.imag, 0.5 * d0.real]]))]

    def L_slices(self, row):
        a, b = row.rho.real, row.rho.imag
        return [((slice(row.off, row.off + 2),) * 2,
                 jstack([[a, -b], [b, a]]))]

    def gram_weight(self, row):
        return row.extra * row.extra / row.delta[0]

    def gram(self, row, muh, iu):
        t = super().gram(row, muh, iu)
        return ((-4.0) * (t + t.conj())).real

    def dmu_column(self, row, muh):
        return ((slice(None), slice(row.off, row.off + 2)),
                _re_im_columns([m * row.extra for m in muh]))

    def J_rows(self, row, muh, ell):
        r, dr, off = row.rho, row.extra, row.off
        col = [(-1.0) ** i * 0.25 * (r ** (ell - i)) / dr
               for i in range(1, ell + 1)]
        base = 4.0 * dr / row.delta[0]
        coef = [base * m for m in muh]
        return (((slice(off, off + 2), slice(None)),
                 jstack([[c.real for c in coef], [c.imag for c in coef]])),
                ((slice(0, ell), slice(ell + off, ell + off + 2)),
                 _re_im_columns(col)))


class RealRho(_Block):
    """A real eigenvalue used directly as the coordinate, with profile F:
    h = Delta / F drho^2."""

    eps = 1               # the sign that the shared ``J_rows`` reads

    def __init__(self, F, window):
        self.F = F            # a PowerProfile
        self.window = window  # (lo, hi) for rho itself

    def root_values(self):
        return [np.linspace(*self.window, ROOT_SAMPLES)]

    def seed(self, seed, off):
        r = seed(off)
        return [r], self.F.jet(r)

    def h_slices(self, row):
        return [((row.off, row.off), row.delta[0] / row.extra)]

    def v_slices(self, row):
        return [self.leaf(row)]

    def gram_weight(self, row):
        return row.extra / row.delta[0]

    def dmu_column(self, row, muh):
        return ((slice(None), row.off), jstack(muh))

    J_rows = Real1D.J_rows


class _Nilpotent(_Block):
    """A k x k nilpotent block in coordinates (x_1, .., x_(k-1), rho), one
    root of multiplicity k; needs F + (k-1) x_(k-1) != 0 and has no lift.
    F is a ``JordanOdeSolution``, and the window holds one (lo, hi) pair a
    coordinate."""

    __init__ = RealRho.__init__

    def root_values(self):
        return [np.linspace(*self.window[-1], ROOT_SAMPLES)]

    def check_window(self):
        x = np.linspace(*self.window[-2], 64)
        r = np.linspace(*self.window[-1], 64)
        fx = self.F(r)[None, :] + (self.ncoord - 1) * x[:, None]
        if fx.min() <= RANGE_MARGIN and fx.max() >= -RANGE_MARGIN:
            raise BuilderError(f"{self.fx_name} vanishes inside the window")

    def check_lift(self):
        raise BuilderError("Jordan blocks do not lift to a Kahler chart")


class Jordan2(_Nilpotent):
    """2x2 nilpotent block in coordinates (x, rho); needs F + x != 0."""

    ncoord = 2
    mults = (2,)
    fx_name = "F + x"

    def seed(self, seed, off):
        r, x = seed(off + 1), seed(off)
        return [r], (x, self.F.jet(r) + x)

    def h_slices(self, row):
        (_, fpx), (d0, d1, _), off = row.extra, row.delta, row.off
        # h = h1(Delta_1(L_1) . , .) in coordinates (x, rho)
        fd = fpx * d0
        return [((off, off + 1), fd), ((off + 1, off), fd),
                ((off + 1, off + 1), d1 * fpx * fpx)]

    def L_slices(self, row):
        return super().L_slices(row) + [((row.off, row.off + 1),
                                         row.extra[1])]

    def v_slices(self, row):
        sol, r, x = self.F, row.rho, row.extra[0]
        G = 0.5 * ((sol.n2 - 1.0) * r - 1.0 - sol.C - sol.n2) * x \
            + sol.g1_jet(r)
        return [((row.off,), G), self.leaf(row)]


class Jordan3(_Nilpotent):
    """3x3 nilpotent block in coordinates (x1, x2, rho); F + 2 x2 != 0."""

    ncoord = 3
    mults = (3,)
    fx_name = "F + 2 x2"

    def seed(self, seed, off):
        r, x1, x2 = seed(off + 2), seed(off), seed(off + 1)
        return [r], (x1, x2, self.F.jet(r) + 2.0 * x2)

    def h_slices(self, row):
        (x1, _, f2x), (d0, d1, d2), off = row.extra, row.delta, row.off
        n, dim, order = x1.c[0].shape[0], x1.dim, x1.order
        h1 = _place(n, dim, order, (3, 3), [
            ((0, 2), f2x), ((2, 0), f2x), ((1, 1), 1.0),
            ((1, 2), x1), ((2, 1), x1), ((2, 2), x1 * x1)])
        # Delta_1(L_1) = d0 + d1 N + d2 N^2 with N nilpotent
        D = _place(n, dim, order, (3, 3), [
            ((0, 0), d0), ((1, 1), d0), ((2, 2), d0), ((0, 1), d1),
            ((0, 2), d1 * x1 + d2 * f2x), ((1, 2), d1 * f2x)])
        return [((slice(off, off + 3),) * 2,
                 jet_einsum("nki,nkj->nij", D, h1))]

    def L_slices(self, row):
        (x1, _, f2x), off = row.extra, row.off
        return super().L_slices(row) + [
            ((off, off + 1), 1.0), ((off, off + 2), x1),
            ((off + 1, off + 2), f2x)]

    def v_slices(self, row):
        sol, r, (x1, x2, _) = self.F, row.rho, row.extra
        G = (-0.5 * (sol.C + sol.n2 + 2.0 - sol.n2 * r) * x1
             + 0.5 * sol.n2 * x2 + sol.g1_jet(r))
        H = (-0.5 * (sol.C + sol.n2 + (4.0 - sol.n2) * r) * x2
             + sol.h1_jet(r))
        return [((row.off,), G), ((row.off + 1,), H), self.leaf(row)]


class CompatiblePairSpec(NamedTuple):
    blocks: tuple
    name: str = "pair"

    def window(self) -> Box:
        """The box of the block windows, one (lo, hi) per coordinate."""
        return Box(*np.concatenate([np.reshape(b.window, (b.ncoord, 2))
                                    for b in self.blocks]).T.copy())


class ConstantBlock:
    """Flat Kahler factor carrying A = c * Id on ``dim`` real dimensions
    (even), with one sign per complex line in ``signature`` (default +1)."""

    def __init__(self, c, dim, signature=()):
        if dim % 2:
            raise BuilderError("constant block dimension must be even")
        sig = signature or (1,) * (dim // 2)
        if len(sig) != dim // 2:
            raise BuilderError("signature length must be dim/2")
        self.c, self.dim, self.signature = c, dim, tuple(sig)


def _const_matrices(cb):
    """g, omega, J and A of the flat factors, block diagonal over the
    complex lines of all blocks, and A's eigenvalues.  A line of sign s
    carries g = s Id, omega = s [[0, 1], [-1, 0]] and J = [[0, -1],
    [1, 0]]; A is c Id on its block's lines."""
    signs = [s for b in cb for s in b.signature]
    eigs = np.array([b.c for b in cb for _ in range(b.dim)])
    n = 2 * len(signs)
    G, W, JJ = (np.zeros((n, n)) for _ in range(3))
    for i, s in zip(range(0, n, 2), signs):
        G[i, i] = G[i + 1, i + 1] = W[i, i + 1] = s
        W[i + 1, i] = -s
        JJ[i, i + 1], JJ[i + 1, i] = -1.0, 1.0
    return G, W, JJ, np.diag(eigs), eigs


# ---------------------------------------------------------------------------
# symmetric-function helpers
# ---------------------------------------------------------------------------

def esp_jets(vals, dim, order, shape, upto=None):
    """Elementary symmetric polynomials e_0..e_upto of a list of jets with
    batch shape ``shape``.

    Folding in value i gives e_k += v_i e_(k-1) for k = i+1 down to 1, but
    no step multiplies by a constant: e_1 starts as v_0 and gains each
    later value by a sum, and e_(i+1) starts as the product v_i e_i that
    first reaches it.  So n values cost n(n-1)/2 jet products, and the
    values are those of the dense recurrence from e = (1, 0, ..., 0),
    since 0 + x and x * 1 are x (up to the sign of a zero).  e_0, and
    each e_k past the last value, is a constant jet."""
    if upto is None:
        upto = len(vals)
    e = [Jet.const(np.ones(shape), dim, order)]
    for i, v in enumerate(vals):
        if i < upto:
            e.append(v if i == 0 else v * e[i])
        for k in range(min(upto, i), 1, -1):
            e[k] = e[k] + v * e[k - 1]
        if i and upto:
            e[1] = e[1] + v
    e += [Jet.const(np.zeros(shape), dim, order)
          for _ in range(upto + 1 - len(e))]
    return e


def complex_char_poly(A: Jet, J: Jet):
    """Coefficients e_0..e_n of det_C(t Id - A) = sum (-1)^k e_k t^(n-k).

    The complex trace of a J-commuting endomorphism is
    tr_C M = (tr M - i tr(J M)) / 2; Newton's identities turn the power
    sums of A into the (complex jet) coefficients.

    No power of A is formed at A's order.  Each trace but tr A is its
    value plus its gradient, a jet one order below A, by the cyclic
    property of the trace alone (J and A need not commute):
    d tr(A^k) = k tr(A^(k-1) dA) and d tr(J A^k) = tr(dJ A^k) +
    tr(B_k dA), with B_1 = J and B_(k+1) = A B_k + J A^k.  So every
    matrix product runs one order below A, as in ``jet_det``; the
    gradients against dA are one contraction, those against dJ another.
    Each B_k and A^k is written into one stack as it is formed, and only
    the stack's values outlive the two contractions.  The samples are
    taken a block at a time (``BLOCK_BYTES`` of the stack), each block's
    coefficients written to its rows of the output, so the stack and the
    contractions never hold more than one block.
    """
    n, d = A.c[0].shape[0], A.c[0].shape[-1]
    low = max(A.order - 1, 0)
    itemsize = np.result_type(A.c[0], J.c[0]).itemsize
    out = [Jet._of(A.dim, A.order, [
        np.empty((n,) + (A.dim,) * k, complex) for k in range(A.order + 1)])
        for _ in range(d // 2 + 1)]
    for rows in _sample_blocks(
            n, itemsize * d ** 3 * sum(A.dim ** k for k in range(low + 1))):
        for o, e in zip(out, _char_poly_rows(A.rows(rows), J.rows(rows))):
            for oc, c in zip(o.c, e.c):
                oc[rows] = c
    return out


def _char_poly_rows(A: Jet, J: Jet):
    """``complex_char_poly`` of one block of samples."""
    ncx = A.c[0].shape[-1] // 2
    low = max(A.order - 1, 0)
    Al, Jl = A.truncate(low), J.truncate(low)
    # axis 1: B_1..B_ncx, then A^1..A^ncx
    dtype = np.result_type(A.c[0], J.c[0])
    stack = [np.empty(c.shape[:1] + (2 * ncx,) + c.shape[1:], dtype)
             for c in Al.c]

    def put(i, m):
        """Write m to slot i of the stack; the slot, as a jet of views."""
        for s, c in zip(stack, m.c):
            s[:, i] = c
        return Jet._of(A.dim, low, [s[:, i] for s in stack])

    Ak, Bk = put(ncx, Al), put(0, Jl)
    for k in range(1, ncx):
        Bk = put(k, jet_matmul(Al, Bk) + jet_matmul(Jl, Ak))
        Ak = put(ncx + k, jet_matmul(Ak, Al))
    gA = gJ = ()
    if A.order:
        def traces(sl, X):
            """tr(M dX) for each M of the stack slice ``sl``, on axis 1 of
            the coefficients."""
            return jet_einsum("nkij,njia->nka", Jet._of(
                A.dim, low, [s[:, sl] for s in stack]), tensor_partial(X)).c

        # axis 1 of gA: tr(B_k dA), then tr(A^k dA) for k < ncx
        gA = traces(slice(0, 2 * ncx - 1), A)
        gJ = traces(slice(ncx, 2 * ncx), J)
    vals = stack[0]
    del stack, Ak, Bk
    ps = []
    for k in range(1, ncx + 1):
        # p_k = (tr A^k - i tr(J A^k)) / 2, coefficient by coefficient
        Ak = vals[:, ncx + k - 1]
        tr = jet_trace(A).c if k == 1 else [
            np.einsum("nii->n", Ak),
            *(g[:, ncx + k - 2] * float(k) for g in gA)]
        trJ = [np.einsum("nij,nji->n", J.c[0], Ak),
               *(gj[:, k - 1] + ga[:, k - 1] for gj, ga in zip(gJ, gA))]
        ps.append(Jet._of(A.dim, A.order,
                          [(t - 1j * u) * 0.5 for t, u in zip(tr, trJ)]))
    e = [Jet.const(np.ones(A.c[0].shape[0], dtype=complex), A.dim, A.order)]
    for k in range(1, ncx + 1):
        # k e_k = sum_i (-1)^(i-1) e_(k-i) p_i
        acc = None
        for i in range(1, k + 1):
            # e_0 = 1, so its term is the power sum itself
            term = ps[i - 1] if i == k else e[k - i] * ps[i - 1]
            acc = term if acc is None else (
                acc + term if i % 2 else acc - term)
        e.append(acc * (1.0 / k))
    return e


def shift_endo(A: Jet, c0: float) -> Jet:
    """A + c0 * Id, which solves the same compatibility equation; only the
    value changes, the derivative coefficients are A's own."""
    if c0 == 0.0:
        return A
    return A + c0 * np.eye(A.c[0].shape[-1])


def _place(n, dim, order, shape, parts) -> Jet:
    """The tensor jet of batch shape ``(n,) + shape`` that is zero outside
    ``parts``, (index, block) pairs written in order with ``index`` into
    the component axes.  A Jet block fills its index at every order, an
    array block (a constant) at order 0 only.  Each order's dtype is the
    result type of the blocks, as in ``jstack``, so no complex block is
    cast down."""
    coeffs = []
    for k in range(order + 1):
        blocks = [b.c[k] if isinstance(b, Jet) else b for _, b in parts]
        c = np.zeros((n,) + shape + (dim,) * k,
                     dtype=np.result_type(np.float64, *blocks))
        for (idx, b), arr in zip(parts, blocks):
            if k == 0 or isinstance(b, Jet):
                c[(slice(None),) + idx] = arr
        coeffs.append(c)
    return Jet._of(dim, order, coeffs)


# ---------------------------------------------------------------------------
# chart fields and the quantities derived from them
# ---------------------------------------------------------------------------

# frozen, for dataclasses.replace; nothing compares or prints fields
@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class ChartFields:
    """The fields of one chart evaluation and the quantities derived from
    them.

    A Kahler chart sets all but v, with omega one order below the others
    (d omega is the one derivative of it a check reads); a quotient pair
    (h, L) and the projective mobility chart leave omega and J None, and
    ``partner_fields`` sets g, J and A.  Only a Jordan pair sets v, its
    split field; a chart's own field is asked of it (``v_field``).  Each
    derived quantity is formed by its own property on first read and
    lives as long as the object:
    ``ginv``, ``gamma0`` and ``det`` read g alone, ``lam`` reads g, A
    and J, and ``char_poly`` reads A and J.  ``copy.copy`` shares what is
    already cached; ``dataclasses.replace`` makes an edited copy that
    derives everything again.

    Two quantities grow as N d^4.  The stack of matrix powers behind
    ``char_poly`` is formed a block of samples at a time (``BLOCK_BYTES``
    of it), and its coefficients are held whole.  R is never held:
    ``curvature`` forms it at the rows asked for, and a run's block of
    samples bounds those rows.

    One writer fills another property's slot: the Jacobian route of
    ``KahlerChart`` stores the g^-1 it inverted for J as ``ginv``.
    """

    g: Jet
    A: Jet
    omega: Jet | None = None
    J: Jet | None = None
    rhos: list | tuple = ()
    mus: list | tuple = ()
    v: Jet | None = None

    @cached_property
    def ginv(self) -> Jet:
        """g^-1 one order below g, the order Gamma and gradients read."""
        return metric_inverse(self.g.truncate(max(self.g.order - 1, 0)))

    @cached_property
    def gamma0(self) -> Jet:
        """Values of the Levi-Civita symbols Gamma^c_ab as an order-0 jet:
        Gamma of the first-order jet of g, the bytes of the full jet's
        values without its derivatives."""
        return christoffel(self.g.truncate(1), self.ginv.truncate(0))

    @cached_property
    def lam(self) -> Jet:
        """La as a vector jet, one order below A: (1/4) grad tr A when J is
        set, (1/2) grad tr A when J is None (the projective weight)."""
        weight = 0.5 if self.J is None else 0.25
        return gradient(jet_trace(self.A), self.ginv) * weight

    def curvature(self, rows):
        """R^d_cab at the samples ``rows``, from the order-1 Gamma jet of
        those rows of g (cut to order 2) and g^-1; nothing is kept."""
        g = self.g.truncate(min(self.g.order, 2))
        return riemann(christoffel(
            g.rows(rows), self.ginv.truncate(max(g.order - 1, 0)).rows(rows)))

    @cached_property
    def det(self) -> Jet:
        """det g at the order of g."""
        return jet_det(self.g, self.ginv)

    @cached_property
    def char_poly(self) -> list:
        """Complex jets e_0..e_n with det_C(t Id - A) = sum (-1)^k e_k
        t^(n-k); needs J.  ``complex_char_poly`` builds them from the
        power sums' values and gradients, with every matrix product one
        order below A."""
        return complex_char_poly(self.A, self.J)


# ---------------------------------------------------------------------------
# quotient pairs
# ---------------------------------------------------------------------------

class QuotientPair:
    """Compatible pair (h, L) on a product of eigenvalue blocks.

    ``eval`` returns ``ChartFields`` with g = h, A = L and no omega or J;
    ``rhos`` holds one jet per distinct block root and ``mults`` the
    algebraic multiplicity of each."""

    def __init__(self, spec: CompatiblePairSpec):
        self.spec = spec
        self.blocks = spec.blocks
        self.window = spec.window()
        self.dim = sum(b.ncoord for b in self.blocks)
        self.mults = [m for b in self.blocks for m in b.mults]
        self.ell = sum(self.mults)
        offs = np.cumsum([0] + [b.ncoord for b in self.blocks])
        self.offsets = [int(o) for o in offs[:-1]]
        # Jordan specs carry the projective field of the split equations
        self.split = any(isinstance(b, _Nilpotent) for b in self.blocks)
        self.validate()

    def validate(self):
        """Refuse roots whose value sets come closer than ``RANGE_MARGIN``.

        ``root_sets`` keeps the dense value set of each root over its own
        block window.  The blocks separate variables, so pairwise range
        distances decide eigenvalue separation on the whole window exactly
        (up to sampling resolution of the smooth 1-d / 2-d value maps)."""
        self.root_sets = sets = [vals for b in self.blocks
                                 for vals in b.root_values()]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                # 32 rows at a time: the allocator reuses the small
                # temporaries, where a fresh process page-faults through
                # the 3 MB of a whole complex outer difference
                dist = np.min([np.min(np.abs(sets[i][k:k + 32, None]
                                             - sets[j]))
                               for k in range(0, len(sets[i]), 32)])
                if dist < RANGE_MARGIN:
                    raise BuilderError(
                        f"eigenvalue collision (range distance {dist:.2e} "
                        f"< {RANGE_MARGIN:g}) between roots {i} and {j} of "
                        f"spec '{self.spec.name}'")
        for b in self.blocks:
            b.check_window()

    def _parts(self, pts, order, ambient_dim=None, offset=0):
        """One pass over the blocks: seed each block once, then build the
        roots with their multiplicities, mu, each block's Delta jets and h.

        Returns ``(h, rhos, mus, rows)`` with one ``_Row`` per block, which
        ``_L`` and the Kahler lifts read for the block's own root and
        Delta.  ``ambient_dim``/``offset`` embed the quotient
        coordinates in a lift's chart, which puts the Killing coordinates
        first.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        dim = ambient_dim if ambient_dim is not None else self.dim
        seed = lambda i: Jet.seed(offset + i, pts[:, i], dim, order)
        seeded = [b.seed(seed, off) for b, off in zip(self.blocks,
                                                       self.offsets)]
        rhos = [r for roots, _ in seeded for r in roots]
        all_roots = [r for r, m in zip(rhos, self.mults) for _ in range(m)]
        mus = [m.real for m in esp_jets(all_roots, dim, order, (n,))]
        rows = []
        for b, off, ([r, *_], extra) in zip(self.blocks, self.offsets,
                                            seeded):
            # ``is``: every copy of a Jordan root drops out with it
            others = [rr for rr in all_roots if rr is not r]
            rows.append(_Row(b, off, r, extra, others,
                             b.own(_delta_jets(r, others, dim, order))))
        h = _place(n, dim, order, (self.dim, self.dim),
                   [p for row in rows for p in row.block.h_slices(row)])
        return h, rhos, mus, rows

    def _L(self, h, rows) -> Jet:
        """L of the pass that gave ``rows``, at the order of h."""
        return _place(h.c[0].shape[0], h.dim, h.order, (self.dim, self.dim),
                      [p for row in rows for p in row.block.L_slices(row)])

    def eval(self, pts, order=2) -> ChartFields:
        """Jet-valued (h, L) at sample points, as g and A; on a Jordan
        spec v is the projective field of the split equations."""
        h, rhos, mus, rows = self._parts(pts, order)
        v = None
        if self.split:
            v = _place(h.c[0].shape[0], h.dim, order, (self.dim,),
                       [p for row in rows for p in row.block.v_slices(row)])
        return ChartFields(h, self._L(h, rows), rhos=rhos, mus=mus, v=v)


class _Row(NamedTuple):
    """One seeded block of a quotient pass."""

    block: _Block
    off: int        # first quotient coordinate of the block
    rho: Jet        # the block's own root (z's root for a complex block)
    extra: object   # the jets ``block.seed`` returned besides the roots
    others: list    # every other root, with multiplicity
    delta: list     # Delta, Delta' and Delta''/2 at rho, in the block's type


def _delta_jets(r, others, dim, order):
    """Delta = prod_j (r - r_j) over ``others`` and its first two
    derivatives at r, as [Delta, Delta', Delta''/2]: with t = r + s,
    prod_j (t - r_j) = sum_k e_(m-k)(r - r_j) s^k, so these are the
    elementary symmetric functions e_m, e_(m-1), e_(m-2) of the m
    differences."""
    m, shape = len(others), r.c[0].shape
    e = esp_jets([r - rr for rr in others], dim, order, shape)
    return [e[m - k] if k <= m else Jet.const(np.zeros(shape), dim, order)
            for k in range(3)]


def build_quotient_pair(spec: CompatiblePairSpec) -> QuotientPair:
    return QuotientPair(spec)


# ---------------------------------------------------------------------------
# Kahler charts
# ---------------------------------------------------------------------------

def mobility_field(pts, order, M, rho_idx) -> Jet:
    """Jet of v(x) = sum_i x_i (1 - x_i) d/dx_i + M [1, x] at the points.

    The leaf term runs over the eigenvalue coordinates ``rho_idx``; M has
    shape (d, 1 + d), column 0 the constant part.  v is quadratic, so its
    jet is exact: gradient M[:, 1:] plus 1 - 2 rho on the rho diagonal,
    Hessian -2 at (rho, rho, rho), third order zero.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, d = pts.shape
    idx = np.asarray(rho_idx, dtype=int)
    r = pts[:, idx]
    val = M[:, 0] + pts @ M[:, 1:].T
    val[:, idx] += r * (1.0 - r)
    coeffs = [val]
    if order >= 1:
        grad = np.repeat(M[None, :, 1:], n, axis=0)
        grad[:, idx, idx] += 1.0 - 2.0 * r
        coeffs.append(grad)
    if order >= 2:
        hess = np.zeros((n, d, d, d))
        hess[:, idx, idx, idx] = -2.0
        coeffs.append(hess)
    if order >= 3:
        coeffs.append(np.zeros((n,) + (d,) * 4))
    return Jet._of(d, order, coeffs)


class KahlerChart:
    """Kahler structure on coordinates (t_1..t_ell, U, y)."""

    def __init__(self, qp: QuotientPair, cb, route, t_window=(-1.0, 1.0),
                 name=""):
        if route not in ("jacobian", "explicit"):
            raise BuilderError(f"unknown lift route {route!r}: the routes "
                               "are 'jacobian' and 'explicit'")
        for b in qp.blocks:
            b.check_lift()
        self.qp = qp
        self.cb = tuple(cb)
        self.route = route
        self.name = name or f"{qp.spec.name}-lift"
        self.ell = qp.ell
        self.udim = qp.dim
        self.ydim = sum(b.dim for b in self.cb)
        self.dim = self.ell + self.udim + self.ydim
        self.t_sl = slice(0, self.ell)
        self.u_sl = slice(self.ell, self.ell + self.udim)
        self.y_sl = slice(self.ell + self.udim, self.dim)
        (self._gc, self._wc, self._Jc, self._Ac,
         self.ceigs) = _const_matrices(self.cb)
        self.const_eigs = [(b.c, b.dim // 2) for b in self.cb]
        lo = np.concatenate([np.full(self.ell, t_window[0]), qp.window.lo,
                             np.full(self.ydim, Y_WINDOW[0])])
        hi = np.concatenate([np.full(self.ell, t_window[1]), qp.window.hi,
                             np.full(self.ydim, Y_WINDOW[1])])
        self.window = Box(lo, hi)
        self._check_const_separation()
        self.rho_idx = [self.ell + off for b, off in zip(qp.blocks, qp.offsets)
                        if isinstance(b, RealRho)]
        self.v_matrix = None
        self.meta = {}

    def _check_const_separation(self):
        if not self.cb:
            return
        for i, (c, _) in enumerate(self.const_eigs):
            for c2, _ in self.const_eigs[i + 1:]:
                if abs(c - c2) < EIGEN_GAP:
                    raise BuilderError(
                        f"constant eigenvalues {c} and {c2} are closer than "
                        f"{EIGEN_GAP:g}; give them one constant block")
        for vals in self.qp.root_sets:
            for c, _ in self.const_eigs:
                dist = float(np.min(np.abs(vals - c)))
                if dist < RANGE_MARGIN:
                    raise BuilderError(
                        f"constant eigenvalue {c} meets a non-constant "
                        f"eigenvalue range (distance {dist:.2e}) inside "
                        f"the window")

    # -- shared assembly pieces ----------------------------------------

    def _alpha(self, pts, order):
        """Primitive 1-forms of the constant-factor curvature forms.

        alpha_i = (1/2)(-1)^i ((A_c^(ell-i))^T w_c)_pq y^p dy^q, returned
        as the (ell, ydim) matrix jet alpha[i, q]; linear in y, so exact.
        """
        if self.ydim == 0:
            return None
        n, ell, ydim = pts.shape[0], self.ell, self.ydim
        B = np.stack([0.5 * (-1.0) ** i * (
            np.linalg.matrix_power(self._Ac, ell - i).T @ self._wc)
            for i in range(1, ell + 1)])
        coeffs = [np.einsum("np,ipq->niq", pts[:, self.y_sl], B)] + [
            np.zeros((n, ell, ydim) + (self.dim,) * k)
            for k in range(1, order + 1)]
        if order:
            coeffs[1][..., self.y_sl] = B.transpose(0, 2, 1)
        return Jet._of(self.dim, order, coeffs)

    def _chi(self, rhos, order):
        """chi_L(c) of each y coordinate's constant factor c, as the
        (ydim, 1) column jet that weights the rows of g_c and omega_c."""
        if self.ydim == 0:
            return None
        rows = []
        for b in self.cb:
            acc = None
            for r, m in zip(rhos, self.qp.mults):
                f = (b.c - r.truncate(order)) ** m
                acc = f if acc is None else acc * f
            rows += [[acc.real]] * b.dim
        return jstack(rows)

    # -- evaluation ------------------------------------------------------

    def eval(self, pts, order=2) -> ChartFields:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.route == "jacobian":
            return self._eval_jacobian(pts, order)
        return self._eval_explicit(pts, order)

    def metric(self, pts, order=2) -> Jet:
        """The metric alone, equal to ``eval(pts, order).g``: the same
        route parts and block placement, without omega, J or A."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        parts = (self._jacobian_parts if self.route == "jacobian"
                 else self._explicit_parts)
        h, rhos, _, _, _, H = parts(pts, order)
        return self._place_metric(H, h, self._alpha(pts, order),
                                  self._chi(rhos, order))

    def _jacobian_parts(self, pts, order):
        """What g is built from on the Jacobian route: h, and the roots,
        mu and blocks of the quotient pass one order up; the Jacobi matrix
        P of mu_1..mu_ell in the quotient coordinates and the Gram matrix
        H = P h^-1 P^T."""
        if order > 2:
            raise BuilderError("the Jacobian route supports order <= 2 "
                               "(one order is spent on P)")
        ell = self.ell
        h, rhos, mus, rows = self.qp._parts(pts[:, self.u_sl], order + 1,
                                            ambient_dim=self.dim, offset=ell)
        h = h.truncate(order)
        # d mu_a / d u_i: the u columns of the gradient of (mu_1..mu_ell),
        # copied contiguous so the products below get the layout of a jstack
        dmu = tensor_partial(jstack(mus[1:ell + 1]))
        P = Jet._of(self.dim, order, [np.ascontiguousarray(c[:, :, self.u_sl])
                                      for c in dmu.c])
        H = jet_matmul(P, jet_matmul(jet_inv(h), jet_transpose(P)))
        return h, rhos, mus, rows, P, H

    def _eval_jacobian(self, pts, order):
        h, rhos, mus, rows, P, H = self._jacobian_parts(pts, order)
        L = self.qp._L(h, rows)
        T = jet_transpose(jet_matmul(P, jet_matmul(L, jet_inv(P))))
        mus = [m.truncate(order) for m in mus]
        rhos = [r.truncate(order) for r in rhos]
        # omega(x_u, t_i) = d_u mu_i = P, exact at this order from the
        # higher mu
        return self._assemble(pts, order, h, L, rhos, mus, H, T, P)

    def _explicit_parts(self, pts, order):
        """What g is built from on the explicit route: h, the roots, mu and
        blocks of the quotient pass, the symmetric functions mu-hat of each
        block's other roots and the Gram matrix H of the Killing fields."""
        n = pts.shape[0]
        d, ell = self.dim, self.ell
        h, rhos, mus, rows = self.qp._parts(pts[:, self.u_sl], order,
                                            ambient_dim=d, offset=ell)
        muhs = [row.block.own(esp_jets(row.others, d, order, (n,),
                                       upto=max(ell - 1, 0)))
                for row in rows]
        # H_ij sums muh_i muh_j q over the blocks: one upper triangle per
        # block, mirrored
        iu = np.triu_indices(ell)
        terms = [row.block.gram(row, muh, iu)
                 for row, muh in zip(rows, muhs)]
        Hu = sum(terms[1:], terms[0])
        H = _place(n, d, order, (ell, ell), [(iu, Hu), (iu[::-1], Hu)])
        return h, rhos, mus, rows, muhs, H

    def _eval_explicit(self, pts, order):
        n = pts.shape[0]
        d, ell = self.dim, self.ell
        h, rhos, mus, rows, muhs, H = self._explicit_parts(pts, order)
        # A on the Killing directions: A K_i = mu_i K_1 - K_{i+1}
        T = _place(n, d, order, (ell, ell), [
            ((slice(None), slice(None)), -np.eye(ell, k=-1)),
            ((0, slice(None)), jstack(mus[1:ell + 1]))])
        # d_u mu_i without losing jet order: one column per real
        # coordinate of each block
        coframe = list(zip(rows, muhs))
        D = _place(n, d, order, (ell, self.udim),
                   [row.block.dmu_column(row, muh) for row, muh in coframe])
        return self._assemble(pts, order, h, self.qp._L(h, rows), rhos, mus,
                              H, T, D, coframe=coframe)

    def _place_metric(self, H, h, alpha, chi) -> Jet:
        """g = sum H_ij theta_i theta_j + h + g_c(chi_L(A_c) . , .) with
        theta_i = dt_i + alpha_i, block by block: H on (t, t), h on (u, u),
        H alpha on (t, y) and its transpose on (y, t), alpha^T H alpha +
        chi g_c on (y, y)."""
        d, t, u, y = self.dim, self.t_sl, self.u_sl, self.y_sl
        parts = [((t, t), H), ((u, u), h)]
        if self.ydim:
            Halpha = jet_einsum("nij,njq->niq", H, alpha)
            aHa = jet_einsum("niq,nip->nqp", Halpha, alpha)
            parts += [((t, y), Halpha), ((y, t), jet_transpose(Halpha)),
                      ((y, y), aHa + chi * self._gc)]
        return _place(H.c[0].shape[0], d, H.order, (d, d), parts)

    def _assemble(self, pts, order, h, L, rhos, mus, H, T, D,
                  coframe=None):
        """Chart fields from the route's parts, D = (d_u mu_i) the
        (ell, udim) matrix of omega(d/du, d/dt_i).  Each field is written
        block by block; its y columns are its t columns carried by alpha.
        ``coframe`` (explicit route: each block's row and mu-hat) gives J
        from the coframe action;
        without it J = g^-1 omega, and that inverse also fills the fields'
        g^-1.  omega is kept one order below g: d omega is the one
        derivative a check reads.  The explicit route places it at that
        order; J = g^-1 omega reads it at g's order, and it is cut after."""
        n = pts.shape[0]
        d, t, u, y = self.dim, self.t_sl, self.u_sl, self.y_sl
        low = max(order - 1, 0)
        alpha = self._alpha(pts, order)
        chi = self._chi(rhos, order)
        g = self._place_metric(H, h, alpha, chi)
        wo = low if coframe is not None else order
        Dw = D.truncate(wo)
        wparts = [((u, t), jet_transpose(Dw)), ((t, u), -Dw)]
        aparts = [((t, t), T), ((u, u), L)]
        if self.ydim:
            Dalpha = jet_einsum("niu,niq->nuq", Dw, alpha.truncate(wo))
            wparts += [((u, y), Dalpha), ((y, u), -jet_transpose(Dalpha)),
                       ((y, y), chi.truncate(wo) * self._wc)]
            aparts += [((y, y), self._Ac), ((t, y), jet_einsum(
                "nib,nbq->niq", T, alpha) - alpha * self.ceigs)]
        w = _place(n, d, wo, (d, d), wparts)
        A = _place(n, d, order, (d, d), aparts)

        if coframe is not None:
            J = self._assemble_J(n, order, coframe, alpha)
        else:
            ginv = metric_inverse(g)
            J = jet_einsum("nac,nbc->nab", ginv, w)
            w = w.truncate(low)

        fields = ChartFields(g, A, omega=w, J=J, rhos=rhos, mus=mus)
        if coframe is None:
            # the Leibniz recurrence of the inverse gives its lower orders
            # bitwise, so the full-order inverse serves as g^-1
            fields.__dict__["ginv"] = ginv.truncate(low)
        return fields

    def _assemble_J(self, n, order, coframe, alpha):
        """J from the coframe action: rows over the dual frame
        {d/dt_i, d/du, d/dy_q - sum alpha_iq d/dt_i}.  A block's u rows
        and its columns of the t rows read only its own root."""
        d, ell, t, u, y = self.dim, self.ell, self.t_sl, self.u_sl, self.y_sl
        urows, parts = zip(*(row.block.J_rows(row, muh, ell)
                             for row, muh in coframe))
        Jut = _place(n, d, order, (self.udim, ell), urows)
        parts = [*parts, ((u, t), Jut)]
        if self.ydim:
            # alpha times the constant J of the flat factor, coefficient by
            # coefficient: the product rule would add only zero terms
            Jc = np.broadcast_to(self._Jc, (n,) + self._Jc.shape)
            aJ = Jet._of(d, order, [
                contract(f"niq{'xyz'[:k]},nqp->nip{'xyz'[:k]}", a, Jc)
                for k, a in enumerate(alpha.c)])
            parts += [((u, y), jet_einsum("nuj,njq->nuq", Jut, alpha)),
                      ((t, y), -aJ), ((y, y), self._Jc)]
        return _place(n, d, order, (d, d), parts)

    # -- mobility vector field -------------------------------------------

    def v_field(self, pts, order=1) -> Jet:
        """The mobility field v, which ``eval`` does not carry."""
        if self.v_matrix is None:
            raise BuilderError("chart carries no mobility vector field")
        return mobility_field(pts, order, self.v_matrix, self.rho_idx)


# ---------------------------------------------------------------------------
# public builder entry points
# ---------------------------------------------------------------------------

def lift_pair(qp: QuotientPair, cb=(), *, route, **kw) -> KahlerChart:
    return KahlerChart(qp, cb, route, **kw)


def build_main_example(spec: CompatiblePairSpec, cb=()) -> KahlerChart:
    return KahlerChart(build_quotient_pair(spec), cb, "explicit")


def mobility_spec(ell, a, C):
    if np.isscalar(a):
        a = [a] * ell
    if ell == 1:
        windows = [(0.2, 0.8)]
    elif ell == 2:
        windows = [(0.15, 0.4), (0.55, 0.9)]
    else:
        windows = [(0.08 + 0.84 * k / ell + 0.02,
                    0.08 + 0.84 * (k + 1) / ell - 0.02)
                   for k in range(ell)]
    blocks = tuple(RealRho(PowerProfile(a[k], C, 1.0 + ell + C), windows[k])
                   for k in range(ell))
    return CompatiblePairSpec(blocks=blocks, name="mobility2")


def build_mobility2(ell, a, C, cb=(), **kw) -> KahlerChart:
    """Mobility-two Kahler chart with its canonical vector field.

    Profiles are F_i(t) = a_i (1-t)^(-C) t^(1+ell+C); v restricts to
    sum rho_i (1-rho_i) d/drho_i on the leaf, and its linear part
    (``chart.v_matrix``) is written in closed form by
    ``fit_mobility_field``.  v moves each eigenvalue by
    rho' = rho(1 - rho), so a constant block needs c = 0 or c = 1.
    """
    for b in cb:
        if b.c not in (0.0, 1.0):
            raise BuilderError(
                "a mobility-two constant block needs c = 0 or c = 1, the "
                f"fixed points of rho' = rho(1 - rho); got c = {b.c:g}")
    qp = build_quotient_pair(mobility_spec(ell, a, C))
    chart = KahlerChart(qp, cb, "explicit", **kw)
    chart.meta.update({
        "C": C,
        "m0": sum(b.dim // 2 for b in cb if b.c == 0.0),
        "m1": sum(b.dim // 2 for b in cb if b.c == 1.0)})
    fit_mobility_field(chart)
    return chart


def mobility_rhs(flds: ChartFields, C):
    """Values of the right-hand sides of the canonical Lie equations."""
    g, A = flds.g, flds.A
    sum_rho = None
    for r in flds.rhos:
        rr = r.real
        sum_rho = rr if sum_rho is None else sum_rho + rr
    gA = np.einsum("nac,ncb->nab", g.c[0], A.c[0])
    rhs_g = -gA - (sum_rho.c[0] + C)[:, None, None] * g.c[0]
    rhs_A = A.c[0] - np.einsum("nac,ncb->nab", A.c[0], A.c[0])
    return rhs_g, rhs_A


def fit_mobility_field(chart):
    """Write the linear part M of the chart's field v (``chart.v_matrix``)
    in closed form.  Nothing is fit; the name waits for ROADMAP item 1.
    Column 1 + k is coordinate k, and every other entry is 0: t_i takes
    -(i + 1 + C) t_i - i t_(i-1), and a flat y of eigenvalue 0 or 1 takes
    -(C + ell) y / 2 or -(C + 1) y / 2.  There g = chi_L(c) g_c, the leaf
    term scales chi_L(c) = prod_i (c - rho_i) by ell - sum rho_i or by
    -sum rho_i, and L_v g = -(c + sum rho_i + C) g."""
    C, ell, d = chart.meta["C"], chart.ell, chart.dim
    M = np.zeros((d, 1 + d))
    t = np.arange(chart.t_sl.stop)
    M[t, 1 + t] = -(t + 1 + C)
    M[t[1:], t[1:]] = -t[1:]
    y = np.arange(chart.y_sl.start, d)
    M[y, 1 + y] = -(C + np.where(chart.ceigs == 0.0, ell, 1)) / 2
    chart.v_matrix = M


# ---------------------------------------------------------------------------
# projective mobility chart (rho, y): no Killing directions
# ---------------------------------------------------------------------------

class ProjectiveMobilityChart:
    """(rho, y) chart with g = F^{-1} drho^2 + g_c((A_c - rho) . , .).

    The constant factor g_c is the Euclidean metric with one real
    dimension per constant eigenvalue, as in the projective variant of
    the volume statement.
    """

    def __init__(self, C, B, m0, m1):
        self.ydim = m0 + m1
        self.dim = 1 + self.ydim
        # the full-chart profile for one non-constant eigenvalue; at C = -1
        # this is the -4B (1-rho) rho of the final normal form
        self.F = PowerProfile(-4.0 * B, C, 2.0 + C)
        self.ceigs = np.concatenate([np.zeros(m0), np.ones(m1)])
        lo = np.concatenate([[0.2], np.full(self.ydim, Y_WINDOW[0])])
        hi = np.concatenate([[0.8], np.full(self.ydim, Y_WINDOW[1])])
        self.window = Box(lo, hi)
        self.rho_idx = [0]
        self.t_sl, self.y_sl = slice(0, 0), slice(1, self.dim)
        self.v_matrix = None
        self.meta = {"C": C, "m0": m0, "m1": m1}
        self.ell = 1

    def eval(self, pts, order=2) -> ChartFields:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n, d, y = pts.shape[0], self.dim, slice(1, self.dim)
        r = Jet.seed(0, pts[:, 0], d, order)
        A = _place(n, d, order, (d, d),
                   [((0, 0), r), ((y, y), np.diag(self.ceigs))])
        return ChartFields(self._metric(r), A, rhos=[r],
                           mus=esp_jets([r], d, order, (n,)))

    def metric(self, pts, order=2) -> Jet:
        """The metric alone, equal to ``eval(pts, order).g``."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._metric(Jet.seed(0, pts[:, 0], self.dim, order))

    def _metric(self, r):
        """g from the jet of the rho coordinate."""
        n, d, y = r.c[0].shape[0], self.dim, slice(1, self.dim)
        parts = [((0, 0), 1.0 / self.F.jet(r))]
        if self.ydim:
            shift = jstack([[c - r] for c in self.ceigs])
            parts.append(((y, y), shift * np.eye(self.ydim)))
        return _place(n, d, r.order, (d, d), parts)

    v_field = KahlerChart.v_field


def build_mobility2_projective(C, m0=1, m1=1,
                               B=1.0) -> ProjectiveMobilityChart:
    chart = ProjectiveMobilityChart(C, B, m0, m1)
    fit_mobility_field(chart)
    return chart


# ---------------------------------------------------------------------------
# Jordan-block ODE systems
# ---------------------------------------------------------------------------

class JordanOdeSolution:
    """Dense solution of the nilpotent-block ODE systems.

    kind '1x1':  F' = F ((n2 + C + 2) - (n2 + 2) rho) / (rho (1 - rho))
    kind '2x2':  F' = ((1/2)((n2-1) rho - 1 - C - n2) F - G1) / (rho(1-rho))
                 G1' = (1/2)(n2 - 1) F
    kind '3x3':  F' = -((1/2)(C + n2 + (4 - n2) rho) F + 2 H1) / (rho(1-rho))
                 H1' = (1/2)(n2 - 2) F - G1,   G1' = 0

    The systems are linear with coefficients singular at 0 and 1, so the
    interval must stay strictly inside (0, 1).
    """

    NSTATE = {"1x1": 1, "2x2": 2, "3x3": 3}

    def __init__(self, kind, n2, C, init, interval):
        if kind not in self.NSTATE:
            raise BuilderError(f"unknown Jordan ODE kind {kind!r}")
        lo, hi = interval
        if not (0.0 < lo < hi < 1.0):
            raise BuilderError("the eigenvalue interval must stay strictly "
                               "inside (0, 1)")
        self.kind, self.n2, self.C = kind, float(n2), float(C)
        self.interval = (float(lo), float(hi))
        y0 = np.atleast_1d(np.asarray(init, dtype=float))
        if y0.size != self.NSTATE[kind]:
            raise BuilderError("initial state size does not match the kind")
        mid = 0.5 * (lo + hi)
        try:
            self._left, self._right = [
                integrate(self._rhs, (mid, b), y0, 1e-12, 1e-14)[0]
                for b in (lo, hi)]
        except OdeError as exc:
            raise BuilderError(f"ODE solve failed: {exc}") from None
        self._mid = mid

    def _entries(self, t):
        """The nonzero entries ((row, col), value) of the system matrix at
        ``t``, an array or a jet; a constant entry is a float."""
        w = t * (1.0 - t)
        n2, C = self.n2, self.C
        if self.kind == "1x1":
            return [((0, 0), ((n2 + C + 2.0) - (n2 + 2.0) * t) / w)]
        if self.kind == "2x2":
            return [((0, 0), 0.5 * ((n2 - 1.0) * t - 1.0 - C - n2) / w),
                    ((0, 1), -1.0 / w), ((1, 0), 0.5 * (n2 - 1.0))]
        return [((0, 0), -0.5 * (C + n2 + (4.0 - n2) * t) / w),
                ((0, 1), -2.0 / w), ((1, 0), 0.5 * (n2 - 2.0)),
                ((1, 2), -1.0)]

    def _matrix_values(self, t):
        """The system matrix at ``t``: shape (n, n) + shape(t)."""
        t = np.asarray(t, dtype=float)
        s = self.NSTATE[self.kind]
        M = np.zeros((s, s) + t.shape)
        for idx, val in self._entries(t):
            M[idx] = val
        return M

    def _matrix_jet(self, rho: Jet) -> Jet:
        """The system matrix as a matrix jet in ``rho`` (batch (n,))."""
        s = self.NSTATE[self.kind]
        return _place(rho.c[0].shape[0], rho.dim, rho.order, (s, s),
                      self._entries(rho))

    def _rhs(self, t, y):
        # one matrix-vector product per column, as BLAS forms it for a
        # single state, so the solution does not depend on the batching
        M = np.ascontiguousarray(np.moveaxis(self._matrix_values(t), -1, 0))
        return (M @ y.T[..., None])[..., 0].T

    def values(self, rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.empty((self.NSTATE[self.kind], rho.size))
        left = rho <= self._mid
        if left.any():
            out[:, left] = self._left(rho[left])
        if (~left).any():
            out[:, ~left] = self._right(rho[~left])
        return out

    def __call__(self, rho):
        return self.values(rho)[0].reshape(np.shape(rho))

    def taylor(self, rho0, order=3):
        """Derivative tables [u, u', ..., u^(order)] of the state."""
        rho0 = np.atleast_1d(np.asarray(rho0, dtype=float)).ravel()
        u = self.values(rho0)
        rj = Jet.seed(0, rho0, 1, max(order - 1, 0))
        M = self._matrix_jet(rj)
        # the k-th rho-derivative of the matrix, shape (s, s, n)
        Mk = [np.ascontiguousarray(c.reshape(c.shape[:3]).transpose(1, 2, 0))
              for c in M.c]
        ders = [u]
        for k in range(1, order + 1):
            acc = np.zeros_like(u)
            for j in range(k):
                acc += (math.comb(k - 1, j)
                        * np.einsum("abn,bn->an", Mk[j], ders[k - 1 - j]))
            ders.append(acc)
        return ders

    def _state_jet(self, rho: Jet, row: int) -> Jet:
        ders = self.taylor(rho.c[0].ravel(), order=rho.order)
        table = [d[row].reshape(rho.c[0].shape) for d in ders]
        return rho.compose1(table)

    def jet(self, rho: Jet) -> Jet:
        return self._state_jet(rho, 0)

    def g1_jet(self, rho: Jet) -> Jet:
        if self.kind == "1x1":
            raise BuilderError("no G1 component in the 1x1 system")
        return self._state_jet(rho, 1 if self.kind == "2x2" else 2)

    def h1_jet(self, rho: Jet) -> Jet:
        if self.kind != "3x3":
            raise BuilderError("H1 exists only in the 3x3 system")
        return self._state_jet(rho, 1)

    def fprime(self, rho):
        shape = np.shape(rho)
        t = self.taylor(np.ravel(np.asarray(rho, dtype=float)), order=1)
        return t[1][0].reshape(shape)

    def defect(self) -> float:
        """Integral-form residual per unit length on the dense output."""
        lo, hi = self.interval
        edges = np.linspace(lo, hi, 241)
        x, wq = np.polynomial.legendre.leggauss(12)
        scale = 1.0 + float(np.max(np.abs(self.values(
            np.linspace(lo, hi, 64)))))
        a, b = edges[:-1], edges[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * x                # (I, G)
        vals = self.values(nodes.ravel()).reshape((-1,) + nodes.shape)
        rhs = np.einsum("abig,big->aig", self._matrix_values(nodes), vals)
        integral = half * (rhs * wq).sum(axis=-1)               # (n, I)
        at = self.values(edges)
        jump = at[:, 1:] - at[:, :-1]
        return float(np.max(np.max(np.abs(jump - integral), axis=0)
                            / (b - a))) / scale

    def g1_constancy(self) -> float:
        if self.kind != "3x3":
            return 0.0
        g1 = self.values(np.linspace(*self.interval, 400))[2]
        return float(np.max(np.abs(g1 - g1[0])))


def solve_jordan_odes(kind, n2, C, init, interval) -> JordanOdeSolution:
    return JordanOdeSolution(kind, n2, C, init, interval)


def jordan_pair_spec(sol, extra_windows=(), extra_a=(),
                     x_window=(-0.4, 0.4), rho1_window=None):
    """Quotient spec with a leading Jordan block, 2x2 or 3x3 as the kind
    of ``sol``, glued to eigenvalue coordinates; the separation factors
    (rho_i - rho_1)^2 resp. ^3 come out of the multiplicity bookkeeping.
    ``rho1_window`` restricts the block eigenvalue inside the solved
    interval so it stays disjoint from the extra eigenvalue windows."""
    rw = rho1_window if rho1_window is not None else sol.interval
    if not (sol.interval[0] <= rw[0] < rw[1] <= sol.interval[1]):
        raise BuilderError("rho1 window must sit inside the solved "
                           "interval")
    block = {"2x2": Jordan2, "3x3": Jordan3}.get(sol.kind)
    if block is None:
        raise BuilderError(f"a Jordan block needs a 2x2 or 3x3 solution, "
                           f"got {sol.kind}")
    size = block.ncoord
    blocks = [block(sol, (x_window,) * (size - 1) + (rw,))]
    nd = 1 + len(extra_windows)       # number of distinct eigenvalues
    for w, a in zip(extra_windows, extra_a):
        blocks.append(RealRho(PowerProfile(a, sol.C, nd + size + sol.C), w))
    return CompatiblePairSpec(blocks=tuple(blocks), name="jordan")
