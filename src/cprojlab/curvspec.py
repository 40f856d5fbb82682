"""Curvature operator on skew-hermitian endomorphisms and its spectrum.

The wedge ``u ^_J v = u^b (x) v - v^b (x) u + (Ju)^b (x) Jv - (Jv)^b (x) Ju``
spans the space u(g, J) of skew-hermitian endomorphisms; the curvature
operator acts on it through R(u, v) = (1/4) R(u ^_J v).  For a compatible
endomorphism A the operator satisfies the commutator identity
``[R(X), A] = 4 [X, nabla La]``, nabla La is a polynomial p(A), and the
spectrum of R contains ``(p(l_i) - p(l_j)) / (l_i - l_j)`` for distinct
eigenvalues and ``p'(l_i)`` at Jordan blocks.  This module assembles the
operator numerically, fits p, and compares predicted against numeric
spectra; it also carries the two-eigenvalue curvature scalar

    lambda = ((r1 - r2)(F'(r1) + F'(r2)) + 2(F(r2) - F(r1))) / (4 (r1-r2)^3)

with its collision limit F'''(x) / 24, and the third-order equation
``nabla^3 alpha = B (2 (dalpha (x) g)(X,Y,Z) + sym)`` for alpha = tr L.

A projective pair (h, L) comes as fields without J: the same code then
uses the real wedge ``u ^ v = u^b (x) v - v^b (x) u``, La = (1/2) grad tr L
and the identity ``[R(u, v), L] = [u ^ v, nabla La]``.  The basis, the
operator matrix and the fit of p serve both kinds of fields; only the
Ricci-identity report has a real counterpart, for its factor 1 and its
check name.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, jet_trace
from .geometry import cov_deriv_vector, max_abs, third_cov_scalar
from .report import CheckEntry, ResidualReport

__all__ = [
    "wedge_J", "skew_hermitian_residuals", "unitary_basis",
    "curvature_operator_matrix", "nabla_lambda_endo",
    "ricci_identity_check", "fit_nabla_lambda_poly", "r0_operator",
    "predicted_eigenvalues", "compare_with_numeric", "lambda_two_eigen",
    "fppp_limit_check", "third_order_residual", "jordan_alpha_invariant",
    "real_ricci_identity_check",
]


# ---------------------------------------------------------------------------
# wedges and the unitary algebra
# ---------------------------------------------------------------------------

def wedge_J(u, v, gv, Jv=None):
    """u ^_J v at samples; u, v: (n, d), gv: (n, d, d), Jv: (n, d, d).

    Without ``Jv`` this is the real wedge u ^ v = u^b (x) v - v^b (x) u.
    """
    ub = np.einsum("nab,na->nb", gv, u)
    vb = np.einsum("nab,na->nb", gv, v)
    # matrix M^a_b of u^b (x) v - v^b (x) u + (Ju)^b (x) Jv - (Jv)^b (x) Ju
    out = np.einsum("na,nb->nab", v, ub) - np.einsum("na,nb->nab", u, vb)
    if Jv is None:
        return out
    Ju = np.einsum("nab,nb->na", Jv, u)
    Jv_ = np.einsum("nab,nb->na", Jv, v)
    Jub = np.einsum("nab,na->nb", gv, Ju)
    Jvb = np.einsum("nab,na->nb", gv, Jv_)
    return (out + np.einsum("na,nb->nab", Jv_, Jub)
            - np.einsum("na,nb->nab", Ju, Jvb))


def _coordinate_wedges(gv, Jv=None):
    """The wedges e_a ^_J e_b, a < b, of the coordinate vectors at the
    samples of gv (n, d, d), each with its index pair."""
    n, d = gv.shape[0], gv.shape[-1]
    e = np.eye(d)
    for a in range(d):
        for b in range(a + 1, d):
            yield (a, b), wedge_J(np.broadcast_to(e[a], (n, d)),
                                  np.broadcast_to(e[b], (n, d)), gv, Jv)


def skew_hermitian_residuals(X, gv, Jv):
    """Membership defects of X in u(g, J): [X, J] and g-antisymmetry."""
    comm = np.einsum("nab,nbc->nac", X, Jv) - np.einsum(
        "nab,nbc->nac", Jv, X)
    gX = np.einsum("nca,ncb->nab", gv, X)
    skew = gX + np.swapaxes(gX, -1, -2)
    s = 1.0 + max_abs(X)
    return max_abs(comm) / s, max_abs(skew) / s


def unitary_basis(gv, Jv=None):
    """An orthonormalized basis of u(g, J) from coordinate wedges, or of
    the real wedge span so(g) without ``Jv``.

    Works at a single sample: gv, Jv are (d, d).  Returns (k, d, d) basis
    matrices and the wedge list used.
    """
    d = gv.shape[-1]
    wedges = [(ab, w[0]) for ab, w in _coordinate_wedges(
        gv[None], None if Jv is None else Jv[None])]
    mats = np.stack([w for _, w in wedges])
    flat = mats.reshape(len(wedges), -1)
    q, r = np.linalg.qr(flat.T)
    keep = np.abs(np.diag(r)) > 1e-8 * max(1.0, np.abs(r).max())
    basis = q.T[keep].reshape(-1, d, d)
    return basis, wedges


def curvature_operator_matrix(flds, sample=0):
    """Matrix of the curvature operator on u(g, J) at one sample, or on
    the real wedge span for fields without J.

    Normalized so that the wedge u ^_J v (u ^ v) maps to the plain
    curvature endomorphism R(u, v); equivalently, the returned operator R
    satisfies [R(X), A] = [X, nabla La], which is the normalization the
    closed-form eigenvalue predictions refer to.  Arbitrary X are expanded
    over the coordinate-wedge span by least squares (exact on the span).
    """
    gv = flds.g.c[0][sample]
    Jv = None if flds.J is None else flds.J.c[0][sample]
    Rc = flds.riemann[sample]            # R^d_cab
    basis, wedges = unitary_basis(gv, Jv)
    k = basis.shape[0]
    wmats = np.stack([w for _, w in wedges])
    wflat = wmats.reshape(len(wedges), -1).T           # (d^2, nw)
    rw = np.stack([Rc[:, :, a, b] for (a, b), _ in wedges])
    Rmat = np.zeros((k, k))
    for j in range(k):
        coef, *_ = np.linalg.lstsq(wflat, basis[j].ravel(), rcond=None)
        RX = np.einsum("w,wab->ab", coef, rw)
        # expand R(X) over the basis (orthonormal rows in the flat metric)
        Rmat[:, j] = basis.reshape(k, -1) @ RX.ravel()
    return Rmat, basis


# ---------------------------------------------------------------------------
# nabla Lambda and the commutator identity
# ---------------------------------------------------------------------------

def nabla_lambda_endo(flds):
    """(nabla La)^b_a values, shape (n, b, a), with La = ``flds.lam``:
    (1/4) grad tr A with J, (1/2) grad tr L for a pair (h, L)."""
    lam = flds.lam
    nl = cov_deriv_vector(lam, flds.gamma0)  # (n, a, b)
    return np.swapaxes(nl, -1, -2)


def _ricci_defect(flds, k):
    """Worst relative defect of k [R(u, v), A] = k [u ^_J v, nabla La] over
    the coordinate wedges, which are real wedges when ``flds.J`` is None.
    The wedges are stacked on axis 1, so each product is one batched
    matmul; the scale is per wedge."""
    Rc, NL = flds.riemann, nabla_lambda_endo(flds)
    Av, gv = flds.A.c[0], flds.g.c[0]
    Jv = None if flds.J is None else flds.J.c[0]
    wedges = list(_coordinate_wedges(gv, Jv))
    if not wedges:
        return 0.0
    pairs, wedges = zip(*wedges)
    a, b = np.array(pairs).T
    X = np.stack(wedges, axis=1)                        # (n, w, d, d)
    RX = k * np.moveaxis(Rc[:, :, :, a, b], -1, 1)      # (n, w, d, d)
    A, N = Av[:, None], NL[:, None]
    defect = (RX @ A - A @ RX) - k * (X @ N - N @ X)

    def per_wedge(t):
        return np.max(np.abs(t), axis=(0, 2, 3))

    scale = 1.0 + np.maximum(np.maximum(per_wedge(RX), per_wedge(X)),
                             max_abs(Av, NL))
    return float(np.max(per_wedge(defect) / scale))


def ricci_identity_check(flds, tol=1e-6) -> ResidualReport:
    """[R(X), A] = 4 [X, nabla La] over the spanning wedge set."""
    rep = ResidualReport(title="ricci-identity")
    rep.add(CheckEntry("ricci_identity", "[R(X),A]=4[X,nablaLambda]",
                       _ricci_defect(flds, 4.0), tol,
                       samples=flds.g.c[0].shape[0]))
    return rep


def fit_nabla_lambda_poly(flds, sample=0):
    """Minimal-degree real polynomial with nabla La = p(A) at one sample,
    raising the degree up to the dimension until the relative residual of
    the least-squares fit is within 1e-8.

    Raises when the two endomorphisms fail to commute; flags an
    ill-conditioned fit through the returned residual.
    """
    Av = flds.A.c[0][sample]
    NL = nabla_lambda_endo(flds)[sample]
    comm = Av @ NL - NL @ Av
    if max_abs(comm) / (1.0 + max_abs(Av, NL)) > 1e-8:
        raise ValueError("nabla Lambda does not commute with A at the "
                         "sample; no polynomial expression exists")
    d = Av.shape[-1]
    powers = [np.eye(d)]
    for _ in range(d):
        powers.append(powers[-1] @ Av)
    target = NL.ravel()
    for deg in range(d + 1):
        M = np.stack([p.ravel() for p in powers[: deg + 1]], axis=1)
        coef, *_ = np.linalg.lstsq(M, target, rcond=None)
        resid = max_abs(M @ coef - target) / (1.0 + max_abs(NL))
        if resid <= 1e-8:
            break
    return np.asarray(coef), resid


def _cluster(vals):
    out = []
    for v in np.atleast_1d(vals):
        if not any(abs(v - w) < 1e-6 for w in out):
            out.append(v)
    return out


def r0_operator(coeffs, A):
    """The special solution R0(X) = sum_k a_k sum_{p+q=k-1} A^p X A^q."""
    d = A.shape[-1]
    powers = [np.eye(d)]
    for _ in range(len(coeffs)):
        powers.append(powers[-1] @ A)

    def op(X):
        out = np.zeros_like(X)
        for k, a in enumerate(coeffs):
            if k == 0:
                continue
            for p in range(k):
                out = out + a * powers[p] @ X @ powers[k - 1 - p]
        return out

    return op


def predicted_eigenvalues(coeffs, eig_pairs):
    """Spectral predictions from the polynomial p: each distinct pair
    (l_i, l_j) of ``eig_pairs`` gives (l_i, l_j, (p(l_i)-p(l_j))/(l_i-l_j)).
    """
    p = np.polynomial.Polynomial(coeffs)
    return [(li, lj, (p(li) - p(lj)) / (li - lj)) for li, lj in eig_pairs]


def compare_with_numeric(flds, sample=0, tol=1e-5) -> ResidualReport:
    """Predicted curvature-operator eigenvalues, one per pair of distinct
    real eigenvalues of A, against the assembled spectrum at one sample."""
    coeffs, fit_res = fit_nabla_lambda_poly(flds, sample)
    eigs = _cluster(np.linalg.eigvals(flds.A.c[0][sample]))
    eigs = sorted([e.real for e in eigs if abs(e.imag) < 1e-9])
    pairs = [(a, b) for i, a in enumerate(eigs) for b in eigs[i + 1:]]
    preds = predicted_eigenvalues(coeffs, pairs)
    Rmat, _ = curvature_operator_matrix(flds, sample)
    spec = np.linalg.eigvals(Rmat)
    rep = ResidualReport(title="curvature-spectrum")
    for li, lj, val in preds:
        dist = float(np.min(np.abs(spec - val)))
        rep.add(CheckEntry(f"spectrum_pair({li:.4g},{lj:.4g})",
                           "predicted eig in spec(R)",
                           dist / (1.0 + abs(val)), tol, samples=1,
                           note=f"fit_residual={fit_res:.2e}"))
    return rep


# ---------------------------------------------------------------------------
# the real (projective) identity: fields without J, La = (1/2) grad tr L
# ---------------------------------------------------------------------------

def real_ricci_identity_check(flds, tol=1e-6) -> ResidualReport:
    """[R(u, v), L] = [u ^ v, nabla La] over coordinate pairs."""
    rep = ResidualReport(title="real-ricci-identity")
    rep.add(CheckEntry("real_ricci_identity",
                       "[R(u,v),L]=[u^v,nablaLambda]",
                       _ricci_defect(flds, 1.0), tol,
                       samples=flds.g.c[0].shape[0]))
    return rep


# ---------------------------------------------------------------------------
# the two-eigenvalue curvature scalar and its collision limit
# ---------------------------------------------------------------------------

def lambda_two_eigen(profile, r1, r2):
    """lambda(r1, r2) from the profile F (needs F and F')."""
    shape = np.broadcast(np.asarray(r1), np.asarray(r2)).shape
    r1 = np.atleast_1d(np.asarray(r1, dtype=float))
    r2 = np.atleast_1d(np.asarray(r2, dtype=float))
    F1, dF1 = _f_and_fp(profile, r1)
    F2, dF2 = _f_and_fp(profile, r2)
    out = ((r1 - r2) * (dF1 + dF2) + 2.0 * (F2 - F1)) \
        / (4.0 * (r1 - r2) ** 3)
    return out.reshape(shape) if shape else float(out[0])


def _f_and_fp(profile, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = profile.jet(Jet.seed(0, t, 1, 1))
    return j.c[0], j.c[1][..., 0]


def fppp_limit_check(profile, x, tol=1e-3) -> ResidualReport:
    """Richardson-extrapolated collision limit of lambda, from the pairs
    x +/- 1e-2 and x +/- 5e-3, against F'''(x)/24 computed by jets."""
    lam = lambda dd: float(lambda_two_eigen(profile, x + dd, x - dd))
    l1, l2 = lam(1e-2), lam(5e-3)
    richardson = (4.0 * l2 - l1) / 3.0
    j = profile.jet(Jet.seed(0, np.array([x]), 1, 3))
    target = float(j.c[3][0, 0, 0, 0]) / 24.0
    rep = ResidualReport(title="collision-limit")
    rep.add(CheckEntry("fppp_limit", "lim lambda = F'''/24",
                       abs(richardson - target) / (1.0 + abs(target)),
                       tol, samples=2,
                       note=f"target={target:.6g}"))
    return rep


# ---------------------------------------------------------------------------
# third-order equation for alpha = tr L
# ---------------------------------------------------------------------------

def third_order_residual(flds, B, tol=1e-5) -> ResidualReport:
    """nabla^3 alpha(X,Y,Z) = B (2 dalpha(X) g(Y,Z) + dalpha(Y) g(X,Z)
    + dalpha(Z) g(X,Y)), alpha = tr A; needs order-3 jets of g and A."""
    gv = flds.g.c[0]
    n = gv.shape[0]
    alpha = jet_trace(flds.A)
    n3 = third_cov_scalar(alpha, flds.gamma)   # (n, x, a, b)
    da = alpha.c[1]
    rhs = B * (2.0 * np.einsum("nx,nab->nxab", da, gv)
               + np.einsum("na,nxb->nxab", da, gv)
               + np.einsum("nb,nxa->nxab", da, gv))
    worst = max_abs(n3 - rhs) / (1.0 + max_abs(n3, rhs))
    rep = ResidualReport(title="third-order")
    rep.add(CheckEntry("third_order", "nabla^3(tr L) = B * sym(dalpha x g)",
                       worst, tol, samples=n))
    return rep


# ---------------------------------------------------------------------------
# Jordan-block invariant
# ---------------------------------------------------------------------------

def jordan_alpha_invariant(hv, Lv, rho):
    """The off-diagonal invariant of a nilpotent block.

    size 2: vol_h(e2, (L - rho) e2); size 3: the cube root of
    vol_h(e3, (L - rho) e3, (L - rho)^2 e3).  ``hv, Lv`` are single-sample
    matrices in a canonical basis (e_k = coordinate frame).
    """
    d = hv.shape[-1]
    N = Lv - rho * np.eye(d)
    dens = np.sqrt(abs(np.linalg.det(hv)))
    if d == 2:
        e2 = np.array([0.0, 1.0])
        cols = np.stack([e2, N @ e2], axis=1)
        return dens * np.linalg.det(cols)
    if d == 3:
        e3 = np.array([0.0, 0.0, 1.0])
        cols = np.stack([e3, N @ e3, N @ N @ e3], axis=1)
        val = dens * np.linalg.det(cols)
        return np.sign(val) * abs(val) ** (1.0 / 3.0)
    raise ValueError("block size must be 2 or 3")
