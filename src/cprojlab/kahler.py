"""Kahler certification and the two compatibility residuals.

``check_kahler`` certifies a candidate structure (J^2 = -Id, hermitian
metric, omega = g(J.,.), closed omega, parallel J).  ``cproj_residual``
measures the defining linear equation of a c-compatible endomorphism,

    nabla_X A = X^b (x) La + La^b (x) X + (JX)^b (x) J La + (J La)^b (x) JX,
    La = (1/4) grad tr A,

and ``proj_residual`` its projective counterpart with two terms and
La = (1/2) grad tr L, on fields without J (a quotient pair's h and L as
g and A).  Both read La and Gamma from the fields.  Partner metrics, the
hamiltonian Killing check on the complex determinant, and the
connection-difference identity between a metric and its partner complete
the module.

All checks sample a grid, normalize max-abs residuals by the input scale,
and report per-check entries; eigenvalue-based checks exclude samples
whose spectral gaps fall under the regularity threshold.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, contract, jet_det, jet_einsum, jet_inv, tensor_partial
from .geometry import (
    cov_deriv_endo, ext_deriv_two_form, gradient, hessian_cov, lie_bracket,
    lie_metric, max_abs, nan_max,
)
from .report import CheckEntry, ResidualReport
# complex_char_poly lives next to ChartFields.char_poly, its one caller,
# and stays public here
from .builders import EIGEN_GAP, ChartFields, complex_char_poly

__all__ = [
    "KahlerError", "check_kahler", "cproj_residual", "proj_residual",
    "partner_fields", "recover_endo",
    "hamiltonian_killing_check",
    "connection_difference_check", "complex_char_poly", "complex_det",
    "nonconstant_factor", "gap_mask",
]


# the largest remainder, or imaginary part of a mu_k, that the division by
# the constant-eigenvalue factor may leave
ROOT_TOL = 1e-6


class KahlerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def check_kahler(flds, tol=1e-6) -> ResidualReport:
    """Residuals of the Kahler axioms for jet fields (g order>=1, J, w)."""
    g, J, w = flds.g, flds.J, flds.omega
    n = g.c[0].shape[0]
    rep = ResidualReport(title="kahler")
    scale = max_abs(g.c[0], J.c[0], w.c[0])
    J2 = contract("nab,nbc->nac", J.c[0], J.c[0])
    gJ = contract("ncd,nca->nad", g.c[0], J.c[0])
    gJJ = contract("nad,ndb->nab", gJ, J.c[0])
    for name, anchor, peak in (
            ("J_squared", "J^2+Id", max_abs(J2 + np.eye(J2.shape[-1]))),
            ("hermitian_metric", "g(J.,J.)-g", max_abs(gJJ - g.c[0])),
            ("omega_def", "omega-g(J.,.)", max_abs(w.c[0] - gJ)),
            ("domega", "d(omega)", max_abs(ext_deriv_two_form(w))),
            ("parallel_J", "nabla(J)",
             max_abs(cov_deriv_endo(J, flds.gamma0)))):
        rep.add(CheckEntry.of(name, anchor, [(peak, scale)], tol, samples=n))
    return rep


def _compat_defect(flds):
    """nabla A minus the right side of the compatibility equation, with the
    J terms when ``flds.J`` is set, and the size it is relative to."""
    g, A, lv = flds.g.c[0], flds.A.c[0], flds.lam.c[0]
    lflat = np.einsum("ncb,nb->nc", g, lv)
    rhs = (np.einsum("nac,nb->nabc", g, lv)
           + np.einsum("nc,ab->nabc", lflat, np.eye(g.shape[-1])))
    if flds.J is not None:
        Jv = flds.J.c[0]
        Jlam = np.einsum("nab,nb->na", Jv, lv)
        Jlflat = np.einsum("ncb,nb->nc", g, Jlam)
        gJ = contract("ndc,nda->nac", g, Jv)
        rhs = (rhs + contract("nac,nb->nabc", gJ, Jlam)
               + np.einsum("nc,nba->nabc", Jlflat, Jv))
    return (cov_deriv_endo(flds.A, flds.gamma0) - rhs,
            max_abs(A, g, lv))


def cproj_residual(flds, tol=1e-6) -> ResidualReport:
    """Defect of the c-compatibility equation over all basis directions."""
    resid, scale = _compat_defect(flds)
    rep = ResidualReport(title="cproj")
    rep.add(CheckEntry.of("cproj_compat", "nabla_A=4-term(Lambda)",
                          [(max_abs(resid), scale)], tol,
                          samples=flds.g.c[0].shape[0]))
    return rep


def proj_residual(flds, tol=1e-6) -> ResidualReport:
    """Defect of the projective compatibility equation for (h, L), the g
    and A of fields without J."""
    hL = np.einsum("nac,ncb->nab", flds.g.c[0], flds.A.c[0])
    skew = np.abs(hL - np.swapaxes(hL, -1, -2))
    sa = max_abs(skew) / (1.0 + max_abs(hL))
    if sa > 1e-8:
        worst = int(np.argmax(np.max(skew, axis=(-1, -2))))
        raise KahlerError(
            f"L is not h-selfadjoint: residual {sa:.3e} worst at sample "
            f"{worst}")
    resid, scale = _compat_defect(flds)
    rep = ResidualReport(title="proj")
    rep.add(CheckEntry.of("proj_compat", "nabla_L=2-term(Lambda)",
                          [(max_abs(resid), scale)], tol,
                          samples=hL.shape[0]))
    return rep


# ---------------------------------------------------------------------------
# partner metrics
# ---------------------------------------------------------------------------

def spectrum_safe_shift(flds) -> float:
    """A shift c0 with the spectrum of A + c0 Id away from zero; an A
    that is not finite has no spectrum and is refused."""
    A = flds.A.c[0]
    if bad := np.count_nonzero(~np.isfinite(A).reshape(len(A), -1).all(1)):
        raise KahlerError(f"A is not finite at {bad} of {len(A)} samples")
    eigs = np.linalg.eigvals(A)
    low = float(np.min(np.abs(eigs)))
    if low > 0.05:
        return 0.0
    return 1.0 + float(np.max(np.abs(eigs)))


def partner_fields(flds) -> ChartFields:
    """The partner ghat = (det A)^(-1/2) g(A^{-1} . , .) of chart fields
    (g, J, A) as chart fields: g = ghat, the same J, and A = A^{-1}, the
    endomorphism of ghat relative to g.  A is inverted once, and the det
    and inverse of ghat are derived once and kept.

    The partner is built from g, J and A cut to order 1 (or their own
    order if lower).  Its readers, ``recover_endo``,
    ``connection_difference_check`` and ``flows.jplanarity_residual``,
    take orders 0 and 1 alone, and jet arithmetic forms order k from
    orders <= k alone, so the cut gives the order-2 partner's orders 0 and
    1 bit for bit and holds no order-2 jet of it."""
    g, J, A = (x.truncate(min(x.order, 1)) for x in (flds.g, flds.J, flds.A))
    Ainv = jet_inv(A)
    detA = jet_det(A, Ainv)
    if np.any(detA.c[0] <= 0.0):
        bad = np.nonzero(detA.c[0] <= 0.0)[0][:4]
        raise KahlerError(f"det A not positive at samples {bad.tolist()}")
    gAinv = jet_einsum("ncb,nca->nab", g, Ainv)
    ghat = jet_einsum("nab,n->nab", gAinv, detA ** (-0.5))
    return ChartFields(ghat, Ainv, J=J)


def _det_ratio(flds, partner) -> Jet:
    """det ghat / det g at the partner's order, which may be below that of
    g; it must be positive at every sample."""
    ratio = partner.det / flds.det.truncate(partner.det.order)
    if np.any(ratio.c[0] <= 0.0):
        raise KahlerError("determinant ratio not positive")
    return ratio


def recover_endo(flds, partner) -> Jet:
    """A = (det ghat / det g)^(1/(2(n+1))) ghat^{-1} g, n = complex dim,
    one order below ghat, from the chart fields of g and of ghat."""
    ncx = flds.g.c[0].shape[-1] // 2
    ratio = _det_ratio(flds, partner)
    order = partner.ginv.order
    factor = ratio.truncate(order) ** (1.0 / (2.0 * (ncx + 1)))
    Ainv_g = jet_einsum("nab,nbc->nac", partner.ginv, flds.g.truncate(order))
    return jet_einsum("nac,n->nac", Ainv_g, factor)


# ---------------------------------------------------------------------------
# complex determinant and the non-constant factor of char_poly
# ---------------------------------------------------------------------------

def complex_det(flds, shift=0.0) -> Jet:
    """det_C(A + shift Id) as a real jet (smooth, sign included).  With
    det_C(t Id - A) = sum (-1)^k e_k t^(n-k) (the fields' ``char_poly``),
    it is sum_j shift^(n-j) e_j, and no other coefficient of the shifted
    polynomial is formed."""
    e = flds.char_poly
    if shift == 0.0:
        return e[-1].real
    n = len(e) - 1
    return sum(e[j] * shift ** (n - j) for j in range(n + 1)).real


def nonconstant_factor(e, constant_eigs):
    """Divide det_C(t Id - A), given by its coefficients e_0..e_n (a
    ``char_poly``), by the declared constant-eigenvalue factor.

    ``constant_eigs`` is a list of (c, multiplicity) with complex
    multiplicities.  Returns the mu_i jets (elementary symmetric functions
    of the non-constant eigenvalues) and the worst division remainder.
    """
    ncx = len(e) - 1
    # coefficients of t^(n-k) are (-1)^k e_k; synthetic division by (t - c)
    coeffs = [e[k] * ((-1.0) ** k) for k in range(ncx + 1)]
    scale = 1.0 + max_abs(*(c.c[0] for c in coeffs))
    worst = 0.0
    for c, mult in constant_eigs:
        for _ in range(mult):
            out = [coeffs[0]]
            for k in range(1, len(coeffs)):
                out.append(coeffs[k] + out[-1] * c)
            rem = out.pop()
            worst = nan_max(worst, max_abs(rem.c[0]) / scale)
            coeffs = out
    if worst > ROOT_TOL:
        raise KahlerError(
            f"a declared constant eigenvalue is not a root of the complex "
            f"characteristic polynomial (remainder {worst:.3e})")
    mus = []
    for k, cf in enumerate(coeffs):
        mu = cf * ((-1.0) ** k)
        imag = max_abs(mu.c[0].imag)
        if imag > ROOT_TOL:
            raise KahlerError(f"mu_{k} has imaginary part {imag:.3e}")
        mus.append(mu.real)
    return mus, worst


# ---------------------------------------------------------------------------
# hamiltonian Killing check and connection difference
# ---------------------------------------------------------------------------

def hamiltonian_killing_check(flds, shift=0.0, tol=1e-6) -> ResidualReport:
    """det_C(A + shift Id) generates a Killing field: hermitian Hessian +
    L_K g.  A + shift Id solves the compatibility equation whenever A
    does, so a shift that keeps the spectrum off zero changes nothing
    else; the [A, J] guard reads A itself."""
    g, J, A = flds.g, flds.J, flds.A
    n = g.c[0].shape[0]
    comm = np.einsum("nab,nbc->nac", A.c[0], J.c[0]) \
        - np.einsum("nab,nbc->nac", J.c[0], A.c[0])
    cres = max_abs(comm) / (1.0 + max_abs(A.c[0]))
    if cres > 1e-8:
        raise KahlerError(f"[A, J] residual {cres:.3e} above tolerance")
    f = complex_det(flds, shift)
    # only the Hessian's values are read: Gamma values suffice at any order
    hess = hessian_cov(f.truncate(2), flds.gamma0).c[0]
    Jv = J.c[0]
    herm = np.einsum("nca,ncd,ndb->nab", Jv, hess, Jv) - hess
    rep = ResidualReport(title="hamiltonian-killing")
    rep.add(CheckEntry.of("det_hessian_hermitian", "herm(nabla^2 detC A)",
                          [(max_abs(herm), max_abs(hess))], tol, samples=n))
    K = jet_einsum("nab,nb->na", J.truncate(f.order - 1),
                   gradient(f, flds.ginv))
    lg = lie_metric(g.truncate(K.order), K)
    rep.add(CheckEntry.of("killing_detC", "L_K g, K=J grad detC A",
                          [(max_abs(lg), max_abs(g.c[0], K.c[0]))], tol,
                          samples=n))
    return rep


def connection_difference_check(flds, partner, tol=1e-6
                                ) -> ResidualReport:
    """Gamma-hat of a partner metric ghat minus Gamma of the chart metric
    against the rank-one hermitian expression built from Phi = d phi,
    phi = ln(det ghat / det g) / (4(n+1)).  ``partner`` is the chart
    fields of ghat (from ``partner_fields``), of order >= 1 and at most
    the order of g; its det and Christoffel values are read from there."""
    g, J = flds.g, flds.J
    d = g.c[0].shape[-1]
    ncx = d // 2
    n = g.c[0].shape[0]
    phi = _det_ratio(flds, partner).log() * (1.0 / (4.0 * (ncx + 1)))
    Phi = tensor_partial(phi).c[0]                      # (n, a)
    gam, gamhat = flds.gamma0.c[0], partner.gamma0.c[0]
    Jv = J.c[0]
    eye = np.eye(d)
    PhiJ = np.einsum("nd,nda->na", Phi, Jv)
    T = (np.einsum("na,cb->ncab", Phi, eye)
         + np.einsum("nb,ca->ncab", Phi, eye)
         - np.einsum("na,ncb->ncab", PhiJ, Jv)
         - np.einsum("nb,nca->ncab", PhiJ, Jv))
    resid = (gamhat - gam) - T
    rep = ResidualReport(title="connection-difference")
    rep.add(CheckEntry.of("connection_difference", "Gammahat-Gamma=T(Phi)",
                          [(max_abs(resid), max_abs(gam, gamhat))], tol,
                          samples=n))
    return rep


# ---------------------------------------------------------------------------
# regular samples, eigenvector property and eigenvalue of the gradient
# ---------------------------------------------------------------------------

def gap_mask(roots, consts, n=None):
    """The samples at which the eigenvalue values ``roots`` (arrays) and
    the constants ``consts`` lie pairwise at least ``EIGEN_GAP`` apart;
    without roots, every one of ``n`` samples (none if n is None)."""
    if not roots:
        return np.ones(0 if n is None else n, dtype=bool)
    vals = [np.asarray(r) for r in roots] + \
           [np.full_like(np.asarray(np.real(roots[0])), c) for c in consts]
    ok = np.ones(np.asarray(np.real(vals[0])).shape, dtype=bool)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            ok &= np.abs(vals[i] - vals[j]) >= EIGEN_GAP
    return ok


def eigenvector_gradient_residual(flds, tol=1e-7) -> ResidualReport:
    """(A - rho) grad rho = 0 and (A - rho) J grad rho = 0 at regular
    samples, for each simple non-constant eigenvalue field rho, real or
    complex.  Fields without eigenvalue jets are refused: there the check
    would read 0 and pass with nothing measured."""
    if not flds.rhos:
        raise KahlerError("eigenvector_gradients needs the eigenvalue jets "
                          "of A, and the fields carry none")
    g, J, A = flds.g, flds.J, flds.A
    n = g.c[0].shape[0]
    rep = ResidualReport(title="eigenvector-gradient")
    vals = [r.c[0] for r in flds.rhos]
    mask = gap_mask(vals, [])
    excluded = int((~mask).sum())
    terms = []
    for r in flds.rhos:
        grad = gradient(r, flds.ginv).c[0]
        Av = A.c[0]
        res = np.einsum("nab,nb->na", Av, grad) - r.c[0][:, None] * grad
        Jgrad = np.einsum("nab,nb->na", J.c[0], grad)
        res2 = np.einsum("nab,nb->na", Av, Jgrad) \
            - r.c[0][:, None] * Jgrad
        s = max_abs(grad[mask], Av[mask])
        terms += [(max_abs(res[mask]), s), (max_abs(res2[mask]), s)]
    rep.add(CheckEntry.of("eigenvector_gradients", "(A-rho)grad rho",
                          terms, tol, samples=n, excluded=excluded))
    return rep


# ---------------------------------------------------------------------------
# quotient-pair duality identities
# ---------------------------------------------------------------------------

def commuting_gradients_residual(flds, tol=1e-7) -> ResidualReport:
    """[grad mu_i, grad mu_j] = 0 for the symmetric functions of the
    eigenvalues of a compatible pair (order >= 2 jets required)."""
    grads = [gradient(mu, flds.ginv) for mu in flds.mus[1:]]
    n = flds.g.c[0].shape[0]
    terms = [(max_abs(lie_bracket(u, v)), max_abs(u.c[0]), max_abs(v.c[0]))
             for i, u in enumerate(grads) for v in grads[i + 1:]]
    rep = ResidualReport(title="commuting-gradients")
    rep.add(CheckEntry.of("commuting_gradients", "[grad mu_i, grad mu_j]",
                          terms, tol, samples=n))
    return rep


def mu_hat_duality_residual(flds, tol=1e-7) -> ResidualReport:
    """(1/det L)(d mu_i o L^{-1}) = -d muhat_{ell+1-i}, where muhat_k is
    the k-th symmetric function of the reciprocal eigenvalues,
    muhat_k = mu_{ell-k} / mu_ell, for L = ``flds.A``."""
    L = flds.A
    n = L.c[0].shape[0]
    ell = len(flds.mus) - 1
    if np.any(np.abs(np.linalg.det(L.c[0])) < 1e-12):
        raise KahlerError("det L vanishes at a sample")
    Linv = jet_inv(L)
    detL = jet_det(L, Linv)
    terms = []
    inv_det = 1.0 / detL
    for i in range(1, ell + 1):
        dmu = tensor_partial(flds.mus[i])           # (n, a)
        lhs = jet_einsum("na,nab->nb", dmu, Linv.truncate(dmu.order))
        lhs = jet_einsum("nb,n->nb", lhs, inv_det.truncate(dmu.order))
        muhat = flds.mus[i - 1] * inv_det           # muhat_{ell+1-i}
        rhs = tensor_partial(muhat)
        terms.append((max_abs(lhs.c[0] + rhs.c[0]),
                      max_abs(lhs.c[0], rhs.c[0])))
    rep = ResidualReport(title="mu-hat-duality")
    rep.add(CheckEntry.of("mu_hat_duality",
                          "d mu_i o L^{-1} / det L = -d muhat_{l+1-i}",
                          terms, tol, samples=n))
    return rep
