"""Canonical Killing fields K_i = J grad mu_i and their property suite.

The mu_i are elementary symmetric functions of the non-constant
eigenvalues, recovered from characteristic-polynomial coefficients (never
from eigenvalue branches, which may fail to be smooth).  The suite checks
all the pointwise-testable properties: each K_i is Killing, holomorphic,
preserves A, the fields pairwise commute together with their J-rotations,
omega vanishes on pairs, the span is nondegenerate, J nabla_{K_i} K_j
stays inside the span, plus the hamiltonian property i_K omega = -d mu
and the recurrence A K_i = mu_i K_1 - K_{i+1}.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, jet_einsum
from .geometry import (
    christoffel, gradient, lie_bracket, lie_endo, lie_metric, max_abs,
)
from .report import CheckEntry, ResidualReport
from .builders import EIGEN_GAP, _gap_mask
from .kahler import nonconstant_factor

__all__ = [
    "KILLING_KEYS", "CanonicalKillingSet", "build_canonical_killing",
    "killing_property_suite",
    "a_on_k_recurrence", "totally_geodesic_residual",
]

GRAM_MARGIN = 1e-6
# the property suite's checks in report order, each named killing_<key>:
# a worst residual each, then the Gram margin of the span
KILLING_KEYS = ("lie_g", "lie_J", "lie_A", "omega_KK", "brackets", "ham",
                "moment", "span", "gram_margin")


class CanonicalKillingSet:
    """mu_1..mu_ell jets plus the fields K_i = J grad mu_i (one order
    below the inputs) and the regularity mask of the samples."""

    def __init__(self, mus, K, mask):
        self.mus = mus            # list of scalar jets, mu_0 == 1 excluded
        self.K = K                # list of vector jets
        self.mask = mask
        self.ell = len(K)


def build_canonical_killing(flds, constant_eigs=(), gap=EIGEN_GAP
                            ) -> CanonicalKillingSet:
    """Assemble the canonical fields from chart fields (order >= 2).

    ``constant_eigs`` lists (c, complex multiplicity) so the non-constant
    factor of the complex characteristic polynomial can be split off by
    synthetic division.
    """
    g, J = flds.g, flds.J
    mus, _rem = nonconstant_factor(flds.char_poly, constant_eigs)
    mus = mus[1:]  # drop mu_0 = 1
    K = []
    for mu in mus:
        grad = gradient(mu, flds.ginv)
        K.append(jet_einsum("nab,nb->na", J.truncate(grad.order), grad))
    vals = [r.c[0] for r in flds.rhos]
    mask = _gap_mask(vals, [c for c, _ in constant_eigs], gap,
                     n=g.c[0].shape[0])
    return CanonicalKillingSet(mus, K, mask)


def _masked_max(arr, mask):
    a = np.asarray(arr)
    if a.shape[0] != mask.shape[0]:
        return max_abs(a)
    return max_abs(a[mask])


def killing_property_suite(ks: CanonicalKillingSet, flds, tol=1e-6,
                gram_margin=GRAM_MARGIN) -> ResidualReport:
    """The full canonical-Killing property suite at regular samples."""
    g, J, A, w = flds.g, flds.J, flds.A, flds.omega
    mask = ks.mask
    n = g.c[0].shape[0]
    excl = int((~mask).sum())
    rep = ResidualReport(title="killing-suite")
    ell = ks.ell
    scale_g = 1.0 + max_abs(g.c[0])

    worst = {k: 0.0 for k in KILLING_KEYS[:-1]}
    JK = []
    for K in ks.K:
        JK.append(jet_einsum("nab,nb->na", J.truncate(K.order), K))

    for i, K in enumerate(ks.K):
        ord1 = K.order
        sK = 1.0 + max_abs(K.c[0])
        worst["lie_g"] = max(worst["lie_g"], _masked_max(
            lie_metric(g.truncate(ord1), K), mask) / (scale_g * sK))
        worst["lie_J"] = max(worst["lie_J"], _masked_max(
            lie_endo(J.truncate(ord1), K), mask) / sK)
        worst["lie_A"] = max(worst["lie_A"], _masked_max(
            lie_endo(A.truncate(ord1), K), mask) /
            (sK * (1.0 + max_abs(A.c[0]))))
        # hamiltonian property: omega(K_i, .) + d mu_i = 0
        ham = np.einsum("nab,na->nb", w.c[0], K.c[0]) + ks.mus[i].c[1]
        worst["ham"] = max(worst["ham"], _masked_max(ham, mask) / sK)
        for j, K2 in enumerate(ks.K):
            worst["omega_KK"] = max(worst["omega_KK"], _masked_max(
                np.einsum("nab,na,nb->n", w.c[0], K.c[0], K2.c[0]), mask)
                / (sK * (1.0 + max_abs(K2.c[0]))))
            worst["moment"] = max(worst["moment"], _masked_max(
                np.einsum("na,na->n", ks.mus[i].c[1], K2.c[0]), mask)
                / (1.0 + max_abs(K2.c[0])))
            for u, v_ in ((K, K2), (K, JK[j]), (JK[i], JK[j])):
                worst["brackets"] = max(worst["brackets"], _masked_max(
                    lie_bracket(u, v_), mask)
                    / ((1.0 + max_abs(u.c[0])) * (1.0 + max_abs(v_.c[0]))))

    # Gram nondegeneracy margin of span{K_i}
    Kv = np.stack([K.c[0] for K in ks.K], axis=1)      # (n, ell, d)
    gram = np.einsum("nia,nab,njb->nij", Kv, g.c[0], Kv)
    margin = np.min(np.abs(np.linalg.det(gram))[mask]) \
        / (1.0 + max_abs(gram)) ** ell if mask.any() else 0.0

    # statement: J nabla_{K_i} K_j stays in span{K}
    gam = flds.gamma
    graminv = np.linalg.inv(gram)
    for i, Ki in enumerate(ks.K):
        for j, Kj in enumerate(ks.K):
            nab = (np.einsum("na,nba->nb", Ki.c[0], Kj.c[1])
                   + np.einsum("nbac,na,nc->nb", gam.c[0], Ki.c[0],
                               Kj.c[0]))
            w_ = np.einsum("nab,nb->na", J.c[0], nab)
            coef = np.einsum("nij,nab,njb,na->ni", graminv, g.c[0], Kv, w_)
            proj = np.einsum("ni,nia->na", coef, Kv)
            worst["span"] = max(worst["span"], _masked_max(w_ - proj, mask)
                                / (1.0 + max_abs(w_)))

    anchors = {
        "lie_g": "L_K g", "lie_J": "L_K J", "lie_A": "L_K A",
        "omega_KK": "omega(K_i,K_j)", "brackets": "[K,K],[K,JK],[JK,JK]",
        "ham": "i_K omega + d mu", "moment": "K_j(mu_i)",
        "span": "J nabla_K K in span(K)",
    }
    for key in KILLING_KEYS[:-1]:
        rep.add(CheckEntry(f"killing_{key}", anchors[key], worst[key], tol,
                           samples=n, excluded=excl))
    rep.add(CheckEntry("killing_gram_margin", "det g(K_i,K_j) != 0",
                       float(margin), gram_margin, mode="min>=tol",
                       samples=n, excluded=excl))
    return rep


def a_on_k_recurrence(ks: CanonicalKillingSet, flds, tol=1e-7
                      ) -> ResidualReport:
    """A K_i = mu_i K_1 - K_{i+1}, with K_{ell+1} = 0."""
    A = flds.A.c[0]
    n = A.shape[0]
    rep = ResidualReport(title="a-on-k")
    if ks.ell == 0:
        rep.add(CheckEntry("a_on_k", "A K_i = mu_i K_1 - K_{i+1}", 0.0,
                           tol, samples=n, note="vacuous, ell=0"))
        return rep
    worst = 0.0
    for i, K in enumerate(ks.K):
        AK = np.einsum("nab,nb->na", A, K.c[0])
        rhs = ks.mus[i].c[0][:, None] * ks.K[0].c[0]
        if i + 1 < ks.ell:
            rhs = rhs - ks.K[i + 1].c[0]
        worst = max(worst, _masked_max(AK - rhs, ks.mask)
                    / (1.0 + max_abs(AK, rhs)))
    rep.add(CheckEntry("a_on_k", "A K_i = mu_i K_1 - K_{i+1}", worst, tol,
                       samples=n, excluded=int((~ks.mask).sum())))
    return rep


def totally_geodesic_residual(span, g: Jet, tol=1e-7, gram_margin=GRAM_MARGIN
                              ) -> ResidualReport:
    """Second fundamental form test: component of nabla_u v orthogonal to
    span{u_1..u_k} for each pair of span fields, at every sample."""
    n = g.c[0].shape[0]
    gam = christoffel(g)
    Uv = np.stack([u.c[0] for u in span], axis=1)      # (n, k, d)
    gram = np.einsum("nia,nab,njb->nij", Uv, g.c[0], Uv)
    det = np.abs(np.linalg.det(gram))
    ok = det / (1.0 + max_abs(gram)) ** len(span) >= gram_margin
    rep = ResidualReport(title="totally-geodesic")
    graminv = np.linalg.inv(gram[ok])
    worst = 0.0
    for u in span:
        for v in span:
            nab = (np.einsum("na,nba->nb", u.c[0], v.c[1])
                   + np.einsum("nbac,na,nc->nb", gam.c[0], u.c[0], v.c[0]))
            nab = nab[ok]
            coef = np.einsum("nij,nab,njb,na->ni", graminv,
                             g.c[0][ok], Uv[ok], nab)
            proj = np.einsum("ni,nia->na", coef, Uv[ok])
            worst = max(worst, max_abs(nab - proj) / (1.0 + max_abs(nab)))
    rep.add(CheckEntry("totally_geodesic", "pr_perp(nabla_u v) = 0",
                       worst, tol, samples=n, excluded=int((~ok).sum())))
    return rep
