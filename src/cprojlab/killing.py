"""Canonical Killing fields K_i = J grad mu_i and their property suite.

The mu_i are elementary symmetric functions of the non-constant
eigenvalues, recovered from characteristic-polynomial coefficients (never
from eigenvalue branches, which may fail to be smooth).  The suite checks
all the pointwise-testable properties: each K_i is Killing, holomorphic,
preserves A, the fields pairwise commute together with their J-rotations,
omega vanishes on pairs, the span is nondegenerate, J nabla_{K_i} K_j
stays inside the span, plus the hamiltonian property i_K omega = -d mu
and the recurrence A K_i = mu_i K_1 - K_{i+1}.  By the hamiltonian
property omega(K_i, K_j) = -K_j(mu_i), so the omega line also measures
the moments.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, jet_einsum
from .geometry import (
    christoffel, cov_deriv_vector, gradient, lie_bracket, lie_endo,
    lie_metric, max_abs, nan_max, normal_part, span_gram,
)
from .report import CheckEntry, ResidualReport
from .kahler import gap_mask, nonconstant_factor

__all__ = [
    "KILLING_CHECKS", "CanonicalKillingSet", "build_canonical_killing",
    "killing_property_suite",
    "a_on_k_recurrence", "totally_geodesic_residual",
]

GRAM_MARGIN = 1e-6
# the property suite's checks in report order, each named killing_<key>,
# with its anchor: a worst residual each at the suite's tolerance, then
# the Gram margin of the span, whose bound is GRAM_MARGIN
KILLING_CHECKS = (
    ("lie_g", "L_K g"), ("lie_J", "L_K J"), ("lie_A", "L_K A"),
    ("omega_KK", "omega(K_i,K_j)"), ("brackets", "[K,K],[K,JK],[JK,JK]"),
    ("ham", "i_K omega + d mu"),
    ("span", "J nabla_K K in span(K)"),
    ("gram_margin", "det g(K_i,K_j) != 0"),
)


class CanonicalKillingSet:
    """mu_1..mu_ell jets plus the fields K_i = J grad mu_i (one order
    below the inputs) and the regularity mask of the samples."""

    def __init__(self, mus, K, mask):
        self.mus = mus            # list of scalar jets, mu_0 == 1 excluded
        self.K = K                # list of vector jets
        self.mask = mask
        self.ell = len(K)


def build_canonical_killing(flds, constant_eigs=()) -> CanonicalKillingSet:
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
    mask = gap_mask(vals, [c for c, _ in constant_eigs], n=g.c[0].shape[0])
    return CanonicalKillingSet(mus, K, mask)


def killing_property_suite(ks: CanonicalKillingSet, flds, tol=1e-6
                           ) -> ResidualReport:
    """The full canonical-Killing property suite at regular samples."""
    g, J, A, w = flds.g, flds.J, flds.A, flds.omega
    mask = ks.mask
    n = g.c[0].shape[0]
    excl = int((~mask).sum())
    rep = ResidualReport(title="killing-suite")
    G, Am = max_abs(g.c[0]), max_abs(A.c[0])
    terms = {k: [] for k, _ in KILLING_CHECKS[:-1]}
    JK = [jet_einsum("nab,nb->na", J.truncate(K.order), K) for K in ks.K]

    for i, K in enumerate(ks.K):
        ord1, sK = K.order, max_abs(K.c[0])
        terms["lie_g"].append((max_abs(
            lie_metric(g.truncate(ord1), K)[mask]), G, sK))
        terms["lie_J"].append((max_abs(
            lie_endo(J.truncate(ord1), K)[mask]), sK))
        terms["lie_A"].append((max_abs(
            lie_endo(A.truncate(ord1), K)[mask]), sK, Am))
        # hamiltonian property: omega(K_i, .) + d mu_i = 0
        ham = np.einsum("nab,na->nb", w.c[0], K.c[0]) + ks.mus[i].c[1]
        terms["ham"].append((max_abs(ham[mask]), sK))
        for j, K2 in enumerate(ks.K):
            terms["omega_KK"].append((max_abs(np.einsum(
                "nab,na,nb->n", w.c[0], K.c[0], K2.c[0])[mask]),
                sK, max_abs(K2.c[0])))
            for u, v_ in ((K, K2), (K, JK[j]), (JK[i], JK[j])):
                terms["brackets"].append((max_abs(lie_bracket(u, v_)[mask]),
                                          max_abs(u.c[0]), max_abs(v_.c[0])))

    # Gram nondegeneracy margin of span{K_i}: min |det| at regular
    # samples over (1 + max |gram|)^ell
    Kv = np.stack([K.c[0] for K in ks.K], axis=1)      # (n, ell, d)
    gram, _ = span_gram(Kv, g.c[0])
    gram_inv = np.linalg.inv(gram)
    margin = (np.min(np.abs(np.linalg.det(gram[mask])), initial=np.inf),
              max_abs(gram), ks.ell)

    # statement: J nabla_{K_i} K_j stays in span{K}
    nablaK = [cov_deriv_vector(Kj, flds.gamma0) for Kj in ks.K]
    for Ki in ks.K:
        for nKj in nablaK:
            w_ = np.einsum("nab,nb->na", J.c[0],
                           np.einsum("na,nab->nb", Ki.c[0], nKj))
            terms["span"].append((max_abs(
                normal_part(w_, Kv, g.c[0], gram_inv)[mask]), max_abs(w_)))

    for key, anchor in KILLING_CHECKS[:-1]:
        rep.add(CheckEntry.of(f"killing_{key}", anchor, terms[key], tol,
                              samples=n, excluded=excl))
    key, anchor = KILLING_CHECKS[-1]
    rep.add(CheckEntry.of(f"killing_{key}", anchor, [margin], GRAM_MARGIN,
                          mode="min>=tol", samples=n, excluded=excl))
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
    terms = []
    for i, K in enumerate(ks.K):
        AK = np.einsum("nab,nb->na", A, K.c[0])
        rhs = ks.mus[i].c[0][:, None] * ks.K[0].c[0]
        if i + 1 < ks.ell:
            rhs = rhs - ks.K[i + 1].c[0]
        terms.append((max_abs((AK - rhs)[ks.mask]), max_abs(AK, rhs)))
    rep.add(CheckEntry.of("a_on_k", "A K_i = mu_i K_1 - K_{i+1}", terms,
                          tol, samples=n, excluded=int((~ks.mask).sum())))
    return rep


def totally_geodesic_residual(span, g: Jet, tol=1e-7) -> ResidualReport:
    """Second fundamental form test: component of nabla_u v orthogonal to
    span{u_1..u_k} for each pair of span fields, at every sample."""
    n = g.c[0].shape[0]
    gam = christoffel(g)
    Uv = np.stack([u.c[0] for u in span], axis=1)      # (n, k, d)
    gram, rel_det = span_gram(Uv, g.c[0])
    ok = rel_det >= GRAM_MARGIN
    Uok, gok, gram_inv = Uv[ok], g.c[0][ok], np.linalg.inv(gram[ok])
    rep = ResidualReport(title="totally-geodesic")
    worst = 0.0
    for v in span:
        nv = cov_deriv_vector(v, gam)[ok]
        for u in span:
            nab = np.einsum("na,nab->nb", u.c[0][ok], nv)
            worst = nan_max(worst, max_abs(
                normal_part(nab, Uok, gok, gram_inv)) / (1.0 + max_abs(nab)))
    rep.add(CheckEntry("totally_geodesic", "pr_perp(nabla_u v) = 0",
                       worst, tol, samples=n, excluded=int((~ok).sum())))
    return rep
