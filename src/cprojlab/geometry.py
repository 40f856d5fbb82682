"""Chart-level tensor calculus on jet-valued fields.

Everything downstream is phrased here: Christoffel symbols, covariant
derivatives, curvature, Lie derivatives, exterior derivative, gradients.
Inputs are stacked tensor jets (batch ``(N, components...)`` with trailing
derivative axes, see ``jets``); outputs are stacked jets or plain value
arrays when no further differentiation is needed.

Index conventions:
  metric         g:     (N, a, b)
  endomorphism   A:     (N, a, b)  meaning A^a_b
  two-form       w:     (N, a, b)  meaning w_ab, antisymmetric
  vector         v:     (N, a)
  Christoffel    Gamma: (N, c, a, b)  meaning Gamma^c_ab
  curvature      R:     (N, d, c, a, b)  meaning R^d_cab, i.e.
                 R(e_a, e_b) e_c = R^d_cab e_d with
                 R(u, v) = nabla_u nabla_v - nabla_v nabla_u - nabla_[u,v].
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .jets import Jet, JetError, contract, jet_einsum, jet_inv, jet_map, \
    tensor_partial
from .report import nan_max

__all__ = [
    "Box", "GridSpec", "GeometryError",
    "metric_inverse", "christoffel", "riemann",
    "cov_deriv_endo", "cov_deriv_vector", "lie_metric", "lie_endo",
    "lie_scalar", "lie_two_form", "lie_vector", "lie_christoffel",
    "ext_deriv_two_form", "gradient", "hessian_cov", "third_cov_scalar",
    "max_abs", "nan_max", "span_gram", "normal_part",
]


SHRINK = 0.02  # sampled points keep this fraction of each side off a face


class GeometryError(ValueError):
    pass


class Box:
    """Open coordinate box; all sampling stays strictly inside."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise GeometryError("invalid box bounds")

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts > self.lo) & (pts < self.hi), axis=-1)

    def grid(self, per_axis: int) -> np.ndarray:
        axes = [np.linspace(l + SHRINK * (h - l), h - SHRINK * (h - l),
                            per_axis)
                for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def random(self, n: int, rng: np.random.Generator) -> np.ndarray:
        pad = SHRINK * (self.hi - self.lo)
        return rng.uniform(self.lo + pad, self.hi - pad,
                           size=(n, self.dim))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


class GridSpec(NamedTuple):
    """Sampling plan: a regular grid plus uniform random interior points."""

    per_axis: int = 5
    n_random: int = 64
    seed: int = 0

    def points(self, box: Box) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        pts = [box.grid(self.per_axis)]
        if self.n_random:
            pts.append(box.random(self.n_random, rng))
        return np.concatenate(pts, axis=0)


# ---------------------------------------------------------------------------
# residual norms
# ---------------------------------------------------------------------------

def max_abs(*arrays) -> float:
    """The largest |entry| of the arrays (None skipped), 0.0 if there is
    none and NaN if one is NaN."""
    return nan_max(0.0, *(float(np.max(np.abs(a))) for a in arrays
                          if a is not None and np.size(a)))


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------

def metric_inverse(g: Jet) -> Jet:
    det = np.linalg.det(g.c[0])
    if np.any(np.abs(det) < 1e-14):
        bad = int(np.argmin(np.abs(det)))
        raise GeometryError(f"singular metric at sample {bad}")
    return jet_inv(g)


def christoffel(g: Jet, ginv: Jet | None = None) -> Jet:
    """Levi-Civita symbols as a tensor jet, one order below the metric.
    The contraction's output is fresh, so it is halved in place: scaling
    by 0.5 is exact, and no second full-size jet is made."""
    if g.order < 1:
        raise JetError("christoffel needs metric jets of order >= 1")
    dg = tensor_partial(g)  # (N, a, b, c) = d_c g_ab
    if ginv is None:
        ginv = metric_inverse(g.truncate(dg.order))
    t = (jet_map("nbda->ndab", dg) + jet_map("nadb->ndab", dg)
         - jet_map("nabd->ndab", dg))
    gamma = jet_einsum("ncd,ndab->ncab", ginv.truncate(t.order), t)
    for c in gamma.c:
        c *= 0.5
    return gamma


def riemann(gamma: Jet) -> np.ndarray:
    """Coordinate curvature values R^d_cab from order->=1 Christoffel jets.
    The four terms are summed into one output, left to right, so only one
    quadratic term is held beside it."""
    if gamma.order < 1:
        raise JetError("riemann needs Christoffel jets of order >= 1")
    G = gamma.c[0]                     # (N,c,a,b)
    dG = gamma.c[1]                    # (N,c,a,b,p)
    out = np.subtract(np.einsum("ndbca->ndcab", dG),
                      np.einsum("ndacb->ndcab", dG))
    out += contract("ndae,nebc->ndcab", G, G)
    out -= contract("ndbe,neac->ndcab", G, G)
    return out


def cov_deriv_endo(A: Jet, gamma: Jet) -> np.ndarray:
    """(nabla_a A)^b_c values; A of order >= 1, and only the values of
    gamma are read."""
    dA = A.c[1]  # (N,b,c,a)
    G = gamma.c[0]
    # NB: the bare transpose einsum returns a view; never += into it
    return (np.einsum("nbca->nabc", dA)
            + contract("nbad,ndc->nabc", G, A.c[0])
            - contract("ndac,nbd->nabc", G, A.c[0]))


def cov_deriv_vector(v: Jet, gamma: Jet) -> np.ndarray:
    """nabla_a v^b values, shape (N, a, b)."""
    return (np.einsum("nba->nab", v.c[1])
            + np.einsum("nbad,nd->nab", gamma.c[0], v.c[0]))


# ---------------------------------------------------------------------------
# projection onto a span of vectors
# ---------------------------------------------------------------------------

def span_gram(span: np.ndarray, gv: np.ndarray):
    """Gram matrix g(u_i, u_j) of the vectors ``span`` (N, k, a) in the
    metric values ``gv`` (N, a, b), and its |det| per sample relative to
    (1 + max |g(u_i, u_j)|)^k over all samples."""
    gram = np.einsum("nia,nab,njb->nij", span, gv, span)
    return gram, (np.abs(np.linalg.det(gram))
                  / (1.0 + max_abs(gram)) ** span.shape[1])


def normal_part(w: np.ndarray, span: np.ndarray, gv: np.ndarray,
                gram_inv: np.ndarray) -> np.ndarray:
    """The g-orthogonal part of w (N, a) off the span (N, k, a), given the
    inverse of its Gram matrix, which a caller inverts once for all the
    vectors it projects."""
    low = contract("nab,njb->nja", gv, span)            # g(u_j, .)
    coef = contract("nij,nj->ni", gram_inv, contract("nja,na->nj", low, w))
    return w - contract("ni,nia->na", coef, span)


# ---------------------------------------------------------------------------
# Lie derivatives (coordinate formulas, order >= 1 jets for field and v)
# ---------------------------------------------------------------------------

def lie_metric(g: Jet, v: Jet) -> np.ndarray:
    return (np.einsum("nabc,nc->nab", g.c[1], v.c[0])
            + contract("ncb,nca->nab", g.c[0], v.c[1])
            + contract("nac,ncb->nab", g.c[0], v.c[1]))


def lie_two_form(w: Jet, v: Jet) -> np.ndarray:
    return lie_metric(w, v)  # same coordinate formula for any (0,2)-tensor


def lie_endo(A: Jet, v: Jet) -> np.ndarray:
    return (np.einsum("nabc,nc->nab", A.c[1], v.c[0])
            - contract("ncb,nac->nab", A.c[0], v.c[1])
            + contract("nac,ncb->nab", A.c[0], v.c[1]))


def lie_scalar(f: Jet, v: Jet) -> np.ndarray:
    return np.einsum("na,na->n", f.c[1], v.c[0])


def lie_vector(u: Jet, v: Jet) -> np.ndarray:
    """[v, u]^a values (the Lie derivative of u along v)."""
    return lie_bracket(v, u)


def lie_bracket(u: Jet, v: Jet) -> np.ndarray:
    """[u, v]^a values."""
    return (np.einsum("nab,nb->na", v.c[1], u.c[0])
            - np.einsum("nab,nb->na", u.c[1], v.c[0]))


def lie_christoffel(gamma: Jet, v: Jet) -> np.ndarray:
    """(L_v Gamma)^c_ab; needs order >= 1 Gamma jets and order >= 2 v jets."""
    G, dG = gamma.c[0], gamma.c[1]
    out = np.einsum("ncabd,nd->ncab", dG, v.c[0])
    out -= np.einsum("ndab,ncd->ncab", G, v.c[1])
    out += np.einsum("ncdb,nda->ncab", G, v.c[1])
    out += np.einsum("ncad,ndb->ncab", G, v.c[1])
    out += np.einsum("ncab->ncab", v.c[2])
    return out


# ---------------------------------------------------------------------------
# exterior derivative, gradients, Hessians
# ---------------------------------------------------------------------------

def ext_deriv_two_form(w: Jet) -> np.ndarray:
    """(dw)_abc = d_a w_bc + d_b w_ca + d_c w_ab, values."""
    dw = w.c[1]  # (N,b,c,a)
    return (np.einsum("nbca->nabc", dw)
            + np.einsum("ncab->nabc", dw)
            + np.einsum("nabc->nabc", dw))


def gradient(f: Jet, ginv: Jet) -> Jet:
    """grad f = g^{ab} d_b f as a vector jet (order reduced by one)."""
    df = tensor_partial(f)  # (N, a)
    return jet_einsum("nab,nb->na", ginv.truncate(df.order), df)


def hessian_cov(f: Jet, gamma: Jet) -> Jet:
    """(nabla^2 f)_ab = d_a d_b f - Gamma^c_ab d_c f, as a jet."""
    df = tensor_partial(f)                      # (N,a), order-1
    ddf = tensor_partial(df)                    # (N,a,b)
    k = ddf.order
    corr = jet_einsum("ncab,nc->nab", gamma.truncate(k), df.truncate(k))
    return ddf - corr


def third_cov_scalar(f: Jet, gamma: Jet) -> np.ndarray:
    """(nabla^3 f)(e_x, e_a, e_b) = (nabla_x nabla^2 f)_ab, values (N,x,a,b).

    Needs f of order 3 and Gamma of order >= 1.
    """
    h = hessian_cov(f, gamma)     # jet, order >= 1
    dh = tensor_partial(h)        # (N,a,b,x)
    G = gamma.c[0]
    return (np.einsum("nabx->nxab", dh.c[0])
            - np.einsum("ncxa,ncb->nxab", G, h.c[0])
            - np.einsum("ncxb,nac->nxab", G, h.c[0]))
