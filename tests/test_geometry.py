import numpy as np
import pytest

from cprojlab.jets import (
    Jet, contract, jet_einsum, jet_map, jstack, tensor_partial,
)
from cprojlab.geometry import (
    Box, GridSpec, GeometryError,
    christoffel, cov_deriv_endo, ext_deriv_two_form, gradient,
    hessian_cov, lie_bracket, lie_christoffel, lie_metric,
    metric_inverse, max_abs, nan_max, normal_part, riemann, span_gram,
)

from conftest import same_bytes, sample


def seeds(pts, order):
    d = pts.shape[1]
    return [Jet.seed(i, pts[:, i], d, order) for i in range(d)]


def const(v, pts, order):
    return Jet.const(np.full(pts.shape[0], v), pts.shape[1], order)


def euclid_jet(pts, order):
    n, d = pts.shape
    one = lambda: Jet.const(np.ones(n), d, order)
    zero = lambda: Jet.const(np.zeros(n), d, order)
    return jstack([[one() if i == j else zero() for j in range(d)]
                   for i in range(d)])


def test_flat_christoffel_and_curvature_vanish():
    pts = np.random.default_rng(0).uniform(-1, 1, (10, 3))
    g = euclid_jet(pts, 2)
    gam = christoffel(g)
    assert max_abs(gam.c[0]) < 1e-14
    assert max_abs(riemann(gam)) < 1e-14


def test_conformal_christoffels_dim2():
    # g = exp(2 x0) * delta
    pts = np.random.default_rng(1).uniform(-0.5, 0.5, (7, 2))
    x0, _ = seeds(pts, 2)
    f = (2.0 * x0).exp()
    zero = const(0.0, pts, 2)
    g = jstack([[f, zero], [zero, f]])
    gam = christoffel(g).c[0]
    assert np.allclose(gam[:, 0, 0, 0], 1.0)
    assert np.allclose(gam[:, 0, 1, 1], -1.0)
    assert np.allclose(gam[:, 1, 0, 1], 1.0)
    assert np.allclose(gam[:, 1, 1, 0], 1.0)
    # torsion-free exactly
    assert max_abs(gam - np.swapaxes(gam, -1, -2)) == 0.0


def sphere_chart(pts, order):
    """Round unit sphere, g = d(theta)^2 + sin(theta)^2 d(phi)^2."""
    th, _ = seeds(pts, order)
    zero = Jet.const(np.zeros(pts.shape[0]), 2, order)
    return jstack([[th.sin() * 0.0 + 1.0, zero], [zero, th.sin() ** 2]])


def test_sphere_christoffel_matches_fd_oracle():
    pts = np.column_stack([np.full(3, np.pi / 4),
                           np.array([0.3, 1.0, 2.0])])
    g = sphere_chart(pts, 2)
    gam = christoffel(g).c[0]

    def g_comp(i, j):
        return lambda x: np.where(i == j,
                                  1.0 if i == 0 else np.sin(x[..., 0]) ** 2,
                                  0.0)

    # finite-difference Christoffels from the metric formula
    def gamma_fd(x):
        h = 1e-3
        d = 2
        gv = np.zeros(x.shape[:-1] + (d, d))
        gv[..., 0, 0] = 1.0
        gv[..., 1, 1] = np.sin(x[..., 0]) ** 2
        dg = np.zeros(x.shape[:-1] + (d, d, d))
        for c in range(d):
            e = np.zeros(d)
            e[c] = h
            gp = np.zeros(x.shape[:-1] + (d, d))
            gm = np.zeros_like(gp)
            gp[..., 0, 0] = gm[..., 0, 0] = 1.0
            gp[..., 1, 1] = np.sin((x + e)[..., 0]) ** 2
            gm[..., 1, 1] = np.sin((x - e)[..., 0]) ** 2
            dg[..., c] = (gp - gm) / (2 * h)
        ginv = np.linalg.inv(gv)
        t = (np.einsum("...bda->...dab", dg)
             + np.einsum("...adb->...dab", dg)
             - np.einsum("...abd->...dab", dg))
        return 0.5 * np.einsum("...cd,...dab->...cab", ginv, t)

    assert np.allclose(gam, gamma_fd(pts), atol=1e-8)


def test_sphere_sectional_curvature_is_one():
    pts = np.column_stack([np.linspace(0.5, 2.2, 9),
                           np.linspace(-1.0, 1.0, 9)])
    g = sphere_chart(pts, 2)
    gam = christoffel(g)
    R = riemann(gam)
    gv = g.c[0]
    Rlow = np.einsum("nde,necab->ndcab", gv, R)
    # K(e0,e1) = R_{0101} / (g00 g11 - g01^2), lowered R_{dcab}=g R^e_cab
    K = Rlow[:, 0, 1, 0, 1] / (gv[:, 0, 0] * gv[:, 1, 1] - gv[:, 0, 1] ** 2)
    assert np.allclose(K, 1.0, atol=1e-10)


def fubini_study_chart(pts, order):
    """CP^1 affine chart, g = 4 (dx^2+dy^2)/(1+x^2+y^2)^2, K = 1."""
    x, y = seeds(pts, order)
    f = 4.0 / ((1.0 + x * x + y * y) ** 2)
    zero = Jet.const(np.zeros(pts.shape[0]), 2, order)
    g = jstack([[f, zero], [zero, f]])
    ones = np.ones(pts.shape[0])
    J = jstack([[Jet.const(0 * ones, 2, order), Jet.const(-ones, 2, order)],
                [Jet.const(ones, 2, order), Jet.const(0 * ones, 2, order)]])
    return g, J


def test_fubini_study_constant_holomorphic_sectional_curvature():
    pts = np.random.default_rng(3).uniform(-0.8, 0.8, (12, 2))
    g, J = fubini_study_chart(pts, 2)
    gam = christoffel(g)
    R = riemann(gam)
    gv = g.c[0]
    Rlow = np.einsum("nde,necab->ndcab", gv, R)
    K = Rlow[:, 0, 1, 0, 1] / (gv[:, 0, 0] * gv[:, 1, 1] - gv[:, 0, 1] ** 2)
    assert np.allclose(K, 1.0, atol=1e-7)


def test_bianchi_and_lowered_symmetries_random_metric():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.4, 0.4, (6, 3))
    x, y, z = seeds(pts, 2)
    f1 = (x * y).sin() * 0.1 + 1.5
    f2 = (y + z * z).exp() * 0.05 + 1.0
    f3 = 1.0 + 0.2 * x * x
    c12 = 0.1 * (x + y)
    zero = const(0.0, pts, 2)
    g = jstack([[f1, c12, zero], [c12, f2, 0.05 * y * z],
                [zero, 0.05 * y * z, f3]])
    gam = christoffel(g)
    R = riemann(gam)
    bianchi = (R + np.einsum("ndabc->ndcab", R) + np.einsum("ndbca->ndcab", R))
    assert max_abs(bianchi) < 1e-10
    Rlow = np.einsum("nde,necab->ndcab", g.c[0], R)
    assert max_abs(Rlow + np.einsum("ncdab->ndcab", Rlow)) < 1e-10
    assert max_abs(Rlow - np.einsum("nabdc->ndcab", Rlow)) < 1e-10


def test_cov_deriv_endo_identity_and_constant_flat():
    pts = np.random.default_rng(2).uniform(-1, 1, (8, 2))
    g = euclid_jet(pts, 2)
    gam = christoffel(g)
    n = pts.shape[0]
    ident = jstack([[const(1.0, pts, 2), const(0.0, pts, 2)],
                    [const(0.0, pts, 2), const(1.0, pts, 2)]])
    assert max_abs(cov_deriv_endo(ident, gam)) < 1e-14
    A = jstack([[const(2.0, pts, 2), const(0.5, pts, 2)],
                [const(-1.0, pts, 2), const(3.0, pts, 2)]])
    assert max_abs(cov_deriv_endo(A, gam)) < 1e-14


def test_cov_deriv_endo_matches_fd_on_curved_metric():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.3, 0.3, (5, 2))
    x, y = seeds(pts, 2)
    f = 1.0 + 0.3 * (x * y).sin()
    zero = const(0.0, pts, 2)
    g = jstack([[f, zero], [zero, f * f]])
    gam = christoffel(g)
    A = jstack([[x * y, x * x], [y, x + y * y]])
    nA = cov_deriv_endo(A, gam)

    h = 1e-4

    def gamma_at(q):
        xq = [Jet.seed(i, q[:, i], 2, 1) for i in range(2)]
        fq = 1.0 + 0.3 * (xq[0] * xq[1]).sin()
        zq = Jet.const(np.zeros(q.shape[0]), 2, 1)
        gq = jstack([[fq, zq], [zq, fq * fq]])
        return christoffel(gq).c[0]

    def A_at(q):
        a = np.zeros(q.shape[:-1] + (2, 2))
        a[..., 0, 0] = q[..., 0] * q[..., 1]
        a[..., 0, 1] = q[..., 0] ** 2
        a[..., 1, 0] = q[..., 1]
        a[..., 1, 1] = q[..., 0] + q[..., 1] ** 2
        return a

    G = gamma_at(pts)
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        dA = (A_at(pts + e) - A_at(pts - e)) / (2 * h)
        expect = (dA + np.einsum("nbd,ndc->nbc", G[:, :, a, :], A_at(pts))
                  - np.einsum("ndc,nbd->nbc", G[:, :, a, :], A_at(pts)))
        assert np.allclose(nA[:, a], expect, atol=1e-7)


def test_lie_derivative_zero_field_and_isometry():
    pts = np.random.default_rng(5).uniform(-1, 1, (9, 2))
    g = euclid_jet(pts, 2)
    zero_v = jstack([const(0.0, pts, 2), const(0.0, pts, 2)])
    assert max_abs(lie_metric(g, zero_v)) == 0.0
    x, y = seeds(pts, 2)
    rot = jstack([-y, x])
    assert max_abs(lie_metric(g, rot)) < 1e-14
    dil = jstack([x, const(0.0, pts, 2)])
    lg = lie_metric(g, dil)
    assert np.allclose(lg[:, 0, 0], 2.0)
    assert max_abs(lg[:, 0, 1]) + max_abs(lg[:, 1, 1]) < 1e-14


def test_killing_field_preserves_christoffel():
    # rotation field on the sphere chart: v = d/dphi
    pts = np.column_stack([np.linspace(0.6, 2.0, 8),
                           np.linspace(-1, 1, 8)])
    g = sphere_chart(pts, 3)
    gam = christoffel(g)
    v = jstack([Jet.const(np.zeros(8), 2, 3), Jet.const(np.ones(8), 2, 3)])
    assert max_abs(lie_metric(g, v)) < 1e-13
    assert max_abs(lie_christoffel(gam, v.truncate(2))) < 1e-13


def test_exterior_derivative_and_brackets():
    pts = np.random.default_rng(6).uniform(-1, 1, (6, 3))
    x, y, z = seeds(pts, 2)
    zero = const(0.0, pts, 2)
    w_const = jstack([[zero, const(1.0, pts, 2), zero],
                      [const(-1.0, pts, 2), zero, zero],
                      [zero, zero, zero]])
    assert max_abs(ext_deriv_two_form(w_const)) == 0.0
    # w = x0 dx1 ^ dx2 has dw = dx0 ^ dx1 ^ dx2
    w = jstack([[zero, zero, zero], [zero, zero, x], [zero, -x, zero]])
    dw = ext_deriv_two_form(w)
    assert np.allclose(dw[:, 0, 1, 2], 1.0)
    # coordinate fields commute
    u = jstack([const(1.0, pts, 2), zero, zero])
    v = jstack([zero, const(1.0, pts, 2), zero])
    assert max_abs(lie_bracket(u, v)) == 0.0


def test_gradient_and_hessian_flat():
    pts = np.random.default_rng(8).uniform(-1, 1, (7, 3))
    x, y, z = seeds(pts, 2)
    f = x * x + y * y + z * z
    g = euclid_jet(pts, 2)
    ginv = metric_inverse(g)
    gf = gradient(f, ginv)
    assert np.allclose(gf.c[0], 2 * pts)
    h = hessian_cov(f, christoffel(g))
    assert np.allclose(h.c[0], 2 * np.eye(3)[None], atol=1e-14)


def test_singular_metric_raises():
    pts = np.zeros((2, 2))
    zero = Jet.const(np.zeros(2), 2, 1)
    g = jstack([[zero, zero], [zero, zero + 1.0]])
    with pytest.raises(GeometryError):
        metric_inverse(g)


def test_box_and_grid():
    b = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    pts = b.grid(3)
    assert pts.shape == (9, 2)
    assert b.contains(pts).all()
    spec = GridSpec(per_axis=3, n_random=10, seed=1)
    pts = spec.points(b)
    assert pts.shape == (19, 2)
    assert b.contains(pts).all()
    # determinism
    assert np.array_equal(pts, GridSpec(per_axis=3, n_random=10,
                                        seed=1).points(b))


def test_lie_scalar_two_form_and_curvature_accessor():
    from cprojlab.geometry import lie_scalar, lie_two_form, lie_vector
    pts = np.random.default_rng(3).uniform(0.4, 1.2, (6, 2))
    x, y = seeds(pts, 2)
    v = jstack([x * 0.0 + 1.0, const(0.0, pts, 2)])   # d/dx0
    f = x * x * y
    assert np.allclose(lie_scalar(f, v), 2 * pts[:, 0] * pts[:, 1])
    zero = const(0.0, pts, 2)
    w = jstack([[zero, x], [-x, zero]])               # x0 dx0 ^ dx1
    lw = lie_two_form(w, v)
    assert np.allclose(lw[:, 0, 1], 1.0)
    # L_v u = [v, u] on random order-1 vector jets
    rng = np.random.default_rng(4)
    a, b = (Jet(3, 1, [rng.normal(size=(6, 3)), rng.normal(size=(6, 3, 3))])
            for _ in range(2))
    assert np.array_equal(lie_vector(a, b), -lie_bracket(a, b))


def test_span_gram_and_normal_part_by_hand():
    # sample 0: g = diag(1, 2, 3), span{e1, e1 + e2}, not orthogonal;
    # sample 1: g = diag(1, 1, 4), span{e1, e3}
    gv = np.array([np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 4.0])])
    span = np.array([[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
                     [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
    gram, rel_det = span_gram(span, gv)
    assert np.allclose(gram, [[[1.0, 1.0], [1.0, 3.0]],
                              [[1.0, 0.0], [0.0, 4.0]]], rtol=0, atol=1e-15)
    # det 2 and 4 over (1 + max |gram| over all samples)^2 = 25
    assert np.allclose(rel_det, [2.0 / 25.0, 4.0 / 25.0], rtol=1e-15)
    # the g-orthogonal complement of each span is spanned by the
    # remaining coordinate vector, since both metrics are diagonal
    w = np.array([[1.0, 2.0, 5.0], [1.0, 2.0, 5.0]])
    assert np.allclose(normal_part(w, span, gv, np.linalg.inv(gram)),
                       [[0.0, 0.0, 5.0], [0.0, 2.0, 0.0]],
                       rtol=0, atol=1e-14)


def test_max_abs_and_nan_max_keep_nan():
    a = np.array([1.0, np.nan])
    assert np.isnan(max_abs(np.ones(3), a)) and np.isnan(max_abs(a, -2.0))
    assert np.isnan(nan_max(0.0, np.nan, 1.0))
    assert np.isnan(nan_max(np.nan, 2.0))
    assert max_abs(None, np.zeros(0)) == 0.0
    assert max_abs(np.array([-3.0, 1.0]), 2.0) == nan_max(1.0, 3.0) == 3.0


def christoffel_expression(g, ginv):
    """Christoffel symbols as one expression, the jet halved into a copy."""
    dg = tensor_partial(g)
    t = (jet_map("nbda->ndab", dg) + jet_map("nadb->ndab", dg)
         - jet_map("nabd->ndab", dg))
    return jet_einsum("ncd,ndab->ncab", ginv.truncate(t.order), t) * 0.5


def riemann_expression(gamma):
    """Curvature values as one expression of four full-size terms."""
    G, dG = gamma.c[0], gamma.c[1]
    return (np.einsum("ndbca->ndcab", dG) - np.einsum("ndacb->ndcab", dG)
            + contract("ndae,nebc->ndcab", G, G)
            - contract("ndbe,neac->ndcab", G, G))


def test_christoffel_and_riemann_keep_the_bytes_of_the_expressions(corpus):
    # halving in place and summing into one output round as the
    # expressions do, signed zeros included
    for name, chart, _ in corpus:
        # the Jacobian route stops at order 2
        for order in (2,) if chart.route == "jacobian" else (2, 3):
            fl = chart.eval(sample(chart, 12), order=order)
            gamma = christoffel(fl.g, fl.ginv)
            oracle = christoffel_expression(fl.g, fl.ginv)
            assert gamma.order == oracle.order == order - 1
            for a, b in zip(gamma.c, oracle.c):
                assert same_bytes(a, b), (name, order)
            assert same_bytes(riemann(gamma), riemann_expression(oracle)), \
                (name, order)
