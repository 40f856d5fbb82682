import numpy as np
import pytest

from cprojlab.builders import (
    ChartFields, ConstantBlock, PowerProfile, build_mobility2,
    build_mobility2_projective,
)
from cprojlab.curvspec import (
    compare_with_numeric, curvature_operator_matrix, fit_nabla_lambda_poly,
    fppp_limit_check, jordan_alpha_invariant, lambda_two_eigen,
    nabla_lambda_endo, predicted_eigenvalues, r0_operator,
    ricci_identity_check, skew_hermitian_residuals, third_order_residual,
    unitary_basis, wedge_J,
)
from cprojlab.geometry import max_abs
from cprojlab.jets import Jet, jstack

from conftest import sample


def split_hermitian_space():
    """Indefinite pseudo-hermitian R^4 with a Jordan-block hermitian A."""
    def realify(M):
        n = M.shape[0]
        R = np.zeros((2 * n, 2 * n))
        for i in range(n):
            for j in range(n):
                z = M[i, j]
                R[2 * i, 2 * j] = z.real
                R[2 * i, 2 * j + 1] = -z.imag
                R[2 * i + 1, 2 * j] = z.imag
                R[2 * i + 1, 2 * j + 1] = z.real
        return R

    H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho = 0.35
    Ac = np.array([[rho, 1.0], [0.0, rho]], dtype=complex)
    return realify(H), realify(1j * np.eye(2)), realify(Ac), rho


def test_wedge_membership_and_antisymmetry():
    rng = np.random.default_rng(0)
    g0, J0, _, _ = split_hermitian_space()
    u = rng.normal(size=(6, 4))
    v = rng.normal(size=(6, 4))
    X = wedge_J(u, v, g0[None], J0[None])
    comm, skew = skew_hermitian_residuals(X, g0[None], J0[None])
    assert comm <= 1e-12 and skew <= 1e-12
    assert max_abs(wedge_J(u, u, g0[None], J0[None])) == 0.0
    assert max_abs(X + wedge_J(v, u, g0[None], J0[None])) <= 1e-13


def test_wedge_with_Ju_expansion():
    # u ^_J (Ju) = 2(u^b (x) Ju - (Ju)^b (x) u) on flat C
    g0 = np.eye(2)[None]
    J0 = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    u = np.array([[0.7, -0.3]])
    Ju = np.einsum("nab,nb->na", J0, u)
    X = wedge_J(u, Ju, g0, J0)
    ub = u[0]
    direct = (np.outer(Ju[0], ub) - np.outer(u[0], Ju[0]))
    assert np.allclose(X[0], 2.0 * direct)


def test_unitary_basis_dimension():
    g0, J0, _, _ = split_hermitian_space()
    basis, _ = unitary_basis(g0, J0)
    assert basis.shape[0] == 4          # dim_R u(1,1) = 4


def test_ricci_identity_on_corpus(corpus):
    for name, chart, _ in corpus:
        n = 6 if chart.dim >= 6 else 15
        fl = chart.eval(sample(chart, n), order=2)
        rep = ricci_identity_check(fl)
        assert rep.entries[0].value <= 1e-7, name


def test_ricci_identity_negative_control():
    from cprojlab.builders import ChartFields
    n, d = 10, 2
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.3, 0.9, (n, d))
    x = Jet.seed(0, pts[:, 0], d, 2)
    y = Jet.seed(1, pts[:, 1], d, 2)
    one = Jet.const(np.ones(n), d, 2)
    zero = Jet.const(np.zeros(n), d, 2)
    f = 1.0 + 0.4 * (x * y).sin()
    g = jstack([[f, zero], [zero, f]])
    J = jstack([[zero, -one], [one, zero]])
    w = jstack([[zero, f], [-f, zero]])
    A = jstack([[x * y, zero], [zero, x * y]])   # hermitian, not a solution
    fl = ChartFields(g=g, omega=w, J=J, A=A, rhos=[x * y],
                     mus=[one, x * y])
    rep = ricci_identity_check(fl)
    assert rep.entries[0].value > 1e-3


def test_fit_poly_final_metric():
    B = 0.7
    ch = build_mobility2(1, -4.0 * B, -1.0,
                         cb=(ConstantBlock(0.0, 2), ConstantBlock(1.0, 2)))
    fl = ch.eval(sample(ch, 8), order=2)
    for s in range(4):
        coef, res = fit_nabla_lambda_poly(fl, sample=s)
        assert res <= 1e-10
        rho = fl.rhos[0].c[0][s]
        # nabla Lambda = B(rho - 1) Id + B A
        assert np.allclose(coef, [B * (rho - 1.0), B], atol=1e-9)


def test_fit_poly_zero_for_parallel():
    from cprojlab.builders import ChartFields
    n, d = 6, 2
    one = Jet.const(np.ones(n), d, 2)
    zero = Jet.const(np.zeros(n), d, 2)
    g = jstack([[one, zero], [zero, one]])
    J = jstack([[zero, -one], [one, zero]])
    w = jstack([[zero, one], [-one, zero]])
    A = jstack([[2.0 * one, zero], [zero, 2.0 * one]])
    fl = ChartFields(g=g, omega=w, J=J, A=A, rhos=[], mus=[])
    coef, res = fit_nabla_lambda_poly(fl)
    assert res <= 1e-12
    assert max_abs(coef) <= 1e-12


def test_nabla_lambda_eigenspace_formula():
    # on the final metric, nabla La restricted to the constant eigenspaces
    # equals B(1-rho) rho (A - rho)^{-1}
    B = 0.55
    ch = build_mobility2(1, -4.0 * B, -1.0,
                         cb=(ConstantBlock(0.0, 2), ConstantBlock(1.0, 2)))
    fl = ch.eval(sample(ch, 6), order=2)
    NL = nabla_lambda_endo(fl)
    rho = fl.rhos[0].c[0]
    # E0 block sits at coordinates 2,3 (first flat factor), E1 at 4,5
    e0 = NL[:, 2:4, 2:4]
    expect0 = (B * (1 - rho) * rho / (0.0 - rho))[:, None, None] \
        * np.eye(2)[None]
    assert max_abs(e0 - expect0) <= 1e-9
    e1 = NL[:, 4:6, 4:6]
    expect1 = (B * (1 - rho) * rho / (1.0 - rho))[:, None, None] \
        * np.eye(2)[None]
    assert max_abs(e1 - expect1) <= 1e-9


def test_lambda_formula_and_spectrum(mob_l2):
    prof = mob_l2.qp.blocks[0].F
    fl = mob_l2.eval(sample(mob_l2, 5), order=2)
    for s in range(5):
        r1 = fl.rhos[0].c[0][s]
        r2 = fl.rhos[1].c[0][s]
        lam = lambda_two_eigen(prof, r1, r2)
        Rmat, _ = curvature_operator_matrix(fl, s)
        spec = np.linalg.eigvals(Rmat)
        assert np.min(np.abs(spec - lam)) <= 1e-9


def test_lambda_is_leaf_scalar_curvature(mob_l2):
    # the two-eigenvalue curvature scalar equals the Gaussian curvature
    # of the leaf metric (rho1 - rho2)(drho1^2/F1 - drho2^2/F2)
    from cprojlab.geometry import christoffel, riemann
    qp = mob_l2.qp
    prof = qp.blocks[0].F
    pts = sample(qp, 12)
    f = qp.eval(pts, order=2)
    gam = christoffel(f.g)
    R = riemann(gam)
    gv = f.g.c[0]
    Rlow = np.einsum("nde,necab->ndcab", gv, R)
    K = Rlow[:, 0, 1, 0, 1] / (gv[:, 0, 0] * gv[:, 1, 1]
                               - gv[:, 0, 1] ** 2)
    lam = lambda_two_eigen(prof, pts[:, 0], pts[:, 1])
    # R_{0101}/det(h) carries the opposite sign of the operator
    # eigenvalue in this index convention; magnitudes agree exactly
    assert max_abs(K + lam) / (1.0 + max_abs(lam)) <= 1e-9


def test_cubic_profile_constant_quarter():
    prof = PowerProfile(1.0, 0.0, 3.0)      # F = t^3
    r1 = np.linspace(0.1, 0.45, 9)
    r2 = np.linspace(0.55, 0.9, 9)
    lam = lambda_two_eigen(prof, r1, r2)
    assert np.max(np.abs(lam - 0.25)) <= 1e-10


def test_predicted_pair_eigenvalue_algebra():
    preds = predicted_eigenvalues([0.0, 0.0, 1.0], eig_pairs=[(1.0, 3.0)])
    # p = t^2: (p(1)-p(3))/(1-3) = 4
    assert abs(preds[0][2] - 4.0) <= 1e-14


def test_compare_with_numeric_on_instance(mob_l2):
    fl = mob_l2.eval(sample(mob_l2, 4), order=2)
    rep = compare_with_numeric(fl, sample=1)
    assert rep.overall_pass
    assert rep.max_value() <= 1e-9


def test_r0_operator_jordan_spectrum():
    g0, J0, A0, rho = split_hermitian_space()
    coeffs = np.array([0.3, 0.8, 0.45])
    op = r0_operator(coeffs, A0)
    # algebraic identity [R0(X), A] = [X, p(A)]
    basis, _ = unitary_basis(g0, J0)
    pA = coeffs[0] * np.eye(4) + coeffs[1] * A0 + coeffs[2] * A0 @ A0
    for X in basis:
        lhs = op(X) @ A0 - A0 @ op(X)
        rhs = X @ pA - pA @ X
        assert max_abs(lhs - rhs) <= 1e-12
    k = basis.shape[0]
    Rmat = np.zeros((k, k))
    for j in range(k):
        Rmat[:, j] = basis.reshape(k, -1) @ op(basis[j]).ravel()
    spec = np.linalg.eigvals(Rmat)
    dp = coeffs[1] + 2.0 * coeffs[2] * rho
    assert np.min(np.abs(spec - dp)) <= 1e-12


def test_r0_consistency_at_geometric_samples(mob_l2):
    # R0 built from the fitted polynomial satisfies the commutator
    # identity for random skew-hermitian X at every fitted sample
    rng = np.random.default_rng(12)
    fl = mob_l2.eval(sample(mob_l2, 5), order=2)
    for s in range(5):
        coef, res = fit_nabla_lambda_poly(fl, sample=s)
        assert res <= 1e-10
        A0 = fl.A.c[0][s]
        g0 = fl.g.c[0][s]
        J0 = fl.J.c[0][s]
        op = r0_operator(coef, A0)
        pA = sum(c * np.linalg.matrix_power(A0, k)
                 for k, c in enumerate(coef))
        for _ in range(4):
            u = rng.normal(size=(1, 4))
            v = rng.normal(size=(1, 4))
            X = wedge_J(u, v, g0[None], J0[None])[0]
            lhs = op(X) @ A0 - A0 @ op(X)
            rhs = X @ pA - pA @ X
            assert max_abs(lhs - rhs) <= 1e-10


def test_complex_det_is_real(corpus):
    from cprojlab.kahler import complex_char_poly
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 15), order=2)
        e = complex_char_poly(fl.A, fl.J)
        assert max_abs(e[-1].c[0].imag) <= 1e-10, name


def test_fppp_limits():
    rep = fppp_limit_check(PowerProfile(1.0, 0.0, 3.0), 0.4)   # t^3
    assert rep.entries[0].value <= 1e-10
    rep = fppp_limit_check(PowerProfile(1.0, 0.0, 4.0), 0.5)   # t^4
    assert rep.entries[0].value <= 1e-3
    # F''' target is 24 x / 24 = x = 0.5
    assert "0.5" in rep.entries[0].note
    # divergence of the fractional profile near 0
    prof = PowerProfile(1.0, 1.5, 1.5)    # (1-t)^{-1.5} t^{1.5}? no:
    prof = PowerProfile(1.0, -1.5, 1.5)   # (1-t)^{1.5} t^{1.5}
    vals = [abs(lambda_two_eigen(prof, x + 1e-3, x - 1e-3))
            for x in (1e-1, 1e-2, 1e-3 * 3)]
    assert vals[1] > 8 * vals[0]


def test_third_order_equation():
    B = 0.45
    ch = build_mobility2_projective(-1.0, m0=1, m1=1, B=B)
    fl = ch.eval(sample(ch, 20), order=3)
    rep = third_order_residual(fl, B)
    assert rep.entries[0].value <= 1e-9
    # parallel L: alpha constant, both sides vanish for any B
    n, d = 8, 2
    one = Jet.const(np.ones(n), d, 3)
    zero = Jet.const(np.zeros(n), d, 3)
    g = jstack([[one, zero], [zero, one]])
    L = jstack([[2 * one, zero], [zero, 3 * one]])
    pair = ChartFields(g=g, omega=None, J=None, A=L, rhos=[], mus=[])
    assert third_order_residual(pair, 0.77).entries[0].value == 0.0
    # random L fails
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.2, 0.8, (n, d))
    x = Jet.seed(0, pts[:, 0], d, 3)
    y = Jet.seed(1, pts[:, 1], d, 3)
    L2 = jstack([[x * y, zero], [zero, x + y]])
    assert third_order_residual(pair.replace(A=L2), 0.77).entries[0].value \
        > 1e-2


def test_real_ricci_identity_on_pairs(qp_dini, qp_jordan2, qp_jordan3):
    from cprojlab.curvspec import real_ricci_identity_check
    for qp in (qp_dini, qp_jordan2, qp_jordan3):
        f = qp.eval(sample(qp, 15), order=2)
        rep = real_ricci_identity_check(f)
        assert rep.entries[0].value <= 1e-8


def test_real_fit_rejects_noncommuting_nabla_lambda(qp_jordan2):
    # without J the fit keeps the commutator check: a trace-free constant
    # added to L leaves La, and so nabla La, as it is and breaks
    # [L, nabla La] = 0 (nabla La has the two distinct eigenvalues of L's
    # blocks, and N maps the second eigenspace into the first)
    f = qp_jordan2.eval(sample(qp_jordan2, 4), order=2)
    fit_nabla_lambda_poly(f)
    N = np.zeros((3, 3))
    N[0, 2] = 1.0
    with pytest.raises(ValueError, match="does not commute"):
        fit_nabla_lambda_poly(f.replace(A=f.A + N))


def test_jordan_divergence_formulas_certified(qp_jordan2, qp_jordan3,
                                              jordan2_sol, jordan3_sol):
    # the closed-form curvature eigenvalue of the nilpotent blocks equals
    # the derivative rule of the fitted polynomial AND sits in the
    # spectrum of the assembled real curvature operator
    from cprojlab.flows import jordan2_fprime, jordan3_fprime

    pts2 = sample(qp_jordan2, 4)
    f2 = qp_jordan2.eval(pts2, order=2)
    prof = qp_jordan2.blocks[1].F
    for s in range(3):
        x, rho1, rho2 = pts2[s]
        coef, res = fit_nabla_lambda_poly(f2, sample=s)
        assert res <= 1e-9
        dp = np.polynomial.Polynomial(coef).deriv()(rho1)
        formula = jordan2_fprime(jordan2_sol, x, rho1,
                                 extra_rhos=(rho2,),
                                 extra_profiles=(prof,))
        assert abs(dp - formula) <= 1e-9 * (1 + abs(formula))
        # numerical eigenvalues at a defective point split like eps^(1/k)
        spec = np.linalg.eigvals(curvature_operator_matrix(f2, s)[0])
        assert np.min(np.abs(spec - formula)) <= 1e-5 * (1 + abs(formula))

    pts3 = sample(qp_jordan3, 4)
    f3 = qp_jordan3.eval(pts3, order=2)
    for s in range(3):
        x1, x2, rho1 = pts3[s]
        coef, res = fit_nabla_lambda_poly(f3, sample=s)
        assert res <= 1e-9
        dp = np.polynomial.Polynomial(coef).deriv()(rho1)
        formula = jordan3_fprime(jordan3_sol, x2, rho1)
        assert abs(dp - formula) <= 1e-9 * (1 + abs(formula))
        spec = np.linalg.eigvals(curvature_operator_matrix(f3, s)[0])
        assert np.min(np.abs(spec - formula)) <= 1e-5 * (1 + abs(formula))


def test_jordan_alpha_invariant(jordan2_sol, jordan3_sol):
    # invariance under the admissible change e2 -> e2 + a e1
    rho, x = 0.4, 1.3
    F = float(jordan2_sol(rho))
    h = np.array([[0.0, F + x], [F + x, 0.0]])
    L = np.array([[rho, F + x], [0.0, rho]])
    base = jordan_alpha_invariant(h, L, rho)
    for a in (-0.7, 0.4, 2.0):
        P = np.array([[1.0, a], [0.0, 1.0]])
        h2 = P.T @ h @ P
        L2 = np.linalg.inv(P) @ L @ P
        # renormalize e2 so that h(e1, e2) = 1 pattern is preserved: the
        # change e2 -> e2 + a e1 keeps h(e1, e2) because h(e1, e1) = 0
        val = jordan_alpha_invariant(h2, L2, rho)
        assert abs(val - base) <= 1e-10
    x1, x2 = 0.8, 1.1
    F3 = float(jordan3_sol(rho))
    f2x = F3 + 2 * x2
    h3 = np.array([[0.0, 0.0, f2x], [0.0, 1.0, x1], [f2x, x1, x1 ** 2]])
    L3 = np.array([[rho, 1.0, x1], [0.0, rho, f2x], [0.0, 0.0, rho]])
    base3 = jordan_alpha_invariant(h3, L3, rho)
    assert base3 != 0.0


def test_real_curvature_derives_gamma_once_per_batch(qp_jordan2,
                                                      monkeypatch):
    # the projective checks read one Gamma of the whole batch, and a
    # one-sample reader equals the same reader on that sample alone
    from cprojlab import builders, curvspec
    pts = sample(qp_jordan2, 12)
    f = qp_jordan2.eval(pts, order=2)
    one = qp_jordan2.eval(pts[3:4], order=2)
    batches = []
    orig = builders.christoffel

    def counted(h, *a, **kw):
        batches.append(h.c[0].shape[0])
        return orig(h, *a, **kw)

    monkeypatch.setattr(builders, "christoffel", counted)
    curvspec.real_ricci_identity_check(f)
    coef, _ = curvspec.fit_nabla_lambda_poly(f, sample=3)
    R, _ = curvspec.curvature_operator_matrix(f, 3)
    assert batches == [12]
    coef1, _ = curvspec.fit_nabla_lambda_poly(one)
    R1, _ = curvspec.curvature_operator_matrix(one)
    assert max_abs(coef - coef1) <= 1e-13 * (1.0 + max_abs(coef))
    assert max_abs(R - R1) <= 1e-13 * (1.0 + max_abs(R))
