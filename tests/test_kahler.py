import math
from dataclasses import replace

import numpy as np
import pytest

from cprojlab.jets import Jet, jet_det, jet_einsum, jet_inv, jstack
from cprojlab.geometry import max_abs
from cprojlab.kahler import (
    KahlerError, check_kahler, commuting_gradients_residual,
    complex_det, connection_difference_check, cproj_residual,
    eigenvector_gradient_residual, hamiltonian_killing_check,
    mu_hat_duality_residual, nonconstant_factor, partner_fields,
    proj_residual, recover_endo, spectrum_safe_shift,
)
from cprojlab.builders import ChartFields, lift_pair, shift_endo
from cprojlab.report import CheckEntry, ResidualReport

from conftest import same_bytes, sample, with_nan
from fd_oracle import fd_gradient, fd_hessian


def pair_fields(h, L):
    """A projective pair (h, L) as fields without J."""
    return ChartFields(g=h, omega=None, J=None, A=L, rhos=[], mus=[])


def flat_complex_chart(n=12, dim=4, order=2, seed=3):
    """Flat chart with the standard complex structure."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, (n, dim))
    z = lambda: Jet.const(np.zeros(n), dim, order)
    o = lambda v: Jet.const(np.full(n, float(v)), dim, order)
    g = jstack([[o(1.0) if i == j else z() for j in range(dim)]
                for i in range(dim)])
    Jm = np.kron(np.eye(dim // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    J = jstack([[o(Jm[i, j]) if Jm[i, j] else z() for j in range(dim)]
                for i in range(dim)])
    w = jstack([[o((Jm.T)[i, j]) if Jm[i, j] else z() for j in range(dim)]
                for i in range(dim)])
    A = jstack([[o(1.0) if i == j else z() for j in range(dim)]
                for i in range(dim)])
    return pts, ChartFields(g=g, omega=w, J=J, A=A, rhos=[], mus=[])


def test_flat_chart_is_kahler_and_identity_compatible():
    pts, fl = flat_complex_chart()
    rep = check_kahler(fl)
    assert rep.overall_pass
    assert rep.max_value() <= 1e-12
    # A = Id is parallel: residual 0, Lambda = 0
    rep = cproj_residual(fl)
    assert rep.entries[0].value <= 1e-14


def test_parallel_diagonal_endo_on_flat_product():
    pts, fl = flat_complex_chart()
    n, d = fl.A.c[0].shape[0], 4
    D = np.diag([2.0, 2.0, 5.0, 5.0])
    A = Jet(fl.A.dim, fl.A.order,
            [np.broadcast_to(D, (n, d, d)).copy()]
            + [np.zeros((n, d, d) + (d,) * k) for k in (1, 2)])
    fl2 = ChartFields(g=fl.g, omega=fl.omega, J=fl.J, A=A, rhos=[],
                      mus=[])
    assert cproj_residual(fl2).entries[0].value <= 1e-14


def test_corpus_kahler_and_cproj(corpus):
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 40), order=2)
        rk = check_kahler(fl)
        rc = cproj_residual(fl)
        assert rk.overall_pass, f"{name}: {rk}"
        assert rk.max_value() <= 1e-7, name
        assert rc.entries[0].value <= 1e-7, name


def test_seeded_omega_defect_is_flagged(qp_dini):
    chart = lift_pair(qp_dini, route="jacobian")
    pts = sample(chart, 30)
    fl = chart.eval(pts, order=2)
    eps = 1e-3
    coeffs = [c.copy() for c in fl.omega.c]
    coeffs[0][:, 1, 2] += eps * pts[:, 0]
    coeffs[0][:, 2, 1] -= eps * pts[:, 0]
    coeffs[1][:, 1, 2, 0] += eps
    coeffs[1][:, 2, 1, 0] -= eps
    fl = replace(fl, omega=Jet(fl.omega.dim, fl.omega.order, coeffs))
    rep = check_kahler(fl)
    dw = rep.entry("domega")
    assert not dw.passed
    assert 0.05 * eps <= dw.value <= 20 * eps


def _dini_fields(qp_dini):
    chart = lift_pair(qp_dini, route="jacobian")
    return chart.eval(sample(chart, 10), order=2)


def test_nan_in_a_at_one_sample_fails_cproj(qp_dini):
    # a NaN residual at one sample is the check's value, not dropped
    fl = _dini_fields(qp_dini)
    e = cproj_residual(replace(fl, A=with_nan(fl.A, 0, (3, 0, 0)))).entries[0]
    assert np.isnan(e.value) and not e.passed


def test_nan_in_domega_at_one_sample_fails_domega(qp_dini):
    fl = _dini_fields(qp_dini)
    rep = check_kahler(replace(fl, omega=with_nan(fl.omega, 1, (3, 0, 1, 2))))
    e = rep.entry("domega")
    assert np.isnan(e.value) and not e.passed
    assert np.isnan(rep.max_value()) and np.isnan(rep.max_value("domega"))


@pytest.mark.parametrize("nan_at", [0, 1])
def test_max_value_of_a_nan_entry_is_nan(nan_at):
    # Python's max keeps a NaN only in first place, so a NaN residual
    # would pass ``rep.max_value() <= tol``
    rep = ResidualReport("r", [CheckEntry(f"c{i}", "x", 0.1, 1e-6)
                               for i in range(2)])
    rep.entries[nan_at].value = np.nan
    assert np.isnan(rep.max_value())
    assert np.isnan(rep.max_value(f"c{nan_at}"))
    assert rep.max_value(f"c{1 - nan_at}") == 0.1
    assert rep.max_value("zzz") == 0.0


def test_entries_of_blocks_merge_to_the_whole_batch():
    # each maximum by max and a margin's minimum by min, a NaN kept and
    # the counts summed; a margin over no regular sample reads 0
    def of(terms, **kw):
        return CheckEntry.of("c", "x", terms, 1e-6, samples=4, excluded=1,
                             **kw)

    got = of([(1.0, 2.0), (3.0, 1.0, 4.0)]).merge(
        of([(2.0, 1.0), (1.0, 5.0, 0.5)]))
    want = of([(2.0, 2.0), (3.0, 5.0, 4.0)])
    assert (got.value, got.terms) == (want.value, want.terms) == (
        2.0 / 3.0, want.terms)
    assert (got.samples, got.excluded) == (8, 2)
    assert np.isnan(of([(1.0, 2.0)]).merge(of([(np.nan, 0.0)])).value)
    margin = {"mode": "min>=tol"}
    empty = of([(math.inf, 5.0, 2)], **margin)
    assert empty.value == 0.0 and empty.merge(empty).value == 0.0
    got = empty.merge(of([(0.5, 1.0, 2)], **margin))
    assert got.value == 0.5 / 36.0 and got.terms == ((0.5, 5.0, 2),)
    assert np.isnan(got.merge(of([(np.nan, 1.0, 2)], **margin)).value)


def test_proj_residual_dini_and_identity(qp_dini):
    f = qp_dini.eval(sample(qp_dini, 40), order=2)
    assert proj_residual(f).entries[0].value <= 1e-8
    # L = Id on a flat pair
    n = 10
    o = Jet.const(np.ones(n), 2, 2)
    z = Jet.const(np.zeros(n), 2, 2)
    h = jstack([[o, z], [z, o]])
    L = jstack([[o, z], [z, o]])
    assert proj_residual(pair_fields(h, L)).entries[0].value == 0.0


def test_proj_residual_rejects_nonselfadjoint():
    n = 5
    o = Jet.const(np.ones(n), 2, 2)
    z = Jet.const(np.zeros(n), 2, 2)
    h = jstack([[o, z], [z, o]])
    L = jstack([[o, o], [z, o * 2.0]])   # not symmetric
    with pytest.raises(KahlerError, match="selfadjoint"):
        proj_residual(pair_fields(h, L))


def test_partner_metric_scalar_cases():
    pts, fl = flat_complex_chart()
    gh = partner_fields(fl).g
    assert max_abs(gh.c[0] - fl.g.c[0]) <= 1e-14     # A = Id -> ghat = g
    A4 = Jet(fl.A.dim, fl.A.order, [4.0 * fl.A.c[0]] + list(fl.A.c[1:]))
    gh4 = partner_fields(replace(fl, A=A4)).g
    ncx = 2
    # A = 4 Id on complex dim n: ghat = 4^(-n-1) g
    assert max_abs(gh4.c[0] - 4.0 ** (-(ncx + 1)) * fl.g.c[0]) <= 1e-14


def test_partner_roundtrip_on_instances(corpus):
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 25), order=2)
        c0 = spectrum_safe_shift(fl)
        A = shift_endo(fl.A, c0)
        Arec = recover_endo(fl, partner_fields(replace(fl, A=A)))
        dev = max_abs(Arec.c[0] - A.c[0]) / (1.0 + max_abs(A.c[0]))
        assert dev <= 1e-9, name


def test_partner_of_order_1_fields_is_the_order_2_partner_cut(corpus):
    # partner_fields of order-2 fields is built at order 1, and orders 0
    # and 1 of each partner quantity, and the two checks that read the
    # partner, are bit for bit those of the order-2 partner
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 25), order=2)
        sh = replace(fl, A=shift_endo(fl.A, spectrum_safe_shift(fl)))
        # the reference: the partner built from the order-2 fields uncut
        Ainv = jet_inv(sh.A)
        detA = jet_det(sh.A, Ainv)
        ghat = jet_einsum("nab,n->nab",
                          jet_einsum("ncb,nca->nab", sh.g, Ainv),
                          detA ** (-0.5))
        full = ChartFields(g=ghat, omega=None, J=sh.J, A=Ainv, rhos=[],
                           mus=[])
        cut = partner_fields(sh)
        assert full.g.order == 2 and cut.g.order == 1, name
        # ginv and gamma0 are one order below g and gamma0 is values only
        for q, order in (("g", 1), ("A", 1), ("det", 1), ("ginv", 0),
                         ("gamma0", 0)):
            a, b = getattr(cut, q), getattr(full, q)
            assert a.order == order, (name, q)
            for k in range(order + 1):
                assert same_bytes(a.c[k], b.c[k]), (name, q, k)
        assert same_bytes(recover_endo(sh, cut).c[0],
                          recover_endo(sh, full).c[0]), name
        assert connection_difference_check(sh, cut).entries[0].value == \
            connection_difference_check(sh, full).entries[0].value, name


def test_partner_metric_rejects_singular_endo():
    pts, fl = flat_complex_chart()
    A0 = Jet(fl.A.dim, fl.A.order, [0.0 * fl.A.c[0]] + list(fl.A.c[1:]))
    with pytest.raises(Exception):
        partner_fields(replace(fl, A=A0)).g


def test_complex_det_matches_mu_product(corpus):
    for name, chart, consts in corpus:
        fl = chart.eval(sample(chart, 20), order=2)
        dc = complex_det(fl)
        expect = np.ones(len(dc.c[0]))
        for r in fl.rhos:
            expect = expect * r.c[0]
        for c, m in consts:
            expect = expect * c ** m
        expect = np.real(expect)
        assert max_abs(dc.c[0] - expect) <= 1e-10, name


def test_nonconstant_factor_wrong_constant_raises(corpus):
    name, chart, consts = corpus[1]      # the c=0 block instance
    fl = chart.eval(sample(chart, 10), order=2)
    with pytest.raises(KahlerError):
        nonconstant_factor(fl.char_poly, [(0.37, 1)])



@pytest.mark.parametrize("name", ["mobility2", "mobility2-ell2", "ell1-cb0"])
def test_mu_derivatives_match_finite_differences(corpus, mob_l2, name):
    # the mu_i of nonconstant_factor(char_poly) at order 2 against central
    # differences of their values at order 0: the corpus mobility chart,
    # the two-eigenvalue one, and ell1-cb0, whose eigenvalue is quadratic
    # in its coordinate so that mu_1 has a Hessian
    charts = {n: (c, k) for n, c, k in corpus}
    charts["mobility2-ell2"] = (mob_l2, [])
    chart, consts = charts[name]
    pts = sample(chart, 8)
    mus, _ = nonconstant_factor(chart.eval(pts, order=2).char_poly, consts)
    assert len(mus) > 1
    for i, mu in enumerate(mus[1:], 1):
        def value(x, i=i):
            e = chart.eval(x, order=0).char_poly
            return nonconstant_factor(e, consts)[0][i].c[0]

        scale = 1.0 + max_abs(mu.c[0])
        assert max_abs(mu.c[1] - fd_gradient(value, pts)) <= 1e-9 * scale
        assert max_abs(mu.c[2] - fd_hessian(value, pts)) <= 1e-7 * scale
    if name == "ell1-cb0":
        assert max_abs(mus[1].c[2]) > 0.1

def test_hamiltonian_killing_on_instances(corpus):
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 25), order=2)
        c0 = spectrum_safe_shift(fl)
        if c0:
            fl = ChartFields(g=fl.g, omega=fl.omega, J=fl.J,
                             A=shift_endo(fl.A, c0), rhos=fl.rhos,
                             mus=fl.mus)
        rep = hamiltonian_killing_check(fl)
        assert rep.overall_pass, f"{name}: {rep}"
        assert rep.max_value() <= 1e-7, name


def test_hamiltonian_killing_reads_only_values(corpus):
    # order-3 fields give the order-2 entries: the check reads the
    # Hessian's values and the Gamma values, nothing of higher order
    _, chart, _ = corpus[0]
    pts = sample(chart, 10)
    got, want = (hamiltonian_killing_check(chart.eval(pts, order=k))
                 for k in (3, 2))
    assert [e.value for e in got.entries] == [e.value for e in want.entries]


def test_hamiltonian_killing_negative_control():
    rng = np.random.default_rng(8)
    pts, fl = flat_complex_chart(n=10)
    n, d = 10, 4
    # hermitian-looking but non-solution field: A = f(x) * diag blocks
    x = Jet.seed(0, pts[:, 0], d, 2)
    y = Jet.seed(1, pts[:, 1], d, 2)
    f1 = 1.5 + (x * y).sin() * 0.5
    f2 = 2.5 + (x * x) * 0.3
    z = Jet.const(np.zeros(n), d, 2)
    A = jstack([[f1, z, z, z], [z, f1, z, z],
                [z, z, f2, z], [z, z, z, f2]])
    fl2 = ChartFields(g=fl.g, omega=fl.omega, J=fl.J, A=A, rhos=[],
                      mus=[])
    rep = hamiltonian_killing_check(fl2)
    assert rep.entry("det_hessian_hermitian").value > 1e-3


def test_connection_difference(corpus):
    # ghat = g and ghat = c g give zero difference; instance pairs match
    pts, fl = flat_complex_chart()
    rep = connection_difference_check(fl, fl)
    assert rep.entries[0].value <= 1e-14
    g3 = Jet(fl.g.dim, fl.g.order, [3.0 * c for c in fl.g.c])
    rep = connection_difference_check(fl, replace(fl, g=g3))
    assert rep.entries[0].value <= 1e-14
    for name, chart, _ in corpus[:4]:
        fl = chart.eval(sample(chart, 20), order=2)
        c0 = spectrum_safe_shift(fl)
        gh = partner_fields(replace(fl, A=shift_endo(fl.A, c0)))
        rep = connection_difference_check(fl, gh)
        assert rep.entries[0].value <= 1e-7, name


def test_eigenvector_gradient_property(corpus):
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 30), order=2)
        rep = eigenvector_gradient_residual(fl)
        assert rep.entries[0].value <= 1e-8, name


def test_eigenvector_gradients_refuse_fields_without_eigenvalues(corpus):
    # with no eigenvalue jets the check would measure nothing and read 0
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 10), order=2)
        with pytest.raises(KahlerError, match="eigenvalue jets"):
            eigenvector_gradient_residual(replace(fl, rhos=[]))


@pytest.mark.parametrize("name", ["complex-pair", "dini-lift"])
def test_eigenvector_gradients_fail_on_a_moved_endo(corpus, name):
    # A + 1e-3 E_01 at every sample: the gradients of complex roots are
    # checked as those of real ones are, so either chart fails
    chart = {nm: ch for nm, ch, _ in corpus}[name]
    fl = chart.eval(sample(chart, 30), order=2)
    coeffs = [c.copy() for c in fl.A.c]
    coeffs[0][:, 0, 1] += 1e-3
    moved = replace(fl, A=Jet(fl.A.dim, fl.A.order, coeffs))
    assert eigenvector_gradient_residual(fl).overall_pass, name
    (entry,) = eigenvector_gradient_residual(moved).entries
    assert not entry.passed and entry.value > 1e-4, name


def test_duality_identities_on_pairs(qp_ell1, qp_dini, qp_complex,
                                     qp_mobility_leaf, qp_jordan2,
                                     qp_jordan3):
    for qp in (qp_ell1, qp_dini, qp_complex, qp_mobility_leaf,
               qp_jordan2, qp_jordan3):
        f = qp.eval(sample(qp, 30), order=2)
        assert commuting_gradients_residual(f).entries[0].value <= 1e-8
        assert mu_hat_duality_residual(f).entries[0].value <= 1e-8
