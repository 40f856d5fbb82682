import tracemalloc

import numpy as np

from cprojlab.builders import ChartFields
from cprojlab.geometry import GridSpec, gradient, max_abs, metric_inverse
from cprojlab.jets import Jet, jstack
from cprojlab.kahler import check_kahler, cproj_residual
from cprojlab.killing import (
    CanonicalKillingSet, a_on_k_recurrence, build_canonical_killing,
    killing_property_suite, totally_geodesic_residual,
)

from conftest import sample, with_nan


def test_canonical_fields_match_coordinate_fields(corpus):
    for name, chart, consts in corpus:
        fl = chart.eval(sample(chart, 20), order=2)
        ks = build_canonical_killing(fl, consts)
        assert ks.ell == chart.ell, name
        for i in range(ks.ell):
            e = np.zeros(chart.dim)
            e[i] = 1.0
            assert max_abs(ks.K[i].c[0] - e) <= 1e-8, (name, i)


def test_single_eigenvalue_mu_is_trace_difference(corpus):
    name, chart, consts = corpus[1]        # ell1 + cb(0)
    fl = chart.eval(sample(chart, 15), order=2)
    ks = build_canonical_killing(fl, consts)
    trC = 0.5 * np.trace(fl.A.c[0], axis1=-2, axis2=-1)
    const_part = sum(c * m for c, m in consts)
    assert np.allclose(ks.mus[0].c[0], trC - const_part, atol=1e-10)


def test_suite_on_corpus(corpus):
    for name, chart, consts in corpus:
        fl = chart.eval(sample(chart, 30), order=2)
        ks = build_canonical_killing(fl, consts)
        rep = killing_property_suite(ks, fl)
        assert rep.overall_pass, f"{name}:\n{rep}"
        worst = max(e.value for e in rep.entries if e.mode == "max<=tol")
        assert worst <= 1e-7, name
        rec = a_on_k_recurrence(ks, fl)
        assert rec.entries[0].value <= 1e-8, name


def test_omega_on_killing_pairs_is_minus_the_moment(corpus):
    # K_i = J grad mu_i is hamiltonian, so omega(K_i, X) = -X(mu_i): for
    # X = K_j both sides vanish (measured exactly 0 on every corpus chart);
    # for X = J K_j they need not, and the relative gap measured at most
    # 1.25 eps, under the 4 eps bound
    bound = 4 * np.finfo(float).eps
    for name, chart, consts in corpus:
        fl = chart.eval(sample(chart, 30), order=2)
        ks = build_canonical_killing(fl, consts)
        w, J = fl.omega.c[0], fl.J.c[0]
        largest = 0.0
        for i, Ki in enumerate(ks.K):
            dmu = ks.mus[i].c[1]
            for Kj in ks.K:
                for X in (Kj.c[0], np.einsum("nab,nb->na", J, Kj.c[0])):
                    om = np.einsum("nab,na,nb->n", w, Ki.c[0], X)
                    mom = np.einsum("na,na->n", dmu, X)
                    assert max_abs(om + mom) <= bound * (
                        1.0 + max_abs(om, mom)), (name, i)
                    largest = max(largest, max_abs(om))
        assert largest > 0.1, name      # not every pair reads zero


def test_negative_control_non_solution():
    # a made-up hermitian field is not preserved by J grad of its traces
    n, d = 20, 2
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.2, 0.8, (n, d))
    x = Jet.seed(0, pts[:, 0], d, 2)
    y = Jet.seed(1, pts[:, 1], d, 2)
    one = Jet.const(np.ones(n), d, 2)
    zero = Jet.const(np.zeros(n), d, 2)
    g = jstack([[one, zero], [zero, one]])
    J = jstack([[zero, -one], [one, zero]])
    w = jstack([[zero, one], [-one, zero]])
    f = (x * y).sin() + x * x
    A = jstack([[f, zero], [zero, f]])
    fl = ChartFields(g=g, omega=w, J=J, A=A, rhos=[f], mus=[one, f])
    ks = build_canonical_killing(fl, [])
    rep = killing_property_suite(ks, fl)
    assert rep.entry("killing_lie_g").value > 1e-3
    assert not rep.overall_pass


def test_a_on_k_vacuous_for_parallel():
    n, d = 8, 2
    one = Jet.const(np.ones(n), d, 2)
    zero = Jet.const(np.zeros(n), d, 2)
    g = jstack([[one, zero], [zero, one]])
    J = jstack([[zero, -one], [one, zero]])
    w = jstack([[zero, one], [-one, zero]])
    A = jstack([[one, zero], [zero, one]])
    fl = ChartFields(g=g, omega=w, J=J, A=A, rhos=[], mus=[one])
    ks = build_canonical_killing(fl, [(1.0, 1)])
    rep = a_on_k_recurrence(ks, fl)
    assert rep.entries[0].value == 0.0
    assert "vacuous" in rep.entries[0].note


def test_high_multiplicity_hamiltonian_degenerates(qp_ell1):
    # local mechanism of eigenvalue constancy at multiplicity >= 4: the
    # characteristic hamiltonian f = det_C(c Id - A) evaluated at a
    # constant eigenvalue c of complex multiplicity >= 2 vanishes with
    # its entire second-order jet (its Killing field has zero first jet)
    from cprojlab.builders import ConstantBlock, lift_pair
    from cprojlab.kahler import complex_char_poly
    chart = lift_pair(qp_ell1, (ConstantBlock(0.0, 4),), route="explicit")
    fl = chart.eval(sample(chart, 15), order=2)
    e = complex_char_poly(fl.A, fl.J)
    n = len(e) - 1
    f = e[n] * ((-1.0) ** n)     # char(0) = det_C(-A)
    for k in range(3):
        assert max_abs(f.c[k]) <= 1e-10


def test_totally_geodesic_gradient_span(corpus):
    # span{grad rho_i} is totally geodesic on lifted instances
    for name, chart, _ in corpus[:5]:
        fl = chart.eval(sample(chart, 20), order=2)
        ginv = metric_inverse(fl.g)
        span = []
        for r in fl.rhos:
            if np.iscomplexobj(r.c[0]):
                rr, ri = r.real, r.imag
                span.extend([gradient(rr, ginv), gradient(ri, ginv)])
            else:
                span.append(gradient(r, ginv))
        rep = totally_geodesic_residual(span, fl.g.truncate(1))
        assert rep.entries[0].value <= 1e-7, name


def test_totally_geodesic_flat_plane_and_negative():
    n, d = 15, 3
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, (n, d))
    one = Jet.const(np.ones(n), d, 1)
    zero = Jet.const(np.zeros(n), d, 1)
    g = jstack([[one if i == j else zero for j in range(d)]
                for i in range(d)])
    e0 = jstack([one, zero, zero])
    e1 = jstack([zero, one, zero])
    rep = totally_geodesic_residual([e0, e1], g)
    assert rep.entries[0].value == 0.0
    # a twisting plane field in flat space is not totally geodesic
    x = Jet.seed(0, pts[:, 0], d, 1)
    u = jstack([one, zero, zero])
    v = jstack([zero, one, x])          # nabla_u v = (0,0,1) leaves span
    rep = totally_geodesic_residual([u, v], g)
    assert rep.entries[0].value > 1e-2


def test_nan_in_the_second_field_fails_the_suite(corpus):
    # the first field's residuals come first; a NaN in the second field's
    # derivatives at one sample must still reach the suite's values
    name, chart, consts = corpus[3]       # dini-lift, two fields
    fl = chart.eval(sample(chart, 10), order=2)
    ks = build_canonical_killing(fl, consts)
    K = [ks.K[0], with_nan(ks.K[1], 1, (3, 0, 0))]
    rep = killing_property_suite(CanonicalKillingSet(ks.mus, K, ks.mask), fl)
    for key in ("lie_g", "lie_J", "lie_A", "brackets"):
        e = rep.entry(f"killing_{key}")
        assert np.isnan(e.value) and not e.passed, key


def test_mobility2_corpus_sequence_stays_under_its_memory_bound(corpus):
    # the mobility2 chart of the acceptance corpus at the benchmark grid
    # (N = 793, d = 6), from its order-2 evaluation to the A-on-K
    # recurrence: the memory peak of a corpus pass.  The traced peak read
    # 63.0 MB with omega built at order 2 and the characteristic
    # polynomial's matrix powers held next to a stacked copy of them,
    # 50.9 MB with the polynomial's stack of the whole batch, in the
    # Killing build, and reads 43.0 MB now; the bound leaves 3 MB
    name, chart, consts = corpus[5]
    assert name == "mobility2"
    pts = GridSpec(3, 64, seed=0).points(chart.window)
    assert pts.shape == (793, 6)
    tracemalloc.start()
    try:
        fl = chart.eval(pts, order=2)
        reps = [check_kahler(fl), cproj_residual(fl)]
        ks = build_canonical_killing(fl, consts)
        reps += [killing_property_suite(ks, fl), a_on_k_recurrence(ks, fl)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.overall_pass for rep in reps)
    assert peak <= 46e6
