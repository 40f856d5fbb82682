import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cprojlab.jets import (
    Jet, JetDomainError, JetError, polyval,
    jstack, jet_einsum, jet_det, jet_inv, jet_matmul, jet_trace,
    tensor_partial,
)
from fd_oracle import fd_gradient, fd_hessian, fd_third


def test_seed_basics():
    j = Jet.seed(0, 2.0, dim=2, order=2)
    assert j.value == 2.0
    assert np.allclose(j.grad, [1.0, 0.0])
    assert np.allclose(j.hess, 0.0)

    j = Jet.seed(1, -1.5, dim=3, order=3)
    assert j.value == -1.5
    assert np.allclose(j.grad, [0.0, 1.0, 0.0])
    assert np.allclose(j.hess, 0.0)
    assert np.allclose(j.third, 0.0)

    j = Jet.seed(0, 0.0, dim=1, order=0)
    assert j.value == 0.0
    with pytest.raises(JetError):
        _ = j.grad


def test_seed_index_out_of_range():
    with pytest.raises(JetError):
        Jet.seed(2, 0.0, dim=2, order=1)


def test_square_and_reciprocal_closed_form():
    t = Jet.seed(0, 3.0, dim=1, order=2)
    f = t * t
    assert np.allclose([f.value, f.grad[..., 0], f.hess[..., 0, 0]],
                       [9.0, 6.0, 2.0])
    g = 1.0 / Jet.seed(0, 2.0, dim=1, order=2)
    assert np.allclose([g.value, g.grad[..., 0], g.hess[..., 0, 0]],
                       [0.5, -0.25, 0.25])


def test_mismatched_jets_raise():
    a = Jet.seed(0, 1.0, dim=2, order=2)
    b = Jet.seed(0, 1.0, dim=3, order=2)
    with pytest.raises(JetError):
        _ = a + b


def test_division_by_zero_raises():
    z = Jet.const(0.0, dim=1, order=1)
    with pytest.raises(JetDomainError):
        _ = 1.0 / z
    with pytest.raises(JetDomainError):
        Jet.const(-1.0, 1, 1).log()
    with pytest.raises(JetDomainError):
        Jet.const(-1.0, 1, 1) ** 0.5


def test_power_profile_matches_finite_differences():
    # F(t) = (1-t)^(-1.5) * t^2.5 at t=0.4, order 3
    def F(x):
        t = x[..., 0]
        return (1 - t) ** (-1.5) * t ** 2.5

    t = Jet.seed(0, 0.4, dim=1, order=3)
    f = (1.0 - t) ** (-1.5) * t ** 2.5
    x = np.array([[0.4]])
    assert np.allclose(f.grad, fd_gradient(F, x, 1e-3), rtol=1e-5)
    assert np.allclose(f.hess, fd_hessian(F, x, 1e-3), rtol=1e-4)
    assert np.allclose(f.third, fd_third(F, x, 2e-3), rtol=1e-3)


@given(st.integers(0, 3), st.integers(2, 3),
       st.lists(st.floats(-2, 2), min_size=10, max_size=10),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_polynomial_jets_reproduce_analytic_derivatives(order, dim, coeffs, s):
    # random polynomial of total degree <= 3 in the first two variables
    rng = np.random.default_rng(s)
    pt = rng.uniform(-1.5, 1.5, size=(1, dim))
    c = np.array(coeffs)
    x = Jet.seed(0, pt[:, 0], dim, order)
    y = Jet.seed(1, pt[:, 1], dim, order)
    f = (c[0] + c[1] * x + c[2] * y + c[3] * x * y + c[4] * x * x
         + c[5] * y * y + c[6] * x * x * y + c[7] * x * y * y
         + c[8] * x ** 3 + c[9] * y ** 3)
    X, Y = pt[0, 0], pt[0, 1]
    assert np.isclose(f.value[0],
                      c[0] + c[1] * X + c[2] * Y + c[3] * X * Y + c[4] * X * X
                      + c[5] * Y * Y + c[6] * X * X * Y + c[7] * X * Y * Y
                      + c[8] * X ** 3 + c[9] * Y ** 3, atol=1e-10)
    if order >= 1:
        dfx = (c[1] + c[3] * Y + 2 * c[4] * X + 2 * c[6] * X * Y
               + c[7] * Y * Y + 3 * c[8] * X * X)
        assert np.isclose(f.grad[0, 0], dfx, atol=1e-10)
    if order >= 2:
        dfxy = c[3] + 2 * c[6] * X + 2 * c[7] * Y
        assert np.isclose(f.hess[0, 0, 1], dfxy, atol=1e-10)
        assert np.allclose(f.hess, np.swapaxes(f.hess, -1, -2), atol=1e-12)
    if order >= 3:
        assert np.isclose(f.third[0, 0, 0, 1], 2 * c[6], atol=1e-10)
        assert np.allclose(f.third, np.swapaxes(f.third, -1, -2), atol=1e-12)
        assert np.allclose(f.third, np.swapaxes(f.third, -1, -3), atol=1e-12)


def _random_composite(rng, dim, order, pts):
    """A smooth composite built from the supported primitives."""
    jets = [Jet.seed(i, pts[:, i], dim, order) for i in range(dim)]
    f = Jet.const(0.3, dim, order)
    f = f + 0.7 * jets[0] * jets[-1] - 0.2 * jets[0]
    f = f + (0.5 * jets[0] + 0.1).sin() * (jets[-1] * 0.4).cos()
    f = f + ((jets[0] * jets[0] + jets[-1] * jets[-1]) * 0.3 + 1.2).sqrt()
    f = f + ((jets[0] * 0.25 + 2.0).log()) / (jets[-1] * jets[-1] + 2.0)
    f = f + (0.2 * jets[0] - 0.1 * jets[-1]).exp()
    return f


def _composite_fn(dim):
    def F(x):
        a, b = x[..., 0], x[..., -1]
        return (0.3 + 0.7 * a * b - 0.2 * a
                + np.sin(0.5 * a + 0.1) * np.cos(0.4 * b)
                + np.sqrt(0.3 * (a * a + b * b) + 1.2)
                + np.log(0.25 * a + 2.0) / (b * b + 2.0)
                + np.exp(0.2 * a - 0.1 * b))
    return F


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_composites_match_fd_with_second_order_convergence(dim):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.8, 0.8, size=(5, dim))
    f = _random_composite(rng, dim, 3, pts)
    F = _composite_fn(dim)
    g1 = fd_gradient(F, pts, 1e-3)
    g2 = fd_gradient(F, pts, 5e-4)
    e1 = np.max(np.abs(g1 - f.grad))
    e2 = np.max(np.abs(g2 - f.grad))
    assert e1 < 1e-6
    # halving the step shrinks the error at order >= 2
    assert e2 <= e1 / 3.0 or e2 < 1e-12
    assert np.allclose(f.hess, fd_hessian(F, pts, 1e-3), atol=1e-6)


def test_product_and_chain_rule_exact():
    x = Jet.seed(0, 0.7, dim=2, order=3)
    y = Jet.seed(1, -0.4, dim=2, order=3)
    lhs = (x * y).exp()
    rhs = (x * y).exp() * 1.0
    for k in range(4):
        assert np.allclose(lhs.c[k], rhs.c[k])
    # d(uv) = u dv + v du at coefficient level
    u = x.sin()
    v = y * y + 1.0
    prod = u * v
    byhand = u * v
    for k in range(4):
        assert np.allclose(prod.c[k], byhand.c[k])
    assert np.allclose(prod.hess, np.swapaxes(prod.hess, -1, -2))


def test_partial_shifts_coefficients():
    x = Jet.seed(0, 0.3, dim=2, order=3)
    y = Jet.seed(1, 0.9, dim=2, order=3)
    f = x * x * y
    fx = f.partial(0)
    assert np.allclose(fx.value, 2 * 0.3 * 0.9)
    assert np.allclose(fx.grad, [2 * 0.9, 2 * 0.3])


def test_polyval_horner():
    t = Jet.seed(0, 2.0, dim=1, order=2)
    p = polyval([1.0, 0.0, 3.0], t)  # 1 + 3 t^2
    assert np.allclose([p.value, p.grad[..., 0], p.hess[..., 0, 0]],
                       [13.0, 12.0, 6.0])


def test_complex_jets_conjugation():
    x = Jet.seed(0, np.array([0.5]), dim=2, order=2)
    y = Jet.seed(1, np.array([0.3]), dim=2, order=2)
    z = x + 1j * y
    w = z * z
    assert np.allclose(w.value, (0.5 + 0.3j) ** 2)
    re = (w + w.conj()) * 0.5
    assert np.allclose(re.value, ((0.5 + 0.3j) ** 2).real)
    assert np.allclose(re.value, w.real.value)
    assert np.allclose(w.conj().grad, np.conj(w.grad))


def test_jstack_and_einsum_matmul():
    n = 4
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.5, 1.5, size=(n, 2))
    x = Jet.seed(0, pts[:, 0], 2, 2)
    y = Jet.seed(1, pts[:, 1], 2, 2)
    m = jstack([[x * y, x], [Jet.const(np.zeros(n), 2, 2), y * y]])
    assert m.c[0].shape == (n, 2, 2)
    assert m.c[1].shape == (n, 2, 2, 2)
    sq = jet_matmul(m, m)
    # top-left of m^2 is (xy)^2
    comp = Jet(2, 2, [sq.c[0][:, 0, 0], sq.c[1][:, 0, 0], sq.c[2][:, 0, 0]])
    direct = (x * y) * (x * y)
    for k in range(3):
        assert np.allclose(comp.c[k], direct.c[k], atol=1e-12)
    tr = jet_trace(m)
    direct_tr = x * y + y * y
    for k in range(3):
        assert np.allclose(tr.c[k], direct_tr.c[k], atol=1e-12)


def test_tensor_partial_consistency():
    n = 3
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.5, 1.5, size=(n, 2))
    x = Jet.seed(0, pts[:, 0], 2, 3)
    y = Jet.seed(1, pts[:, 1], 2, 3)
    m = jstack([[x * y, x.sin()], [y.exp(), x * x * y]])
    dm = tensor_partial(m)
    # derivative of component (1,1) w.r.t. coordinate 0 is 2xy
    assert np.allclose(dm.c[0][:, 1, 1, 0], 2 * pts[:, 0] * pts[:, 1])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_inv_and_det_against_fd(order):
    rng = np.random.default_rng(42)
    n, d = 6, 3

    def mat(x):
        a, b, c = x[..., 0], x[..., 1], x[..., 2]
        m = np.zeros(x.shape[:-1] + (3, 3))
        m[..., 0, 0] = 2 + np.sin(a)
        m[..., 0, 1] = m[..., 1, 0] = 0.3 * a * b
        m[..., 0, 2] = m[..., 2, 0] = 0.1 * np.cos(c)
        m[..., 1, 1] = 1.5 + 0.2 * b * b
        m[..., 1, 2] = m[..., 2, 1] = 0.25 * (a + c)
        m[..., 2, 2] = -1.0 - 0.1 * a * a   # indefinite on purpose
        return m

    pts = rng.uniform(-0.7, 0.7, size=(n, d))
    js = [Jet.seed(i, pts[:, i], d, order) for i in range(d)]
    cells = [[2.0 + js[0].sin(), 0.3 * js[0] * js[1], 0.1 * js[2].cos()],
             [0.3 * js[0] * js[1], 1.5 + 0.2 * js[1] * js[1],
              0.25 * (js[0] + js[2])],
             [0.1 * js[2].cos(), 0.25 * (js[0] + js[2]),
              -1.0 - 0.1 * js[0] * js[0]]]
    mj = jstack(cells)
    inv = jet_inv(mj)
    assert np.allclose(inv.c[0], np.linalg.inv(mat(pts)), atol=1e-12)

    def inv_comp(x):
        return np.linalg.inv(mat(x))[..., 0, 1]

    fd = fd_gradient(inv_comp, pts, 1e-4)
    assert np.allclose(inv.c[1][:, 0, 1, :], fd, atol=1e-6)

    det = jet_det(mj)
    assert np.allclose(det.c[0], np.linalg.det(mat(pts)), atol=1e-12)

    def det_fn(x):
        return np.linalg.det(mat(x))

    fdg = fd_gradient(det_fn, pts, 1e-4)
    assert np.allclose(det.c[1], fdg, atol=1e-6)
    if order >= 2:
        fdh = fd_hessian(det_fn, pts, 1e-3)
        assert np.allclose(det.c[2], fdh, atol=1e-5)
    if order >= 3:
        fdt = fd_third(det_fn, pts, 2e-3)
        assert np.allclose(det.c[3], fdt, atol=5e-4)


def test_jet_inv_times_matrix_is_identity():
    rng = np.random.default_rng(9)
    n = 5
    pts = rng.uniform(0.4, 1.2, size=(n, 2))
    x = Jet.seed(0, pts[:, 0], 2, 3)
    y = Jet.seed(1, pts[:, 1], 2, 3)
    m = jstack([[x * y + 2.0, x.sin()], [x.sin(), y + 3.0]])
    prod = jet_matmul(jet_inv(m), m)
    eye = np.eye(2)[None]
    assert np.allclose(prod.c[0], np.broadcast_to(eye, (n, 2, 2)), atol=1e-12)
    for k in range(1, 4):
        assert np.allclose(prod.c[k], 0.0, atol=1e-10)


def test_jet_einsum_leibniz_against_scalar_product():
    n = 4
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 1.0, size=(n, 2))
    x = Jet.seed(0, pts[:, 0], 2, 3)
    y = Jet.seed(1, pts[:, 1], 2, 3)
    a = jstack([x * y, y.exp()])
    b = jstack([x.cos(), x * x])
    dot = jet_einsum("ni,ni->n", a, b)
    direct = (x * y) * x.cos() + y.exp() * (x * x)
    for k in range(4):
        assert np.allclose(dot.c[k], direct.c[k], atol=1e-11)


# ---------------------------------------------------------------------------
# property tests of the contraction kernel against a placement-by-placement
# np.einsum reference
# ---------------------------------------------------------------------------

LEIBNIZ_SPECS = ["nij,njk->nik", "nij,nj->ni", "nac,nbc->nab",
                 "ncb,nca->nab", "ncd,ndab->ncab", "nab,n->nab",
                 "nij,nji->n"]

_jet_shapes = dict(dim=st.integers(1, 4), size=st.integers(1, 5),
                   order=st.integers(0, 3), n=st.integers(1, 4),
                   seed=st.integers(0, 2 ** 32 - 1))


def _sym_coeffs(rng, batch, dim, order, cplx):
    """Random coefficient blocks, each symmetric in its derivative axes."""
    coeffs = []
    for k in range(order + 1):
        a = rng.normal(size=batch + (dim,) * k)
        if cplx:
            a = a + 1j * rng.normal(size=a.shape)
        lead = tuple(range(len(batch)))
        perms = list(itertools.permutations(range(len(batch), a.ndim)))
        coeffs.append(sum(np.transpose(a, lead + p) for p in perms)
                      / len(perms))
    return coeffs


def _einsum_reference(sub, a, b):
    """Leibniz rule with one np.einsum per placement of the derivative
    axes over the two operands."""
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    coeffs = []
    for k in range(a.order + 1):
        letters = "xyz"[:k]
        total = 0.0
        for i in range(k + 1):
            for pick in itertools.combinations(range(k), i):
                la = "".join(letters[p] for p in pick)
                lb = "".join(letters[p] for p in range(k) if p not in pick)
                total = total + np.einsum(
                    f"{sa}{la},{sb}{lb}->{out}{letters}", a.c[i], b.c[k - i])
        coeffs.append(total)
    return coeffs


@given(spec=st.sampled_from(LEIBNIZ_SPECS),
       cplx=st.tuples(st.booleans(), st.booleans()), **_jet_shapes)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_jet_einsum_matches_placement_reference(spec, cplx, dim, size,
                                                order, n, seed):
    rng = np.random.default_rng(seed)
    ops = []
    for s, c in zip(spec.split("->")[0].split(","), cplx):
        batch = tuple(n if ch == "n" else size for ch in s)
        ops.append(Jet(dim, order, _sym_coeffs(rng, batch, dim, order, c)))
    got = jet_einsum(spec, *ops)
    for g, r in zip(got.c, _einsum_reference(spec, *ops)):
        assert g.shape == r.shape
        np.testing.assert_allclose(g, r, rtol=0,
                                   atol=1e-12 * np.max(np.abs(r)))


def _matrix_jet(rng, dim, size, order, n, cplx):
    c = _sym_coeffs(rng, (n, size, size), dim, order, cplx)
    c[0] = 0.2 * c[0] + 2.0 * np.eye(size)   # well conditioned
    return Jet(dim, order, c)


@given(cplx=st.booleans(), **_jet_shapes)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_jet_inv_property_times_matrix_is_identity_jet(cplx, dim, size,
                                                       order, n, seed):
    m = _matrix_jet(np.random.default_rng(seed), dim, size, order, n, cplx)
    prod = jet_matmul(jet_inv(m), m)
    scale = max(np.max(np.abs(c)) for c in m.c)
    np.testing.assert_allclose(prod.c[0], np.broadcast_to(
        np.eye(size), (n, size, size)), rtol=0, atol=1e-12 * scale)
    for k in range(1, order + 1):
        np.testing.assert_allclose(prod.c[k], 0.0, rtol=0,
                                   atol=1e-11 * scale)


@given(cplx=st.booleans(), **_jet_shapes)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_jet_det_property_against_fd(cplx, dim, size, order, n, seed):
    # m(x) = A0 + x_a A1[a] + x_a x_b A2[a, b], a quadratic matrix field
    rng = np.random.default_rng(seed)
    A0 = _matrix_jet(rng, dim, size, 0, 1, cplx).c[0][0]
    _, A1, A2 = (0.3 * c for c in _sym_coeffs(rng, (size, size), dim, 2,
                                              cplx))
    pts = rng.uniform(-0.5, 0.5, size=(n, dim))

    def mat(x):
        return (A0 + np.einsum("...a,ija->...ij", x, A1)
                + np.einsum("...a,...b,ijab->...ij", x, x, A2))

    def det_jet(x, k):
        c = [mat(x), A1 + 2 * np.einsum("ijab,nb->nija", A2, x),
             np.broadcast_to(2 * A2, (x.shape[0],) + A2.shape),
             np.zeros((x.shape[0], size, size) + (dim,) * 3)]
        return jet_det(Jet(dim, k, c[:k + 1]))

    def det_fn(x):
        return np.linalg.det(mat(x))

    det = det_jet(pts, order)
    scale = np.max(np.abs(det.c[0]))
    np.testing.assert_allclose(det.c[0], det_fn(pts), rtol=1e-12)
    if order >= 1:
        np.testing.assert_allclose(det.c[1], fd_gradient(det_fn, pts, 1e-4),
                                   rtol=0, atol=1e-6 * scale)
    if order >= 2:
        np.testing.assert_allclose(det.c[2], fd_hessian(det_fn, pts, 1e-3),
                                   rtol=0, atol=1e-5 * scale)
    if order >= 3:
        third = fd_gradient(lambda x: det_jet(x, 2).c[2], pts, 1e-4)
        np.testing.assert_allclose(det.c[3], third, rtol=0, atol=1e-6 * scale)


@pytest.mark.parametrize("spec", ["nii,ni->n", "nij,nkk->nij",
                                  "nij,nj->nii"])
def test_repeated_letter_spec_raises(spec):
    a = Jet.const(np.ones((2, 3, 3)), dim=2, order=1)
    with pytest.raises(JetError, match="repeated"):
        jet_einsum(spec, a, a)


def _jstack_reference(flat, shape):
    """Stack row-major cells by broadcast, np.stack and moveaxis."""
    j0 = flat[0]
    n = j0.c[0].shape[0]
    out = []
    for k in range(j0.order + 1):
        s = np.stack([np.broadcast_to(j.c[k], (n,) + (j0.dim,) * k)
                      for j in flat])
        s = s.reshape(tuple(shape) + (n,) + (j0.dim,) * k)
        out.append(np.moveaxis(s, len(shape), 0))
    return out


@given(nest=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       dim=st.integers(1, 3), order=st.integers(0, 3),
       n=st.sampled_from([1, 3]),
       cplx=st.sampled_from(["real", "complex", "mixed"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_jstack_matches_stack_reference(nest, dim, order, n, cplx, seed):
    rng = np.random.default_rng(seed)
    flat = []

    def build(level):
        if level == len(nest):
            c = cplx == "complex" or (cplx == "mixed" and rng.random() < 0.5)
            flat.append(Jet(dim, order, _sym_coeffs(rng, (n,), dim, order,
                                                    c)))
            return flat[-1]
        return [build(level + 1) for _ in range(nest[level])]

    got = jstack(build(0))
    for g, r in zip(got.c, _jstack_reference(flat, nest), strict=True):
        assert g.shape == r.shape and g.dtype == r.dtype
        np.testing.assert_array_equal(g, r)


def _cubic_field(rng, dim, cplx):
    """u(x) = a0 + a1.x + x.a2.x + a3(x, x, x) with symmetric a2, a3: its
    value function and its exact jet at any order up to 3."""
    a = _sym_coeffs(rng, (), dim, 3, cplx)
    a0, a1, a2, a3 = a[0], a[1], 0.5 * a[2], a[3] / 6.0

    def fn(x):
        return (a0 + np.einsum("i,ni->n", a1, x)
                + np.einsum("ij,ni,nj->n", a2, x, x)
                + np.einsum("ijk,ni,nj,nk->n", a3, x, x, x))

    def jet(x, order):
        c = [fn(x),
             a1 + 2 * np.einsum("ij,nj->ni", a2, x)
             + 3 * np.einsum("ijk,nj,nk->ni", a3, x, x),
             2 * a2 + 6 * np.einsum("ijk,nk->nij", a3, x),
             np.broadcast_to(6 * a3, (x.shape[0],) + a3.shape)]
        return Jet(dim, order, c[:order + 1])

    return fn, jet


def _assert_jet_matches_fd(jet, fn, pts):
    """Jet coefficients of order 1-3 against the finite-difference oracle;
    the bounds sit well above each stencil's truncation error."""
    scale = 1.0 + max(np.max(np.abs(c)) for c in jet.c)
    np.testing.assert_allclose(jet.c[0], fn(pts), rtol=0,
                               atol=1e-13 * scale)
    oracles = ((fd_gradient, 1e-4, 1e-7), (fd_hessian, 5e-4, 1e-5),
               (fd_third, 5e-4, 1e-4))
    for k, (oracle, h, tol) in enumerate(oracles[:jet.order], start=1):
        np.testing.assert_allclose(jet.c[k], oracle(fn, pts, h), rtol=0,
                                   atol=tol * scale)


_field_shapes = dict(dim=st.integers(1, 4), order=st.integers(0, 3),
                     n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))


@given(cplx=st.tuples(st.booleans(), st.booleans()), **_field_shapes)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_jet_mul_property_against_fd(cplx, dim, order, n, seed):
    rng = np.random.default_rng(seed)
    (ufn, ujet), (vfn, vjet) = (_cubic_field(rng, dim, c) for c in cplx)
    pts = rng.uniform(-0.5, 0.5, size=(n, dim))
    prod = ujet(pts, order) * vjet(pts, order)
    _assert_jet_matches_fd(prod, lambda x: ufn(x) * vfn(x), pts)


_OUTER = {"exp": lambda z: [np.exp(z)] * 4,
          "sin": lambda z: [np.sin(z), np.cos(z), -np.sin(z), -np.cos(z)]}


@given(outer=st.sampled_from(sorted(_OUTER)), cplx=st.booleans(),
       **_field_shapes)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_jet_compose1_property_against_fd(outer, cplx, dim, order, n,
                                          seed):
    rng = np.random.default_rng(seed)
    ufn, ujet = _cubic_field(rng, dim, cplx)
    pts = rng.uniform(-0.5, 0.5, size=(n, dim))
    u = ujet(pts, order)
    comp = u.compose1(_OUTER[outer](u.c[0]))
    _assert_jet_matches_fd(comp, lambda x: _OUTER[outer](ufn(x))[0], pts)


# constant operands: each kind of constant against the batch (3, 2)
_BATCH = (3, 2)
_CONSTANTS = {
    "python-real": lambda rng: float(rng.normal()),
    "python-complex": lambda rng: complex(rng.normal(), rng.normal()),
    "0-d": lambda rng: np.asarray(rng.normal()),
    "batch": lambda rng: rng.normal(size=_BATCH),
    "trailing": lambda rng: rng.normal(size=_BATCH[1:]) + 0j,
    "unit-axis": lambda rng: rng.normal(size=(_BATCH[0], 1)),
    "widening": lambda rng: rng.normal(size=(2, 1, _BATCH[1])),
}


def _random_jet(rng, dim, order, kinds):
    """A jet on the batch whose coefficient k is complex when kinds[k]."""
    coeffs = []
    for k in range(order + 1):
        a = rng.normal(size=_BATCH + (dim,) * k)
        if kinds[k]:
            a = a + 1j * rng.normal(size=a.shape)
        coeffs.append(a)
    return Jet(dim, order, coeffs)


@given(const=st.sampled_from(sorted(_CONSTANTS)), dim=st.integers(1, 4),
       order=st.integers(0, 3),
       kinds=st.lists(st.booleans(), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_constant_operands_match_const_jets(const, dim, order, kinds, seed):
    # the constant path against the product rule with Jet.const: equal
    # values (a zero may change sign) and the same dtype at every order;
    # c * a is a * c, as it always was
    rng = np.random.default_rng(seed)
    a = _random_jet(rng, dim, order, kinds)
    c = _CONSTANTS[const](rng)
    cj = Jet.const(c, dim, order)
    cases = {"a*c": (a * c, a * cj), "c*a": (c * a, a * cj),
             "a+c": (a + c, a + cj), "c-a": (c - a, cj - a),
             "a/c": (a / c, a / cj), "c/a": (c / a, cj / a)}
    for op, (got, want) in cases.items():
        assert (got.dim, got.order) == (want.dim, want.order), op
        for k, (g, w) in enumerate(zip(got.c, want.c, strict=True)):
            assert g.dtype == w.dtype, (op, k)
            np.testing.assert_array_equal(g, w, err_msg=f"{op} order {k}")


def test_non_broadcastable_constant_raises_as_before():
    a = _random_jet(np.random.default_rng(5), 2, 2, [False] * 3)
    c = np.ones(4)
    for op in (operator.mul, operator.add, operator.sub, operator.truediv):
        for x, y in ((a, c), (c, a)):
            with pytest.raises(ValueError):
                op(x, y)


def test_division_by_a_zero_constant_raises():
    a = _random_jet(np.random.default_rng(6), 2, 1, [False] * 2)
    for c in (0.0, np.zeros(_BATCH)):
        with pytest.raises(JetDomainError):
            _ = a / c


@pytest.mark.parametrize("spec,xs,ys", [
    ("nab,n->nab", (5, 3, 4), (5,)),
    ("niq,nip->nqp", (5, 1, 4), (5, 1, 3)),
    ("nij,njk->nik", (5, 3, 1), (5, 1, 2)),
    ("nijx,njky->nikxy", (5, 3, 1, 2), (5, 1, 4, 2)),
    ("niab,nic->nabc", (5, 1, 1, 2), (5, 1, 3)),
    ("na,nb->nab", (5, 3), (5, 4)),
    ("nab,nb->na", (5, 3, 1), (1, 1)),
    ("ni,nj->nji", (1, 3), (4, 2)),
])
@pytest.mark.parametrize("cplx", [False, True])
def test_unit_and_empty_contractions_match_einsum(spec, xs, ys, cplx):
    from cprojlab.jets import _contract
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=xs), rng.normal(size=ys)
    if cplx:
        x = x + 1j * rng.normal(size=xs)
    want = np.einsum(spec, x, y)
    got = _contract(spec, x, y)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
