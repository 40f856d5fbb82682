"""Truncated multivariate Taylor arithmetic, orders 0 through 3.

A ``Jet`` carries the value and the partial-derivative arrays of a scalar
quantity at a batch of chart points: ``c[0]`` is the value, ``c[1]`` the
gradient, ``c[2]`` the Hessian and ``c[3]`` the fully symmetric third-order
coefficient array.  Arithmetic propagates the coefficients exactly through
products, quotients and elementary functions, so every derivative a chart
computation needs (metric derivatives up to third order, derivatives of
eigenvalue functions, of ``F(t) = a (1-t)^{-C} t^{p}`` profiles, ...) comes
out exact to truncation order rather than from finite differencing.

Constant operands: a Python number, a 0-d array or an array that
broadcasts with the jet's batch shape (such as a (ydim,) vector of
eigenvalues against a batch (N, ell, ydim)) is a constant, and arithmetic
with it skips the product rule.  ``jet * c`` scales every coefficient by c
(padded with unit axes for the derivative slots), ``jet / c`` scales by
1/c, ``jet +- c`` changes only the value and ``c / jet`` scales the
reciprocal; the higher coefficients of a sum are reused.  Each order gets
the dtype (and batch) the product rule with ``Jet.const(c)`` would give.
An array that does not broadcast with the batch raises numpy's
ValueError, as the product rule with ``Jet.const(c)`` did.

Layout and contraction kernel: each coefficient array has shape
``batch + (dim,)*k`` with the derivative axes trailing (``jstack`` makes
the batch ``(N, i, j, ...)``, so a tensor field on a grid is one Jet;
complex dtype is supported).  Every contraction goes through
``contract``, one batched ``np.matmul`` over the operands folded to
(batch, free, contracted) and (batch, contracted, free).  Where that fold
would transpose the larger operand into a copy (``"nijxy,njk->nikxy"``,
whose x must move j last), the matmul is oriented the other way: the
larger operand, stored as P + C + R (leading letters, the run of
contracted letters, its own free letters), is the right factor as the
view (P..., |C|, |R|), its P axes batch axes, and only the smaller
operand is arranged as (P or 1, F, C).  So ``"nijxy,njk->nikxy"`` is
``y^T @ x.reshape(n, i, j, xy)``.  A contraction whose contracted axes
have size 1 in total, or that has none (an outer or elementwise product
such as ``"nab,n->nab"``), goes to ``np.einsum`` instead, because a K = 1
matmul is slow and sums nothing.
``jet_einsum`` computes one contraction per Leibniz split i+j=k and
spreads it over the C(k, i) placements of the derivative axes by
transposes, which are views; the placements are summed in place into the
first term's fresh output, so an order costs one output array and one
term at a time.  The plan of a spec (letter classes, permutations,
orientation, term specs) is worked out once per ``(spec, which operand is
larger)`` or ``(spec, order)`` and cached.  The check suites call
``contract`` for their matrix products too.

Jets are immutable values and every operation is pure.  So an identity
costs no new jet: ``real`` of a real jet and ``truncate`` to the jet's own
order return the jet itself, and ``jet_map`` of a spec that only permutes
axes (``"nij->nji"``) transposes each coefficient by a cached permutation,
the view ``np.einsum`` gives, without parsing the spec per order.

Construction: the public ``Jet(dim, order, coeffs)`` checks the order
(0..MAX_ORDER), the dim (at least 1) and the coefficient count, and casts
integer coefficients to float; ``Jet.seed`` and ``Jet.const`` check the
dim and order they are given.  ``Jet._of`` checks nothing: it takes
arrays that were just computed from a jet's own (arithmetic, ``truncate``,
``rows``, ``compose1``, ``imag``, ``conj``, ``jstack``, the contractions)
or built with the right shape and a float or complex dtype (the seed and
constant coefficients, the builders' exact fields).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "Jet",
    "JetError",
    "JetDomainError",
    "MAX_ORDER",
    "polyval",
    "jstack",
    "contract",
    "jet_einsum",
    "jet_map",
    "tensor_partial",
    "jet_matmul",
    "jet_trace",
    "jet_transpose",
    "jet_inv",
    "jet_det",
]

MAX_ORDER = 3

# letters reserved for derivative axes inside einsum specs
_DAX = "xyz"


class JetError(ValueError):
    pass


class JetDomainError(JetError):
    """Input left the domain of an elementary function (div by zero, log of
    a non-positive value, ...)."""


def _as_array(v):
    a = np.asarray(v)
    if a.dtype.kind in "iu":
        a = a.astype(np.float64)
    return a


def _check_shape(dim, order):
    if not (0 <= order <= MAX_ORDER):
        raise JetError(f"order must be in 0..{MAX_ORDER}, got {order}")
    if dim < 1:
        raise JetError(f"dim must be >= 1, got {dim}")


class Jet:
    __slots__ = ("dim", "order", "c")
    # an ndarray operand defers to the jet's reflected methods, so
    # ``array * jet`` is a jet, not an object array of jets
    __array_ufunc__ = None

    def __init__(self, dim: int, order: int, coeffs):
        _check_shape(dim, order)
        if len(coeffs) != order + 1:
            raise JetError("coefficient count does not match order")
        self.dim = dim
        self.order = order
        self.c = tuple(_as_array(a) for a in coeffs)

    @classmethod
    def _of(cls, dim: int, order: int, coeffs) -> "Jet":
        """A jet of arrays that were just computed: no checks and no
        ``_as_array`` pass."""
        j = object.__new__(cls)
        j.dim, j.order, j.c = dim, order, tuple(coeffs)
        return j

    # -- constructors -------------------------------------------------

    @classmethod
    def seed(cls, index: int, value, dim: int, order: int) -> "Jet":
        """Jet of the coordinate function x_index at the given value(s)."""
        _check_shape(dim, order)
        if not (0 <= index < dim):
            raise JetError(f"seed index {index} out of range for dim {dim}")
        v = _as_array(value)
        coeffs = [v]
        if order >= 1:
            g = np.zeros(v.shape + (dim,), dtype=v.dtype)
            g[..., index] = 1.0
            coeffs.append(g)
        for k in range(2, order + 1):
            coeffs.append(np.zeros(v.shape + (dim,) * k, dtype=v.dtype))
        return cls._of(dim, order, coeffs)

    @classmethod
    def const(cls, value, dim: int, order: int) -> "Jet":
        _check_shape(dim, order)
        v = _as_array(value)
        coeffs = [v] + [
            np.zeros(v.shape + (dim,) * k, dtype=v.dtype)
            for k in range(1, order + 1)
        ]
        return cls._of(dim, order, coeffs)

    # -- accessors -----------------------------------------------------

    @property
    def value(self):
        return self.c[0]

    @property
    def grad(self):
        if self.order < 1:
            raise JetError("jet carries no gradient (order 0)")
        return self.c[1]

    @property
    def hess(self):
        if self.order < 2:
            raise JetError("jet carries no Hessian (order < 2)")
        return self.c[2]

    @property
    def third(self):
        if self.order < 3:
            raise JetError("jet carries no third-order data (order < 3)")
        return self.c[3]

    def truncate(self, order: int) -> "Jet":
        """The jet to a lower order; the jet itself at its own order."""
        if order == self.order:
            return self
        if not 0 <= order < self.order:
            raise JetError(f"cannot truncate an order-{self.order} jet to "
                           f"order {order}")
        return Jet._of(self.dim, order, self.c[: order + 1])

    def rows(self, rows: slice) -> "Jet":
        """The jet at a slice of its samples, as views."""
        return Jet._of(self.dim, self.order, [c[rows] for c in self.c])

    # -- arithmetic ----------------------------------------------------

    def _constant(self, other):
        """``other`` as an array when it is a constant operand, anything
        but a jet; None for a jet of the same dim and order."""
        if not isinstance(other, Jet):
            return _as_array(other)
        if other.dim != self.dim or other.order != self.order:
            raise JetError(
                f"jet mismatch: dim/order ({self.dim},{self.order}) vs "
                f"({other.dim},{other.order})"
            )
        return None

    def _scale(self, c, left=False) -> "Jet":
        """Every coefficient times the constant array c, the factor on the
        left when ``left`` (complex products round by operand order);
        order k has the dtype of c and coefficients 0..k, as under the
        product rule."""
        out = [c * self.c[0] if left else self.c[0] * c]
        dt = out[0].dtype
        for k in range(1, self.order + 1):
            ck = c if c.ndim == 0 else c[(...,) + (None,) * k]
            a = ck * self.c[k] if left else self.c[k] * ck
            dt = np.promote_types(dt, a.dtype)
            out.append(a if a.dtype == dt else a.astype(dt))
        return Jet._of(self.dim, self.order, out)

    def _shift(self, value, c, higher) -> "Jet":
        """The jet of ``value`` and the ``higher`` coefficients, a sum with
        the constant c: each is cast to its dtype in a sum with c, and
        broadcast when c widens the batch."""
        out = [value]
        nb = self.c[0].ndim
        grow = value.shape != self.c[0].shape
        for a in higher:
            dt = np.promote_types(a.dtype, c.dtype)
            if grow:
                a = np.broadcast_to(a, value.shape + a.shape[nb:]).astype(dt)
            elif a.dtype != dt:
                a = a.astype(dt)
            out.append(a)
        return Jet._of(self.dim, self.order, out)

    def __add__(self, other):
        c = self._constant(other)
        if c is not None:
            return self._shift(self.c[0] + c, c, self.c[1:])
        return Jet._of(self.dim, self.order,
                       [a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __sub__(self, other):
        c = self._constant(other)
        if c is not None:
            return self._shift(self.c[0] - c, c, self.c[1:])
        return Jet._of(self.dim, self.order,
                       [a - b for a, b in zip(self.c, other.c)])

    def __rsub__(self, other):
        # reflected: ``other`` is never a jet
        c = _as_array(other)
        return self._shift(c - self.c[0], c, [-a for a in self.c[1:]])

    def __neg__(self):
        return Jet._of(self.dim, self.order, [-a for a in self.c])

    def __mul__(self, other):
        c = self._constant(other)
        if c is not None:
            return self._scale(c)
        u, v = self.c, other.c
        out = [u[0] * v[0]]
        if self.order >= 1:
            out.append(u[1] * v[0][..., None] + u[0][..., None] * v[1])
        if self.order >= 2:
            t = u[1][..., :, None] * v[1][..., None, :]
            out.append(
                u[2] * v[0][..., None, None]
                + u[0][..., None, None] * v[2]
                + t + np.swapaxes(t, -1, -2)
            )
        if self.order >= 3:
            t21 = u[2][..., :, :, None] * v[1][..., None, None, :]
            t12 = u[1][..., :, None, None] * v[2][..., None, :, :]
            out.append(
                u[3] * v[0][..., None, None, None]
                + u[0][..., None, None, None] * v[3]
                + t21 + np.swapaxes(t21, -1, -2) + np.swapaxes(t21, -1, -3)
                + t12 + np.swapaxes(t12, -3, -2) + np.swapaxes(t12, -3, -1)
            )
        return Jet._of(self.dim, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._constant(other)
        if c is not None:
            if np.any(c == 0.0):
                raise JetDomainError("division by a jet with zero value")
            return self._scale(_as_array(1.0 / c))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal()._scale(_as_array(other), left=True)

    def compose1(self, table) -> "Jet":
        """Compose with a univariate function given by its derivative values.

        ``table[k]`` holds the k-th derivative of the outer function
        evaluated at ``self.value`` (broadcastable arrays); the chain rule
        through order 3 does the rest.
        """
        if len(table) < self.order + 1:
            raise JetError("derivative table too short for jet order")
        T = [_as_array(t) for t in table]
        u = self.c
        b = np.broadcast_shapes(T[0].shape, u[0].shape)
        out = [np.broadcast_to(T[0], b).copy()]
        if self.order >= 1:
            out.append(T[1][..., None] * u[1])
        if self.order >= 2:
            out.append(
                T[2][..., None, None] * u[1][..., :, None] * u[1][..., None, :]
                + T[1][..., None, None] * u[2]
            )
        if self.order >= 3:
            uuu = (u[1][..., :, None, None]
                   * u[1][..., None, :, None]
                   * u[1][..., None, None, :])
            t = u[2][..., :, :, None] * u[1][..., None, None, :]
            sym21 = t + np.swapaxes(t, -1, -2) + np.swapaxes(t, -1, -3)
            out.append(
                T[3][..., None, None, None] * uuu
                + T[2][..., None, None, None] * sym21
                + T[1][..., None, None, None] * u[3]
            )
        return Jet._of(self.dim, self.order, out)

    def _reciprocal(self) -> "Jet":
        v = self.c[0]
        if np.any(np.abs(v) == 0.0):
            raise JetDomainError("division by a jet with zero value")
        inv = 1.0 / v
        return self.compose1([inv, -inv ** 2, 2 * inv ** 3, -6 * inv ** 4]
                             [: self.order + 1])

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise JetError("jet ** jet is not supported")
        if float(p) == int(p) and abs(int(p)) <= 8:
            # integer powers stay valid for negative and complex values
            n = int(p)
            if n == 0:
                return Jet.const(np.ones_like(self.c[0]), self.dim, self.order)
            base = self if n > 0 else self._reciprocal()
            out = base
            for _ in range(abs(n) - 1):
                out = out * base
            return out
        v = self.c[0]
        if np.iscomplexobj(v) or np.any(v <= 0.0):
            raise JetDomainError(
                f"non-integer power {p} of a non-positive or complex value")
        table = [v ** p,
                 p * v ** (p - 1),
                 p * (p - 1) * v ** (p - 2),
                 p * (p - 1) * (p - 2) * v ** (p - 3)]
        return self.compose1(table[: self.order + 1])

    def exp(self):
        e = np.exp(self.c[0])
        return self.compose1([e, e, e, e][: self.order + 1])

    def log(self):
        v = self.c[0]
        if np.iscomplexobj(v) or np.any(v <= 0.0):
            raise JetDomainError("log of a non-positive or complex value")
        return self.compose1([np.log(v), 1 / v, -1 / v ** 2, 2 / v ** 3]
                             [: self.order + 1])

    def sqrt(self):
        return self ** 0.5

    def sin(self):
        s, cc = np.sin(self.c[0]), np.cos(self.c[0])
        return self.compose1([s, cc, -s, -cc][: self.order + 1])

    def cos(self):
        s, cc = np.sin(self.c[0]), np.cos(self.c[0])
        return self.compose1([cc, -s, -cc, s][: self.order + 1])

    # -- complex helpers -----------------------------------------------

    def conj(self):
        return Jet._of(self.dim, self.order, [np.conj(a) for a in self.c])

    @property
    def real(self):
        """The real part; a real jet is its own."""
        if not any(a.dtype.kind == "c" for a in self.c):
            return self
        return Jet._of(self.dim, self.order, [np.real(a) for a in self.c])

    @property
    def imag(self):
        return Jet._of(self.dim, self.order, [np.imag(a) for a in self.c])


def polyval(coeffs, x: Jet) -> Jet:
    """Evaluate a polynomial with coefficients listed lowest degree first."""
    if len(coeffs) < 2:
        top = coeffs[0] if len(coeffs) else np.zeros_like(x.c[0])
        return Jet.const(np.broadcast_to(np.asarray(top), x.c[0].shape),
                         x.dim, x.order)
    # start from x * c_n + c_(n-1): a constant factor skips the product
    # rule a constant jet would run on all-zero derivative coefficients
    acc = x * coeffs[-1] + coeffs[-2]
    for a in reversed(coeffs[:-2]):
        acc = acc * x + a
    return acc


# ---------------------------------------------------------------------------
# stacked tensor jets: batch shape (N, *components) with trailing deriv axes
# ---------------------------------------------------------------------------

def jstack(cells) -> Jet:
    """Stack a (nested) rectangular list of scalar Jets into one tensor jet.

    Input jets must share dim, order and a 1-d point batch ``(N,)``; the
    result has batch shape ``(N, *nesting_shape)``.
    """
    shape = []
    probe = cells
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0]
    # one nesting level at a time; a recursive closure would hold the
    # jets in a reference cycle until the cycle collector runs
    flat = list(cells)
    for _ in shape[1:]:
        flat = [y for x in flat for y in x]
    j0 = flat[0]
    n = j0.c[0].shape[0]
    coeffs = []
    for k in range(j0.order + 1):
        deriv = (j0.dim,) * k
        dtype = np.result_type(*{j.c[k].dtype for j in flat})
        out = np.empty((n,) + tuple(shape) + deriv, dtype=dtype)
        cells_k = out.reshape((n, len(flat)) + deriv)  # a view of out
        for i, j in enumerate(flat):
            cells_k[:, i] = j.c[k]
        coeffs.append(out)
    return Jet._of(j0.dim, j0.order, coeffs)


@functools.lru_cache(maxsize=None)
def _axis_perm(sub: str):
    """The axis permutation of a spec that only permutes its axes
    (``"nij->nji"``), or None for any other spec."""
    ins, out = sub.split("->")
    if len(set(ins)) != len(ins) or sorted(ins) != sorted(out):
        return None
    return tuple(ins.index(c) for c in out)


def jet_map(sub: str, a: Jet) -> Jet:
    """Apply a linear einsum reshuffle (transpose, trace, ...) per coefficient.

    ``sub`` addresses only the batch and component axes; derivative axes are
    appended automatically.  A spec that only permutes axes is a transpose,
    the view ``np.einsum`` would return.
    """
    perm = _axis_perm(sub)
    if perm is not None:
        n = len(perm)
        return Jet._of(a.dim, a.order,
                       [c.transpose(perm + tuple(range(n, n + k)))
                        for k, c in enumerate(a.c)])
    ins, out = sub.split("->")
    coeffs = []
    for k in range(a.order + 1):
        d = _DAX[:k]
        coeffs.append(np.einsum(f"{ins}{d}->{out}{d}", a.c[k]))
    return Jet._of(a.dim, a.order, coeffs)


@functools.lru_cache(maxsize=None)
def _contract_plan(spec: str, y_larger: bool):
    """Letter classes and axis permutations of a two-operand spec.

    Batch letters sit in both operands and the output, contracted letters
    in both operands only, free letters in one operand and the output.
    The plain plan folds the operands into (batch, free, contracted) and
    (batch, contracted, free).  ``swap`` is the plan that reads the larger
    operand in place instead, or None.  It exists when the plain fold of
    that operand, stored in C order, is a copy (a group of its free or
    contracted letters is not one run in storage order), and its letters
    read P + C + R, with every contracted letter in the run C and only its
    own free letters in R.  Then it is the right matmul operand as the
    view (P..., |C|, |R|), and the smaller operand is arranged as
    (P, F, C) with unit axes at the letters of P it lacks.  ``swap`` is
    (len(P), the number of the smaller operand's batch letters and of its
    free letters F, its axis for each letter of P or -1, its permutation,
    the output permutation).
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    for s in (sa, sb, out):
        if len(set(s)) != len(s):
            raise JetError(f"repeated index letter in {spec!r}")
    batch = [c for c in out if c in sa and c in sb]
    con = [c for c in sa if c in sb and c not in out]
    fa = [c for c in sa if c not in sb]
    fb = [c for c in sb if c not in sa]
    if set(fa + fb) - set(out) or set(out) - set(sa + sb):
        raise JetError(f"every letter of {spec!r} must be contracted or kept")
    pa = tuple(sa.index(c) for c in batch + fa + con)
    pb = tuple(sb.index(c) for c in batch + con + fb)
    res = batch + fa + fb
    pout = tuple(res.index(c) for c in out)
    sl, ss, groups = (sb, sa, (con, fb)) if y_larger else (sa, sb, (fa, con))
    swap = None
    at = sorted(sl.index(c) for c in con)
    if not all("".join(g) in sl for g in groups) \
            and at and at[-1] + 1 - at[0] == len(con) \
            and not set(sl[at[-1] + 1:]) & set(ss):
        lead, cl, rest = sl[:at[0]], sl[at[0]:at[-1] + 1], sl[at[-1] + 1:]
        sbatch = [c for c in lead if c in ss]
        fs = [c for c in ss if c not in sl]
        ps = tuple(ss.index(c) for c in sbatch + fs + list(cl))
        src = tuple(sbatch.index(c) if c in ss else -1 for c in lead)
        res = list(lead) + fs + list(rest)
        swap = (len(lead), len(sbatch), len(fs), src, _perm(ps),
                _perm(tuple(res.index(c) for c in out)))
    return (len(batch), len(fa), len(con), _perm(pa), _perm(pb), _perm(pout),
            swap)


def _perm(p):
    """An axis permutation, or None where it is the identity."""
    return None if p == tuple(range(len(p))) else p


def contract(spec: str, x, y):
    """``np.einsum(spec, x, y)`` as one batched matmul.

    The batch axes broadcast; free and contracted axes are folded into the
    two matrix axes of each operand.  When that fold would copy the
    larger operand, and its axes allow, the larger operand is read in
    place as the right factor instead (see ``_contract_plan``) and only
    the smaller one is rearranged.  When the contracted axes have size 1
    in total, or there are none, it is ``np.einsum`` instead.
    """
    y_larger = y.size > x.size
    nb, nfa, nc, pa, pb, pout, swap = _contract_plan(spec, y_larger)
    xt = x if pa is None else x.transpose(pa)
    k = math.prod(xt.shape[nb + nfa:])
    if k == 1:
        # nothing to sum: einsum forms the broadcast product in output order
        return np.einsum(spec, x, y, order="C")
    if swap is not None:
        big, small = (y, x) if y_larger else (x, y)
        nlead, nsb, nf, src, ps, pz = swap
        if ps is not None:
            small = small.transpose(ps)
        f = small.shape[nsb:nsb + nf]
        r = big.shape[nlead + nc:]
        lead = tuple(1 if i < 0 else small.shape[i] for i in src)
        z = np.matmul(small.reshape(lead + (math.prod(f), k)),
                      big.reshape(big.shape[:nlead] + (k, math.prod(r))))
        z = z.reshape(z.shape[:nlead] + f + r)
        return z if pz is None else z.transpose(pz)
    x = xt
    if pb is not None:
        y = y.transpose(pb)
    fa = x.shape[nb:nb + nfa]
    fb = y.shape[nb + nc:]
    z = np.matmul(x.reshape(x.shape[:nb] + (math.prod(fa), k)),
                  y.reshape(y.shape[:nb] + (k, math.prod(fb))))
    z = z.reshape(z.shape[:nb] + fa + fb)
    return z if pout is None else z.transpose(pout)


@functools.lru_cache(maxsize=None)
def _leibniz_plan(sub: str, order: int):
    """Per order k, the terms ``(spec, i, perms)`` of the split i + (k-i).

    ``spec`` contracts ``a.c[i]`` with ``b.c[k-i]`` into the output with
    a's derivative axes first; each permutation in ``perms`` moves them to
    one of the C(k, i) placements (``None`` for the identity).
    """
    ins, out = sub.split("->")
    sa, sb = ins.split(",")
    n = len(out)
    plan = []
    for k in range(order + 1):
        terms = []
        for i in range(k + 1):
            la, lb = _DAX[:i], _DAX[i:k]
            spec = f"{sa}{la},{sb}{lb}->{out}{la}{lb}"
            perms = []
            for pick in itertools.combinations(range(k), i):
                rest = [p for p in range(k) if p not in pick]
                src = [pick.index(p) if p in pick else i + rest.index(p)
                       for p in range(k)]
                perm = tuple(range(n)) + tuple(n + q for q in src)
                perms.append(_perm(perm))
            terms.append((spec, i, tuple(perms)))
        plan.append(tuple(terms))
    return tuple(plan)


def _leibniz_term(terms, ac, bc, k):
    """Order-k coefficient of the product of coefficient lists ac, bc,
    summed over the plan's ``terms`` (a slice of ``_leibniz_plan()[k]``)."""
    total = None
    for spec, i, perms in terms:
        t = contract(spec, ac[i], bc[k - i])
        for p in perms:
            tp = t if p is None else t.transpose(p)
            if total is None:
                total = tp
            elif total is t or (tp.dtype.kind == "c"
                                and total.dtype.kind != "c"):
                # two placements of the first term, or a complex term on a
                # real total: one fresh sum, the array summed into after
                total = total + tp
            else:
                total += tp
        del t, tp  # free the term before the next contraction
    return total


def jet_einsum(sub: str, a: Jet, b: Jet) -> Jet:
    """Two-operand einsum with the Leibniz rule over derivative orders.

    ``sub`` is an ordinary einsum spec over batch/component axes, e.g.
    ``'nij,njk->nik'``; derivative axes are distributed over both operands
    in all C(k, i) ways.  One contraction per split i + j = k serves all
    placements, which are transposes of it.
    """
    if a.dim != b.dim or a.order != b.order:
        raise JetError("jet_einsum operands must share dim and order")
    return Jet._of(a.dim, a.order,
                   [_leibniz_term(terms, a.c, b.c, k)
                    for k, terms in enumerate(_leibniz_plan(sub, a.order))])


def tensor_partial(t: Jet) -> Jet:
    """Coordinate derivative of a stacked tensor jet.

    The derivative index becomes the last component axis; the order drops
    by one.
    """
    if t.order < 1:
        raise JetError("cannot differentiate an order-0 tensor jet")
    return Jet._of(t.dim, t.order - 1, t.c[1:])


def jet_matmul(a: Jet, b: Jet) -> Jet:
    return jet_einsum("nij,njk->nik", a, b)


def jet_trace(a: Jet) -> Jet:
    return jet_map("nii->n", a)


def jet_transpose(a: Jet) -> Jet:
    return jet_map("nij->nji", a)


def jet_inv(m: Jet) -> Jet:
    """Inverse of a batched square-matrix jet ``(N, n, n)``.

    LAPACK inverts the value pointwise, so it handles pivoting and the jet
    layer stays division-free.  The Leibniz rule on M G = Id gives the
    higher coefficients one order at a time:
    G_k = -G_0 (sum of the terms M_i G_(k-i), i >= 1).
    """
    g = [np.linalg.inv(m.c[0])]
    neg_g0 = -g[0]
    plan = _leibniz_plan("nij,njk->nik", m.order)
    for k in range(1, m.order + 1):
        # plan[k][0] is the term M_0 G_k: its spec multiplies by G_0
        rest = _leibniz_term(plan[k][1:], m.c, g, k)
        g.append(contract(plan[k][0][0], neg_g0, rest))
    return Jet._of(m.dim, m.order, g)


def jet_det(m: Jet, inv: Jet | None = None) -> Jet:
    """Determinant of a batched square-matrix jet, any metric signature.

    Uses d log|det| = tr(M^{-1} dM); the value itself keeps its sign from
    the pointwise LAPACK determinant.  ``inv``, the jet of M^{-1} to at
    least one order below M, spares inverting M again when the caller has
    it.
    """
    det0 = np.linalg.det(m.c[0])
    if np.any(np.abs(det0) == 0.0):
        raise JetDomainError("determinant vanished at a sample")
    if m.order == 0:
        return Jet._of(m.dim, 0, [det0])
    # d_a log|det| = tr(G M_a), G = M^{-1} one order lower; its jet
    # comes from the Leibniz rule over G and the gradient coefficients
    if inv is None:
        inv = jet_inv(m.truncate(m.order - 1))
    g = inv.c
    plan = _leibniz_plan("nij,njia->na", m.order - 1)
    coeffs = [np.zeros_like(det0)] + [
        _leibniz_term(terms, g, m.c[1:], k) for k, terms in enumerate(plan)]
    s = Jet._of(m.dim, m.order, coeffs)
    return s.exp() * det0
