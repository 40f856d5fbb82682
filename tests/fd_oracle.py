"""Central finite-difference oracle, test-only.

Differentiates black-box evaluations of scalar/tensor component functions
with central stencils at steps {1e-3, 5e-4} and exposes a Richardson-style
convergence-order estimate.  Production code never imports this module.
"""

import numpy as np

STEPS = (1e-3, 5e-4)


def fd_gradient(f, x, h=1e-3):
    """Central-difference gradient of f: R^d -> array, at points x (N,d)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(f, x, h=1e-3):
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    out = None
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(d):
            ej = np.zeros(d)
            ej[j] = h
            v = (f(x + ei + ej) - f(x + ei - ej)
                 - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
            if out is None:
                out = np.zeros(v.shape + (d, d), np.result_type(v, float))
            out[..., i, j] = v
    return out


def fd_third(f, x, h=2e-3):
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    out = None
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        g = (fd_hessian(f, x + e, h) - fd_hessian(f, x - e, h)) / (2 * h)
        if out is None:
            out = np.zeros(g.shape + (d,), np.result_type(g, float))
        out[..., k] = g
    return out


def convergence_order(f, x, exact_grad, steps=(4e-3, 2e-3, 1e-3)):
    """Slope of log(error) vs log(h) for the central-difference gradient."""
    errs = []
    for h in steps:
        g = fd_gradient(f, x, h)
        errs.append(np.max(np.abs(g - exact_grad)))
    errs = np.asarray(errs)
    if np.any(errs < 1e-13):
        return np.inf, errs
    slope = np.polyfit(np.log(np.asarray(steps)), np.log(errs), 1)[0]
    return slope, errs
