"""L0 kernel timings on fixed inputs: order-3 matrix jets, N=189 samples,
jet dim d in {6, 8, 10}, one d x d matrix per sample.

The inputs come from a fixed generator seed, not the workload seed, so the
figures compare across workloads and commits.  Each kernel runs once per
traced run: at d=10 one order-3 product takes seconds on 2 cores.
"""

import itertools
import time

ORDER = 3
N = 189
DIMS = (6, 8, 10)


def _matrix_jet(rng, d):
    import numpy as np
    from cprojlab.jets import Jet
    coeffs = []
    for k in range(ORDER + 1):
        a = 0.1 * rng.normal(size=(N, d, d) + (d,) * k)
        if k >= 2:
            axes = range(3, 3 + k)
            perms = list(itertools.permutations(axes))
            a = sum(np.transpose(a, (0, 1, 2) + p) for p in perms) / len(perms)
        coeffs.append(a)
    # diagonally dominant, so inverse and determinant are well defined
    coeffs[0] = coeffs[0] + 0.5 * d * np.eye(d)
    return Jet(d, ORDER, coeffs)


def kernel_timings():
    """{"jets.<kernel>_o3_d<d>_ms": ms} for matmul, inv, det and mul."""
    import numpy as np
    from cprojlab import jets
    rng = np.random.default_rng(0)
    out = {}
    for d in DIMS:
        m = _matrix_jet(rng, d)
        for kernel, fn in (("matmul", lambda: jets.jet_matmul(m, m)),
                           ("inv", lambda: jets.jet_inv(m)),
                           ("det", lambda: jets.jet_det(m)),
                           ("mul", lambda: m * m)):
            t0 = time.perf_counter()
            res = fn()
            out[f"jets.{kernel}_o3_d{d}_ms"] = (
                time.perf_counter() - t0) * 1e3
            del res
        del m
    return out
