"""Explicit Runge-Kutta integration: Dormand-Prince 8(5,3) with dense
output of order 7 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Springer 1993, Sec. II.5-II.6).

``integrate`` follows scipy's ``solve_ivp(method="DOP853",
dense_output=True)``: the same initial-step heuristic, combined err5/err3
error norm, step-size controller, three extra stages per accepted step and
Horner form of the interpolant.  It therefore takes the same steps,
evaluates the right-hand side on the same states and matches scipy's
dense output and event times to round-off (1e-12 in the tests).  What
differs is how the states are batched: the right-hand side is vectorized,
and the three dense-output stages depend only on their own step, so they
are evaluated for every accepted step at once after the last one, three
calls per solve instead of three per step.  Terminal events are detected
at step ends and located by bisection on the interpolant of the step on
which they fire.

The tableau below is transcribed from scipy's
``scipy/integrate/_ivp/dop853_coefficients.py``, which carries this
notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.
    2. Redistributions in binary form must reproduce the above copyright
       notice, this list of conditions and the following disclaimer in the
       documentation and/or other materials provided with the distribution.
    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived from
       this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    HOLDER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np

from .report import Error

__all__ = ["OdeError", "DenseSolution", "integrate"]

EPS = np.finfo(float).eps
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8          # -1 / (error estimator order + 1)
N_STAGES = 12

# ---------------------------------------------------------------------------
# the tableau: 12 stages, the 8th-order weights B, the 5th- and 3rd-order
# error weights E5/E3 and, in rows 13-15, the extra dense-output stages
# ---------------------------------------------------------------------------

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778])

A = np.zeros((16, 16))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, :2] = [1.97250569845378994544595329183e-2,
            5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                   -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                   1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                      1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2,
                      -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                         1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1,
                         -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                            -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1,
                            2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1,
                            -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                               -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1,
                               2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1,
                               -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                   5.18637242884406370830023853209,
                                   1.09143734899672957818500254654,
                                   -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1,
                                   2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762,
                                   -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                     4.45031289275240888144113950566,
                                     1.89151789931450038304281599044,
                                     -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1,
                                     -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1,
                                     4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                      2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1,
                                      -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1,
                                      8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3,
                                      -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                       2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2,
                                       -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4,
                                       3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4,
                                       1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                      -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878,
                                      4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1,
                                      -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149,
                                      -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]

# interpolant coefficients 3..6; the first three come from the step ends
D = np.zeros((4, 16))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3]]


class OdeError(Error):
    """The step size fell below the spacing of floats at the current t."""


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Step-size guess of Hairer, Norsett & Wanner, Sec. II.4."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _stages(fun, t, y, h, K):
    """Fill stages 1..11 of ``K`` for a step of size ``h``."""
    for s in range(1, N_STAGES):
        dy = np.dot(K[:s].T, A[s, :s]) * h
        K[s] = fun(t + C[s] * h, y + dy)


def _dense_stages(fun, t_old, h, y_old, Ks):
    """Fill the dense-output stages 13-15 of every accepted step's ``Ks``
    (shape (s, 16, n)): one call of width s per stage row.  Each column's
    input is formed as ``_stages`` forms it for its own step."""
    for s in range(N_STAGES + 1, 16):
        ys = [y + np.dot(K[:s].T, A[s, :s]) * hk
              for y, K, hk in zip(y_old, Ks, h)]
        Ks[:, s] = fun(t_old + C[s] * h, np.array(ys).T).T


class DenseSolution:
    """Piecewise interpolant over the accepted steps.

    Called with a scalar t it returns shape (n_state,), with m times shape
    (n_state, m).  A time on a step boundary takes the earlier step, in
    the direction of integration; times outside the span extrapolate the
    first or last step.
    """

    def __init__(self, ts, t_old, h, y_old, F):
        self.ts = ts            # (n_steps + 1,) boundaries, monotone
        self.t_old = t_old      # (n_steps,) step starts
        self.h = h              # (n_steps,) signed step sizes
        self.y_old = y_old      # (n_steps, n_state)
        self.F = F              # (n_steps, 7, n_state) Horner coefficients

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        n = len(self.h)
        if self.ts[-1] >= self.ts[0]:
            seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1,
                          0, n - 1)
        else:
            seg = n - 1 - np.clip(
                np.searchsorted(self.ts[::-1], t, side="right") - 1, 0, n - 1)
        return _horner(self.F[seg], self.y_old[seg],
                       (t - self.t_old[seg]) / self.h[seg]).T


def _horner(F, y_old, x):
    x = np.asarray(x)[..., None]
    y = np.zeros(np.shape(y_old))
    for k in range(F.shape[-2] - 1, -1, -1):
        y += F[..., k, :]
        y *= x if k % 2 == 0 else 1 - x
    y += y_old
    return y


def _bisect(g, a, b, ga, gb):
    """A zero of ``g`` between ``a`` (g >= 0) and ``b`` (g <= 0), to
    4 eps relative."""
    if ga == 0:
        return a
    if gb == 0:
        return b
    while abs(b - a) >= 4 * EPS * (1 + abs(b)):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0:
            return m
        if gm > 0:
            a = m
        else:
            b = m
    return b


def integrate(fun, t_span, y0, rtol, atol, event=None):
    """Integrate y' = fun(t, y) over ``t_span``, ascending or descending.

    ``fun`` is vectorized: it takes ``t`` of shape (k,) and ``y`` of shape
    (n, k), one state per column at its own time, and returns (n, k).  The
    step stages call it with k = 1; the dense-output stages of all s
    accepted steps take three calls of width s once the steps are done.
    ``event(t, y)`` is a terminal event on one state: integration stops on
    the first accepted step along which it falls from >= 0 to <= 0.
    Returns the dense solution and the event time (None if no event
    fired).  Raises ``OdeError`` when the step size underflows, which is
    how blow-ups and singularities inside the span show.
    """
    t0, tf = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("initial state must be finite")

    def f_batch(t, Y):
        out = np.asarray(fun(t, Y), dtype=float)
        if out.shape != Y.shape:
            raise ValueError(
                f"fun(t, y) must return shape (n, k) = {Y.shape} for y of "
                f"shape (n, k) and t of shape (k,); got shape {out.shape}")
        return out

    def f_of(t, y):
        return f_batch(np.array([t]), y[:, None])[:, 0]

    rtol = max(rtol, 100 * EPS)
    n = y.size
    t = t0
    f = f_of(t, y)
    if t0 == tf:
        # a zero span: one flat segment of unit length
        return DenseSolution(np.array([t0, tf]), np.array([t0]),
                             np.array([1.0]), y[None],
                             np.zeros((1, 7, n))), None
    direction = np.sign(tf - t0)
    h_abs = _initial_step(f_of, t, y, tf, f, direction, rtol, atol)
    K = np.empty((16, n))
    g = event(t, y) if event is not None else None
    ts, t_olds, hs, y_olds, Ks, Fs = [t], [], [], [], [], []
    fired = None
    while True:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise OdeError("required step size is less than the "
                               f"spacing of floats at t={float(t)!r}")
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            _stages(f_of, t, y, h, K)
            y_new = y + h * np.dot(K[:N_STAGES].T, B)
            f_new = f_of(t + h, y_new)
            K[N_STAGES] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:N_STAGES + 1], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        # the interpolant of the accepted step; rows 3-6 wait for the
        # dense-output stages
        F = np.empty((7, n))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f - delta_y
        F[2] = 2 * delta_y - h * (f_new + f)
        t_olds.append(t)
        hs.append(h)
        y_olds.append(y)
        Ks.append(K.copy())
        Fs.append(F)
        t, y, f = t_new, y_new, f_new

        if event is not None:
            g_new = event(t, y)
            if g >= 0 and g_new <= 0:
                fired = g, g_new
                break
            g = g_new
        ts.append(t)
        if direction * (t - tf) >= 0:
            break

    t_olds, hs, y_olds = np.array(t_olds), np.array(hs), np.array(y_olds)
    Ks = np.array(Ks)
    _dense_stages(f_batch, t_olds, hs, y_olds, Ks)
    for F, K, h in zip(Fs, Ks, hs):
        F[3:] = h * np.dot(D, K)
    t_event = None
    if fired is not None:
        F, t_old, y_old, h = Fs[-1], t_olds[-1], y_olds[-1], hs[-1]
        t_event = _bisect(
            lambda s: event(s, _horner(F, y_old, (s - t_old) / h)),
            t_old, t, *fired)
        ts.append(t_event)
    return DenseSolution(np.array(ts), t_olds, hs, y_olds,
                         np.array(Fs)), t_event
