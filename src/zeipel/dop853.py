"""Dormand–Prince 8(5,3) on a state of six Python floats.

The oracle's integrator: the method of scipy's `solve_ivp(method="DOP853")`
(Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.5 and §II.10), with its
tableau, initial step, error norm, step-size rule and 7th-order dense
output, but with the stage sums written out over the six components of
the state instead of numpy work on 6-element arrays at each stage.  scipy's
`solve_ivp` stays the test reference.  Integration runs forward only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The tableau of scipy/integrate/_ivp/dop853_coefficients.py.  Each row of
# A, D, E3 and E5 holds its nonzero entries as (column, value) pairs.
N_STAGES = 12  # stages of a step; stage 12 is the right-hand side at its end
C = (
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
    0.777777777777777777777777777778,
)
A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    (
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    ),
    (
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    ),
    (
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    ),
    (
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    ),
    (
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1),
    ),
    (
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    ),
    (
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022),
    ),
    (
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    ),
    (
        (0, 5.42937341165687622380535766363e-2),
        (5, 4.45031289275240888144113950566),
        (6, 1.89151789931450038304281599044),
        (7, -5.8012039600105847814672114227),
        (8, 3.1116436695781989440891606237e-1),
        (9, -1.52160949662516078556178806805e-1),
        (10, 2.01365400804030348374776537501e-1),
        (11, 4.47106157277725905176885569043e-2),
    ),
    (
        (0, 5.61675022830479523392909219681e-2),
        (6, 2.53500210216624811088794765333e-1),
        (7, -2.46239037470802489917441475441e-1),
        (8, -1.24191423263816360469010140626e-1),
        (9, 1.5329179827876569731206322685e-1),
        (10, 8.20105229563468988491666602057e-3),
        (11, 7.56789766054569976138603589584e-3),
        (12, -8.298e-3),
    ),
    (
        (0, 3.18346481635021405060768473261e-2),
        (5, 2.83009096723667755288322961402e-2),
        (6, 5.35419883074385676223797384372e-2),
        (7, -5.49237485713909884646569340306e-2),
        (10, -1.08347328697249322858509316994e-4),
        (11, 3.82571090835658412954920192323e-4),
        (12, -3.40465008687404560802977114492e-4),
        (13, 1.41312443674632500278074618366e-1),
    ),
    (
        (0, -4.28896301583791923408573538692e-1),
        (5, -4.69762141536116384314449447206),
        (6, 7.68342119606259904184240953878),
        (7, 4.06898981839711007970213554331),
        (8, 3.56727187455281109270669543021e-1),
        (12, -1.39902416515901462129418009734e-3),
        (13, 2.9475147891527723389556272149),
        (14, -9.15095847217987001081870187138),
    ),
)
B = A[N_STAGES]  # weights of the 8th-order solution
# weights of the embedded 3rd-order solution, nonzero at 0, 8 and 11
BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
       11: 0.220588235294117647058823529412e-1}
E3 = tuple((j, b - BHH.get(j, 0.0)) for j, b in B)  # 3rd-order error weights
E5 = (  # 5th-order error weights
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1),
)
# dense-output rows 3 to 6 over the 16 stages of the extended step
D = (
    (
        (0, -0.84289382761090128651353491142e+1),
        (5, 0.56671495351937776962531783590),
        (6, -0.30689499459498916912797304727e+1),
        (7, 0.23846676565120698287728149680e+1),
        (8, 0.21170345824450282767155149946e+1),
        (9, -0.87139158377797299206789907490),
        (10, 0.22404374302607882758541771650e+1),
        (11, 0.63157877876946881815570249290),
        (12, -0.88990336451333310820698117400e-1),
        (13, 0.18148505520854727256656404962e+2),
        (14, -0.91946323924783554000451984436e+1),
        (15, -0.44360363875948939664310572000e+1),
    ),
    (
        (0, 0.10427508642579134603413151009e+2),
        (5, 0.24228349177525818288430175319e+3),
        (6, 0.16520045171727028198505394887e+3),
        (7, -0.37454675472269020279518312152e+3),
        (8, -0.22113666853125306036270938578e+2),
        (9, 0.77334326684722638389603898808e+1),
        (10, -0.30674084731089398182061213626e+2),
        (11, -0.93321305264302278729567221706e+1),
        (12, 0.15697238121770843886131091075e+2),
        (13, -0.31139403219565177677282850411e+2),
        (14, -0.93529243588444783865713862664e+1),
        (15, 0.35816841486394083752465898540e+2),
    ),
    (
        (0, 0.19985053242002433820987653617e+2),
        (5, -0.38703730874935176555105901742e+3),
        (6, -0.18917813819516756882830838328e+3),
        (7, 0.52780815920542364900561016686e+3),
        (8, -0.11573902539959630126141871134e+2),
        (9, 0.68812326946963000169666922661e+1),
        (10, -0.10006050966910838403183860980e+1),
        (11, 0.77771377980534432092869265740),
        (12, -0.27782057523535084065932004339e+1),
        (13, -0.60196695231264120758267380846e+2),
        (14, 0.84320405506677161018159903784e+2),
        (15, 0.11992291136182789328035130030e+2),
    ),
    (
        (0, -0.25693933462703749003312586129e+2),
        (5, -0.15418974869023643374053993627e+3),
        (6, -0.23152937917604549567536039109e+3),
        (7, 0.35763911791061412378285349910e+3),
        (8, 0.93405324183624310003907691704e+2),
        (9, -0.37458323136451633156875139351e+2),
        (10, 0.10409964950896230045147246184e+3),
        (11, 0.29840293426660503123344363579e+2),
        (12, -0.43533456590011143754432175058e+2),
        (13, 0.96324553959188282948394950600e+2),
        (14, -0.39177261675615439165231486172e+2),
        (15, -0.14972683625798562581422125276e+3),
    ),
)

# scipy's step-size rule
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = "The solver successfully reached the end of the integration interval."


@dataclass(frozen=True)
class Solution:
    """Samples `y` (6, N) at times `t`, the right-hand side count `nfev`,
    and on failure `success=False`, a message, and `t`, `y` that end at
    the last time reached."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _dot(K, row):
    """sum_j a_j K[j] over the (j, a_j) of `row`, one sum per component."""
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for j, a in row:
        k0, k1, k2, k3, k4, k5 = K[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
        s4 += a * k4
        s5 += a * k5
    return s0, s1, s2, s3, s4, s5


def _advance(y, K, row, h):
    """y + h sum_j a_j K[j]: the state at which a stage is evaluated."""
    s0, s1, s2, s3, s4, s5 = _dot(K, row)
    y0, y1, y2, y3, y4, y5 = y
    return y0 + s0 * h, y1 + s1 * h, y2 + s2 * h, y3 + s3 * h, y4 + s4 * h, y5 + s5 * h


def _rms(v):
    return math.sqrt(sum(x * x for x in v) / len(v))


def _initial_step(fun, t0, y0, f0, interval, rtol, atol):
    """scipy's `select_initial_step` (Hairer et al. §II.4) for the order-7
    error estimate: one right-hand side evaluation."""
    scale = [atol + abs(x) * rtol for x in y0]
    d0 = _rms([x / s for x, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(x + h0 * f for x, f in zip(y0, f0)))
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _dense(fun, t, h, y_old, y, f_old, f, K):
    """Coefficients F0..F6 of the 7th-order interpolant on the step from
    (t, y_old) to (t + h, y), after three more stages appended to K."""
    for s in range(N_STAGES + 1, len(C)):
        K.append(fun(t + C[s] * h, _advance(y_old, K, A[s], h)))
    dy = tuple(b - a for a, b in zip(y_old, y))
    F = [
        dy,
        tuple(h * g - d for g, d in zip(f_old, dy)),
        tuple(2 * d - h * (g + g_old) for d, g, g_old in zip(dy, f, f_old)),
    ]
    F += [tuple(h * s for s in _dot(K, row)) for row in D]
    return F


def _interpolate(F, y_old, x):
    """The interpolant at x = (t - t_old) / h, nested as scipy nests it."""
    out = []
    for k, y0 in enumerate(y_old):
        v = 0.0
        for i, row in enumerate(reversed(F)):
            v = (v + row[k]) * (x if i % 2 == 0 else 1.0 - x)
        out.append(v + y0)
    return out


def solve_ivp(fun, t_span, y0, t_eval, rtol, atol):
    """Integrate y' = fun(t, y) for a state of six floats from t_span[0] to
    t_span[1] > t_span[0], sampling at `t_eval` (increasing, inside
    t_span).  `fun` takes and returns tuples of six floats.  Steps as
    scipy's DOP853: 2 evaluations to start, 12 a step tried, and 3 more
    for the dense output of a step that holds samples."""
    t, t1 = float(t_span[0]), float(t_span[1])
    t_eval = [float(s) for s in t_eval]
    y = tuple(float(x) for x in y0)
    f = fun(t, y)
    size = _initial_step(fun, t, y, f, t1 - t, rtol, atol)
    nfev = 2
    ts, ys = [], []
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        size = max(size, min_step)
        rejected = False
        while True:
            if not size >= min_step:  # a NaN size fails here too
                if not ts or ts[-1] < t:
                    ts.append(t)
                    ys.append(y)
                return Solution(np.array(ts), np.array(ys).T, nfev, False, TOO_SMALL_STEP)
            t_new = min(t + size, t1)
            size = h = t_new - t
            K = [f]
            for s in range(1, N_STAGES):
                K.append(fun(t + C[s] * h, _advance(y, K, A[s], h)))
            y_new = _advance(y, K, B, h)
            f_new = fun(t + h, y_new)
            K.append(f_new)
            nfev += N_STAGES
            n3 = n5 = 0.0
            for a, b, w3, w5 in zip(y, y_new, _dot(K, E3), _dot(K, E5)):
                scale = atol + max(abs(a), abs(b)) * rtol
                w3 /= scale
                w5 /= scale
                n3 += w3 * w3
                n5 += w5 * w5
            error = 0.0 if n5 == 0 and n3 == 0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * len(y))
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error**ERROR_EXPONENT)
                size *= min(1.0, factor) if rejected else factor
                break
            size *= max(MIN_FACTOR, SAFETY * error**ERROR_EXPONENT)
            rejected = True
        n = len(ts)
        while len(ts) < len(t_eval) and t_eval[len(ts)] <= t_new:
            ts.append(t_eval[len(ts)])
        if len(ts) > n:
            F = _dense(fun, t, h, y, y_new, f, f_new, K)
            nfev += len(C) - N_STAGES - 1
            ys += [_interpolate(F, y, (s - t) / h) for s in ts[n:]]
        t, y, f = t_new, y_new, f_new
    return Solution(np.array(ts), np.array(ys).T, nfev, True, REACHED_END)
