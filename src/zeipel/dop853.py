"""Dormand–Prince 8(5,3) for x'' = a(x) on a state of six Python floats.

The oracle's integrator: the method of scipy's `solve_ivp(method="DOP853")`
(Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.5 and §II.10), with its
tableau, initial step, error norm, step-size rule and 7th-order dense
output, applied to the first-order system y = (x, v), f(y) = (v, a(x)).
A first-order Runge–Kutta method applied to such a system is a Nyström
method (ibid. §II.14): every sum over the stages K_j = (V_j, a_j) reaches
the stage velocities V_j only through the accelerations, so each row of the
tableau is composed at import into a coefficient of v and a row over the
accelerations, and no stage velocity is ever formed.  The stage states, the
step, its error norm with the scales of each component, and the dense
output's rows and its samples at each fraction of a step are emitted from
the composed rows as Python source at import, written out over the
components on local floats, with no `abs`, `max` or numpy calls on small
arrays.  scipy's `solve_ivp` stays the test reference.

`solve_ivp(acc, y0, t_eval)` takes the acceleration kernel, the initial
position and velocity and the sample grid, and nothing else: it integrates
forward from t_eval[0] to t_eval[-1] at the one relative and absolute
tolerance `TOL`, its first sample is `y0` itself, and a step that falls
below the spacing of floats, or whose size or error norm is NaN, raises
`IntegrationError` there.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError, describe

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

TOL = 1e-12  # relative and absolute tolerance of every integration
# scipy's step-size rule
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)


class Solution(NamedTuple):
    """The samples as (N, 6) rows, one per time of the grid, and the
    right-hand side count `nfev`."""

    rows: np.ndarray
    nfev: int


# The Nyström form.  With y = (x, v) and f(y) = (v, a(x)), stage j is
# K_j = (V_j, a_j) with V_j = v + h sum_i A[j][i] a_i (V_0 = v, and V_12 is
# the new velocity, A[12] being B).  So a row R over the stages sums, on the
# positions, to
#     sum_j R_j V_j = (sum_j R_j) v + h sum_i (sum_j R_j A[j][i]) a_i,
# a coefficient of v and a row over the accelerations, and on the velocities
# to sum_j R_j a_j.  `_compose` gives each row its position row, every sum
# added left to right in column order, as a loop over the row adds it.  A
# stage state is then x + ((sum_j A[s][j]) v + (sum_i Abar[s][i] a_i) h) h,
# whose coefficient of v is C[s] to the rounding of the tableau's entries.
# That of E3, E5 and D is the rounding left in a sum that is zero in exact
# arithmetic; at a tiny step, such as the first, it is the whole error
# estimate, as it is in the first-order form, whose sum over stage
# velocities that all equal v adds the row the same way.


def _compose(row):
    """(sum_j R_j, the row sum_j R_j A[j] over the accelerations) of a row R
    over the stages, the latter as (column, value) pairs."""
    w, bar = 0.0, {}
    for j, r in row:
        w += r
        for i, a in A[j]:
            bar[i] = bar.get(i, 0.0) + r * a
    return w, tuple(sorted(bar.items()))


POS_A = tuple(map(_compose, A))  # position rows of the stage states
POS_B, POS_E3, POS_E5 = map(_compose, (B, E3, E5))
POS_D = tuple(map(_compose, D))

# The sums, written out once at import from the rows above: each
# sum_i a_i acc_i over the (i, a_i) of a row becomes one expression per
# component, its terms added left to right in column order, as a loop over
# the row adds them, and component c of stage i's acceleration is the local
# `ki_c`.  A loop that starts from 0.0 differs only in the sign of a sum
# whose terms are all zero, which changes no sample and no step when the
# initial state holds no -0.0.  The step's error norm is written out the same
# way: its sums of squares add the components in order, as a loop from 0.0
# does (a square is never -0.0).


def _sum(row, c):
    return " + ".join(f"{a!r} * k{i}_{c}" for i, a in row)


def _component(pos, row, c):
    """Component c of the sum of `row` over the stages, on y = (x, v): from
    its position row `pos`, (w, row over the accelerations), w v + (sum) h
    for a position, and the row's plain sum over the accelerations for a
    velocity."""
    if c >= 3:
        return _sum(row, c - 3)
    w, bar = pos
    return f"{w!r} * y{c + 3} + ({_sum(bar, c)}) * h" if bar else f"{w!r} * y{c + 3}"


def _stages(stages):
    """Evaluate each stage s at x + (sum_j A[s][j] V_j) h and unpack it."""
    return "".join(
        f"    k{s} = acc({', '.join(f'y{c} + ({_component(POS_A[s], A[s], c)}) * h' for c in range(3))})\n"
        f"    k{s}_0, k{s}_1, k{s}_2 = k{s}\n"
        for s in stages
    )


def _error_norm():
    """scipy's error norm of the step from y to z: each component of the
    E3 and E5 sums over its scale, their sums of squares n3 and n5, and the
    norm `error` from them.  The scale TOL + max(abs(y), abs(z)) * TOL is
    written without builtin calls: a and b are the magnitudes (-0.0 and NaN
    kept as they are, which leaves the scale the same float) and the choice
    between them is the one `max` makes, b only if b > a."""
    lines = ""
    for c in range(6):
        lines += (f"    a = y{c} if y{c} >= 0.0 else -y{c}\n"
                  f"    b = z{c} if z{c} >= 0.0 else -z{c}\n"
                  f"    s = TOL + (b if b > a else a) * TOL\n"
                  f"    w3_{c} = ({_component(POS_E3, E3, c)}) / s\n"
                  f"    w5_{c} = ({_component(POS_E5, E5, c)}) / s\n")
    for n in (3, 5):
        lines += f"    n{n} = {' + '.join(f'w{n}_{c} * w{n}_{c}' for c in range(6))}\n"
    return lines + "    error = 0.0 if n5 == 0 and n3 == 0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 6)\n"


def _interpolant_rows(c):
    """Component c of the rows F0..F6 of the 7th-order interpolant on the
    step from y to z: the differences dy, h f_old - dy and 2 dy - h (f +
    f_old), with f = (v, a) at either end, and h times the sum of each D row
    over the 16 stages."""
    f_old = f"y{c + 3}" if c < 3 else f"k0_{c - 3}"
    f_new = f"z{c + 3}" if c < 3 else f"k{N_STAGES}_{c - 3}"
    return (f"    F0_{c} = z{c} - y{c}\n"
            f"    F1_{c} = h * {f_old} - F0_{c}\n"
            f"    F2_{c} = 2.0 * F0_{c} - h * ({f_new} + {f_old})\n"
            + "".join(f"    F{r}_{c} = h * ({_component(pos, row, c)})\n"
                      for r, (pos, row) in enumerate(zip(POS_D, D), start=3)))


def _interpolant(c):
    """Component c of the interpolant at x, with u = 1 - x, nested as
    scipy nests it: from (0.0 + F6) x, each lower row is added and the sum
    multiplied by u and x in turn, and y is added last."""
    v = f"(0.0 + F6_{c}) * x"
    for r in range(5, -1, -1):
        v = f"({v} + F{r}_{c}) * {'x' if r % 2 == 0 else 'u'}"
    return f"{v} + y{c}"


_Y = "    y0, y1, y2, y3, y4, y5 = y\n"
_Z = "    z0, z1, z2, z3, z4, z5 = y_new\n"
_K = ", ".join(f"k{j}" for j in range(N_STAGES + 1))
_SOURCE = (
    # (y_new, K, error norm) of one step of size h from y = (x, v), K being
    # the accelerations of its stages, K[0] = a(x) and K[12] at y_new's x
    "def _step(acc, h, y, k0):\n"
    + _Y
    + "    k0_0, k0_1, k0_2 = k0\n"
    + _stages(range(1, N_STAGES))
    + "".join(f"    z{c} = y{c} + ({_component(POS_B, B, c)}) * h\n" for c in range(6))
    + f"    k{N_STAGES} = acc(z0, z1, z2)\n"
    + _error_norm()
    + f"    return (z0, z1, z2, z3, z4, z5), ({_K}), error\n"
    # the samples at the fractions xs = (t - t_old) / h of the step from y to
    # y_new with stage accelerations K, after the three stages that extend K
    # to the 16 that D spans
    "def _samples(acc, h, y, y_new, K, xs):\n"
    + _Y
    + _Z
    + f"    {_K} = K\n"
    + "".join(f"    k{j}_0, k{j}_1, k{j}_2 = k{j}\n" for j in range(N_STAGES + 1))
    + _stages(range(N_STAGES + 1, len(C)))
    + "".join(_interpolant_rows(c) for c in range(6))
    + "    out = []\n"
    + "    for x in xs:\n"
    + "        u = 1.0 - x\n"
    + f"        out.append(({', '.join(_interpolant(c) for c in range(6))}))\n"
    + "    return out\n"
)
exec(compile(_SOURCE, "<dop853 stage sums>", "exec"))


def _rms(v):
    return math.sqrt(sum(x * x for x in v) / len(v))


def _initial_step(acc, y0, f0, interval):
    """scipy's `select_initial_step` (Hairer et al. §II.4) for the order-7
    error estimate, from y0 and f0 = f(y0): one right-hand side evaluation."""
    scale = [TOL + abs(x) * TOL for x in y0]
    d0 = _rms([x / s for x, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = tuple(x + h0 * f for x, f in zip(y0, f0))
    f1 = (*y1[3:], *acc(*y1[:3]))
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


TOO_SMALL = "Required step size is less than spacing between numbers."  # scipy's reason
NON_FINITE = "the state or right-hand side became non-finite"


def _failure(why, y0, t):
    """IntegrationError naming the reason, the initial state and the last
    time reached."""
    return IntegrationError(
        f"oracle integration failed: {why}; initial state {describe(('x', 'y', 'z', 'vx', 'vy', 'vz'), y0)}; "
        f"last time reached {t!r}"
    )


def solve_ivp(acc, y0, t_eval):
    """Integrate x'' = acc(x) for a state y0 = (x, v) of six floats from
    t_eval[0] to t_eval[-1], sampling (x, v) at every time of `t_eval`
    (strictly increasing); the first sample is `y0`.  `acc(x0, x1, x2)`
    returns the three components of the acceleration.  Steps as scipy's
    DOP853 on y' = (v, acc(x)): 2 evaluations to start, 12 a step tried,
    and 3 more for the dense output of a step that holds samples after
    t_eval[0]; a one-sample grid evaluates nothing.  A step size
    below 10 ulp of t raises `IntegrationError` naming the initial state and
    the time reached; so does a NaN step size or error norm, saying that the
    state or right-hand side became non-finite."""
    t_eval = [float(s) for s in t_eval]
    y = tuple(float(x) for x in y0)
    ys = [y]
    t, t1 = t_eval[0], t_eval[-1]
    if t == t1:
        return Solution(np.array(ys), 0)
    k0 = acc(*y[:3])
    size = _initial_step(acc, y, (*y[3:], *k0), t1 - t)
    nfev = 2
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        size = max(size, min_step)
        rejected = False
        while True:
            if not size >= min_step:
                raise _failure(NON_FINITE if size != size else TOO_SMALL, y0, t)
            t_new = min(t + size, t1)
            size = h = t_new - t
            y_new, K, error = _step(acc, h, y, k0)
            nfev += N_STAGES
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR, SAFETY * error**ERROR_EXPONENT)
                size *= min(1.0, factor) if rejected else factor
                break
            if error != error:
                raise _failure(NON_FINITE, y0, t)
            size *= max(MIN_FACTOR, SAFETY * error**ERROR_EXPONENT)
            rejected = True
        n = k = len(ys)
        while k < len(t_eval) and t_eval[k] <= t_new:
            k += 1
        if k > n:
            ys += _samples(acc, h, y, y_new, K, [(s - t) / h for s in t_eval[n:k]])
            nfev += len(C) - N_STAGES - 1
        t, y, k0 = t_new, y_new, K[N_STAGES]
    return Solution(np.array(ys), nfev)
