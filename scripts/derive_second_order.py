"""Regenerate src/zeipel/_secondorder.py.

Symbolic derivation of the closed-form pieces of the second-order averaging
step.  Everything is done with exact Fourier algebra on the unit torus:
expressions are Laurent polynomials in z = exp(i*nu) and w = exp(i*g) with
rational-function coefficients in (e, eta, L, G, H), where eta^2 = 1 - e^2.

Derived objects; the first two scale by mu^6 R^4:
  1. the l-averaged long-period remainder m(g) = <hb>_l - <hb>_{l,g}
     = c2 cos(2g) + c4 cos(4g) of the quadratic cross term
         hb = (3/2 L^4) (dS1/dl)^2 + dH1/dL * dS1/dl + dH1/dG * dS1/dg,
     which the package evaluates from its parts (zeipel.vonzeipel.hbar_true),
  2. the secular average <hb>_{l,g} = k2, asserted equal to a hand-written
     polynomial,
  3. the generators S1 and S2 (periodic, zero l-mean part) over a fixed angle
     basis, sin(k*nu + m*g) and cos(m*g)*(nu - l); S1 is asserted equal to
     its hand copy S1_HAND (the coefficients of zeipel.vonzeipel.s1_true).
     These scale by mu^2 R^2 and mu^4 R^4.  Every assertion here is
     symbolic; S2's float checks are the Tier-1 tests
     test_closed_form_s2_generator_equation and, for the l-mean the
     equation cannot see, test_s2_zero_mean_and_derivatives.

Emitted: the angle bases of S1 and S2 and the monomial tables of S1, S2, k2
and c2.

The l-average uses dl = (1/eta) (r/a)^2 dnu, i.e. <f>_l is the plain nu
average of f * rho^-2 / eta, which is exact term by term because every
rho power in hb is >= 2 except the constant.

Run from the repository root:  python scripts/derive_second_order.py
(about 8 seconds).  The output records this script's SHA-256, which a test
compares with the script.  Output is deterministic for a fixed sympy
version; cosmetic differences may appear across sympy releases.
"""

import hashlib
import pathlib
from collections import defaultdict

import sympy as sp

e, eta, L, G, H, u = sp.symbols("e eta L G H u", positive=True)
z, w = sp.symbols("z w")
I = sp.I

SCRIPT_PATH = pathlib.Path(__file__).resolve()
OUT_PATH = SCRIPT_PATH.parents[1] / "src" / "zeipel" / "_secondorder.py"

cn = (z + 1 / z) / 2
sn = (z - 1 / z) / (2 * I)


def C(k):
    return (w**2 * z**k + w**-2 * z**-k) / 2


def S(k):
    return (w**2 * z**k - w**-2 * z**-k) / (2 * I)


# Building blocks, each as a list of (coefficient, rho_power) pairs.  The
# mu^4 R^2 (first order) and mu^2 R^2 (generator) prefactors are left out
# and restored as a single mu^6 R^4 factor by the runtime wrapper.
D1 = 3 * H**2 - G**2
D2 = 3 * (G**2 - H**2)
pref = 1 / (4 * G**5)
nu_e = (2 + e * cn) * sn / eta**2
rho_e = (cn + 2 * e + e**2 * cn) / eta**4
rho_nu = -e * sn / eta**2
e_L = G**2 / (e * L**3)
e_G = -G / (e * L**2)

# dS1/dl: constant + eta^3 rho^3 + trig * eta rho^2 pieces.
s1l_const = pref * (G**2 - 3 * H**2)
s1l_poly = [
    (-pref * (G**2 - 3 * H**2) * eta**3, 3),
    (pref * (G**2 - H**2) * (3 * C(2) + sp.Rational(3, 2) * e * C(1) + sp.Rational(3, 2) * e * C(3)) * eta, 2),
]
s1l_full = s1l_poly + [(s1l_const, 0)]

# dS1/dg.
s1g = pref * (G**2 - H**2) * (3 * C(2) + 3 * e * C(1) + e * C(3))

# dH1/dL and dH1/dG at fixed (l, g), chain rule through e(L,G) and nu(l,e).
q = sp.Rational(1, 4)
h1L = [
    (q * (-6) * (D1 + D2 * C(2)) / (L**7 * G**2), 3),
    (q * 3 * (rho_e + rho_nu * nu_e) * e_L * (D1 + D2 * C(2)) / (L**6 * G**2), 2),
    (q * D2 * (-2) * S(2) * nu_e * e_L / (L**6 * G**2), 3),
]
h1G = [
    (q * (-2) * (D1 + D2 * C(2)) / (L**6 * G**3), 3),
    (q * 3 * (rho_e + rho_nu * nu_e) * e_G * (D1 + D2 * C(2)) / (L**6 * G**2), 2),
    (q * (-2 * G + 6 * G * C(2) + D2 * (-2) * S(2) * nu_e * e_G) / (L**6 * G**2), 3),
]


def mul(A, B):
    return [(ca * cb, pa + pb) for ca, pa in A for cb, pb in B]


half_d2h0 = sp.Rational(3, 2) / L**4
terms = []
terms += [(half_d2h0 * c, p) for c, p in mul(s1l_poly, s1l_poly)]
terms += [(2 * half_d2h0 * s1l_const * c, p) for c, p in s1l_poly]
terms += mul(h1L, s1l_full)
terms += [(c * s1g, p) for c, p in h1G]
const_term = half_d2h0 * s1l_const**2  # the lone rho^0 piece

rho_z = {1: e / 2, 0: sp.Integer(1), -1: e / 2}  # rho * eta^2 as a z-Laurent dict


def conv(A, B):
    out = defaultdict(lambda: sp.Integer(0))
    for ka, ca in A.items():
        for kb, cb in B.items():
            out[ka + kb] += ca * cb
    return out


def rho_power(p):
    d = {0: sp.Integer(1)}
    for _ in range(p):
        d = conv(d, rho_z)
    return {k: c / eta ** (2 * p) for k, c in d.items()}


def laurent_dict(expr):
    """Collect {(kz, kw): coeff} of an expanded expression."""
    d = defaultdict(lambda: sp.Integer(0))
    for term in sp.Add.make_args(sp.expand(expr)):
        pd = term.as_powers_dict()
        kz = int(pd.get(z, 0))
        kw = int(pd.get(w, 0))
        d[(kz, kw)] += term / (z**kz * w**kw)
    return d


def fold_to_cosine(d):
    """Turn a conjugate-symmetric Laurent dict into {(k, m): cos coefficient}
    with canonical k > 0, or k = 0 and m >= 0.  Asserts sine parts vanish."""
    out = {}
    for (kz, km), c in d.items():
        if (kz, km) == (0, 0):
            coeff = sp.cancel(sp.together(c))
            if coeff != 0:
                out[(0, 0)] = coeff
            continue
        if kz < 0 or (kz == 0 and km < 0):
            continue
        cc = d.get((-kz, -km), sp.Integer(0))
        sin_part = sp.expand(c - cc)
        assert sin_part == 0, f"sine term survives at {(kz, km)}"
        coeff = sp.cancel(sp.together(sp.expand(c + cc)))
        if coeff != 0:
            out[(kz, km)] = coeff
    return out


print("averaging over l (dnu-weighted) ...")
avg = defaultdict(lambda: sp.Integer(0))
for c, p in terms:
    rp = rho_power(p - 2)  # rho^p * rho^-2 from the measure
    for (kz, kw), cc in laurent_dict(c).items():
        cr = rp.get(-kz)
        if cr is not None:
            avg[kw] += cc * cr / eta
avg[0] += const_term  # <rho^0 * rho^-2>_nu / eta = 1 exactly

def reduce_on_manifold(expr):
    """expr as A + e B with A, B rational in (L, G, H), using eta = G/L and
    e^2 = 1 - G^2/L^2.  Equal to expr wherever eta and e are the functions
    of (L, G) they stand for, so its momentum partials are too."""
    num, den = sp.fraction(sp.together(expr.subs(eta, G / L)))

    def fold(poly):
        out = 0
        for (k,), c in sp.Poly(sp.expand(poly), e).terms():
            out += c * (1 - G**2 / L**2) ** (k // 2) * e ** (k % 2)
        return sp.expand(out)

    num, den = fold(num), fold(den)
    a, b = den.coeff(e, 0), den.coeff(e, 1)
    if b != 0:  # (a + e b)(a - e b) = a^2 - e^2 b^2
        num, den = fold(num * (a - e * b)), fold(a * a - (1 - G**2 / L**2) * b * b)
    return sp.factor(sp.cancel(num.coeff(e, 0) / den)) + e * sp.factor(sp.cancel(num.coeff(e, 1) / den))


k2_expr = reduce_on_manifold(avg[0])
K2_HAND = (
    15 * G**6 + 12 * G**5 * L - 54 * G**4 * H**2 - 15 * G**4 * L**2
    - 72 * G**3 * H**2 * L + 15 * G**2 * H**4 + 30 * G**2 * H**2 * L**2
    + 108 * G * H**4 * L + 105 * H**4 * L**2
) / (128 * G**11 * L**5)
assert sp.cancel(k2_expr - K2_HAND) == 0, "secular average disagrees with the hand polynomial"
print("  secular average matches the hand-written k2 polynomial")

lp = {}
for m in (2, 4):
    c = avg.get(m, sp.Integer(0))
    cc = avg.get(-m, sp.Integer(0))
    sin_part = sp.expand(c - cc)
    assert sin_part == 0, f"sine term in the long-period remainder at m={m}"
    lp[m] = reduce_on_manifold(c + cc)
    assert e not in lp[m].free_symbols, "odd powers of e survive"
assert lp[4] == 0, "cos(4g) harmonic expected to cancel on eta = G/L"
assert lp[2] != 0
print("  long-period remainder reduces to a single cos(2g) harmonic")
assert all(sp.expand(avg.get(m, 0)) == 0 for m in avg if abs(m) not in (0, 2, 4))

# ---------------------------------------------------------------------------
# Generators in closed form.  A source f = sum c * rho^p with every p >= 2
# gives f * rho^-2 / eta = sum b[(k, m)] cos(k nu + m g), a trigonometric
# polynomial, so at fixed g
#     A = sum_{k>0} b/k sin(k nu + m g) + sum_m b[(0, m)] cos(m g) (nu - l)
# solves dA/dl = f - <f>_l (dnu/dl = eta rho^2).  The generator of
# w1 dS/dl + f - <f>_l = 0 is S = -A/w1 = L^3 A (w1 = -mu^2/L^3, mu = 1 here).
# S1 takes f = h1 and keeps this gauge (the one s1_true uses); S2 takes the
# cross term (its lone rho^0 constant has f - <f>_l = 0 and drops out) and
# subtracts its l-mean with Hansen's <cos k nu>_l = (1 + k eta)(-e/(1+eta))^k,
# which adds k = 0 terms sin(m g); its e^k and 1/(1 + eta) = L u stay unreduced.


def hansen_cos_mean(k):
    return (1 + k * G / L) * (-e * L * u) ** k


def generator_table(source_terms, zero_mean):
    """{(p, k, m): coefficient of (nu - l)^p sin(k nu + m g + p pi/2)} of
    S = L^3 A for the source terms: (0, k, m) is sin(k nu + m g), (1, 0, m)
    is cos(m g) (nu - l)."""
    b = defaultdict(lambda: sp.Integer(0))
    for c, p in source_terms:
        rp = rho_power(p - 2)
        for (kz, kw), cc in laurent_dict(c).items():
            for kr, cr in rp.items():
                b[(kz + kr, kw)] += cc * cr / eta
    out = defaultdict(lambda: sp.Integer(0))
    for (k, m), coeff in fold_to_cosine(b).items():
        coeff = reduce_on_manifold(L**3 * coeff)
        if k == 0:
            out[(1, 0, m)] += coeff
            continue
        out[(0, k, m)] += coeff / k
        if zero_mean and m != 0:  # <sin(k nu + m g)>_l = sin(m g) <cos k nu>_l
            out[(0, 0, abs(m))] -= sp.sign(m) * coeff / k * hansen_cos_mean(k)
    return {key: c for key, c in sorted(out.items()) if c != 0}


def monomials(table):
    """Rows (term, coefficient, powers of e, L, G, H, u) of a {basis key:
    expression} table.  Factors G + L and L - G become 1/u and e^2 L^2 u, as
    an expanded L - G would cancel near e = 0."""
    rows = []
    for j, expr in enumerate(table.values()):
        for term in sp.Add.make_args(sp.expand(expr.subs([(G + L, 1 / u), (L - G, e**2 * L**2 * u)]))):
            coeff, rest = term.as_coeff_Mul()
            powers = rest.as_powers_dict() if rest != 1 else {}
            assert coeff.is_Rational and all(x in (e, L, G, H, u) and p.is_Integer for x, p in powers.items()), term
            rows.append((j, coeff, *(int(powers.get(x, 0)) for x in (e, L, G, H, u))))
    return sorted(rows, key=lambda row: (row[0], row[2:]))


print("closed-form generators ...")
s1_table = generator_table([(q * (D1 + D2 * C(2)) / (L**6 * G**2), 3)], zero_mean=False)
S1_HAND = {  # s1_true, before the mu^2 R^2 factor
    (1, 0, 0): -(G**2 - 3 * H**2) / (4 * G**5),
    (0, 1, 0): -e * (G**2 - 3 * H**2) / (4 * G**5),
    (0, 1, 2): 3 * e * (G**2 - H**2) / (8 * G**5),
    (0, 2, 2): 3 * (G**2 - H**2) / (8 * G**5),
    (0, 3, 2): e * (G**2 - H**2) / (8 * G**5),
}
assert s1_table.keys() == S1_HAND.keys()
assert all(sp.cancel(s1_table[k] - S1_HAND[k]) == 0 for k in S1_HAND), "S1 disagrees with s1_true"
print("  S1 matches s1_true")
s2_table = generator_table(terms, zero_mean=True)
print(f"  S2: {len(s2_table)} basis terms")


print("emitting", OUT_PATH)
lines = [
    '"""Auto-generated by scripts/derive_second_order.py.  Do not edit."""',
    "",
    f'SCRIPT_SHA256 = "{hashlib.sha256(SCRIPT_PATH.read_bytes()).hexdigest()}"',
    "",
    "# Angle basis of the closed-form generators: (p, k, m) is",
    "# (nu - l)**p * sin(k*nu + m*g + p*pi/2), i.e. (0, k, m) is sin(k*nu + m*g)",
    "# and (1, 0, m) is cos(m*g) * (nu - l).",
    f"S1_BASIS = {tuple(s1_table)!r}",
    f"S2_BASIS = {tuple(s2_table)!r}",
    "",
    "",
    "# Rows (term, coefficient, a, b, c, d, f): per term, the sum of coefficient *",
    "# e**a * L**b * G**c * H**d * u**f, u = 1/(L + G).  Scales: S1 mu^2 R^2, S2",
    "# mu^4 R^4, k2 and the long-period c2 (of c2*cos(2g)) mu^6 R^4.",
]
for name, table in (("S1", s1_table), ("S2", s2_table), ("K2", {0: k2_expr}), ("C2", {0: lp[2]})):
    rows = [f"    ({j}, {c}, {', '.join(map(str, powers))})," for j, c, *powers in monomials(table)]
    lines += [f"{name}_MONOMIALS = (", *rows, ")"]
lines.append("")

OUT_PATH.write_text("\n".join(lines))
print("done")
