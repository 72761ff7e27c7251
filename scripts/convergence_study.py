"""J2-halving convergence sweep over orbit shapes (a, e, i).

For each row, integrates the Cartesian oracle once at each of J2, J2/2 and
J2/4, compares the order-1 and order-2 analytic ephemerides against it, and
prints one line: each order's two successive position-error ratios and the
order-2 max position error at full J2.  A theory whose neglected remainder
is O(J2^n) shows ratios near 2^n: about 4 for the first-order theory, about
8 for the second-order one.  The default rows are the seven (a, e, i) rows
of ROADMAP item 1's table, with raan 0.3, argp 1.1 and M 0.2 rad; `--a`,
`--e` and `--i` select a single row instead (the others default to the
first row's).

Usage: python scripts/convergence_study.py [--orbits 10] [--samples 201]
       [--a 7000 --e 0.01 --i 0.5]
"""

import argparse

import numpy as np

from zeipel.checks import halving_ratios, halving_study
from zeipel.elements import EARTH, KeplerianElements

# (a km, e, i rad); the last is the critical inclination, arctan(2).
ROWS = (
    (7000.0, 0.01, 0.5),
    (7000.0, 0.1, 0.5),
    (7500.0, 0.2, 0.5),
    (7500.0, 0.2, 1.0),
    (7500.0, 0.1, 1.1),
    (8300.0, 0.3, 2.3),
    (7500.0, 0.1, 1.1071),
)


def study_row(orbits, samples, a, e, i):
    """Each order's (ratio step 1, ratio step 2) and the order-2 max
    position error at full J2, km."""
    el0 = KeplerianElements(a, e, i, 0.3, 1.1, 0.2)
    times = np.linspace(0.0, orbits * (2.0 * np.pi / np.sqrt(EARTH.mu / a**3)), samples)
    levels = halving_study(el0, times, EARTH, (1, 2))
    ratios = {n: halving_ratios([lv.reports[n].max_pos_err for lv in levels]) for n in (1, 2)}
    return ratios, levels[0].reports[2].max_pos_err


def run(orbits, samples, rows=ROWS):
    print(f"J2-halving position-error ratios, {orbits:g} periods, {samples} samples")
    for a, e, i in rows:
        ratios, err = study_row(orbits, samples, a, e, i)
        print(
            f"a={a:g} km  e={e:g}  i={i:g} rad  "
            f"order-1 ratios {ratios[1][0]:.2f} / {ratios[1][1]:.2f}  "
            f"order-2 ratios {ratios[2][0]:.2f} / {ratios[2][1]:.2f}  "
            f"order-2 max_pos_err {err:.2e} km"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orbits", type=float, default=10.0)
    ap.add_argument("--samples", type=int, default=201)
    ap.add_argument("--a", type=float)
    ap.add_argument("--e", type=float)
    ap.add_argument("--i", type=float)
    args = ap.parse_args()
    rows = ROWS
    if (args.a, args.e, args.i) != (None, None, None):
        rows = [tuple(ROWS[0][k] if x is None else x for k, x in enumerate((args.a, args.e, args.i)))]
    run(args.orbits, args.samples, rows)


if __name__ == "__main__":
    main()
