"""J2-halving convergence study.

Propagates the reference low-Earth orbit analytically at order 1 and 2,
compares against the Cartesian oracle at J2, J2/2, J2/4, and prints the
successive error ratios.  A theory whose neglected remainder is O(J2^n)
shows ratios near 2^n: about 4 for the first-order theory, about 8 for
the second-order one.

Usage: python scripts/convergence_study.py [--orbits 10] [--samples 401]
"""

import argparse

import numpy as np

from zeipel.checks import halving_study
from zeipel.elements import EARTH, KeplerianElements


def run(orbits, samples, a, e, i):
    model = EARTH
    el0 = KeplerianElements(a, e, i, 0.3, 1.1, 0.2)
    period = 2.0 * np.pi / np.sqrt(model.mu / a**3)
    times = np.linspace(0.0, orbits * period, samples)

    for order in (1, 2):
        print(f"== order {order} ==")
        levels = halving_study(el0, times, model, order)
        errs = [lv.report.max_pos_err for lv in levels]
        ptps = [np.ptp(lv.mean, axis=0) for lv in levels]
        for lv, ptp in zip(levels, ptps):
            energy = lv.oracle.extras["energy"]
            print(
                f"  J2={lv.model.j2:.6e}  max_pos_err={lv.report.max_pos_err:.6e} km  "
                f"ptp(L'',G'',H'')={ptp[0]:.3e},{ptp[1]:.3e},{ptp[2]:.3e}  "
                f"oracle dE/E={abs(np.ptp(energy) / energy[0]):.1e}"
            )
        for k in (0, 1):
            print(
                f"  ratio step{k + 1}: position {errs[k] / errs[k + 1]:.3f}  "
                f"momenta {np.array2string(ptps[k] / ptps[k + 1], precision=3)}"
            )
    print(
        "\nH'' peak-to-peak sits at the oracle round-off floor (~1e-12 relative)\n"
        "at every J2: the map leaves H untouched and the zonal field conserves\n"
        "it, so its ratio carries no convergence information."
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orbits", type=float, default=10.0)
    ap.add_argument("--samples", type=int, default=401)
    ap.add_argument("--a", type=float, default=7000.0)
    ap.add_argument("--e", type=float, default=0.01)
    ap.add_argument("--i", type=float, default=0.5)
    args = ap.parse_args()
    run(args.orbits, args.samples, args.a, args.e, args.i)


if __name__ == "__main__":
    main()
