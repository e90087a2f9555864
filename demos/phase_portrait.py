"""Phase structure of the imaginary-anisotropy chain.

Sweeps the transverse field through the broken dome for a few coupling
ranges, prints where the spectrum turns complex, and locates the dome's
lower edge (the exceptional point) as h_e = -max_phi (J^R + |gamma J^I|),
the field below which no mode can break.  At Z = 1 the edge has the
closed form h_e = -sqrt(1 + gamma^2), used here as a sanity check.

Run: python3 demos/phase_portrait.py   (about a second)
"""

import math

from ixysense.analysis import find_exceptional_point
from ixysense.blocks import PhaseLabel, build_blocks, classify_phase
from ixysense.model import ModelParams

GAMMA = 0.5
N = 1024
FIELDS = [-1.3, -1.2, -1.1, -1.0, -0.9, -0.8, -0.7]
RANGES = [(1, 1.5), (2, 1.0), (4, 1.5), (7, 2.0)]


def main() -> None:
    print(f"phase classification at gamma = {GAMMA}, N = {N}")
    header = "  ".join(f"h={h:+.1f}" for h in FIELDS)
    print(f"{'(Z, alpha)':<12}  {header}")
    for z, alpha in RANGES:
        marks = []
        for h in FIELDS:
            params = ModelParams(N=N, Z=z, alpha=alpha, gamma=GAMMA, h=h)
            label = classify_phase(build_blocks(params)).label
            marks.append("broken" if label is PhaseLabel.BROKEN else "real  ")
        print(f"({z}, {alpha:<4})    " + "  ".join(marks))

    print()
    print("lower dome edge h_e = -max_phi (J^R + |gamma J^I|)")
    print(f"{'(Z, alpha)':<12} {'h_e':>14} {'g evals':>12}")
    for z, alpha in RANGES:
        params = ModelParams(N=N, Z=z, alpha=alpha, gamma=GAMMA, h=-1.0)
        res = find_exceptional_point(params)
        print(f"({z}, {alpha:<4})   {res.h_e:>14.9f} {res.iterations:>12d}")

    closed = -math.sqrt(1.0 + GAMMA**2)
    res = find_exceptional_point(
        ModelParams(N=N, Z=1, alpha=1.5, gamma=GAMMA, h=-1.0))
    print()
    print(f"Z = 1 closed form  {closed:.9f}")
    print(f"Z = 1 located      {res.h_e:.9f}   |diff| = {abs(res.h_e - closed):.1e}")


if __name__ == "__main__":
    main()
