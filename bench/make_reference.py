"""Regenerate data/lattes_excluded.json.

The file lists the integer curves y^2 = x^3 + ax^2 + bx + c of the
exact-certify box on which juliareal's lattes_critical_points raises.  The
workload draws its random curves from the rest of the box, so that no
operation's failure depends on the seed; the fault itself stays in every
round through one fixed curve.  Run from the repository root:

    python3 bench/make_reference.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from juliareal import lattes  # noqa: E402
from workloads import CURVE_BOX, REFERENCE  # noqa: E402


def main():
    box = range(-CURVE_BOX, CURVE_BOX + 1)
    curves = [(a, b, c) for a in box for b in box for c in box
              if oracles.cubic_discriminant(a, b, c) != 0]
    excluded = []
    for abc in curves:
        try:
            lattes.lattes_critical_points(lattes.WeierstrassCurve(*abc))
        except (ValueError, RuntimeError) as err:
            excluded.append([list(abc), type(err).__name__])
    REFERENCE.write_text(json.dumps({
        "about": "curves of the exact-certify box on which lattes_critical_points "
                 "raises; made by python3 bench/make_reference.py",
        "box": CURVE_BOX,
        "nonsingular": len(curves),
        "curves": [abc for abc, _ in excluded],
        "errors": sorted({name for _, name in excluded}),
    }) + "\n")
    print(f"{len(excluded)} of {len(curves)} curves excluded -> {REFERENCE}")


if __name__ == "__main__":
    main()
