#!/usr/bin/env python3
"""Print the wall quotient series coefficients next to the binomial target.

Usage: wall_quotient_table.py [K] [I0] [TMAX]
    K     wall index (default 2)
    I0    reference object: OX, IlP1:l, IP1 (default IlP1:1)
    TMAX  truncation order (default 3)
"""

import sys
import time

from wallx.geom import parse_i0
from wallx.series import wall_target, wallcross_quotient


def main(argv):
    k = int(argv[1]) if len(argv) > 1 else 2
    i0 = parse_i0(argv[2]) if len(argv) > 2 else parse_i0("IlP1:1")
    t_max = int(argv[3]) if len(argv) > 3 else 3
    t0 = time.monotonic()
    q = wallcross_quotient(k, i0, t_max)
    print(f"quotient at wall index {k}, reference {argv[2] if len(argv) > 2 else 'IlP1:1'}"
          f" ({time.monotonic() - t0:.1f}s)")
    target = wall_target(k, t_max)
    for d in range(t_max + 1):
        mark = "ok " if q.coeff(d) == target.coeff(d) else "BAD"
        print(f"  t^{d} [{mark}] {q.coeff(d)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
