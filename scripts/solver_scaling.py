#!/usr/bin/env python3
"""Time the theta solver per iteration on G(n, .3) graphs of growing size.

For each n in --sizes, solve the real Lovász SDP (tol 1e-8) on the unit-weight
G(n, .3) drawn from np.random.default_rng(n), the "G(n)" of the benchmark
corpus, and print n, the edge count, the iterations and the wall time per
iteration in ms.  One iteration is one PSD projection, so the last column is
what limits graph size once the iteration count stays flat in n.

    python scripts/solver_scaling.py --sizes 40 60 100
"""

import argparse
import time

import numpy as np

from loorkit import ExclusivityGraph, lovasz_theta


def gnp(n: int, p: float) -> ExclusivityGraph:
    """G(n, p) from np.random.default_rng(n): pair i < j, in row-major
    order, is an edge with probability p; unit weights."""
    iu, ju = np.triu_indices(n, 1)
    mask = np.random.default_rng(n).random(iu.size) < p
    return ExclusivityGraph(n=n, weights=np.ones(n),
                            edges=tuple(zip(iu[mask].tolist(), ju[mask].tolist())))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 60, 100, 150, 200])
    args = parser.parse_args()
    print(f"{'n':>4} {'edges':>6} {'iterations':>10} {'ms/iter':>8}")
    for n in args.sizes:
        g = gnp(n, 0.3)
        start = time.perf_counter()
        sol = lovasz_theta(g)
        elapsed = time.perf_counter() - start
        print(f"{n:>4} {len(g.edges):>6} {sol.iterations:>10} "
              f"{1e3 * elapsed / sol.iterations:>8.3f}")


if __name__ == "__main__":
    main()
