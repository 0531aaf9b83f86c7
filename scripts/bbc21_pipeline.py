#!/usr/bin/env python3
"""End-to-end run on the 21-ray instance: classical bound, SDP value (one
real solve answers both fields), both complex-to-real conversions, and the
operator spectra.
"""

import numpy as np

from loorkit import (
    bbc21,
    certify_operator,
    independence_number,
    lovasz_theta,
    projector_realify,
    rep_value,
    vector_realify,
    verify_rep,
)


def main() -> None:
    inst = bbc21()
    g = inst.graph
    print(f"instance {inst.name}: n={g.n}, edges={len(g.edges)}, "
          f"weights 3 (x9) and 5 (x12)")

    alpha, witness = independence_number(g)
    print(f"classical bound alpha = {alpha}  witness {witness}")

    sol = lovasz_theta(g, tol=1e-6)
    print(f"theta  (real and complex SDP) = {sol.value:.8f}  ({sol.iterations} iterations)")

    rep3 = inst.complex_rep
    print(f"stored complex rep (d=3) achieves {rep_value(rep3, g):.12f}")

    for label, rep in (
        ("vector    (d=5)", vector_realify(rep3, g)),
        ("projector (d=6)", projector_realify(rep3, g)),
    ):
        report = verify_rep(rep, g, tol=1e-10, target=29.0)
        print(f"conversion {label}: value {report.value:.12f}, "
              f"edge residual {report.max_edge_residual:.2e}, "
              f"passed={report.passed}")

    for label, rep in (("complex d=3", rep3), ("real    d=5", inst.real_rep)):
        operator, spectrum, sic = certify_operator(rep, g)
        flat = np.max(np.abs(operator - spectrum[-1] * np.eye(rep.dim)))
        print(f"operator for {label}: spectrum {np.round(spectrum, 6)}, "
              f"state-independent={sic} (flatness dev {flat:.2e})")


if __name__ == "__main__":
    main()
