"""Command-line frontend: one subcommand per pipeline stage.

Exit codes: 0 success/verified, 1 verification failure (also an
``extract`` whose solver optimum does not factor into a representation,
whose representation fails ``verify``, or whose representation's value
lies outside the solve's bracket), 2 input error, 3 solver
non-convergence.  Output is JSON by default (floats serialized
with shortest round-trip representation, so identical runs are
byte-identical); ``--format text`` renders the reports of ``theta``,
``alpha`` and ``verify`` as small human tables.

The console script and ``python -m loorkit`` (``run``) flush stdout and
stderr once ``main`` returns and end the process by ``os._exit``, without
interpreter teardown.  A write or flush that fails (a closed pipe, a full
disk) prints ``error: <reason>`` to stderr and exits 2.

Each command imports only the modules it calls, and the flag default
owned by a module (``--max-iters``) is read from it once the command has
imported it.  So only the commands that do linear algebra load numpy:
``alpha`` and ``instance --what graph`` never do, every other command does.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import graph as graph_mod

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_CONVERGENCE = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, args) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _render(payload: dict, args) -> str:
    if args.format == "json":
        return json.dumps(payload, indent=2)
    lines = []
    for key, value in payload.items():
        if isinstance(value, list):
            lines.append(f"{key}: " + " ".join(repr(x) for x in value))
        else:
            lines.append(f"{key}: {value!r}" if isinstance(value, float) else f"{key}: {value}")
    return "\n".join(lines)


def _report_unconverged(sol, args) -> None:
    """Name on stderr each stop criterion the capped solve missed, with its last value."""
    missed = "; ".join(f"{name} {value:.3e}" for name, value in sol.unmet(args.tol).items())
    print(f"solver did not converge within {args.max_iters} iterations: "
          f"{missed} above tol {args.tol!r}", file=sys.stderr)


def _solve(g, args):
    """The capped solve of ``theta`` and ``extract``; without --max-iters, the solver's cap."""
    from . import theta as theta_mod

    if args.max_iters is None:
        args.max_iters = theta_mod.DEFAULT_MAX_ITERS
    return theta_mod.lovasz_theta(g, tol=args.tol, max_iters=args.max_iters)


def _cmd_theta(args) -> int:
    g = graph_mod.parse_graph(_read_text(args.graph_path))
    # the real solve answers the Hermitian program too, so --field prints the same report
    sol = _solve(g, args)
    _emit(_render({
        "value": sol.value,
        "lower": sol.lower,
        "upper": sol.upper,
        "converged": sol.converged,
        "primal_residual": sol.primal_residual,
        "psd_residual": sol.psd_residual,
        "iterations": sol.iterations,
    }, args), args)
    if not sol.converged:
        _report_unconverged(sol, args)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_alpha(args) -> int:
    from . import alpha as alpha_mod

    g = graph_mod.parse_graph(_read_text(args.graph_path))
    alpha, witness = alpha_mod.independence_number(g)
    _emit(_render({"alpha": alpha, "witness": list(witness)}, args), args)
    return EXIT_OK


def _cmd_extract(args) -> int:
    from . import loor as loor_mod

    g = graph_mod.parse_graph(_read_text(args.graph_path))
    sol = _solve(g, args)
    if not sol.converged:
        _report_unconverged(sol, args)
        return EXIT_NO_CONVERGENCE
    try:
        rep = loor_mod.rep_from_gram(sol.X, g, tol=args.tol)
    except ValueError as exc:
        print(f"solver optimum at tol {args.tol!r} gives no representation: {exc}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    report = loor_mod.verify_rep(rep, g, tol=args.tol)
    if not report.passed:
        print(f"extracted representation fails verification at tol {args.tol!r}: "
              f"max norm residual {report.max_norm_residual:.3e}, "
              f"max edge residual {report.max_edge_residual:.3e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    # an orthogonal representation is worth at most theta, so at most the
    # certified upper bound; below, the rep may lose tol * upper to the rank cut
    if not sol.lower - args.tol * sol.upper <= report.value <= sol.upper:
        print(f"extracted representation's value {report.value!r} lies outside the solve's "
              f"bracket [{sol.lower!r}, {sol.upper!r}] at tol {args.tol!r}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    _emit(loor_mod.serialize_rep(rep, indent=2), args)
    return EXIT_OK


def _cmd_realify(args) -> int:
    from . import loor as loor_mod
    from . import realify as realify_mod

    rep = loor_mod.parse_rep(_read_text(args.rep_path))
    n = rep.n
    g = graph_mod.ExclusivityGraph(n=n, weights=[1.0] * n, edges=())
    convert = (realify_mod.projector_realify if args.method == "projector"
               else realify_mod.vector_realify)
    _emit(loor_mod.serialize_rep(convert(rep, g), indent=2), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import loor as loor_mod

    rep = loor_mod.parse_rep(_read_text(args.rep_path))
    g = graph_mod.parse_graph(_read_text(args.graph))
    report = loor_mod.verify_rep(rep, g, tol=args.tol, target=args.target, with_sic=args.sic)
    payload = {
        "passed": report.passed,
        "value": report.value,
        "max_norm_residual": report.max_norm_residual,
        "max_edge_residual": report.max_edge_residual,
        "per_vertex_overlap": [float(x) for x in report.per_vertex_overlap],
    }
    if args.target is not None:
        payload["target"] = args.target
    if args.sic:
        payload["sic"] = report.sic
        payload["sic_spectrum"] = [float(x) for x in report.sic_spectrum]
    _emit(_render(payload, args), args)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_orthograph(args) -> int:
    from . import loor as loor_mod

    rep = loor_mod.parse_rep(_read_text(args.rep_path))
    if args.weights is not None:
        try:
            weights = [float(x) for x in args.weights.split(",")]
        except ValueError as exc:
            raise ValueError(f"--weights must be comma-separated numbers: {exc}") from exc
    else:
        weights = None
    g = loor_mod.orthogonality_graph(rep.vectors, weights, tol=args.ortho_tol)
    worst = loor_mod.max_edge_overlap(rep.vectors, g)
    print(f"orthogonality threshold {args.ortho_tol!r}, "
          f"max accepted-edge overlap {worst!r}", file=sys.stderr)
    _emit(graph_mod.serialize_graph(g, indent=2), args)
    return EXIT_OK


def _cmd_instance(args) -> int:
    from . import instances as instances_mod

    by_name = {inst.name: inst for inst in instances_mod.all_instances()}
    if args.name not in by_name:
        raise ValueError(f"unknown instance {args.name!r}; available: {sorted(by_name)}")
    inst = by_name[args.name]
    if args.what == "graph":
        _emit(graph_mod.serialize_graph(inst.graph, indent=2), args)
        return EXIT_OK
    from . import loor as loor_mod

    rep = inst.complex_rep if args.what == "rep-complex" else inst.real_rep
    if rep is None:
        raise ValueError(f"instance {args.name!r} has no {args.what} representation")
    _emit(loor_mod.serialize_rep(rep, indent=2), args)
    return EXIT_OK


def _checked(convert, accept, requirement: str):
    """argparse ``type=`` that converts, then checks; argparse names the flag."""
    def parse(text: str):
        try:
            x = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not accept(x):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return x
    return parse


_positive = _checked(float, lambda x: x > 0 and math.isfinite(x), "positive and finite")
_finite = _checked(float, math.isfinite, "finite")
_at_least_one = _checked(int, lambda k: k >= 1, "at least 1")


def _add_solver_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_positive, default=graph_mod.DEFAULT_TOL)
    p.add_argument("--max-iters", type=_at_least_one, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loorkit",
        description="Weighted Lovász numbers and real/complex optimal "
                    "orthogonal representations of exclusivity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="solve the Lovász-number SDP for a graph file")
    p.add_argument("graph_path", nargs="?", default="-")
    p.add_argument("--field", choices=("real", "complex"), default="real",
                   help="both values print the same report: the real solve "
                        "answers the Hermitian program")
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("alpha", help="exact weighted independence number")
    p.add_argument("graph_path", nargs="?", default="-")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("extract", help="solve, then extract a representation")
    p.add_argument("graph_path", nargs="?", default="-")
    _add_solver_opts(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("realify", help="convert a complex representation to a real one")
    p.add_argument("rep_path", nargs="?", default="-")
    p.add_argument("--method", choices=("projector", "vector"), required=True)
    p.set_defaults(func=_cmd_realify)

    p = sub.add_parser("verify", help="check a representation against a graph")
    p.add_argument("rep_path", nargs="?", default="-")
    p.add_argument("--graph", required=True, help="graph file the representation claims")
    p.add_argument("--tol", type=_positive, default=graph_mod.DEFAULT_TOL)
    p.add_argument("--target", type=_finite, default=None)
    p.add_argument("--sic", action="store_true", help="report the operator spectrum")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("orthograph", help="derive the exclusivity graph of a vector file")
    p.add_argument("rep_path", nargs="?", default="-")
    p.add_argument("--weights", default=None, help="comma-separated vertex weights")
    p.add_argument("--ortho-tol", type=_positive, default=graph_mod.DEFAULT_TOL)
    p.set_defaults(func=_cmd_orthograph)

    p = sub.add_parser("instance", help="emit a built-in instance document")
    p.add_argument("name")
    p.add_argument("--what", choices=("graph", "rep-complex", "rep-real"), default="graph")
    p.set_defaults(func=_cmd_instance)

    for name in ("theta", "alpha", "verify"):  # the subcommands that print a report
        sub.choices[name].add_argument("--format", choices=("json", "text"), default="json")
    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # best effort: an input error stays exit 2 when stderr cannot be written
        with contextlib.suppress(OSError):
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    """The console script and ``python -m loorkit``: ``main()``, then exit.

    The process ends by ``os._exit`` once both streams are flushed, so it
    skips interpreter teardown.  A flush that fails is an output error:
    it is named on stderr and the exit code is 2.  An exception that
    escapes ``main()`` takes the interpreter's path (traceback, exit 1).
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # a stream closed before the process started
                stream.flush()
        except OSError as exc:
            code = EXIT_INPUT_ERROR
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr)
    os._exit(code)
