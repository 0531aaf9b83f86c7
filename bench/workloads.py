"""The three workloads: one pass over each one's seeded corpus.

Load is one client in a closed loop: each operation starts when the
previous one has finished.  An operation is timed from outside, with a
host-speed probe on each side (``hostspeed``); its correctness is checked
after the clock stops.  In a traced pass every
call into a loorkit layer is a span, and each operation has a root span.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loorkit
import checks
import corpus
from hostspeed import Stopwatch, scaled

SOLVE_TOL = 1e-8  # the CLI's default
SOLVE_CAP = 10_000
CLI_TIMEOUT_S = 120
CLI_ENTRY = "from loorkit.cli import run; run()"


@dataclass
class Op:
    """One operation: ``error`` is why it failed (None if it passed), and
    ``wrong`` says the program gave a wrong answer rather than refusing.
    ``seconds`` is its wall time and ``host`` the host-speed probe around
    it; both are None for an operation not run because its input failed."""

    kind: str
    seconds: float | None
    error: str | None = None
    wrong: bool = False
    info: dict = field(default_factory=dict)
    host: float | None = None

    @property
    def scaled(self) -> float:
        """Wall time at the reference host speed."""
        return scaled(self.seconds, self.host)


def refused(kind: str, sw: Stopwatch | None, reason: str, **info) -> Op:
    if sw is None:
        return Op(kind, None, reason, False, info)
    return Op(kind, sw.seconds, reason, False, info, sw.host)


def checked(kind: str, sw: Stopwatch, reason: str | None, **info) -> Op:
    return Op(kind, sw.seconds, reason, reason is not None, info, sw.host)


# The loorkit entry points the benchmark calls, by span name.
LAYER_FNS = {
    "theta.real": loorkit.lovasz_theta,
    "theta.complex": loorkit.lovasz_theta_complex,
    "graph.independence_number": loorkit.independence_number,
    "graph.orthogonality_graph": loorkit.orthogonality_graph,
    "graph.parse": loorkit.parse_graph,
    "graph.serialize": loorkit.serialize_graph,
    "loor.gram_from_rep": loorkit.gram_from_rep,
    "loor.rep_from_gram": loorkit.rep_from_gram,
    "loor.verify_rep": loorkit.verify_rep,
    "loor.parse_rep": loorkit.parse_rep,
    "loor.serialize_rep": loorkit.serialize_rep,
    "realify.projector": loorkit.projector_realify,
    "realify.vector": loorkit.vector_realify,
}


def layer_calls(tracer) -> dict:
    """LAYER_FNS, each call recorded as a span when the tracer records."""
    return {name: tracer.wrap(name, fn) for name, fn in LAYER_FNS.items()}


def python_probe(root: Path, code: str) -> float:
    """Wall seconds of ``python -c code`` with the package on the path."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=cli_env(root),
                   check=True, timeout=CLI_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Workload:
    """Set-up builds the inputs; ``run_pass`` runs every operation once."""

    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        # A fresh interpreter importing the package: the start-up every
        # user pays once, and a check that this checkout can import it.
        python_probe(self.root, "import loorkit")

    def run_pass(self, tracer) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CliWorkload(Workload):
    """Every CLI stage as a subprocess, on documents written at set-up."""

    name = "cli"

    def setup(self) -> None:
        super().setup()
        self.inputs = corpus.cli_inputs(self.seed)
        self.workdir = self.root / "bench" / ".work" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name in ("kcbs", "bbc21"):
            self._write(f"{name}.graph.json", loorkit.serialize_graph(self.inputs[name]["graph"]))
            self._write(f"{name}.rep.json", loorkit.serialize_rep(self.inputs[name]["rep"]))
        self._write("g40.graph.json", loorkit.serialize_graph(self.inputs["g40"]))

    def close(self) -> None:
        if getattr(self, "workdir", None) is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                self.workdir.parent.rmdir()
            except OSError:  # another run still uses it
                pass

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    def _call(self, tracer, stage: str, args: list[str]):
        """Run one CLI call; returns (stopwatch, exit code, stdout, stderr)."""
        cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        sw = Stopwatch()
        try:
            with sw, tracer.span(f"cli.stage.{stage}"):
                proc = subprocess.run(cmd, cwd=self.root, env=cli_env(self.root),
                                      capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return sw, None, "", "timed out"
        return sw, proc.returncode, proc.stdout, proc.stderr

    def _stage(self, tracer, stage, args, check) -> tuple[Op, object, str]:
        """One CLI operation: (op, parsed output, stdout).  Exit 0 is
        expected; ``check(stdout)`` returns (reason or None, parsed output)
        for a call that exited 0."""
        with tracer.span(f"op.cli.{stage}"):
            sw, code, out, err = self._call(tracer, stage, args)
            if code != 0:
                last = err.strip().splitlines()[-1] if err.strip() else ""
                # verify exits 1 when it rejects a representation the
                # previous stage emitted with exit 0: a wrong answer
                op = Op(f"cli.{stage}", sw.seconds, f"exit {code}: {last}",
                        wrong=(stage.startswith("verify") and code == 1), host=sw.host)
                return op, None, out
            try:
                reason, parsed = check(out)
            except (ValueError, KeyError, TypeError) as exc:  # JSON and format errors
                reason, parsed = f"output does not parse: {exc!r}", None
            return checked(f"cli.{stage}", sw, reason), parsed, out

    def run_pass(self, tracer) -> list[Op]:
        layers = layer_calls(tracer)
        ops: list[Op] = []

        def stage(name, args, check):
            op, parsed, _ = self._stage(tracer, name, args, check)
            ops.append(op)
            return parsed

        def blocked(name, upstream):
            ops.append(refused(f"cli.{name}", None, f"not run: {upstream} failed"))

        for name in ("kcbs", "bbc21"):
            inp = self.inputs[name]
            g, ref = inp["graph"], inp["theta"]
            gpath = str(self.workdir / f"{name}.graph.json")
            rpath = str(self.workdir / f"{name}.rep.json")

            def same_graph(expected):
                def check(out):
                    got = layers["graph.parse"](out)
                    return (None if got == expected else "graph differs from the input"), got
                return check

            def theta_check(out):
                doc = json.loads(out)
                return checks.check_theta(float(doc["value"]), reference=ref), doc

            def alpha_check(out):
                doc = json.loads(out)
                return checks.check_alpha(g, float(doc["alpha"]), doc["witness"],
                                          reference=inp["alpha"]), doc

            def rep_check(dim=None):
                def check(out):
                    rep = layers["loor.parse_rep"](out)
                    bad = rep.n != g.n or rep.field != "real" or (dim is not None and rep.dim != dim)
                    return (f"unexpected representation shape n={rep.n} dim={rep.dim}"
                            if bad else None), out
                return check

            def verify_check(out):
                doc = json.loads(out)
                return (None if doc["passed"] is True else "verify did not pass"), doc

            stage("instance", ["instance", name, "--what", "graph"], same_graph(inp["builtin"]))
            for field_name in ("real", "complex"):
                op, _, out = self._stage(tracer, f"theta_{field_name}",
                                         ["theta", gpath, "--field", field_name], theta_check)
                ops.append(op)
                try:  # theta prints its result even when it stops at the cap
                    doc = json.loads(out)
                    op.info.update(iterations=int(doc["iterations"]), capped=not doc["converged"])
                except (ValueError, KeyError, TypeError):
                    pass
            stage("alpha", ["alpha", gpath], alpha_check)

            extracted = stage("extract", ["extract", gpath], rep_check())
            if extracted is None:
                blocked("verify", "extract")
            else:
                epath = self._write(f"{name}.extracted.json", extracted)
                stage("verify", ["verify", epath, "--graph", gpath, "--target", repr(ref)],
                      verify_check)

            d = inp["rep"].dim
            methods = (("projector", 2 * d), ("vector", 2 * d - 1))
            for method, dim in methods if inp["rep"].field == "complex" else ():
                real = stage(f"realify_{method}", ["realify", rpath, "--method", method],
                             rep_check(dim))
                if real is None:
                    blocked("verify_sic", f"realify_{method}")
                    continue
                ppath = self._write(f"{name}.{method}.json", real)
                stage("verify_sic", ["verify", ppath, "--graph", gpath, "--target", repr(ref),
                                     "--sic"], verify_check)

            weights = ",".join(repr(float(w)) for w in g.weights)
            stage("orthograph", ["orthograph", rpath, "--weights", weights], same_graph(g))

        # The known defect: valid input that extract rejects at --tol 1e-6.
        g40 = self.inputs["g40"]

        def g40_check(out):
            rep = layers["loor.parse_rep"](out)
            return checks.check_rep(rep, g40, tol=1e-6, verify=layers["loor.verify_rep"]), out

        stage("extract", ["extract", str(self.workdir / "g40.graph.json"), "--tol", "1e-6"],
              g40_check)
        return ops


class SdpWorkload(Workload):
    """theta in-process, real field on every case and complex on half."""

    name = "sdp"

    def setup(self) -> None:
        super().setup()
        self.cases = corpus.sdp_cases(self.seed)
        # alpha and the clique-cover bound bracket theta where no exact
        # value is known; they are reference data, computed once here.
        self.bounds = {
            c.name: (loorkit.independence_number(c.graph)[0], checks.greedy_cover_bound(c.graph))
            for c in self.cases if c.reference is None
        }

    def _solve(self, layers, tracer, case, field_name: str) -> Op:
        kind = f"theta.{field_name}"
        with tracer.span(f"op.{kind}"), Stopwatch() as sw:
            sol = layers[kind](case.graph, tol=SOLVE_TOL, max_iters=SOLVE_CAP)
        info = dict(iterations=sol.iterations, capped=not sol.converged, value=sol.value)
        if not sol.converged:
            return refused(kind, sw, f"{case.name}: hit the {SOLVE_CAP}-iteration cap", **info)
        alpha, cover = self.bounds.get(case.name, (None, None))
        reason = checks.check_theta(sol.value, case.reference, alpha, cover)
        return checked(kind, sw, reason and f"{case.name}: {reason}", **info)

    def run_pass(self, tracer) -> list[Op]:
        layers = layer_calls(tracer)
        ops = []
        for case in self.cases:
            real = self._solve(layers, tracer, case, "real")
            ops.append(real)
            if case.complex_field:
                op = self._solve(layers, tracer, case, "complex")
                if op.error is None and real.error is None:
                    reason = checks.check_fields_agree(real.info["value"], op.info["value"])
                    if reason:
                        op = Op(op.kind, op.seconds, f"{case.name}: {reason}", True, op.info,
                                op.host)
                ops.append(op)
        return ops


class AlphaRepsWorkload(Workload):
    """Exact alpha on sparse graphs and the representation pipeline; no SDP."""

    name = "alpha-reps"

    def setup(self) -> None:
        super().setup()
        self.graphs = corpus.alpha_graphs()
        self.reps = corpus.rep_cases(self.seed)
        # the value each realification must preserve
        self.targets = [
            loorkit.rep_value(c.rep, loorkit.ExclusivityGraph(c.rep.n, c.weights, c.expected_edges))
            for c in self.reps
        ]

    def _alpha(self, layers, tracer, g) -> Op:
        with tracer.span("op.alpha"), Stopwatch() as sw:
            alpha, witness = layers["graph.independence_number"](g)
        return checked("alpha", sw, checks.check_alpha(g, alpha, witness))

    def _rep(self, layers, tracer, case, target: float) -> Op:
        """orthogonality_graph, both realifications with verification, the
        Gram round trip, and a serialize/parse round trip of rep and graph."""
        verify = layers["loor.verify_rep"]
        with tracer.span("op.rep"), Stopwatch() as sw:
            g = layers["graph.orthogonality_graph"](case.rep.vectors, case.weights)
            reasons = []
            for kind in ("realify.projector", "realify.vector"):
                real = layers[kind](case.rep, g)
                reasons.append(checks.check_rep(real, g, target=target, with_sic=True,
                                                verify=verify))
            # the vector-side (2d - 1) form goes on through the Gram round trip
            x = layers["loor.gram_from_rep"](real, g)
            extracted = layers["loor.rep_from_gram"](x, g)
            reasons.append(checks.check_rep(extracted, g, verify=verify))
            rep_back = layers["loor.parse_rep"](layers["loor.serialize_rep"](real))
            graph_back = layers["graph.parse"](layers["graph.serialize"](g))
        if g.edges != case.expected_edges:
            reasons.append("orthogonality graph differs from the frame cliques")
        w_dot_x = float(np.sum(np.sqrt(np.outer(g.weights, g.weights)) * x))
        if w_dot_x < target * (1.0 - 1e-9):
            reasons.append(f"Gram value {w_dot_x!r} is below the representation's {target!r}")
        if not (np.array_equal(rep_back.vectors, real.vectors)
                and np.array_equal(rep_back.handle, real.handle) and graph_back == g):
            reasons.append("serialize/parse round trip changed the document")
        reason = "; ".join(r for r in reasons if r) or None
        return checked("rep", sw, reason and f"{case.name}: {reason}")

    def run_pass(self, tracer) -> list[Op]:
        layers = layer_calls(tracer)
        ops = [self._alpha(layers, tracer, g) for g in self.graphs]
        ops += [self._rep(layers, tracer, case, target)
                for case, target in zip(self.reps, self.targets)]
        return ops


WORKLOADS = {w.name: w for w in (CliWorkload, SdpWorkload, AlphaRepsWorkload)}
