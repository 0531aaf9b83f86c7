import json
import os
import subprocess
import sys
from pathlib import Path

import loorkit
from loorkit import bbc21, cli, serialize_graph

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(loorkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bbc21_pipeline_conversions_pass():
    lines = [line for line in run_script("bbc21_pipeline.py") if line.startswith("conversion ")]
    assert len(lines) == 2
    assert all(line.endswith("passed=True") for line in lines), lines


def test_odd_cycle_scan_matches_the_closed_form():
    rows = run_script("odd_cycle_scan.py")[1:]
    assert [int(row.split()[0]) for row in rows] == [5, 7, 9, 11, 13, 15]
    gaps = [float(row.split()[-1]) for row in rows]
    assert max(gaps) < 1e-8, rows


def test_solver_scaling_prints_one_row_per_size():
    header, *rows = run_script("solver_scaling.py", "--sizes", "12", "16")
    assert header.split() == ["n", "edges", "iterations", "ms/iter"]
    assert [int(row.split()[0]) for row in rows] == [12, 16]
    for row in rows:
        _, edges, iterations, ms_per_iter = row.split()
        assert int(edges) > 0 and int(iterations) > 0 and float(ms_per_iter) > 0


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_theta_example_matches_the_cli(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    after = readme.split("`loorkit theta bbc.json --tol 1e-6` prints", 1)[1]
    documented = after.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "bbc.json"
    path.write_text(serialize_graph(bbc21().graph))
    assert cli.main(["theta", str(path), "--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(documented)


def test_readme_alpha_example_matches_the_cli(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    documented = readme.split("loorkit alpha bbc.json", 1)[1].split("\n", 1)[0]
    assert documented.split("# -> ", 1)[1] == '{"alpha": 27.0, "witness": [0, ..., 8]}'
    path = tmp_path / "bbc.json"
    path.write_text(serialize_graph(bbc21().graph))
    assert cli.main(["alpha", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"alpha": 27.0, "witness": list(range(9))}


def test_readme_orthograph_example_rebuilds_the_graph(tmp_path, capsys):
    # extract bbc.json > rep.json, then orthograph rep.json with the
    # documented weights: the derived graph is the instance graph again
    readme = (ROOT / "README.md").read_text()
    documented = readme.split("loorkit orthograph rep.json", 1)[1].split("\n", 1)[0].split()
    graph, rep = tmp_path / "bbc.json", tmp_path / "rep.json"
    assert cli.main(["instance", "bbc21", "--what", "graph", "--output", str(graph)]) == 0
    assert cli.main(["extract", str(graph)]) == 0
    rep.write_text(capsys.readouterr().out)
    assert cli.main(["orthograph", str(rep), *documented]) == 0
    assert capsys.readouterr().out == graph.read_text()
