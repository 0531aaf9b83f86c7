import os
import subprocess
import sys
from pathlib import Path

import loorkit

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    src = str(Path(loorkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
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
