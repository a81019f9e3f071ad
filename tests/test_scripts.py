"""Smoke runs of the experiment scripts, each as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_map_ppt_fraction_writes_one_row_per_shell(tmp_path):
    out = tmp_path / "landscape.csv"
    proc = run_script("map_ppt_fraction.py", "--samples", "20", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "radius,samples,accepted,ppt_count,ppt_fraction,min_pt_eig"
    assert len(rows) == 1 + 24  # the default --shells
    assert all(row.split(",")[1] == "20" for row in rows[1:])
    assert f"wrote {out}" in proc.stdout


def test_run_claim_checks_reports_each_dimension(tmp_path):
    proc = run_script("run_claim_checks.py", "--samples", "20", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("d=")]
    assert verdicts == [
        "d=2 N=4: CONSISTENT",
        "d=3 N=9: COUNTEREXAMPLE_FOUND",
        "d=4 N=16: COUNTEREXAMPLE_FOUND",
    ]
    for d in (2, 3, 4):
        report = json.loads((tmp_path / f"claim_check_d{d}.json").read_text())
        assert report["qudit_dim"] == d
