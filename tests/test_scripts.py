"""The committed scripts run end to end."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_verdicts_prints_one_line_per_enumerator():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "verdicts.py"), "--seed", "1", "--count", "3"],
        check=True, capture_output=True, text=True, timeout=300,
    )
    records = [json.loads(line) for line in out.stdout.splitlines()]
    keys = {(r["q"], tuple(r["w"])) for r in records}
    # 3 random codes and their duals, then 12 distinct named enumerators
    assert len(keys) == len(records) >= 12
    for r in records:
        assert set(r) == {"q", "w", "roots_of", "compute_stabilizer", "certify_trivial"}
        solve = r["roots_of"]
        if "error" not in solve:
            assert float.fromhex(solve["eps"]) <= 1e-12
            assert all(s >= 1 for s in solve["sweeps"])
    collinear = next(r for r in records if r["w"] == [0, 8, 8, 4, 4, 0, 0, 0, 1])
    assert collinear["q"] == 5
    report = collinear["compute_stabilizer"]
    assert report["verdict"] == "FiniteGroup" and len(report["projective"]) == 1
    assert collinear["certify_trivial"]["verdict"] == "TrivialCertified"
