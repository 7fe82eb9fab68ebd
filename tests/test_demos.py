"""Every narrative script in demos/ runs to completion, reports no
failed check and prints exactly its recorded output.  The scripts print
verdicts rather than assert them, so a check that starts failing would
otherwise go unnoticed here; the digests catch any other change to what
they print."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout when run without arguments
STDOUT_SHA256 = {
    "duality_and_twist.py": "02445a9ddda88f4e19f228cab56668042dec4d6e688f5739348fb5f6ba64bd22",
    "reflection_pairing.py": "43a7b20e7877851353dc17c644bc1369fd6ab799847458907687bddd7f0e1065",
    "three_point_walkthrough.py": "b988b17f27a2fa5f994462be81e65065520d7804891156cb2c91a0e95a526677",
    "verification_sweep.py": "6200e8b9b7e0df896caf43707fb77fc9c40b34f87da1eb98f909a51b36e1418b",
}


def test_demos_are_found():
    assert len(DEMOS) >= 4
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[script.name], proc.stdout
