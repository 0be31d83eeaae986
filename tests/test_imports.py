"""scipy stays out of the package: importing it, eval, figure and verify load none.

Each check runs in a fresh interpreter, because the test session itself has
scipy loaded (the tests use it as an oracle).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

NO_SCIPY = """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def _run(code: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_import_eval_and_figure_load_no_scipy(tmp_path):
    code = """
import contextlib, io, sys
import dsbs_envelopes, dsbs_envelopes.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "phi", "--rho", "0.9", "--s", "0.3", "--t", "0.2"]) == 0
    assert cli.main(["figure", "--rho", "0.9", "--grid-n", "51", "--svg", "--out", sys.argv[1]]) == 0
"""
    _run(code + NO_SCIPY, str(tmp_path / "fig"))
    assert len(list((tmp_path / "fig").iterdir())) == 8


def test_verify_loads_no_scipy():
    # T1 and T2 certify the surfaces by their Lagrangian gap; no claim builds
    # a qhull envelope
    code = """
import sys
from dsbs_envelopes import DsbsParams, VerifyOptions, verify_all

report = verify_all(DsbsParams(0.9), 101, options=VerifyOptions.small())
assert report.passed, [c.claim_id for c in report.claims if not c.passed]
""" + NO_SCIPY
    _run(code)
