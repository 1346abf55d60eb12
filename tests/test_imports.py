"""Which scipy modules a fresh process loads.

The exact provers and their verifier run on numpy alone; scipy is imported
only by the witness search (LAPACK dposv) and by NNLS completion of untagged
sets.  The pytest process already holds scipy, so every check runs in a new
interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(code, cwd):
    """Run code in a fresh interpreter importing entdis from src/; the scipy modules it left loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT], capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_certified_decisions_and_verification_load_no_scipy(tmp_path):
    code = """
from entdis import Theorem2Spec, decide, theorem1_set, theorem2_set, verify_certificate
kinds = set()
for s in (theorem1_set(8), theorem2_set(Theorem2Spec(7))):
    dec = decide(s)
    assert dec.one_way_indistinguishable is True
    assert verify_certificate(dec.a_to_b.certificate, s)
    kinds.add(type(dec.a_to_b.certificate).__name__)
assert kinds == {"CoverCertificate", "BlockCertificate"}, kinds
"""
    assert scipy_modules_after(code, tmp_path) == set()


def test_cli_without_search_loads_no_scipy(tmp_path):
    code = """
import contextlib, io, json
from entdis.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
    assert main(["gen", "theorem2", "--d", "7", "--output", "t2.json"]) == 0
    assert main(["certify", "t2.json", "--output", "certs.json"]) == 0
    cert = json.load(open("certs.json"))["directions"]["A_to_B"]["certificate"]
    json.dump(cert, open("cert.json", "w"))
    assert main(["verify", "cert.json", "t2.json"]) == 0
    assert main(["sweep", "4", "6"]) == 0
"""
    assert scipy_modules_after(code, tmp_path) == set()


def test_tagged_search_loads_lapack_but_not_optimize(tmp_path):
    code = """
import sys
from entdis import bell_set, decide
assert "scipy.linalg" not in sys.modules
assert decide(bell_set(3, [(0, 0), (1, 0), (0, 1)])).a_to_b.kind == "distinguishable"
"""
    loaded = scipy_modules_after(code, tmp_path)
    assert "scipy.linalg" in loaded
    assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.") for m in loaded)


def test_untagged_pair_completes_through_nnls_in_a_fresh_process(tmp_path):
    code = """
import sys
from entdis import UnitarySet, bell_set, decide_direction
s = UnitarySet(5, bell_set(5, [(0, 0), (1, 2)]).members)
assert "scipy.optimize" not in sys.modules
v = decide_direction(s)
assert v.kind == "distinguishable" and v.simulated_success == 1.0, v
"""
    assert "scipy.optimize" in scipy_modules_after(code, tmp_path)
