"""qot's LAPACK bindings: loaded without the scipy.linalg package, and the
same routines, bit for bit, as scipy.linalg hands out."""

import importlib.machinery
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

from qot import _lapack

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: every public entry point that reaches LAPACK,
# then scipy.linalg on top, which must not change a result.
_FRESH_PROCESS = """
import sys, tempfile
from pathlib import Path
import numpy as np
import qot.cli
from qot import max_eig, random_density_matrix, stabilized_cost, tensored_cost, transport_cost

def witness(result):
    return [result.dual_witness.potential_a.matrix, result.dual_witness.potential_b.matrix]

rho2, sigma2 = random_density_matrix(2, 1), random_density_matrix(2, 2)
rho3, sigma3 = random_density_matrix(3, 3), random_density_matrix(3, 4)
first = transport_cost(rho3, sigma3)
transport_cost(rho2, sigma2)
stabilized_cost(rho2, sigma2)
stabilized_cost(rho3, sigma3)
tensored_cost(rho2, sigma2, rho2, sigma2)
max_eig(rho3.matrix)
with tempfile.TemporaryDirectory() as tmp:
    code = qot.cli.main(["verify-counterexample", "--dim", "4", "--out", str(Path(tmp) / "report.json")])
assert code == 0, code
assert "scipy.linalg" not in sys.modules, "qot imported the scipy.linalg package"

import scipy.linalg
again = transport_cost(rho3, sigma3)
assert again.value == first.value
assert all(np.array_equal(a, b) for a, b in zip(witness(again), witness(first)))
print("ok")
"""


def test_fresh_process_never_imports_the_scipy_linalg_package():
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "ok"


def test_extension_is_found_beside_the_scipy_package():
    path = _lapack._extension_path()
    assert path is not None
    assert path.parent == Path(scipy.linalg.__file__).parent
    assert path.name.startswith("_flapack.")


def _bound_names():
    """The LAPACK routines ``_lapack`` binds, as module attribute names."""
    return sorted(name for name, value in vars(_lapack).items() if type(value) is type(_lapack.dpotrf))


def test_handles_are_the_ones_get_lapack_funcs_returns():
    pairs = [
        (("potrf", "potrs"), np.float64),
        (("potrf", "potrs", "hegst", "heevx", "heevx_lwork", "heevr", "heevr_lwork"), np.complex128),
    ]
    bound = []
    for names, dtype in pairs:
        handles = scipy.linalg.lapack.get_lapack_funcs(names, dtype=dtype)
        for name, handle in zip(names, handles):
            assert getattr(_lapack, handle.typecode + name) is handle
            bound.append(handle.typecode + name)
    assert _bound_names() == sorted(bound)


def test_every_bound_routine_is_called_and_each_complex_one_is_a_known_kernel():
    """A binding no code reaches is dead weight: each one is named as
    ``_lapack.<name>`` somewhere in the package.  The complex ones serve the
    X and S blocks of the solver and the Hermitian eigensolver of
    ``quantum``; the real ones only the Schur complement."""
    source = "".join(path.read_text() for path in (ROOT / "src" / "qot").glob("*.py"))
    names = _bound_names()
    assert names, "no LAPACK routine found among the module's attributes"
    for name in names:
        assert re.search(rf"\b_lapack\.{name}\b", source), f"{name} is bound but never called"
    assert [name for name in names if name[0] in "sd"] == ["dpotrf", "dpotrs"]
    assert [name for name in names if name[0] in "cz"] == [
        "zheevr",
        "zheevr_lwork",
        "zheevx",
        "zheevx_lwork",
        "zhegst",
        "zpotrf",
        "zpotrs",
    ]


# Runs in a fresh interpreter, with the extension loaded from its file or,
# when argv[1] is "fallback", through scipy.linalg because no file is found:
# the two loads must give the same bits.
_LOAD_AND_SOLVE = """
import hashlib, importlib.machinery, sys
fallback = sys.argv[1] == "fallback"
if fallback:
    # a lookup that matches no extension file; imports keep their own suffixes
    importlib.machinery.EXTENSION_SUFFIXES = []
from qot import _lapack, max_eig, random_density_matrix, transport_cost
assert (_lapack._extension_path() is None) == fallback
assert ("scipy.linalg" in sys.modules) == fallback
rho, sigma = random_density_matrix(3, 3), random_density_matrix(3, 4)
result = transport_cost(rho, sigma)
value, state = max_eig(rho.matrix - sigma.matrix)
digest = hashlib.sha256()
for a in (result.dual_witness.potential_a.matrix, result.dual_witness.potential_b.matrix, state.amplitudes):
    digest.update(a.tobytes())
print(float(result.value).hex(), float(value).hex(), digest.hexdigest())
"""


def _load_and_solve(route):
    run = subprocess.run(
        [sys.executable, "-c", _LOAD_AND_SOLVE, route],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_fallback_import_gives_the_same_results():
    """Without an extension file beside the package the module is imported
    through scipy.linalg; a fresh process solving that way gets the same bits."""
    assert _load_and_solve("fallback") == _load_and_solve("file")


def test_a_file_that_does_not_load_falls_back_to_the_package_import(monkeypatch, tmp_path):
    broken = tmp_path / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    broken.write_bytes(b"not a shared object")
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError):
        _lapack._load_file(broken)
    assert "scipy.linalg._flapack" not in sys.modules
    monkeypatch.setattr(_lapack, "_extension_path", lambda: broken)
    assert _lapack._load_flapack() is scipy.linalg._flapack
