"""The LAPACK routines qot calls, bound from scipy's compiled ``_flapack``
extension without importing the ``scipy.linalg`` package.

Importing ``scipy.linalg`` also imports large parts of numpy it clones into
an array-API namespace (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``), and
that took most of ``qot``'s start-up, while ``qot`` needs only a handful of
LAPACK routines from it.  So the extension module file that sits beside the
installed scipy package is loaded directly: ``importlib.util.find_spec``
locates the package without importing it.  The handles are the very objects
``scipy.linalg.lapack.get_lapack_funcs`` returns, so every call gives the
same result bit for bit.  Where no such file sits beside the package (an
editable install, say), or the file does not load on its own, the extension
is imported the usual way, through ``scipy.linalg``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_MODULE = "scipy.linalg._flapack"


def _extension_path() -> Path | None:
    """The ``_flapack`` extension file of the installed scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                return path
    return None


def _load_file(path: Path):
    """The extension module in ``path``; ImportError or OSError if it does
    not load."""
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        # Loading registers the module without its package.  Unregistered,
        # it leaves a later import of scipy.linalg to load and bind its own
        # instance, which shares these routines.
        sys.modules.pop(_MODULE, None)
    return module


def _load_flapack():
    """scipy's ``_flapack`` module, loaded from its file where that works."""
    loaded = sys.modules.get(_MODULE)
    if loaded is not None:
        return loaded
    path = _extension_path()
    if path is not None:
        try:
            return _load_file(path)
        except (ImportError, OSError):
            # The file may need set-up that scipy's own import does first,
            # such as a library search path for its BLAS.
            pass
    from scipy.linalg import _flapack

    return _flapack


_flapack = _load_flapack()

dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
zpotrf, zpotrs, zhegst = _flapack.zpotrf, _flapack.zpotrs, _flapack.zhegst
ztrtri = _flapack.ztrtri
zheevx, zheevx_lwork = _flapack.zheevx, _flapack.zheevx_lwork
zheevr, zheevr_lwork = _flapack.zheevr, _flapack.zheevr_lwork


def workspace(query, *args, **kwargs) -> tuple[int, ...]:
    """The sizes a ``*_lwork`` query returns, as integers, rounded as scipy
    rounds double-precision ones."""
    *sizes, info = query(*args, **kwargs)
    if info != 0:
        raise ValueError(f"workspace query failed with info {info}")
    return tuple(int(size.real) for size in sizes)
