"""BLAS thread control and the environment record kept with every result.

Both numpy and scipy wheels bundle their own OpenBLAS copy, so the thread
count is read back from every OpenBLAS library mapped into the process, not
from the environment variables that were meant to set it.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Set by the launcher before numpy loads; removed for the default-threading pass.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
_CONFIG_GETTERS = (
    "openblas_get_config",
    "openblas_get_config64_",
    "scipy_openblas_get_config",
    "scipy_openblas_get_config64_",
)


def pin_one_thread() -> None:
    """Ask every BLAS for one thread; effective only before numpy is imported."""
    for var in PIN_VARS:
        os.environ[var] = "1"


class BlasThreadError(RuntimeError):
    """The effective BLAS thread count could not be read or is not the pinned one."""


def _mapped_openblas_paths() -> list[str]:
    maps = Path("/proc/self/maps")
    if not maps.exists():
        raise BlasThreadError("cannot list loaded libraries: /proc/self/maps is missing")
    paths = set()
    for line in maps.read_text().splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in Path(fields[-1]).name.lower():
            paths.add(fields[-1])
    return sorted(paths)


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def loaded_openblas() -> list[dict]:
    """Path, effective thread count and build config of each loaded OpenBLAS.

    Call after numpy and scipy.linalg are imported, or a copy is missed.
    """
    out = []
    for path in _mapped_openblas_paths():
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, _THREAD_GETTERS, ctypes.c_int)
        if threads is None:
            continue
        config = _symbol(lib, _CONFIG_GETTERS, ctypes.c_char_p)
        out.append(
            {
                "path": Path(path).name,
                "threads": int(threads()),
                "config": config().decode(errors="replace").strip() if config else "",
            }
        )
    return out


def effective_threads() -> int:
    """The largest thread count over all loaded OpenBLAS copies."""
    libs = loaded_openblas()
    if not libs:
        raise BlasThreadError("no OpenBLAS library is loaded; cannot verify the thread count")
    return max(lib["threads"] for lib in libs)


def require_single_thread() -> None:
    """Raise unless every loaded OpenBLAS runs one thread."""
    threads = effective_threads()
    if threads != 1:
        raise BlasThreadError(f"BLAS must run one thread, found {threads}")


def environment() -> dict:
    """nproc, interpreter and library versions, and BLAS threads, for the record."""
    import numpy
    import scipy

    libs = loaded_openblas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": [{"lib": lib["path"], "config": lib["config"]} for lib in libs],
        "blas_threads": max((lib["threads"] for lib in libs), default=None),
        "pin": {var: os.environ.get(var) for var in PIN_VARS},
    }
