"""Process set-up shared by the benchmark entry point and its tests.

`pin_threads` must run before numpy is first imported: it caps the BLAS
thread pool at the number of cores this process may run on, so the
benchmark never runs more threads than `nproc`. `import_sctn` puts the
checkout's `src/` on the path and fails with a clear message when the
program's sources are absent.
"""
from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the program modules the benchmark drives or times
MODULES = ("autodiff", "blocks", "checkpoint", "config", "data", "embedding",
           "errors", "metrics", "model", "optim", "se")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no `src/sctn` to benchmark."""


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def import_sctn():
    if not (SRC / "sctn" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {SRC / 'sctn'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    for module in MODULES:
        importlib.import_module(f"sctn.{module}")
    return sys.modules["sctn"]


def _openblas_library():
    """Path of the OpenBLAS shared object numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                return path
    return None


def blas_info():
    """(version string, thread count) of the BLAS numpy uses."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    version = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    threads = None
    path = _openblas_library()
    if path is not None:
        lib = ctypes.CDLL(path)
        # numpy wheels ship OpenBLAS with a symbol prefix and suffix
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def machine_record():
    import numpy as np

    version, threads = blas_info()
    return dict(nproc=nproc(), python=platform.python_version(),
                numpy=np.__version__, blas=version, blas_threads=threads,
                machine=platform.machine())
