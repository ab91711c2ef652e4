"""Run metadata: machine, library versions, and the BLAS threads in effect."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Symbol names of the thread-count and config getters in the OpenBLAS builds
# that numpy and scipy wheels ship (prefixed, with and without 64-bit ints).
_THREADS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
_CONFIG = ("openblas_get_config", "scipy_openblas_get_config",
           "scipy_openblas_get_config64_", "openblas_get_config64_")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    """Size of the highest-level cache of cpu0, as the kernel reports it."""
    best = (0, "unknown")
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((d / "level").read_text())
            size = (d / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, []
            return fn()
    return None


def blas_info() -> dict:
    """Each OpenBLAS loaded in this process with the thread count it uses."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln})
    out = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _call(lib, _CONFIG, ctypes.c_char_p)
        out.append({
            "library": os.path.basename(path),
            "threads": _call(lib, _THREADS, ctypes.c_int),
            "config": config.decode() if config else None,
        })
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TENSPART_THREADS")
           if k in os.environ}
    return {"openblas": out, "env": env}
