"""Host facts and the drift probe.

The probe is a fixed pure-numpy computation timed before each pass.  It is
recorded so slow periods of a shared host show up beside the results; it is
never used to rescale them.
"""

from __future__ import annotations

import os
import platform
import time
from importlib import metadata

import numpy as np

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def facts(child_env: dict[str, str]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: child_env.get(k, "unset") for k in BLAS_ENV},
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def probe() -> float:
    """Seconds for a fixed sort/transcendental workload (about 50 ms)."""
    x = np.linspace(0.0, 1000.0, 400_000)
    start = time.perf_counter()
    for _ in range(4):
        y = np.sort(np.sin(x) * np.exp(-x / 500.0))
        y.sum()
    return time.perf_counter() - start
