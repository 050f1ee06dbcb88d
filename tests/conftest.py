"""Session set-up shared by the test modules: the report header names the
OpenBLAS kernel that runs, since the bit contract holds within one kernel;
the CPU features numpy's SIMD loops dispatch on, since its ``exp``,
``tanh`` and ``log1p`` give different bits on different ones; and the C
library, whose allocator decides how many page faults the kernel's memory
costs."""

import ctypes
import platform
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The OpenBLAS core this process runs, as OpenBLAS names it, or
    "unknown" when numpy does not bundle scipy-openblas."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def numpy_cpu_features() -> str:
    """The CPU features numpy found and enabled, or "unknown" when this
    numpy does not list them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(sorted(name for name, enabled in __cpu_features__.items() if enabled)) or "unknown"


def pytest_report_header(config):
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    return f"openblas core: {openblas_core()}, numpy cpu features: {numpy_cpu_features()}, libc: {libc}"
