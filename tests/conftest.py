"""Session set-up shared by the test modules: the report header names the
OpenBLAS kernel that runs, since the bit contract holds within one kernel,
and the C library, whose allocator decides how many page faults the
kernel's memory costs."""

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


def pytest_report_header(config):
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    return f"openblas core: {openblas_core()}, libc: {libc}"
