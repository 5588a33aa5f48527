"""Print the OpenBLAS kernel that scipy's bundled OpenBLAS picks here, the
SIMD extensions numpy dispatches to, and the kernel of numpy's own bundled
OpenBLAS.

Run from anywhere:

    python3 scripts/blas_core.py

The first line is `OpenBLAS core: NAME`, for example `SkylakeX`, or
`Haswell` under `OPENBLAS_CORETYPE=Haswell`; `unknown` means scipy links
another BLAS. scipy's library rounds the Newton factor (`dpbtrf`). The
second is `numpy SIMD: ...`, the `found` list of numpy's SIMD extensions
(`unknown` where numpy does not report it). The third is `numpy OpenBLAS
core: NAME`, the kernel of `numpy.libs/libscipy_openblas64_*.so`, which
rounds numpy's matrix products, the element products of
`EnergyState.hess` among them; `unknown` means numpy links another BLAS.
Artifact bytes depend on all three, so CI prints them before its steps.
"""

import ctypes
import glob
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cavelast._openblas import core_name as openblas_core  # noqa: E402


def numpy_simd() -> str:
    """The SIMD extensions numpy found on this machine, or "unknown"."""
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # a numpy without mode="dicts" or that key
        return "unknown"
    return " ".join(found)


def numpy_openblas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS reports, or "unknown"."""
    libs = glob.glob(np.__path__[0] + ".libs/libscipy_openblas64_*.so")
    if not libs:
        return "unknown"
    corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.restype, corename.argtypes = ctypes.c_char_p, []
    return corename().decode()


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
    print("numpy SIMD:", numpy_simd())
    print("numpy OpenBLAS core:", numpy_openblas_core())
