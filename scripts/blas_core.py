"""Print the OpenBLAS kernel that scipy's bundled OpenBLAS picks here.

Run from anywhere:

    python3 scripts/blas_core.py

Prints `OpenBLAS core: NAME`, for example `SkylakeX`, or `Haswell` under
`OPENBLAS_CORETYPE=Haswell`; `unknown` means scipy links another BLAS.
Artifact bytes depend on the kernel, so CI prints it before its steps.
"""

import ctypes
import glob

import scipy


def openblas_core() -> str:
    """The kernel name scipy's OpenBLAS reports, or "unknown"."""
    lib = glob.glob(scipy.__path__[0] + ".libs/libscipy_openblas*.so")
    core = getattr(ctypes.CDLL(lib[0]), "scipy_openblas_get_corename", None) if lib else None
    if core is None:
        return "unknown"
    core.argtypes, core.restype = [], ctypes.c_char_p
    return core().decode()


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
