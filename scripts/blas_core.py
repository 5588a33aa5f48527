"""Print the OpenBLAS kernel that scipy's bundled OpenBLAS picks here, and
the SIMD extensions numpy dispatches to.

Run from anywhere:

    python3 scripts/blas_core.py

The first line is `OpenBLAS core: NAME`, for example `SkylakeX`, or
`Haswell` under `OPENBLAS_CORETYPE=Haswell`; `unknown` means scipy links
another BLAS. The second is `numpy SIMD: ...`, the `found` list of numpy's
SIMD extensions (`unknown` where numpy does not report it). Artifact bytes
depend on the kernel, so CI prints both before its steps.
"""

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


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
    print("numpy SIMD:", numpy_simd())
