"""scipy's bundled OpenBLAS, reached through ctypes: the kernel it picked
and its thread count.

scipy's wheels ship OpenBLAS as `scipy.libs/libscipy_openblas*.so`, with
its entry points prefixed `scipy_`. Where that library or a symbol is
missing (scipy built against another BLAS), `core_name` says "unknown" and
`one_thread` does nothing.
"""

import ctypes
import glob
from contextlib import contextmanager

import scipy


_LIBS = glob.glob(scipy.__path__[0] + ".libs/libscipy_openblas*.so")
_LIB = ctypes.CDLL(_LIBS[0]) if _LIBS else None


def _symbol(name, restype, argtypes):
    """The function `name` of scipy's OpenBLAS, or None."""
    func = None if _LIB is None else getattr(_LIB, name, None)
    if func is not None:
        func.restype, func.argtypes = restype, argtypes
    return func


_CORENAME = _symbol("scipy_openblas_get_corename", ctypes.c_char_p, [])
_GET_THREADS = _symbol("scipy_openblas_get_num_threads", ctypes.c_int, [])
_SET_THREADS = _symbol("scipy_openblas_set_num_threads", None, [ctypes.c_int])


def core_name() -> str:
    """The kernel name scipy's OpenBLAS reports, for example "SkylakeX",
    or "unknown"."""
    return "unknown" if _CORENAME is None else _CORENAME().decode()


@contextmanager
def one_thread():
    """Run the body on one OpenBLAS thread, and give the caller's thread
    count back afterwards, also when the body raises."""
    threads = 1 if _GET_THREADS is None or _SET_THREADS is None else _GET_THREADS()
    if threads == 1:
        yield
        return
    _SET_THREADS(1)
    try:
        yield
    finally:
        _SET_THREADS(threads)
