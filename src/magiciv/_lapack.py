"""The five BLAS and LAPACK routines, bound to numpy's own OpenBLAS, and the BLAS thread pin.

The package calls dsyrk, dpotrs, dposv, dpocon and dgelsy, all in double
precision; every Cholesky factor comes from dposv. Each call site reads
its routine from :data:`ROUTINES` when it calls, so replacing
:data:`ROUTINES` reaches every call. numpy's linear-algebra extension
already loads an OpenBLAS that exports them: numpy >= 2 wheels as
``scipy_<name>_64_``, numpy 1.2x wheels as ``<name>_64_``, both with
64-bit integers. :func:`resolve` binds them there through ctypes, so the
package needs neither ``scipy.linalg`` (0.22-0.25 s of set-up and 22 MiB
of peak RSS per process, measured on 2 cores with scipy 1.17.1) nor a
second OpenBLAS. Where numpy's library exports neither name (Accelerate,
MKL or conda builds), scipy's wrappers stand in, with the same call
signatures; the choice is made once, at import, by what numpy's library
exports. scipy is then needed: it is the optional extra ``magiciv[scipy]``.

BLAS threads: every public function of the package that calls BLAS or
LAPACK holds its BLAS at one thread while it runs, under the decorator
``@_blas_threads(1)``. Results then do not depend on the machine's thread
count, and threads that only spin between the many small solves cost no
CPU. The libraries are found on the first pin and kept for the life of
the process: through threadpoolctl when it imports, which also covers MKL
and BLIS, and otherwise :data:`THREADS`, the OpenBLAS thread-count pairs
looked up on the handles the routines are bound on: numpy's, and scipy's
BLAS extension where its wrappers stand in. So each library the package
calls is pinned and no other. The thread count is process-global, so
concurrent callers in one process can race on it.

The ctypes calls are made through :class:`ctypes.PyDLL`, so they hold the
GIL like the scipy wrappers do. Each call makes its own integer argument
cells, so the binding keeps no state between calls. Shapes, dtypes and
layouts are checked before a pointer is passed: every array goes as a
Fortran-ordered float64 buffer, and inputs the routine overwrites are
copied first, as the scipy wrappers copy them.
"""

from __future__ import annotations

import ctypes
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np
import numpy.linalg

try:  # covers MKL and BLIS builds as well as OpenBLAS
    from threadpoolctl import ThreadpoolController
except ImportError:  # THREADS pins the OpenBLAS the routines are bound on
    ThreadpoolController = None

__all__ = ["Routines", "resolve", "ROUTINES", "THREADS"]

_NAMES = ("dsyrk", "dpotrs", "dposv", "dpocon", "dgelsy")
# numpy >= 2 wheels (scipy-openblas64) and numpy 1.2x wheels (openblas64_)
_SYMBOL_FORMATS = ("scipy_{}_64_", "{}_64_")
# OpenBLAS's thread count: ILP64 names (those wheels), then LP64 (scipy wheels, distros)
_THREAD_FORMATS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


class Routines(NamedTuple):
    """The five routines, with the same signatures whichever library holds them.

    - ``syrk(gram, xt)``: add X'X into the upper triangle of ``gram``, in
      place when ``gram`` is Fortran-ordered float64; returns gram. ``xt``
      is X' held C-ordered, so X is Fortran-ordered and is read in place
      by a syrk with trans='T'.
    - ``potrs(c, b)``: x solving a x = b from the lower factor ``c`` of a, a
      fresh array shaped like ``b``.
    - ``posv(a, b)``: (c, x, info): c a Fortran-ordered copy of ``a`` whose
      lower triangle holds the Cholesky factor and whose upper one is a's,
      x solving a x = b with potrs's bits on that factor, and info; c and
      x are meaningless when info is not 0.
    - ``pocon(c, anorm)``: the reciprocal 1-norm condition estimate of a
      from its lower factor ``c`` and its 1-norm.
    - ``gelsy(a, b, cond)``: (x, rank), the minimum-norm least-squares
      solution of a x = b by complete orthogonal factorization, for ``a``
      with at least as many rows as columns, and its numerical rank at
      rank cutoff ``cond``. x is Fortran-ordered and owns its data: it is
      not a view of the n-row buffer the routine solves in.
    """

    syrk: Callable
    potrs: Callable
    posv: Callable
    pocon: Callable
    gelsy: Callable


def _square(a, what: str) -> int:
    """Order of the square matrix ``a``; ValueError naming ``what`` otherwise."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, not of shape {a.shape}")
    return a.shape[0]


def _bind(syrk, potrs, posv, pocon, gelsy) -> Routines:
    """:class:`Routines` over the ctypes functions of an ILP64 BLAS/LAPACK."""
    # Fortran calling convention: every argument by reference, plus
    # gfortran's hidden length (size_t) of each character argument
    ch, strlen = ctypes.c_char_p, ctypes.c_size_t
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    syrk.argtypes = [ch, ch, i64, i64, f64, f64, i64, f64, f64, i64, strlen, strlen]
    potrs.argtypes = [ch, i64, i64, f64, i64, f64, i64, i64, strlen]
    posv.argtypes = [ch, i64, i64, f64, i64, f64, i64, i64, strlen]
    pocon.argtypes = [ch, i64, f64, i64, f64, f64, f64, i64, i64, strlen]
    gelsy.argtypes = [i64, i64, i64, f64, i64, f64, i64, i64, f64, i64, f64, i64, i64]
    for fn in (syrk, potrs, posv, pocon, gelsy):
        fn.restype = None
    one = ctypes.c_double(1.0)
    double = np.dtype(np.float64)

    def fortran(a):
        """Pointer to the data of ``a``, a writable Fortran-ordered float64 array."""
        return ctypes.c_double.from_buffer(a.T)

    def syrk_add(gram, xt):
        f = gram.flags
        if gram.dtype != double or not (f.f_contiguous and f.writeable):
            gram = np.array(gram, dtype=double, order="F")
        a = xt.T
        if a.dtype != double or not a.flags.f_contiguous:
            a = np.asfortranarray(a, dtype=double)
        rows, cols = a.shape
        if _square(gram, "gram") != cols:
            raise ValueError(f"gram of order {gram.shape[0]} for {cols} columns")
        n, k = ctypes.c_int64(cols), ctypes.c_int64(rows)
        syrk(b"U", b"T", n, k, one, fortran(a), k, one, fortran(gram), n, 1, 1)  # lda = k
        return gram

    def cho_solve(c, b):
        if c.dtype != double or not c.flags.f_contiguous:
            c = np.asfortranarray(c, dtype=double)
        x = np.array(b, dtype=double, order="F")
        order = _square(c, "c")
        if x.ndim not in (1, 2) or x.shape[0] != order:
            raise ValueError(f"b of shape {x.shape} for a factor of order {order}")
        n, nrhs, info = (
            ctypes.c_int64(v) for v in (order, 1 if x.ndim == 1 else x.shape[1], 0)
        )
        potrs(b"L", n, nrhs, fortran(c), n, fortran(x), n, info, 1)
        return x

    def cho_factor_solve(a, b):
        c = np.array(a, dtype=double, order="F")
        x = np.array(b, dtype=double, order="F")
        order = _square(c, "a")
        if x.ndim not in (1, 2) or x.shape[0] != order:
            raise ValueError(f"b of shape {x.shape} for a matrix of order {order}")
        n, nrhs, info = (
            ctypes.c_int64(v) for v in (order, 1 if x.ndim == 1 else x.shape[1], 0)
        )
        posv(b"L", n, nrhs, fortran(c), n, fortran(x), n, info, 1)
        return c, x, info.value

    def rcond(c, anorm):
        c = np.asfortranarray(c, dtype=double)
        order = _square(c, "c")
        work = np.empty(3 * order)
        iwork = np.empty(order, dtype=np.int64)
        out = ctypes.c_double()
        n, info = ctypes.c_int64(order), ctypes.c_int64()
        pocon(
            b"L", n, fortran(c), n, ctypes.c_double(anorm), out,
            fortran(work), ctypes.c_int64.from_buffer(iwork), info, 1,
        )
        return out.value

    def lstsq(a, b, cond):
        a = np.array(a, dtype=double, order="F")
        x = np.array(b, dtype=double, order="F")
        rows, cols = a.shape
        if not rows >= cols >= 1 or x.ndim not in (1, 2) or x.shape[0] != rows:
            raise ValueError(f"gelsy on a of shape {a.shape} and b of shape {x.shape}")
        jpvt = np.zeros(cols, dtype=np.int64)  # every column free to pivot
        m, n, nrhs, lwork, info, rank = (ctypes.c_int64(v) for v in (rows, cols, 1, -1, 0, 0))
        if x.ndim == 2:
            nrhs.value = x.shape[1]
        size = ctypes.c_double()
        args = (
            m, n, nrhs, fortran(a), m, fortran(x), m,
            ctypes.c_int64.from_buffer(jpvt), ctypes.c_double(cond), rank,
        )
        gelsy(*args, size, lwork, info)  # workspace query
        lwork.value = int(size.value)
        work = np.empty(lwork.value)
        gelsy(*args, fortran(work), lwork, info)
        if info.value < 0:
            raise ValueError(f"illegal value in argument {-info.value} of gelsy")
        return x[:cols].copy(order="F"), rank.value  # not a view that keeps x alive

    return Routines(syrk_add, cho_solve, cho_factor_solve, rcond, lstsq)


def _scipy_routines() -> Routines:
    """:class:`Routines` over scipy's wrappers; imports ``scipy.linalg``.

    scipy is an optional dependency: without it, ImportError names the
    symbols numpy's library lacks and the extra that installs scipy.
    """
    try:
        from scipy import linalg
        from scipy.linalg import get_blas_funcs, get_lapack_funcs
    except ImportError as exc:
        names = [", ".join(fmt.format(name) for name in _NAMES) for fmt in _SYMBOL_FORMATS]
        raise ImportError(
            f"numpy's LAPACK exports neither {names[0]} nor {names[1]}, and scipy, "
            "whose wrappers stand in for them, is not installed: "
            "pip install magiciv[scipy]"
        ) from exc

    (syrk,) = get_blas_funcs(("syrk",), (np.empty(0),))
    potrs, posv, pocon = get_lapack_funcs(("potrs", "posv", "pocon"), (np.empty(0),))

    def lstsq(a, b, cond):
        coef, _, rank, _ = linalg.lstsq(
            a, b, cond=cond, lapack_driver="gelsy", check_finite=False
        )
        return coef.copy(order="F"), rank  # scipy's is a view of its n-row solution

    return Routines(
        syrk=lambda gram, xt: syrk(1.0, xt.T, beta=1.0, c=gram, trans=1, overwrite_c=1),
        potrs=lambda c, b: potrs(c, b, lower=1)[0],
        posv=lambda a, b: posv(a, b, lower=1),
        pocon=lambda c, anorm: pocon(c, anorm, uplo="L")[0],
        gelsy=lstsq,
    )


def resolve(lib: Optional[ctypes.CDLL]) -> Optional[Routines]:
    """The routines bound on ``lib`` when it exports all five by one ILP64 name, else None."""
    for fmt in _SYMBOL_FORMATS:
        try:
            functions = [getattr(lib, fmt.format(name)) for name in _NAMES]
        except AttributeError:
            continue
        return _bind(*functions)
    return None


def _library(module) -> Optional[ctypes.CDLL]:
    """The library the extension ``module`` loaded, or None if it cannot be opened."""
    try:
        return ctypes.PyDLL(module.__file__)
    except (AttributeError, OSError):
        return None


def _thread_controls(libs) -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """The OpenBLAS (get, set) thread-count pair on each handle of ``libs`` that has one.

    Handles that reach one library, told by the address of its get, give one pair.
    """
    controls = {}
    for lib in libs:
        for fmt in _THREAD_FORMATS:
            try:
                get, set_ = [getattr(lib, fmt.format(verb)) for verb in ("get", "set")]
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.setdefault(ctypes.cast(get, ctypes.c_void_p).value, (get, set_))
            break
    return list(controls.values())


_NUMPY_LAPACK = _library(getattr(numpy.linalg, "_umath_linalg", None))
ROUTINES = resolve(_NUMPY_LAPACK)
_CALLED = [_NUMPY_LAPACK]  # its library runs numpy's own @ and solve too
if ROUTINES is None:  # scipy's wrappers stand in, on the BLAS scipy loaded
    ROUTINES = _scipy_routines()
    _CALLED.append(_library(sys.modules.get("scipy.linalg._fblas")))
THREADS = _thread_controls(_CALLED)


# (get, set) thread-count functions of each BLAS to pin, found on first use
_BLAS_CONTROLS: Optional[list[tuple[Callable[[], int], Callable[[int], None]]]] = None


def _blas_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of the BLAS libraries to pin, found once and kept.

    From threadpoolctl when it imports, which reaches every loaded BLAS, MKL and
    BLIS too; otherwise :data:`THREADS`, one per library the package calls.
    """
    global _BLAS_CONTROLS
    if _BLAS_CONTROLS is None:
        _BLAS_CONTROLS = THREADS if ThreadpoolController is None else [
            (lib.get_num_threads, lib.set_num_threads)
            for lib in ThreadpoolController().lib_controllers
        ]
    return _BLAS_CONTROLS


@contextmanager
def _blas_threads(count: int) -> Iterator[None]:
    """Hold each BLAS to pin at ``count`` threads; restore the old counts on exit.

    A library already at ``count`` is only read, so a pin nested inside
    another at the same count sets nothing. A BLAS that
    :func:`_blas_controls` does not list stays as it is.
    ``@_blas_threads(1)`` pins each call of the function it decorates.
    """
    changed = [(set_, old) for get, set_ in _blas_controls() if (old := get()) != count]
    try:
        for set_, _ in changed:
            set_(count)
        yield
    finally:
        for set_, old in changed:
            set_(old)
