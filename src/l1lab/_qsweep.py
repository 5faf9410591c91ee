"""The compiled library _qsweep.c, built with the system cc on first use.

It exports five functions: ``qblock``, a run of ccd, ccm or gd iterations
of a quadratic on rows of iterates (each a cyclic sweep or gd's step from
the product A x, as the numpy loops do it) that also forms each next
product A w, ``qray``, the start search's classification of the rungs
of one ray of a quadratic, ``render_floats``, which spells a block of
floats in rows as repr or '%.17g' does (see _jsonlayout.render),
``parse_floats``, which reads a JSON array of numbers, 1-D or
rectangular 2-D, into doubles as float() reads each token (see
_jsonlayout.loads), and ``qaxpy``, for the tests: the sweep's row update
state += delta * row in the variant named (0 the baseline build, 1 the
AVX2 twin, -1 the one qblock chooses on this CPU), which returns the
variant run or -1 when this CPU cannot run it. load() returns the
library, or None when it cannot be had; the callers then keep the numpy
loops and Python's own number formatting and parsing, with the same bits
and bytes.
dgemv() returns the BLAS function numpy's matmul calls for a matrix times
a vector, which qblock takes to form its products, or None when it cannot
be found or does not give np.matmul's bits. Nothing here runs at import.

The library is cached per user in ``$XDG_CACHE_HOME/l1lab`` (by default
``~/.cache/l1lab``), a directory created with mode 0700 and used only if
this user owns it and no one else may write to it. Its name carries the
hash of the source and the flags, and the digest of its own bytes: a
build is written under a unique temporary name and then renamed into
place, and a file whose bytes do not match its name (truncated or
corrupt) is never loaded, because loading such a file can crash the
process. Loading a library from the cache marks it used (its mtime), and
the cache keeps the four most recently used libraries, so that a few
versions used in turn do not rebuild each other's; older ones are
removed. When the cache cannot be used, the
library is built in a private temporary directory, which is removed once
the library is loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_qsweep.c")

# No FMA contraction and no fast-math: every operation rounds as numpy's.
# No -march: _key hashes only the source, these flags and the machine type,
# so one cached library must run on every host of that type; the C code
# picks its AVX2 row update at run time.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_COMPILE_TIMEOUT_S = 60

_KEEP = 4  # libraries kept in the cache, the most recently used

# cblas_dgemv with 64-bit integers (OpenBLAS's INTERFACE64 build, which
# numpy's wheels link): order, trans, m, n, alpha, a, lda, x, incx, beta,
# y, incy.
DGEMV = ctypes.CFUNCTYPE(None, ctypes.c_int, ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
                         ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                         ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_int64)

# Its names in numpy >= 2 wheels (scipy-openblas) and in numpy 1.x wheels.
_DGEMV_NAMES = ("scipy_cblas_dgemv64_", "cblas_dgemv64_")

# The numpy extension that holds matmul, by its name in numpy >= 2 and 1.x.
_UMATH_MODULES = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _key(source: bytes) -> str:
    return _digest(b"\0".join([source, *map(str.encode, FLAGS), platform.machine().encode()]))


def _name(key: str, library: bytes) -> str:
    return f"qsweep-{key}-{_digest(library)}.so"


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "l1lab")


def _private_dir(path: Path) -> bool:
    """Create ``path`` (mode 0700) if it is missing; True if it is a real
    directory owned by this user that no one else may write to."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = os.lstat(path)
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _cached(directory: Path, key: str) -> Path | None:
    """A library built for ``key`` whose bytes match the digest in its name."""
    for path in sorted(directory.glob(f"qsweep-{key}-*.so")):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        if path.name == _name(key, data):
            return path
    return None


def _used(path: Path) -> int:
    try:
        return path.stat().st_mtime_ns
    except OSError:
        return 0


def _remove_stale(directory: Path, loaded: Path) -> None:
    """Mark ``loaded`` used and remove from ``directory`` all libraries but
    it and the _KEEP - 1 most recently used others, ignoring errors."""
    with contextlib.suppress(OSError):
        os.utime(loaded)
    others = sorted((path for path in directory.glob("qsweep-*.so") if path != loaded),
                    key=_used, reverse=True)
    for path in others[_KEEP - 1:]:
        with contextlib.suppress(OSError):
            path.unlink()


def _compile(cc: str, directory: Path, key: str) -> Path | None:
    """Build into a unique temporary name in ``directory`` and rename it into place."""
    tmp = directory / f".qsweep-{key}-{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        done = subprocess.run([cc, *FLAGS, "-o", str(tmp), str(SOURCE)],
                              capture_output=True, timeout=_COMPILE_TIMEOUT_S)
        if done.returncode != 0:
            return None
        path = directory / _name(key, tmp.read_bytes())
        os.replace(tmp, path)
        return path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _open(path: Path | None):
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    lib.qblock.argtypes = (DGEMV, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
                           ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
                           ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long)
    lib.qblock.restype = None
    lib.qray.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
                         ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
                         ctypes.c_double)
    lib.qray.restype = ctypes.c_long
    lib.render_floats.argtypes = (ctypes.c_long, ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p,
                                  ctypes.c_long, ctypes.c_long, ctypes.c_char_p, ctypes.c_long,
                                  ctypes.c_void_p, ctypes.c_void_p)
    lib.render_floats.restype = ctypes.c_long
    lib.parse_floats.argtypes = (ctypes.c_char_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
                                 ctypes.c_void_p, ctypes.c_void_p)
    lib.parse_floats.restype = ctypes.c_long
    lib.qaxpy.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_double, ctypes.c_void_p,
                          ctypes.c_void_p)
    lib.qaxpy.restype = ctypes.c_long
    return lib


@functools.cache
def load():
    """The library, with
    ``qblock(dgemv, d, A, b, steps, lam, L, state, W, P, k0, k1)``,
    ``qray(d, nt, ts, u, a, b, lam, tol, sign)``,
    ``render_floats(n, values, repr, sep, nsep, rowlen, rowsep, nrowsep, out, holes)``,
    ``parse_floats(text, len, start, cap, out, info)``
    and ``qaxpy(variant, d, delta, row, state)``, or None.

    Looks up the cache first and compiles on a miss; without a ``cc`` on
    PATH, a failed compile or an unusable cache and temporary directory it
    returns None, as it does off POSIX systems. It raises nothing and warns
    nothing.
    """
    if os.name != "posix":
        return None
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    key = _key(source)
    cc = shutil.which("cc")
    directory = _cache_dir()
    if _private_dir(directory):
        path = _cached(directory, key)
        lib = _open(path)
        if lib is None and cc is not None:
            path = _compile(cc, directory, key)
            lib = _open(path)
        if lib is not None:
            _remove_stale(directory, path)
            return lib
    if cc is None:
        return None
    try:
        private = Path(tempfile.mkdtemp(prefix="l1lab-qsweep-"))
    except OSError:
        return None
    try:
        # The loaded library stays mapped after its file is removed.
        return _open(_compile(cc, private, key))
    finally:
        shutil.rmtree(private, ignore_errors=True)


def _matmul_bits(f) -> bool:
    """Whether the DGEMV ``f``, called as numpy's matmul calls it, gives
    np.matmul's bits on one product whose sums depend on their order."""
    d = 37
    A = np.sin(np.arange(d * d, dtype=np.float64)).reshape(d, d)
    x = np.cos(np.arange(d, dtype=np.float64))
    y = np.full(d, np.nan)
    f(102, 112, d, d, 1.0, A.ctypes.data, d, x.ctypes.data, 1, 0.0, y.ctypes.data, 1)
    return y.tobytes() == np.matmul(A, x).tobytes()


@functools.cache
def dgemv():
    """numpy's own dgemv as a DGEMV, or None.

    matmul of a C-contiguous d x d matrix A and a vector x calls
    ``dgemv(102, 112, d, d, 1.0, A, d, x, 1, 0.0, y, 1)`` (column-major,
    transposed). The function is looked up through a ctypes handle on
    numpy's _multiarray_umath extension, where dlsym also searches the
    BLAS that numpy links, under each of _DGEMV_NAMES in turn; it is
    taken only if one probe product is bitwise np.matmul's. It raises
    nothing and warns nothing.
    """
    if os.name != "posix":
        return None
    for module in _UMATH_MODULES:
        try:
            handle = ctypes.CDLL(importlib.import_module(module).__file__)
            break
        except (ImportError, OSError):
            continue
    else:
        return None
    for name in _DGEMV_NAMES:
        try:
            f = DGEMV(ctypes.cast(getattr(handle, name), ctypes.c_void_p).value)
        except AttributeError:
            continue
        if _matmul_bits(f):
            return f
    return None
