"""Building, caching and loading the compiled quadratic sweep.

Every way the build can fail leaves the numpy sweep in use, with the same
bits and with no exception and no warning. The cache directory is chosen
through XDG_CACHE_HOME, and a fake ``cc`` on PATH stands in for a broken
compiler. Cases that load a library from a damaged cache, or that must
start from a fresh interpreter, run in subprocesses.
"""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
import types
from pathlib import Path

import numpy as np
import pytest

import l1lab
from l1lab import SolverConfig, _qsweep, gen_zmatrix_quadratic, run
from l1lab.solvers import compiled_step

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no cc on PATH")
SRC = Path(l1lab.__file__).resolve().parent.parent
TIMEOUT_S = 120

# Run in a subprocess: prints whether ccd steps in C and whether a ccd run
# has the bits of the numpy sweep.
CHILD = textwrap.dedent("""
    import numpy as np
    from l1lab import SolverConfig, _qsweep, gen_zmatrix_quadratic, run
    from l1lab.solvers import compiled_step

    p = gen_zmatrix_quadratic(12, seed=5)
    x0 = np.full(12, 3.0)
    compiled = compiled_step(p, "ccd") is not None
    got = run("ccd", p, x0, SolverConfig(max_outer_iters=30)).iterates
    _qsweep.load = lambda: None
    want = run("ccd", p, x0, SolverConfig(max_outer_iters=30)).iterates
    print(compiled, got.tobytes() == want.tobytes())
""")


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """load() with an empty cache and no library loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _qsweep.load.cache_clear()
    yield _qsweep.load
    _qsweep.load.cache_clear()


def fake_cc(tmp_path, script):
    """A directory holding only an executable ``cc`` shell script."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\n" + script, encoding="utf-8")
    cc.chmod(0o755)
    return bin_dir


def libraries(directory):
    return sorted(p.name for p in directory.iterdir())


def assert_one_valid_library(directory):
    names = libraries(directory)
    assert len(names) == 1 and names[0].endswith(".so"), names
    assert _qsweep._cached(directory, names[0].split("-")[1]) == directory / names[0]


def ccd_iterates(p):
    return run("ccd", p, np.full(p.dim, 3.0), SolverConfig(max_outer_iters=30)).iterates


@pytest.fixture(scope="module")
def numpy_bits():
    """A problem and the iterates of the numpy sweep on it."""
    p = gen_zmatrix_quadratic(12, seed=5)
    saved = _qsweep.load
    _qsweep.load = lambda: None
    try:
        return p, ccd_iterates(p).tobytes()
    finally:
        _qsweep.load = saved


def assert_numpy_path(p, want):
    assert compiled_step(p, "ccd") is None
    assert ccd_iterates(p).tobytes() == want


def child(env_updates, timeout=TIMEOUT_S):
    env = dict(os.environ, PYTHONPATH=str(SRC), **env_updates)
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=timeout)
    assert done.returncode == 0 and not done.stderr, done.stderr
    return done.stdout.split()


# The library's exports: the functions l1lab calls, and the tests' qaxpy.
EXPORTS = {"qblock", "qray", "render_floats", "parse_floats", "qaxpy"}


def c_definitions(source):
    """(name, whether static, number of parameters, whether void) of each
    function that the C source defines at file scope (a line that starts
    the definition in its first column)."""
    found = re.finditer(r"^(?![\s#/}]|typedef)([^;{}]*?)\b(\w+)\s*\(([^()]*)\)\s*\{",
                        source, re.M)
    return [(m[2], "static" in m[1].split(),
             0 if m[3].strip() in ("", "void") else len(m[3].split(",")), "void" in m[1].split())
            for m in found]


class RecordingCDLL:
    """Stands in for ctypes.CDLL: each attribute read is a function whose
    set attributes are recorded."""

    def __init__(self, path):
        self.functions = {}

    def __getattr__(self, name):
        return self.functions.setdefault(name, types.SimpleNamespace())


def test_the_library_exports_only_what_l1lab_calls(monkeypatch):
    # Every other function is static, and _open declares the argument and
    # result types of each export: without them ctypes would pass each
    # address as a C int and read a long result as an int, with no error.
    definitions = c_definitions(_qsweep.SOURCE.read_text(encoding="utf-8"))
    assert {"qsweep", "qprox", "put_float"} <= {name for name, *_ in definitions}
    params = {name: (n, void) for name, static, n, void in definitions if not static}
    assert set(params) == EXPORTS
    monkeypatch.setattr(_qsweep.ctypes, "CDLL", RecordingCDLL)
    lib = _qsweep._open(Path("qsweep.so"))
    assert set(lib.functions) == EXPORTS
    for name, function in lib.functions.items():
        assert set(vars(function)) == {"argtypes", "restype"}, name
        n, void = params[name]
        assert len(function.argtypes) == n, name
        assert function.restype is (None if void else ctypes.c_long), name


@needs_cc
def test_compiled_kernel_is_in_use_when_a_compiler_is_found():
    # Without this, a CI run could pass every kernel test on the numpy path.
    assert _qsweep.load() is not None
    p = gen_zmatrix_quadratic(6, seed=1)
    for alg in ("gd", "ccd", "ccm"):
        assert compiled_step(p, alg) is not None


def test_import_compiles_and_loads_nothing(tmp_path):
    cache = tmp_path / "cache"
    marker = tmp_path / "cc_ran"
    bin_dir = fake_cc(tmp_path, f"touch {marker}\nexit 1\n")
    code = textwrap.dedent("""
        import os, sys
        import l1lab
        maps = "/proc/self/maps"
        mapped = os.path.exists(maps) and "qsweep" in open(maps).read()
        print("l1lab._qsweep" in sys.modules, mapped)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
    assert not marker.exists() and not cache.exists()


def test_no_compiler_keeps_the_numpy_sweep(fresh_load, monkeypatch, tmp_path, numpy_bits):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert fresh_load() is None
    assert_numpy_path(*numpy_bits)


def test_a_failing_compile_keeps_the_numpy_sweep(fresh_load, monkeypatch, tmp_path, numpy_bits):
    monkeypatch.setenv("PATH", str(fake_cc(tmp_path, "echo broken >&2\nexit 1\n")))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert fresh_load() is None
    assert_numpy_path(*numpy_bits)
    assert libraries(tmp_path / "cache" / "l1lab") == []
    assert not list(tmp_path.glob("l1lab-qsweep-*"))


@needs_cc
@pytest.mark.parametrize("cache", ["a file", "writable by all"])
def test_an_unusable_cache_builds_in_a_private_temporary_directory(
        fresh_load, monkeypatch, tmp_path, numpy_bits, cache):
    base = tmp_path / "cache"
    if cache == "a file":
        base.write_text("", encoding="utf-8")  # so base/l1lab cannot be made
    else:
        (base / "l1lab").mkdir(parents=True)
        (base / "l1lab").chmod(0o777)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    assert fresh_load() is not None
    p, want = numpy_bits
    assert compiled_step(p, "ccd") is not None
    assert ccd_iterates(p).tobytes() == want
    assert libraries(scratch) == []
    if cache != "a file":
        assert libraries(base / "l1lab") == []


@needs_cc
@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
def test_a_damaged_cached_library_is_rebuilt_not_loaded(tmp_path, damage):
    # Loading a truncated library can kill the process, so subprocesses
    # build the cache and then take the damaged one.
    env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    assert child(env) == ["True", "True"]
    directory = tmp_path / "cache" / "l1lab"
    (path,) = directory.iterdir()
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2] if damage == "truncated" else b"\0" * len(data))
    assert child(env) == ["True", "True"]
    assert path.read_bytes() == data
    assert_one_valid_library(directory)


@needs_cc
def test_concurrent_builds_leave_one_valid_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path / "cache"))
    procs = [subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    outs = [proc.communicate(timeout=TIMEOUT_S) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0 and not err, err
        assert out.split() == ["True", "True"]
    assert_one_valid_library(tmp_path / "cache" / "l1lab")


@needs_cc
def test_loading_removes_the_libraries_of_other_sources(fresh_load, tmp_path):
    # Every change to _qsweep.c or the flags gives a new key. Loading marks
    # the library used (its mtime); the cache keeps it and the _KEEP - 1
    # most recently used libraries of other keys and removes the older
    # ones. Other files, builds in progress and entries that cannot be
    # removed stay, and raise nothing.
    directory = tmp_path / "cache" / "l1lab"
    directory.mkdir(parents=True, mode=0o700)
    others = [f"qsweep-{i:016x}-{i:016x}.so" for i in range(_qsweep._KEEP + 1)]  # oldest first
    kept = ["notes.txt", ".qsweep-0000000000000000-1-ab.tmp", "qsweep-0000000000000000.c"]
    for name in others + kept:
        (directory / name).write_bytes(b"\0" * 64)
    (directory / "qsweep-dir-b.so").mkdir()  # unlink() fails on a directory
    start = time.time() - 3600
    for age, name in enumerate(["qsweep-dir-b.so", *others]):
        os.utime(directory / name, (start + age, start + age))
    assert fresh_load() is not None
    names = libraries(directory)
    libs = [name for name in names if name.endswith(".so") and name not in others
            and name != "qsweep-dir-b.so"]
    assert len(libs) == 1
    assert _qsweep._cached(directory, libs[0].split("-")[1]) == directory / libs[0]
    assert set(names) == {*kept, "qsweep-dir-b.so", *others[-(_qsweep._KEEP - 1):], libs[0]}
    # The next load finds that library and keeps every file.
    _qsweep.load.cache_clear()
    assert fresh_load() is not None
    assert libraries(directory) == names


@needs_cc
def test_two_sources_used_in_turn_with_one_cache_compile_once_each(
        fresh_load, monkeypatch, tmp_path):
    # Two l1lab versions sharing a cache, used in turn, keep each other's library.
    other = tmp_path / "_qsweep.c"
    other.write_bytes(_qsweep.SOURCE.read_bytes() + b"\n/* another version */\n")
    compiles = []
    compile_ = _qsweep._compile
    monkeypatch.setattr(_qsweep, "_compile", lambda *args: compiles.append(args) or compile_(*args))
    for source in [_qsweep.SOURCE, other] * 3:
        monkeypatch.setattr(_qsweep, "SOURCE", source)
        _qsweep.load.cache_clear()
        assert fresh_load() is not None
    assert len(compiles) == 2
    assert len(libraries(tmp_path / "cache" / "l1lab")) == 2
