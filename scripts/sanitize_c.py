#!/usr/bin/env python3
"""Run the compiled library's tests on a build with AddressSanitizer and UBSan.

    python3 scripts/sanitize_c.py

Builds src/l1lab/_qsweep.c with the sanitizers (SANITIZE below) into a
private temporary ``$XDG_CACHE_HOME/l1lab``, under the name that
_qsweep.load() looks up for the normal build, so the tests load it as
they would that build; the package gains no option. Then runs TESTS in a
child process with that cache, the sanitizer runtimes of ``cc`` in
LD_PRELOAD, Python's small-object allocator off and leak detection off
(the Python interpreter itself is not built with the sanitizers). A
malloc too large to be had returns NULL, as libc's does, so numpy raises
MemoryError for it rather than ASan aborting; the library allocates
nothing itself. A fault the sanitizers find aborts the child.

The checks cover what nothing else checks, such as the sizing contract of
render_floats' output buffer, which it writes fixed-width copies into up
to 40 bytes past each value's text, and parse_floats' promise to read no
byte past the end of its text.

The exit status is 0 when the tests pass on the sanitized library: the
cache then holds that library only, and load() has marked it used. It is
1 when a test fails, the child aborts or the cache shows another library
was used, and 2 when the library cannot be built.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from l1lab import _qsweep  # noqa: E402

# No FMA contraction, as in _qsweep.FLAGS, so the bitwise tests still hold.
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-ffp-contract=off", "-shared", "-fPIC")
TESTS = ("tests/test_render.py", "tests/test_parse.py", "tests/test_kernel.py",
         "tests/test_start_search.py", "tests/test_solvers.py", "tests/test_operators.py",
         "tests/test_verification.py")


def runtime(cc: str, name: str) -> str:
    """The path of a sanitizer runtime of cc; a bare name when cc has none."""
    return subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> int:
    cc = shutil.which("cc")
    if cc is None:
        print("sanitize_c: no cc on PATH", file=sys.stderr)
        return 2
    preload = [runtime(cc, name) for name in ("libasan.so", "libubsan.so")]
    if not all(map(os.path.isabs, preload)):
        print(f"sanitize_c: {cc} has no sanitizer runtimes", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="l1lab-sanitize-") as home:
        cache = Path(home, "l1lab")
        cache.mkdir(mode=0o700)
        built = Path(home, "qsweep-sanitized.so")
        done = subprocess.run([cc, *SANITIZE, "-o", str(built), str(_qsweep.SOURCE)])
        if done.returncode != 0:
            print("sanitize_c: the sanitized build failed", file=sys.stderr)
            return 2
        library = cache / _qsweep._name(_qsweep._key(_qsweep.SOURCE.read_bytes()),
                                        built.read_bytes())
        os.replace(built, library)
        os.utime(library, ns=(0, 0))  # load() marks the library it takes used
        # A sanitizer report ends the child at once: unbuffered output and
        # capture=sys keep the report and the progress before it on screen.
        # PYTHONMALLOC=malloc lets ASan see every buffer, also the small
        # ones that Python's own allocator would otherwise carve from its
        # arenas, such as render()'s output buffer for a few values.
        env = {**os.environ, "XDG_CACHE_HOME": home, "LD_PRELOAD": " ".join(preload),
               "ASAN_OPTIONS": "detect_leaks=0:allocator_may_return_null=1",
               "UBSAN_OPTIONS": "print_stacktrace=1",
               "PYTHONUNBUFFERED": "1", "PYTHONMALLOC": "malloc",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 "--capture=sys", *TESTS], cwd=ROOT, env=env).returncode
        others = sorted(path.name for path in cache.iterdir() if path != library)
        used = library.exists() and library.stat().st_mtime_ns > 0
        if others or not used:
            print(f"sanitize_c: the tests did not use the sanitized library {library.name} "
                  f"(cache also holds {others})", file=sys.stderr)
            return 1
    if status != 0:
        print(f"sanitize_c: the tests failed (status {status})", file=sys.stderr)
        return 1
    print(f"sanitize_c: {len(TESTS)} test files passed on the sanitized library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
