"""The compiled number renderer against Python's own spelling, byte for byte.

render() spells each float as json.dumps does (float.__repr__, NaN,
Infinity) or as '%.17g' % v does. The compiled path must give the same
text as Python on every value: the ones it renders and the ones it
declines, which Python spells in their place.
"""

import ctypes
import json
import math
import shutil
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from l1lab import _jsonlayout, _qsweep
from l1lab._jsonlayout import render

SPELL = {"json": json.dumps, "%.17g": "%.17g".__mod__}
LO, HI = 1e-15, 1e17  # the compiled renderer spells LO <= |v| < HI and zero


@pytest.fixture(scope="module")
def lib():
    lib = _qsweep.load()
    if lib is None:
        pytest.skip("the compiled renderer cannot be built here")
    return lib


def neighbours(values):
    values = [float(v) for v in values]
    return np.array(values + [math.nextafter(v, -math.inf) for v in values]
                    + [math.nextafter(v, math.inf) for v in values])


def families():
    rng = np.random.default_rng(20261018)
    yield "random bits", rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
    # Random mantissas in every binade of the rendered range, and around it.
    bits = (rng.integers(0, 2 ** 52, 200_000, dtype=np.uint64)
            | rng.integers(1023 - 52, 1023 + 58, 200_000).astype(np.uint64) << np.uint64(52))
    yield "random bits in range", bits.view(np.float64)
    yield "scaled normals", (rng.standard_normal(200_000)
                             * 10.0 ** rng.uniform(-20.0, 20.0, 200_000))
    yield "powers of two", neighbours(2.0 ** np.arange(-1074, 1024))
    # 17-digit ties of '%.17g' and ties of shortest repr candidates.
    ints = rng.integers(2 ** 52, 2 ** 57, 100_000).astype(np.float64)
    yield "integers and quarters", np.concatenate([ints, ints / 4, ints / 4 + 0.25, ints * 0.75])
    yield "short decimals", (rng.integers(1, 10 ** 6, 100_000)
                             * 10.0 ** rng.integers(-22, 22, 100_000).astype(np.float64))
    yield "edges", neighbours([LO, 1e16, HI] + [10.0 ** e for e in range(-17, 19)])
    yield "specials", np.array([5e-324, 2.2250738585072014e-308, 0.0, math.nan, math.inf])


FAMILIES = dict(families())


def python_texts(values, spelling):
    if spelling == "json":
        return json.dumps(values.tolist())[1:-1].split(", ")
    return [SPELL[spelling](v) for v in values.tolist()]


def declined(lib, values, spelling):
    """Indices of the values the C code leaves to Python."""
    n = len(values)
    out = ctypes.create_string_buffer(n * 25 + 64)
    holes = (ctypes.c_long * (2 * n + 1))()
    lib.render_floats(n, values.tobytes(), spelling == "json", b",", 1, n, b",", 1, out, holes)
    return np.array(holes[1:1 + 2 * holes[0]:2], dtype=np.int64)


@pytest.mark.parametrize("spelling", sorted(SPELL))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compiled_renderer_matches_python_byte_for_byte(lib, family, spelling):
    values = FAMILIES[family]
    if family != "random bits":  # whose signs are random already
        values = np.concatenate([values, -values])
    got = render(values, spelling, "\n").split("\n")
    want = python_texts(values, spelling)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:10]


@pytest.mark.parametrize("spelling", sorted(SPELL))
def test_compiled_renderer_declines_what_its_contract_leaves_to_python(lib, spelling):
    values = np.concatenate(list(FAMILIES.values()))
    values = np.concatenate([values, -values])
    magnitude = np.abs(values)
    out_of_range = ~((magnitude >= LO) & (magnitude < HI)) & (values != 0.0)
    holes = declined(lib, values, spelling)
    # Every non-finite, subnormal and out-of-range value is declined.
    assert set(np.flatnonzero(out_of_range)) <= set(holes)
    ties = values[holes[~out_of_range[holes]]].tolist()
    if spelling == "%.17g":
        assert ties == []
    else:
        # The rest are exact ties between two shortest repr candidates.
        assert ties and all(map(is_repr_tie, ties))


@pytest.mark.parametrize("spelling", sorted(SPELL))
def test_compiled_renderer_fills_the_buffer_render_sizes_on_the_widest_texts(lib, spelling):
    # Small blocks of the longest texts the C code writes (23 bytes in both
    # spellings): after the last value its fixed-width copies reach into
    # the buffer's slack, which scripts/sanitize_c.py checks under ASan.
    widest = -0.00012345678901234567
    text = SPELL[spelling](widest)
    assert len(text) == 23
    for n in range(1, 9):
        values = np.full(n, widest)
        assert declined(lib, values, spelling).size == 0
        for sep, rowsep in ((",", ","), (", ", ";\n"), ("\n", "")):
            assert render(values.reshape(1, n), spelling, sep, rowsep) == sep.join([text] * n)
            assert render(values.reshape(n, 1), spelling, sep, rowsep) == rowsep.join([text] * n)


def is_repr_tie(v):
    """Whether a shortest decimal next to repr(v), one unit of its last
    digit away, also reads back as v and lies exactly as far from it."""
    text = Decimal(repr(v)).normalize()
    unit = Decimal(1).scaleb(text.as_tuple().exponent)
    distance = abs(Fraction(text) - Fraction(v))
    return any(float(other) == v and abs(Fraction(other) - Fraction(v)) == distance
               for other in (text - unit, text + unit))


def test_declined_values_take_pythons_spelling_in_place(lib, monkeypatch):
    values = np.array([1.5, math.nan, -2.5e-300, 0.25, -math.inf, 3e17, 7.0])
    for spelling in SPELL:
        monkeypatch.setitem(_jsonlayout._SPELL, spelling, lambda v: f"<{v!r}>")
        sep = "," if spelling == "%.17g" else ", "
        assert render(values, spelling, sep) == sep.join(
            f"<{v!r}>" if not 1e-15 <= abs(v) < 1e17 else SPELL[spelling](v)
            for v in values.tolist())


def test_python_path_spells_every_value(monkeypatch):
    monkeypatch.setattr(_qsweep, "load", lambda: None)
    values = np.concatenate([FAMILIES["edges"], FAMILIES["specials"], [-0.0, 1e300]])
    for spelling in SPELL:
        assert render(values, spelling, ";").split(";") == python_texts(values, spelling)
    assert render(np.array([]), "json", ",") == ""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_compiled_renderer_is_in_use_when_a_compiler_is_found(monkeypatch):
    # Without this, a CI run could pass every writer test on Python's path.
    assert _qsweep.load() is not None

    def fail(v):
        raise AssertionError(f"Python spelled {v!r}")

    monkeypatch.setitem(_jsonlayout._SPELL, "%.17g", fail)
    monkeypatch.setitem(_jsonlayout._SPELL, "json", fail)
    monkeypatch.setattr(_jsonlayout, "_json_join", fail)
    values = np.array([0.1, -3.0, 123456.789, 0.0, -0.0])
    assert render(values, "%.17g", ",") == "0.10000000000000001,-3,123456.789,0,-0"
    assert render(values, "json", ",") == "0.1,-3.0,123456.789,0.0,-0.0"


# Whole-row blocks: render(block, spelling, sep, rowsep) lays out the rows of
# a 2-D block in C calls of at most _CHUNK values, whole rows or parts of one
# row, and must give the text of the rows rendered one by one.

CHUNK = _jsonlayout._CHUNK
TIE = 2029977987957735.2  # repr's two nearest shortest candidates are equally near
DECLINED = [math.nan, math.inf, -math.inf, 5e-324, 1e300, TIE]


def spelled_rows(block, spelling, sep, rowsep):
    """The block spelled value by value by Python."""
    return rowsep.join(sep.join(python_texts(np.asarray(row), spelling)) for row in block)


@pytest.mark.parametrize("shape", [(1, 1), (9, 1), (1, 9), (3, 7)])
@pytest.mark.parametrize("spelling", sorted(SPELL))
def test_a_block_is_its_rows_rendered_one_by_one(renderer, shape, spelling):
    rng = np.random.default_rng(sum(shape))
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    block.flat[::3] = np.resize(DECLINED, len(block.flat[::3]))
    # Separators up to 32 bytes are copied at a fixed width, longer ones not.
    for sep, rowsep in ((",", "\n"), (", ", "],\n  ["), ("a" * 32, "b" * 33),
                        (",\n" + " " * 40, "\n" + "x" * 40)):
        got = render(block, spelling, sep, rowsep)
        assert got == rowsep.join(render(row, spelling, sep) for row in block)
        assert got == spelled_rows(block, spelling, sep, rowsep)


@pytest.mark.parametrize("spelling", sorted(SPELL))
def test_declined_values_at_the_ends_of_rows_and_chunks(renderer, spelling):
    assert is_repr_tie(TIE)
    # Rows of 1000 values make pieces of 8 rows; rows of CHUNK + 5 values
    # are split inside the row.
    for d in (1000, CHUNK + 5):
        block = np.full((10, d), 0.1)
        first = d * (CHUNK // d) if d <= CHUNK else CHUNK  # the values of the first call
        rng = np.random.default_rng(d)
        block.flat[[first - 1, first]] = rng.choice(DECLINED, 2)
        block[:, 0], block[:, -1] = rng.choice(DECLINED, (2, 10))
        assert render(block, spelling, ",", ";\n") == spelled_rows(block, spelling, ",", ";\n")


@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (1, CHUNK + 1), (2, CHUNK + 900), (30, 700),
                                   (0, 3), (2, 0)])
def test_json_value_of_a_2d_array_is_json_dumps_of_its_rows(renderer, shape):
    rng = np.random.default_rng(shape[1])
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-18, 18, shape)
    a.flat[::97] = -0.0
    a.flat[::89] = np.resize(DECLINED, len(a.flat[::89]))
    assert "".join(_jsonlayout.json_value(a)) == json.dumps(a.tolist(), indent=2)
    nested = {"name": "x", "X": a, "more": [a[:1], 3]}
    want = {"name": "x", "X": a.tolist(), "more": [a[:1].tolist(), 3]}
    assert "".join(_jsonlayout.json_value(nested)) == json.dumps(want, indent=2)


def test_render_passes_at_most_chunk_values_per_call(lib, monkeypatch):
    sizes = []

    class Counting:
        def render_floats(self, n, *args):
            sizes.append(n)
            return lib.render_floats(n, *args)

    monkeypatch.setattr(_qsweep, "load", Counting)
    for shape, want in (((20, 1000), [8000, 8000, 4000]), ((3, CHUNK + 5), [CHUNK, 5] * 3),
                        ((1, 10), [10])):
        sizes.clear()
        block = np.full(shape, 0.5)
        assert render(block, "json", ",", ";") == ";".join([",".join(["0.5"] * shape[1])] * shape[0])
        assert sizes == want
