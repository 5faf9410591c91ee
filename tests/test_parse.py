"""The compiled number reader against json.loads, bit for bit.

load_problem reads a problem file's data arrays with _jsonlayout.loads:
parse_floats of the compiled library rounds each number token by exact
integer arithmetic, and json's scanner reads each array that it declines,
for a token outside its exact range or its grammar. Every array
must load to the bits np.array(value, dtype=float) gives of json.loads'
list, and every document that json.loads or problem_from_dict rejects must
raise the same exception with the same message, with the library and
without it.
"""

import ctypes
import functools
import io
import json
import math
import random
import shutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1lab import _jsonlayout, _qsweep, gen_zmatrix_quadratic, logistic_problem, save_problem
from l1lab._jsonlayout import loads, render
from l1lab.cli import main
from l1lab.problems import _DATA_FIELDS, load_problem, problem_from_dict
from test_render import FAMILIES


@pytest.fixture(params=["compiled", "python"])
def reader(request, monkeypatch):
    """The number reader under test: the compiled one, or json.loads alone."""
    if request.param == "python":
        monkeypatch.setattr(_qsweep, "load", lambda: None)
    elif _qsweep.load() is None:
        pytest.skip("the compiled reader cannot be built here")
    return request.param


@pytest.fixture(scope="module")
def lib():
    lib = _qsweep.load()
    if lib is None:
        pytest.skip("the compiled reader cannot be built here")
    return lib


def document(array_text, key="v"):
    return f'{{"{key}": {array_text}}}'


def read(text, key="v"):
    """The array under ``key`` as load_problem's reader gives it to np.array."""
    return loads(text.encode("ascii"), {key})[key]


def want(text, key="v"):
    return np.array(json.loads(text)[key], dtype=float)


def same_bits(got, expected):
    got = np.array(got, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def c_parse(lib, data, start=0, length=None, buffer=None):
    """(end, info, values) of parse_floats on data[:length], read from
    ``buffer`` (by default the bytes object itself)."""
    length = len(data) if length is None else length
    cap = (length - start) // 2 + 1
    out, info = np.empty(cap), (ctypes.c_long * 3)()
    end = lib.parse_floats(data if buffer is None else buffer, length, start, cap,
                           out.ctypes.data, info)
    return end, list(info), out


def in_exact_range(token):
    """Whether parse_floats rounds ``token`` itself: zero, or c 10^q with
    at most 19 significant digits in c and q in [-27, 27]."""
    mantissa, _, exponent = token.lower().partition("e")
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = (whole + fraction).lstrip("0")
    q = int(exponent or 0) - len(fraction)
    return not digits or (len(digits) <= 19 and -27 <= q <= 27)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@functools.cache
def rendered(family):
    """The finite values of a family of test_render.py, their text, and
    those of them whose tokens parse_floats rounds itself."""
    values = FAMILIES[family]
    values = values[np.isfinite(values)]
    if family != "random bits":  # whose signs are random already
        values = np.concatenate([values, -values])
    tokens = render(values, "json", ",").split(",")
    exact = values[[in_exact_range(t) for t in tokens]]
    return values, document("[" + render(values, "json", ", ") + "]"), exact


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reading_rendered_values_gives_them_back_bit_for_bit(reader, family):
    values, text, exact = rendered(family)
    assert same_bits(read(text), values)
    # Those in the exact range, which parse_floats reads as one array.
    assert exact.size > 0
    got = read(document("[" + render(exact, "json", ", ") + "]"))
    assert isinstance(got, np.ndarray) == (reader == "compiled")
    assert same_bits(got, exact)
    # As rows, in the layout that save_problem writes.
    rows = np.resize(exact[:7000], (1000, 7))
    got = read("".join(_jsonlayout.json_value({"v": rows})))
    assert isinstance(got, np.ndarray) == (reader == "compiled")
    assert same_bits(got, rows)


def midpoints(seed=7):
    """(token, exact value) of decimal midpoints W 2^E between neighbouring
    doubles (W odd, 2^53 < W < 2^54), in fixed and exponent notation."""
    rng = random.Random(seed)
    for E in range(-6, 12):
        for _ in range(60):
            W = rng.randrange(2 ** 53 + 1, 2 ** 54, 2)
            m = Fraction(W) * Fraction(2) ** E
            if E >= 0:
                yield str(W << E), m
            else:
                digits = str(W * 5 ** -E)
                yield f"{digits[:E]}.{digits[E:]}", m
                yield f"{digits}e{E}", m
    # u 10^q = (u 5^q) 2^q is a midpoint when W = u 5^q is odd and
    # 2^53 < W < 2^54.
    for q in range(1, 24):
        lo, hi = -(-2 ** 53 // 5 ** q), 2 ** 54 // 5 ** q
        for _ in range(20):
            u = rng.randrange(lo | 1, hi + 1, 2)
            if lo <= u and u * 5 ** q < 2 ** 54:
                yield f"{u}e{q}", Fraction(u * 10 ** q)
                yield f"{u}0E+{q - 1}", Fraction(u * 10 ** q)


def test_exact_midpoints_between_doubles_round_half_to_even(reader):
    cases = list(midpoints())
    tokens = [t for t, _ in cases] + ["-" + t for t, _ in cases]
    exact = [m for _, m in cases] + [-m for _, m in cases]
    got = np.array(read(document("[" + ",".join(tokens) + "]")), dtype=float)
    for token, m, v in zip(tokens, exact, got.tolist()):
        assert v == float(m), token  # Fraction's float() rounds correctly
        # m lies halfway between v and a neighbour, and v's last bit is 0.
        assert m in {(Fraction(v) + Fraction(math.nextafter(v, to))) / 2
                     for to in (-math.inf, math.inf)}, token
        assert int(np.float64(v).view(np.uint64)) & 1 == 0, token


def test_midpoints_of_at_most_19_digits_are_rounded_in_c(lib):
    short = [t for t, _ in midpoints() if len(t.split("e")[0].split("E")[0]
                                                  .replace(".", "").lstrip("0")) <= 19]
    assert len(short) > 1000
    data = ("[" + ",".join(short) + "]").encode()
    end, info, _ = c_parse(lib, data)
    assert end == len(data) and info == [1, len(short), 0]


@pytest.mark.parametrize("token, expected", [
    ("-0", 0.0), ("0", 0.0), ("-0.0", -0.0), ("-0e0", -0.0), ("-0E+7", -0.0),
    ("0.000", 0.0), ("-0.000e-400", -0.0), ("1e400", math.inf), ("-1e400", -math.inf),
    ("1e-400", 0.0), ("-1e-400", -0.0), ("1E5", 1e5), ("1e+5", 1e5), ("-12.5e-1", -1.25),
    ("12345678901234567890123", 1.2345678901234568e22),
    ("1.2345678901234567890123", 1.2345678901234568),
    ("9007199254740993", 9007199254740992.0),
    ("0.00000000000000000000000000000123", 1.23e-30),
    ("1" + "0" * 300, 1e300), ("1" + "0" * 30 + ".0", 1e30),
])
def test_pinned_tokens_read_as_json_and_numpy_read_them(reader, token, expected):
    got = np.array(read(document(f"[{token}, 1]")), dtype=float)
    assert same_bits(got, np.array([expected, 1.0]))
    assert same_bits(got, want(document(f"[{token}, 1]")))


def test_integer_tokens_too_large_for_a_float_raise_overflow_error(reader, tmp_path):
    huge = "1" + "0" * 400
    text = document(f"[[1, -{huge}]]")
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        np.array(read(text), dtype=float)
    # Where json.load and problem_from_dict raise it, after the checks of
    # the other fields, and with their message.
    path = tmp_path / "p.json"
    path.write_text(f'{{"kind": "logistic", "X": [[{huge}]], "Y": [1], "lambda": 0.1}}')
    with pytest.raises(OverflowError) as got:
        load_problem(path)
    with pytest.raises(OverflowError) as expected:
        problem_from_dict(json.loads(path.read_text()))
    assert str(got.value) == str(expected.value)
    path.write_text(f'{{"kind": "logistic", "X": [[{huge}]], "Y": [1]}}')
    with pytest.raises(ValueError, match="missing 'lambda'"):
        load_problem(path)


@pytest.mark.parametrize("token", ["01", "-01", "1.", ".5", "+1", "1e", "1e+", "-", "--1",
                                   "1.e5", "0x10", "1_0", "1 2", "1,", ",1"])
def test_tokens_outside_the_json_grammar_raise_json_decode_error(reader, token):
    text = document(f"[[0.5, {token}]]")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        read(text)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("array", [
    "[1,2,3]", "[ 1 , 2 , 3 ]", "[\t1,\t2\t]", "[\r\n  1,\r\n  2\r\n]", "\t[1]\r\n",
    "[[1, 2], [3, 4]]", "[ [ 1 ,2 ] ,\t[3,\r\n4 ] ]", "[\n  [\n    1.5\n  ]\n]",
    "[]", "[ ]", "[[]]", "[[], []]", "[ [ ] , [\t] ]",
])
def test_whitespace_and_empty_arrays_read_as_json_reads_them(reader, array):
    text = document(array) + " \r\n\t"
    got = read(text)
    assert isinstance(got, np.ndarray) == (reader == "compiled")
    assert same_bits(got, want(text))


def test_an_error_after_a_crlf_names_the_offset_that_json_load_of_the_file_names(
        reader, tmp_path):
    path = tmp_path / "p.json"
    path.write_bytes(b'{\r\n  "kind": "logistic",\r\n  "X": [[1.5, 01]],\r\n  "Y": [1]\r\n}')
    with pytest.raises(json.JSONDecodeError) as got:
        load_problem(path)
    with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as expected:
        json.load(fh)
    assert str(got.value) == str(expected.value)
    assert str(got.value) == "Expecting ',' delimiter: line 3 column 16 (char 39)"


@pytest.mark.parametrize("array", [
    "[[1], [2, 3]]", "[[1, 2], []]", "[[1], 2]", "[1, [2]]", "[[[1]]]", "[[[]]]",
    "[1, NaN]", "[Infinity]", "[-Infinity, 1]", "[true, 1]", "[null]", '["1"]', "[1, {}]",
    "[[1], [2], [3, [4]]]",
])
def test_arrays_outside_the_grammar_are_left_to_json(reader, array):
    text = document(array)
    got = loads(text.encode(), {"v"})
    assert repr(got) == repr(json.loads(text))


@pytest.mark.parametrize("text", [
    "[1, 2]", '"v"', "1", "null", "", " ", '{"v": [1]', '{"v": [1]}}', '{"v": [1],}',
    '{"v" [1]}', "{'v': [1]}", '{"v": [1] "w": 2}', '{"v": [1]} []', "{v: [1]}",
    '{"v": [1], "v": [2, 3]}', '{"v": [1], "w": {"v": [2]}}', "{}", ' { } ',
    '\ufeff{"v": [1]}', '{"é": 1, "v": [1]}', '{"v": [1], "s": "\\u00e9\\n"}',
])
def test_the_document_around_the_arrays_reads_as_json_reads_it(reader, text):
    def read_with(parse):
        # The top-level "v" as np.array would take it; everything else as is.
        value = outcome(parse)
        if value[0] == "ok" and isinstance(value[1], dict):
            value = ("ok", {k: np.array(v, dtype=float).tobytes() if k == "v" else v
                            for k, v in value[1].items()})
        return value

    data = text.encode("utf-8")
    assert read_with(lambda: loads(data, {"v"})) == read_with(lambda: json_load(data))


def test_a_buffer_that_ends_right_after_a_digit_is_not_read_past(lib):
    # Each prefix of the array ends inside it: nothing is read at or past
    # its end, where the bytes that would complete it lie; the buffers of
    # more than 16 bytes are allocated at their length, which ASan checks.
    full = b"[-0.12345678901234567e-5, 123456789012, 7, 1e-9]"
    for length in range(1, len(full)):
        buffer = ctypes.create_string_buffer(full[:length], length)
        assert c_parse(lib, full[:length], buffer=buffer)[0] == -1, full[:length]
        assert c_parse(lib, full, length=length)[0] == -1, full[:length]
    buffer = ctypes.create_string_buffer(full, len(full))
    end, info, values = c_parse(lib, full, buffer=buffer)
    assert end == len(full) and info == [1, 4, 0]
    assert values[:4].tolist() == [-0.12345678901234567e-5, 123456789012.0, 7.0, 1e-9]
    # A value in the middle of the text, from its offset.
    end, info, values = c_parse(lib, b'{"v": [1.5,  2]}', start=6)
    assert end == 15 and info == [1, 2, 0] and values[:2].tolist() == [1.5, 2.0]


@pytest.mark.parametrize("token, inside", [
    ("1e27", True), ("1e-27", True), ("1234567890123456789e-27", True),
    ("-9999999999999999999E+27", True), ("0.000000000000000000000000001", True),
    ("0e-400", True), ("1e28", False), ("1e-28", False), ("0.0000000000000000000000000001", False),
    ("12345678901234567890", False), ("1.0000000000000000000", False), ("1e400", False),
])
def test_an_array_with_a_token_outside_the_exact_range_is_left_whole_to_json(
        lib, token, inside):
    assert in_exact_range(token) == inside
    data = f"[[{token}, 0.5], [2, 3]]".encode()
    end, info, values = c_parse(lib, data)
    text = document(data.decode())
    got = read(text)
    assert same_bits(got, want(text))
    if inside:
        assert end == len(data) and info == [2, 2, 2] and isinstance(got, np.ndarray)
        assert same_bits(values[:4].reshape(2, 2), want(text))
    else:
        assert end == -1 and isinstance(got, list)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # the type and the message are compared
        return ("error", type(exc), str(exc))


def problem_outcome(call):
    result = outcome(call)
    if result[0] == "ok":
        p = result[1]
        arrays = [np.asarray(v).tobytes() for v in p.smooth.to_dict().values()
                  if isinstance(v, np.ndarray)]
        return ("ok", p.smooth.kind, arrays, p.lam, p.lipschitz, p.dim)
    return result


def json_load(data):
    """json.load of a file of the bytes ``data`` opened with encoding="utf-8"."""
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def assert_loads_as_json_does(text):
    data = text.encode("ascii")
    assert problem_outcome(lambda: problem_from_dict(loads(data, _DATA_FIELDS))) \
        == problem_outcome(lambda: problem_from_dict(json_load(data)))


WS = st.sampled_from(["", " ", "\n    ", "\t", "\r\n", "  \t"])
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__),
    st.integers(-10 ** 25, 10 ** 25).map(str),
    st.builds("{}{}{}{}".format, st.integers(-10 ** 20, 10 ** 20),
              st.sampled_from(["", ".5", ".000125", ".1234567890123456789"]),
              st.sampled_from(["e", "E", "e+", "e-", "E-"]), st.integers(0, 40)),
    st.sampled_from(["-0", "-0.0", "0e0", "1e400", "1" + "0" * 330, "01", "1.", ".5", "+1",
                     "1e", "NaN", "-Infinity", "true", "null", '"1"', "[1]", "[]"]),
)
LABEL = st.sampled_from(["1", "-1", "1.0", "-1.0", "1e0", "-10e-1", "0.1e1", "2"])


def array_text(draw, tokens, rows, cols):
    ws = draw(WS)
    if rows is None:
        return "[" + ws + ("," + ws).join(draw(st.lists(tokens, min_size=cols, max_size=cols)))\
            + ws + "]"
    return "[" + ws + ("," + ws).join(array_text(draw, tokens, None, draw(
        st.sampled_from([cols, cols, cols, cols + 1]))) for _ in range(rows)) + ws + "]"


@st.composite
def problem_texts(draw):
    n, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    clean = draw(st.booleans())
    numbers = st.floats(-1e3, 1e3).map(repr) if clean else NUMBER
    fields = {"kind": draw(st.sampled_from(['"logistic"', '"logistic"', '"quadratic"',
                                            '"other"', "[1]"])),
              "X": array_text(draw, numbers, n, d), "Y": array_text(draw, LABEL, None, n),
              "A": array_text(draw, numbers, d, d), "b": array_text(draw, numbers, None, d),
              "lambda": draw(st.sampled_from(["0.1", "0", "0.1", "[0.1]", "-1", "true"])),
              "L": draw(st.sampled_from(["null", "10", "1e3"])),
              "dim": draw(st.sampled_from(["1", "2", "3", "2.0"]))}
    drop = draw(st.lists(st.sampled_from(sorted(fields)), unique=True, max_size=2))
    ws = draw(WS)
    return "{" + ws + ("," + ws).join(f'"{k}":{ws}{v}' for k, v in fields.items()
                                      if k not in drop) + ws + "}"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(problem_texts())
def test_problem_files_load_as_json_loads_and_problem_from_dict_load_them(text):
    assert_loads_as_json_does(text)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_compiled_reader_is_in_use_when_a_compiler_is_found(tmp_path, monkeypatch):
    # Without this, a CI run could pass every loader test on json's path.
    rng = np.random.default_rng(3)
    p = logistic_problem(rng.standard_normal((40, 3)), np.sign(rng.standard_normal(40)), 0.1)
    save_problem(p, tmp_path / "p.json")

    def fail(*args, **kwargs):
        raise AssertionError("json.loads read the document")

    monkeypatch.setattr(_jsonlayout.json, "loads", fail)
    data = loads((tmp_path / "p.json").read_bytes(), _DATA_FIELDS)
    assert isinstance(data["X"], np.ndarray) and isinstance(data["Y"], np.ndarray)
    back = load_problem(tmp_path / "p.json")
    assert back.smooth.X.tobytes() == p.smooth.X.tobytes()
    assert back.smooth.Y.tobytes() == p.smooth.Y.tobytes()


@pytest.mark.parametrize("kind, field", [("quadratic", "A"), ("quadratic", "b"),
                                         ("logistic", "X"), ("logistic", "Y")])
def test_a_problem_file_without_a_field_of_its_kind_raises_value_error(reader, tmp_path,
                                                                       kind, field):
    data = {"kind": kind, "A": [[2.0]], "b": [0.5], "X": [[1.0]], "Y": [1.0], "lambda": 0.1}
    del data[field]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"^problem file is missing '{field}'$"):
        load_problem(path)
    assert main(["classify", "--problem", str(path), "--point", "0"]) == 1


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null", "[]"])
def test_a_problem_file_that_is_not_an_object_exits_1(reader, tmp_path, capsys, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^problem file must contain a JSON object$"):
        load_problem(path)
    for args in (["classify", "--point", "0"], ["run", "--alg", "gd"], ["verify"]):
        assert main([args[0], "--problem", str(path), *args[1:]]) == 1
        assert capsys.readouterr().err == "error: problem file must contain a JSON object\n"


def test_a_saved_problem_loads_back_bit_for_bit_on_both_paths(reader, tmp_path):
    p = gen_zmatrix_quadratic(30, seed=2)
    save_problem(p, tmp_path / "q.json")
    back = load_problem(tmp_path / "q.json")
    assert back.smooth.A.tobytes() == p.smooth.A.tobytes()
    assert back.smooth.b.tobytes() == p.smooth.b.tobytes()
    assert (back.lam, back.lipschitz) == (p.lam, p.lipschitz)
