"""Numbers spelled as Python spells them, and JSON text laid out as
json.dump(..., indent=2) lays it out, written fast.

render() spells a block of floats, joined by a separator, or a 2-D block
as whole rows, the values of a row joined by one separator and the rows
by another, as json.dumps spells a float (float.__repr__, with NaN,
Infinity and -Infinity) or as '%.17g' % v does. It takes ``render_floats``
of the compiled library (_qsweep.c, loaded on first use) when there is
one, at most 8192 values per call: that renders a finite, normal float
with 1e-15 <= |v| < 1e17, and zero, by exact integer arithmetic, and
declines every other value (non-finite, subnormal or out of range) and an
exact tie between two shortest repr candidates; Python then spells each
declined value in its place. Without the library Python spells them all.
The bytes are the same either way.

Problem, trace and report files use the indent=2 layout. The indenting
encoder is pure Python; these helpers emit its layout, with a 2-D float
array rendered as whole rows, at most 8192 values per call, its brackets
and indentation as the separators. Text is yielded piece by piece, so a
large document can be streamed to a file.

loads() reads a JSON document as json.loads reads it, except that the
number arrays under given keys of its top-level object that
``parse_floats`` of the compiled library reads whole are float64 arrays,
as np.array(value, dtype=float) would make them from json.loads' lists.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str

import numpy as np

# The most bytes render_floats writes for one value: a sign, 17 digits,
# a point and a 4-character exponent, or "-0.000" and 17 digits; and the
# bytes its fixed-width copies may write past the end of the text.
_WIDTH = 24
_SLACK = 64

# The most values per render_floats call, and records per json_records piece.
_CHUNK = 8192
_RECORD_CHUNK = 512

# json's own scanner of one value, and its whitespace.
_scan = json.JSONDecoder().scan_once
_ws = json.decoder.WHITESPACE.match


def _json_float(v: float) -> str:
    # json.dumps(v): float.__repr__, or NaN, Infinity and -Infinity.
    return repr(v) if v - v == 0.0 else json.dumps(v)


def _json_scalar(v) -> str:
    # json.dumps(v), with the common types spelled without its encoder.
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if type(v) is float:
        return _json_float(v)
    if type(v) is str:
        return _json_str(v)
    return json.dumps(v)


# Python's own spelling of one float, for declined values.
_SPELL = {"json": _json_float, "%.17g": "%.17g".__mod__}


def _json_join(items: list, sep: str) -> str:
    # The C encoder's item separator is ", ", which no number token contains.
    return json.dumps(items)[1:-1].replace(", ", sep)


def render(values, spelling: str, sep: str, rowsep: str | None = None) -> str:
    """The floats ``values`` joined by ``sep``, each spelled as json.dumps
    spells a float (spelling "json") or as '%.17g' % v does (spelling "%.17g").

    With ``rowsep``, ``values`` is a 2-D block and the text is
    ``rowsep.join(render(row, spelling, sep) for row in values)``.
    The separators are ASCII. The values are taken as float64, in C order.
    """
    return "".join(render_pieces(values, spelling, sep, rowsep))


def render_pieces(values, spelling: str, sep: str, rowsep: str | None = None):
    """Yield the text of render(values, spelling, sep, rowsep) in pieces of
    at most 8192 values: whole rows, or parts of one row longer than that."""
    from . import _qsweep  # imported, and built, only when numbers are written

    v = np.ascontiguousarray(values, dtype=np.float64)
    if rowsep is None:
        v, rowsep = v.reshape(1, -1), sep
    n, d = v.shape
    if n == 0 or d == 0:
        yield rowsep * (n - 1) if n else ""
        return
    lib = _qsweep.load()
    spell = _SPELL[spelling]
    raw, row_raw = sep.encode("ascii"), rowsep.encode("ascii")
    if lib is not None:  # buffers for the largest piece, used by every call
        size = min(n * d, _CHUNK)
        out = ctypes.create_string_buffer(size * (_WIDTH + max(len(raw), len(row_raw))) + _SLACK)
        holes = (ctypes.c_long * (2 * size + 1))()
    rows = max(1, _CHUNK // d)
    for r in range(0, n, rows):
        for c in range(0, d, _CHUNK):  # one piece per row block when d <= _CHUNK
            piece = v[r:r + rows, c:c + _CHUNK]
            lead = sep if c else rowsep if r else ""
            if lib is None:
                yield lead + rowsep.join(_json_join(row, sep) if spelling == "json"
                                         else sep.join(map(spell, row)) for row in piece.tolist())
                continue
            # A bytes copy of the values is cheaper to pass than a pointer to them.
            flat = piece.tobytes()
            count = lib.render_floats(piece.size, flat, spelling == "json", raw, len(raw),
                                      piece.shape[1], row_raw, len(row_raw), out, holes)
            text = ctypes.string_at(out, count).decode("ascii")
            if holes[0]:
                text = _fill_holes(text, holes, np.frombuffer(flat), spell)
            yield lead + text


def _fill_holes(text: str, holes, values: np.ndarray, spell) -> str:
    # Python spells each declined value at the offset where it belongs.
    index, at = np.ctypeslib.as_array(holes)[1:1 + 2 * holes[0]].reshape(-1, 2).T
    parts, start = [], 0
    for offset, value in zip(at.tolist(), values[index].tolist()):
        parts += (text[start:offset], spell(value))
        start = offset
    parts.append(text[start:])
    return "".join(parts)


def json_list(items, ind, render_item):
    """Yield the text of the list ``items`` at indentation ``ind``.

    render_item(item, ind + 2) yields the text of one item; it may also
    render a run of items joined by the item separator.
    """
    if len(items) == 0:
        yield "[]"
        return
    pad = "\n" + " " * (ind + 2)
    sep = "[" + pad
    for item in items:
        yield sep
        yield from render_item(item, ind + 2)
        sep = "," + pad
    yield "\n" + " " * ind + "]"


def json_numbers(values: np.ndarray, ind: int) -> str:
    """The text of a flat array of numbers at indentation ``ind``."""
    if len(values) == 0:
        return "[]"
    pad = ",\n" + " " * (ind + 2)
    text = (render(values, "json", pad) if values.dtype == np.float64
            else _json_join(values.tolist(), pad))
    return "[" + pad[1:] + text + "\n" + " " * ind + "]"


def json_records(names, n: int, columns, ind: int):
    """Yield the text of a list of ``n`` dicts with the keys ``names`` at
    indentation ``ind``, _RECORD_CHUNK records per piece, each piece one
    record template filled in.

    columns(start, stop) gives the value texts of records start..stop - 1,
    one sequence of texts per key.
    """
    pad = "\n" + " " * (ind + 4)
    record = ("{" + ",".join(f"{pad}{_json_str(name)}: %s" for name in names)
              + "\n" + " " * (ind + 2) + "}")
    join = ",\n" + " " * (ind + 2)

    def chunk(start, _):
        texts = columns(start, min(start + _RECORD_CHUNK, n))
        yield join.join([record] * len(texts[0])) % tuple(chain.from_iterable(zip(*texts)))

    return json_list(range(0, n, _RECORD_CHUNK), ind, chunk)


def _json_rows(block: np.ndarray, ind: int):
    """Yield the text of a 2-D float64 array with at least one value at
    indentation ``ind``, as whole rows, at most 8192 values per piece."""
    inner, pad = " " * (ind + 4), " " * (ind + 2)
    yield "[\n" + pad + "[\n" + inner
    yield from render_pieces(block, "json", ",\n" + inner,
                             "\n" + pad + "],\n" + pad + "[\n" + inner)
    yield "\n" + pad + "]\n" + " " * ind + "]"


def json_value(value, ind: int = 0):
    """Yield the text of a dict with string keys, a list, an array of
    numbers, or a scalar.

    An array is written as its tolist() would be; a 2-D float array as
    whole rows, at most 8192 values per call. A dict's value may also be a
    function of the indentation that yields the value's text.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        pad = "\n" + " " * (ind + 2)
        sep = "{" + pad
        for key, item in value.items():
            if callable(item) or isinstance(item, (dict, list, np.ndarray)):
                yield sep + _json_str(key) + ": "
                yield from item(ind + 2) if callable(item) else json_value(item, ind + 2)
            else:
                yield sep + _json_str(key) + ": " + _json_scalar(item)
            sep = "," + pad
        yield "\n" + " " * ind + "}"
    elif isinstance(value, np.ndarray) and value.ndim == 2 and value.size \
            and value.dtype == np.float64:
        yield from _json_rows(value, ind)
    elif isinstance(value, list) or isinstance(value, np.ndarray) and value.ndim > 1:
        yield from json_list(value, ind, json_value)
    elif isinstance(value, np.ndarray):
        yield json_numbers(value, ind)
    else:
        yield _json_scalar(value)


def loads(data: bytes, arrays):
    """``json.loads`` of the text that ``open(path, encoding="utf-8")``
    reads from a file of the bytes ``data``, except that in a top-level
    object each value under a key in ``arrays`` that is an array of
    numbers, or of rows of numbers of one length, is read as the float64
    array np.array(value, dtype=float) would make of json.loads' list.

    The document takes the fast path when it is ASCII and the compiled
    library can be had: json's scanner reads the object's keys and other
    values, and ``parse_floats`` those arrays, rounding each token by
    exact integer arithmetic. An array that parse_floats declines (one
    with a token outside its exact range, such as an integer too large
    for a float, or outside its grammar) is left to json's scanner as a
    list, so that np.array reads it, or raises, as it does on json.loads'
    list. Any other document, and any that the fast path cannot read, is
    read by json.loads itself, so that the same exception is raised with
    the same message.
    """
    from . import _qsweep  # imported, and built, only when numbers are read

    lib = _qsweep.load() if data.isascii() else None
    if lib is not None:
        try:
            value = _object(data, arrays, lib)
        except (ValueError, StopIteration, RecursionError):
            value = None
        if value is not None:
            return value
    # Read as json.load reads an open text file: universal newlines.
    return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())


def _object(data: bytes, arrays, lib) -> dict | None:
    """The top-level object of the ASCII document ``data``, with the
    arrays under ``arrays`` read by parse_floats; None when the document
    is not one object. Outside strings, a carriage return is whitespace
    to JSON, so a valid document reads the same without the newline
    translation that json.loads' text gets; an invalid one raises here."""
    text = data.decode("ascii")
    i = _ws(text, 0).end()
    if text[i:i + 1] != "{":
        return None
    obj, sep = {}, ","
    while sep == ",":  # i is at the "{" or "," before a member
        i = _ws(text, i + 1).end()
        if text[i:i + 1] != '"':
            return None  # also an empty object, which json.loads reads
        key, i = _scan(text, i)
        i = _ws(text, i).end()
        if text[i:i + 1] != ":":
            return None
        i = _ws(text, i + 1).end()
        read = (_numbers(lib, data, i) if key in arrays and text[i:i + 1] == "["
                else None)
        obj[key], i = read if read is not None else _scan(text, i)
        i = _ws(text, i).end()
        sep = text[i:i + 1]
    if sep != "}" or _ws(text, i + 1).end() != len(text):
        return None
    return obj


def _scratch(size: int):
    import mmap  # loaded only when a file is read, like the library

    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


def _numbers(lib, data: bytes, start: int):
    """(array, end) of the number array at ``start``, or None."""
    # A value takes at least one byte and one separator: at most this many.
    # The buffer is an anonymous map, of which only the pages written are
    # ever resident; and unlike a malloc of its size, freeing it does not
    # raise malloc's threshold for serving blocks from the heap.
    cap = (len(data) - start) // 2 + 1
    out = np.frombuffer(_scratch(8 * cap), dtype=np.float64)
    info = (ctypes.c_long * 3)()
    end = lib.parse_floats(data, len(data), start, cap, out.ctypes.data, info)
    if end < 0:
        return None
    shape = tuple(info[1:1 + info[0]])
    return out[:math.prod(shape)].reshape(shape), end
