"""Numbers spelled as Python spells them, and JSON text laid out as
json.dump(..., indent=2) lays it out, written fast.

render() spells a block of floats, joined by a separator, as json.dumps
spells a float (float.__repr__, with NaN, Infinity and -Infinity) or as
'%.17g' % v does. It takes ``render_floats`` of the compiled library
(_qsweep.c, loaded on first use) when there is one: that renders a finite,
normal float with 1e-15 <= |v| < 1e17, and zero, by exact integer
arithmetic, and declines every other value (non-finite, subnormal or out
of range) and an exact tie between two shortest repr candidates; Python
then spells each declined value in its place. Without the library Python
spells them all. The bytes are the same either way.

Problem, trace and report files use the indent=2 layout. The indenting
encoder is pure Python; these helpers emit its layout, render each array
of floats with render() and place the numbers at the indented positions.
Text is yielded piece by piece, so a large document can be streamed to a
file.
"""

from __future__ import annotations

import ctypes
import json
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str

import numpy as np

# The most bytes render_floats writes for one value: a sign, 17 digits,
# a point and a 4-character exponent, or "-0.000" and 17 digits.
_WIDTH = 24


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


def render(values, spelling: str, sep: str) -> str:
    """The floats ``values`` joined by ``sep``, each spelled as json.dumps
    spells a float (spelling "json") or as '%.17g' % v does (spelling "%.17g").

    ``sep`` is ASCII. The values are taken as float64, in C order.
    """
    from . import _qsweep  # imported, and built, only when numbers are written

    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    spell = _SPELL[spelling]
    lib = _qsweep.load()
    if lib is None:
        if spelling == "json":
            return _json_join(v.tolist(), sep)
        return sep.join(map(spell, v.tolist()))
    n = len(v)
    raw = sep.encode("ascii")
    out = ctypes.create_string_buffer(n * (_WIDTH + len(raw)))
    holes = (ctypes.c_long * (2 * n + 1))()
    # A bytes copy of the values is cheaper to pass than v.ctypes.data.
    size = lib.render_floats(n, v.tobytes(), spelling == "json", raw, len(raw), out, holes)
    text = ctypes.string_at(out, size).decode("ascii")
    if holes[0] == 0:
        return text
    # Python spells each declined value at the offset where it belongs.
    index, at = np.ctypeslib.as_array(holes)[1:1 + 2 * holes[0]].reshape(-1, 2).T
    parts, start = [], 0
    for offset, value in zip(at.tolist(), v[index].tolist()):
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


def json_value(value, ind: int = 0):
    """Yield the text of a dict with string keys, a list, an array of
    numbers, or a scalar.

    An array is written as its tolist() would be, a row at a time.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        pad = "\n" + " " * (ind + 2)
        sep = "{" + pad
        for key, item in value.items():
            if isinstance(item, (dict, list, np.ndarray)):
                yield sep + _json_str(key) + ": "
                yield from json_value(item, ind + 2)
            else:
                yield sep + _json_str(key) + ": " + _json_scalar(item)
            sep = "," + pad
        yield "\n" + " " * ind + "}"
    elif isinstance(value, list) or isinstance(value, np.ndarray) and value.ndim > 1:
        yield from json_list(value, ind, json_value)
    elif isinstance(value, np.ndarray):
        yield json_numbers(value, ind)
    else:
        yield _json_scalar(value)
