"""JSON text laid out as json.dump(..., indent=2) lays it out, written fast.

Problem and trace files use that layout. The indenting encoder is pure
Python; these helpers emit its layout but render the numbers with
json.dumps of flat lists, which takes the C encoder and emits the same
tokens (float.__repr__, NaN, Infinity), and then place them at the
indented positions. Text is yielded piece by piece, so a large document
can be streamed to a file.
"""

from __future__ import annotations

import json

import numpy as np


def json_list(items, ind, render):
    """Yield the text of the list ``items`` at indentation ``ind``.

    render(item, ind + 2) yields the text of one item; it may also render a
    run of items joined by the item separator.
    """
    if len(items) == 0:
        yield "[]"
        return
    pad = "\n" + " " * (ind + 2)
    sep = "[" + pad
    for item in items:
        yield sep
        yield from render(item, ind + 2)
        sep = "," + pad
    yield "\n" + " " * ind + "]"


def json_numbers(values: list, ind: int) -> str:
    """The text of a flat list of numbers at indentation ``ind``."""
    if not values:
        return "[]"
    pad = ",\n" + " " * (ind + 2)
    # No number token contains ", ", the C encoder's item separator.
    return "[" + pad[1:] + json.dumps(values)[1:-1].replace(", ", pad) + "\n" + " " * ind + "]"


def json_value(value, ind: int = 0):
    """Yield the text of a dict with string keys, an array of numbers, or a scalar.

    An array is written as its tolist() would be, a row at a time.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        pad = "\n" + " " * (ind + 2)
        sep = "{" + pad
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from json_value(item, ind + 2)
            sep = "," + pad
        yield "\n" + " " * ind + "}"
    elif isinstance(value, np.ndarray) and value.ndim > 1:
        yield from json_list(value, ind, json_value)
    elif isinstance(value, np.ndarray):
        yield json_numbers(value.tolist(), ind)
    else:
        yield json.dumps(value)
