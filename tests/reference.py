"""A slow reference reader for coefficient CSV files.

It follows the README's "File formats" section word for word and shares no
code with :mod:`chebdiff2d.transform`: the text is split into lines by hand,
each line into fields by :mod:`csv`, and the fields are matched against
ASCII regular expressions before :func:`int` and :func:`float` convert them.
"""

import csv
import math
import re

import numpy as np

#: "decimal integers ... (`+1` is allowed; `3.0` is not)"
INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
#: "a finite decimal number (`1e-3` is allowed; `nan` and `inf` are not)"
NUMBER = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?",
                    re.ASCII)


class Refused(Exception):
    """The file breaks the README; ``line`` is its 1-based line number, or
    None for a byte that is not UTF-8."""

    def __init__(self, line):
        super().__init__(line)
        self.line = line


def _fields(line):
    """The fields of one line: split by the csv module, quotes removed, then
    stripped of (Unicode) white space."""
    return [field.strip() for field in next(csv.reader([line]), [])]


def read_csv(data: bytes) -> np.ndarray:
    """The dense (max_k + 1) x (max_j + 1) table that the README makes of a
    CSV file's bytes, or :class:`Refused` naming the first offending line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise Refused(None) from None
    # "Line endings may be LF or CRLF."
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if text.endswith("\n"):
        lines.pop()
    entries = {}
    for number, line in enumerate(lines, start=1):
        if number == 1:
            # "the first line is the header `k,j,coeff`"
            if _fields(line) != ["k", "j", "coeff"]:
                raise Refused(number)
            continue
        if not line.strip():  # "blank (empty or only whitespace, skipped)"
            continue
        fields = _fields(line)
        if len(fields) != 3:  # "exactly three comma-separated fields"
            raise Refused(number)
        k, j, value = fields
        if not (INTEGER.fullmatch(k) and INTEGER.fullmatch(j)
                and NUMBER.fullmatch(value)):
            raise Refused(number)
        k, j, value = int(k), int(j), float(value)
        if k < 0 or j < 0 or not math.isfinite(value):
            raise Refused(number)
        if (k, j) in entries:  # "a repeated (k, j) pair is an error"
            raise Refused(number)
        entries[k, j] = value
    # "Bounds are the largest indices present"; a file holding only the
    # header, or nothing, is the zero grid
    rows = 1 + max((k for k, _ in entries), default=0)
    cols = 1 + max((j for _, j in entries), default=0)
    table = np.zeros((rows, cols))
    for (k, j), value in entries.items():
        table[k, j] = value
    return table
