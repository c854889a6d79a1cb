"""Slow reference readers for coefficient CSV and JSON files.

They follow the README's "File formats" section word for word and share no
code with :mod:`chebdiff2d.transform`.  For CSV the text is split into lines
by hand, each line into fields by :mod:`csv`, and the fields are matched
against ASCII regular expressions before :func:`int` and :func:`float`
convert them.  For JSON the document is parsed by :mod:`json` and every
rule is checked by a plain loop over the parsed values.
"""

import csv
import json
import math
import re

import numpy as np

#: "decimal integers ... (`+1` is allowed; `3.0` is not)"
INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
#: "a finite decimal number (`1e-3` is allowed; `nan` and `inf` are not)"
NUMBER = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?",
                    re.ASCII)


#: "The table (max_k + 1) x (max_j + 1) holds at most 2^26 entries"
MAX_ENTRIES = 2 ** 26


class Refused(Exception):
    """The file breaks the README.  ``line`` is the 1-based number of the
    offending CSV line, ``entry`` the 0-based index of the offending JSON
    entry; each is None where the fault has none (a byte that is not UTF-8,
    a JSON fault outside the entries)."""

    def __init__(self, line=None, entry=None):
        super().__init__(line, entry)
        self.line = line
        self.entry = entry


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


def _no_repeated_keys(pairs):
    """The object of ``pairs``: "a key given twice in one object is an
    error too"."""
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise Refused()
        seen[key] = value
    return seen


def _is_integer(value):
    """A JSON integer: "not `2.0` and not `true`"."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_json(data: bytes) -> np.ndarray:
    """The dense (max_k + 1) x (max_j + 1) table that the README makes of a
    JSON file's bytes, or :class:`Refused` naming the first offending entry
    (or none, for a fault outside the entries)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise Refused() from None
    try:
        doc = json.loads(text, object_pairs_hook=_no_repeated_keys)
    except ValueError:  # bad syntax
        raise Refused() from None
    # `{"max_k": ..., "max_j": ..., "entries": [[k, j, value], ...]}`
    if not isinstance(doc, dict):
        raise Refused()
    # "holds the keys `max_k`, `max_j` and `entries`, and no other key"
    if sorted(doc) != ["entries", "max_j", "max_k"]:
        raise Refused()
    max_k, max_j, entries = doc["max_k"], doc["max_j"], doc["entries"]
    # "`max_k`, `max_j` ... are JSON integers ... at least 0"
    for bound in (max_k, max_j):
        if not _is_integer(bound) or bound < 0:
            raise Refused()
    if (max_k + 1) * (max_j + 1) > MAX_ENTRIES:
        raise Refused()
    if not isinstance(entries, list):
        raise Refused()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise Refused()
    table = np.zeros((max_k + 1, max_j + 1))
    seen = set()
    for number, (k, j, value) in enumerate(entries):
        # "`k` and `j` are JSON integers"
        if not (_is_integer(k) and _is_integer(j)):
            raise Refused(entry=number)
        # "`value` is a finite JSON number (not a string such as `"3.5"`,
        # and not `true` or `null`)"
        if not (_is_integer(value) or isinstance(value, float)):
            raise Refused(entry=number)
        try:
            value = float(value)
        except OverflowError:  # "an integer value too large for a float"
            raise Refused(entry=number) from None
        if not math.isfinite(value):
            raise Refused(entry=number)
        # "at least 0, and every entry lies within the bounds"
        if not (0 <= k <= max_k and 0 <= j <= max_j):
            raise Refused(entry=number)
        # "a repeated `(k, j)` pair is an error, whatever its values"
        if (k, j) in seen:
            raise Refused(entry=number)
        seen.add((k, j))
        table[k, j] = value
    return table
