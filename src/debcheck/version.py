"""Debian package version ordering.

Implements the dpkg comparison algorithm: an optional numeric epoch
(before ``:``), an upstream part, and an optional revision (after the
last ``-``).  Within a part, runs of non-digits are compared by a
modified ASCII order (letters before punctuation, ``~`` before
everything including the end of the string) and runs of digits are
compared numerically.
"""

from __future__ import annotations

import enum
from functools import cmp_to_key

RELATION_TOKENS = ("<<", "<=", "=", ">=", ">>")


class VersionOrdering(enum.Enum):
    """Outcome of comparing two version strings."""

    LT = -1
    EQ = 0
    GT = 1


def _char_order(c: str) -> int:
    # '~' sorts before end-of-string and digits (both order 0, as in
    # dpkg); letters before punctuation.  As in dpkg, only ASCII
    # characters are digits or letters.  `version_cmp` hands non-ASCII
    # text over as its UTF-8 bytes, one character each (U+0080 to
    # U+00FF); dpkg reads such a byte as a negative signed char and ranks
    # it by its value, between letters and punctuation.
    if c == "~":
        return -1
    if "0" <= c <= "9":
        return 0
    if c.isalpha() or c >= "\x80":
        return ord(c)
    return ord(c) + 256


def _part_cmp(a: str, b: str) -> int:
    """Compare one upstream/revision part (the digit/non-digit run walk)."""
    ia = ib = 0
    la, lb = len(a), len(b)
    while ia < la or ib < lb:
        while (ia < la and not "0" <= a[ia] <= "9") or (ib < lb and not "0" <= b[ib] <= "9"):
            oa = _char_order(a[ia]) if ia < la else 0
            ob = _char_order(b[ib]) if ib < lb else 0
            if oa != ob:
                return -1 if oa < ob else 1
            ia += 1
            ib += 1
        while ia < la and a[ia] == "0":
            ia += 1
        while ib < lb and b[ib] == "0":
            ib += 1
        first_diff = 0
        while ia < la and ib < lb and "0" <= a[ia] <= "9" and "0" <= b[ib] <= "9":
            if first_diff == 0:
                first_diff = ord(a[ia]) - ord(b[ib])
            ia += 1
            ib += 1
        if ia < la and "0" <= a[ia] <= "9":
            return 1
        if ib < lb and "0" <= b[ib] <= "9":
            return -1
        if first_diff:
            return -1 if first_diff < 0 else 1
    return 0


def _split(v: str) -> tuple[str, str, str]:
    """Split into (epoch, upstream, revision).

    A leading run of ASCII digits before ``:`` is the epoch, returned
    without its leading zeros (``""`` for none), so that two epochs
    compare by length and then by text, with no `int()` to reject huge
    ones.  Anything else containing ``:`` is kept as upstream text
    (ill-formed epochs get an ordering rather than an error).  The
    revision is everything after the last ``-``; a missing revision
    compares equal to ``0``.
    """
    epoch = ""
    rest = v
    head, sep, tail = v.partition(":")
    if sep and head.isascii() and head.isdigit():
        epoch = head.lstrip("0")
        rest = tail
    upstream, sep, revision = rest.rpartition("-")
    if not sep:
        upstream, revision = rest, ""
    return epoch, upstream, revision


def version_cmp(v1: str, v2: str) -> int:
    """Three-way Debian version comparison (-1, 0, or 1)."""
    if not v1 or not v2:
        raise ValueError("version strings must be non-empty")
    if v1 == v2:
        return 0
    if not (v1.isascii() and v2.isascii()):
        # dpkg compares bytes: one character per byte of the UTF-8 text
        v1 = v1.encode("utf-8", "surrogatepass").decode("latin-1")
        v2 = v2.encode("utf-8", "surrogatepass").decode("latin-1")
    e1, u1, r1 = _split(v1)
    e2, u2, r2 = _split(v2)
    if e1 != e2:
        return -1 if (len(e1), e1) < (len(e2), e2) else 1
    c = _part_cmp(u1, u2)
    if c:
        return c
    return _part_cmp(r1, r2)


def compare_versions(v1: str, v2: str) -> VersionOrdering:
    """Compare two Debian version strings, yielding a total order."""
    return VersionOrdering(version_cmp(v1, v2))


def satisfies(version: str, relation: str, reference: str) -> bool:
    """True if `version` satisfies `relation reference` (e.g. ">=", "2.0")."""
    c = version_cmp(version, reference)
    if relation == "<<":
        return c < 0
    if relation == "<=":
        return c <= 0
    if relation == "=":
        return c == 0
    if relation == ">=":
        return c >= 0
    if relation == ">>":
        return c > 0
    raise ValueError(f"unknown relation {relation!r}")


#: sort() key for ascending Debian version order.
version_sort_key = cmp_to_key(version_cmp)
