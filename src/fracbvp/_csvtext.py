"""CSV rows of floats, each number written as ``format(x, ".15g")`` writes it.

The text is computed in numpy with exact rounding, and it is byte for byte
what a per-value ``"%.15g" % x`` writer gives.  For 1e-8 <= |x| < 1e15, the
15 significant digits are D = round-half-even(|x| * 10^(14-E)), where E is
the decimal exponent of |x|.  10^(14-E) is an exact double because
0 <= 14-E <= 22.  Dekker's two-product (Numer. Math. 18, 1971) writes
|x| * 10^(14-E) as p + e with no rounding, so D follows from the fraction
of p and the sign of e.  E is the largest k with ``_POW10_E``'s 1e{k} <= |x|.
The table is exact for k >= 0, and no double lies strictly between 10^k and
its double, so only the doubles 1e-7 and 1e-6, which lie below 10^k, get E
one high; they round to D = 10^14, as ``%.15g`` prints them after its carry.
Zeros are written directly.  Every other value (|x| < 1e-8 or >= 1e15,
subnormals, inf, nan) is formatted on its own by ``"%.15g" % x``.

Every value gets a record of ``_WIDTH`` slots: the sign, the "0." and
zeros in front of a small number, each digit of D followed by a point,
the exponent characters and the separator.  What a value shows depends
only on its shape: the sign, E (which also picks fixed or exponent form)
and the number of significant digits.  A block's records are one gather
from ``_TEMPLATES``, one record per shape with NUL in the slots it hides,
masked with the digits; the NULs are dropped when the block is joined.
Blocks of ``_BLOCK_ROWS`` rows keep the work arrays small.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 2048
_LOW, _HIGH = 1e-8, 1e15  # the range whose digits are computed here
_MIN_EXP, _MAX_EXP = -8, 15  # its decimal exponents, after rounding

# The record's slots, in order: the sign, "0." and three zeros, the 15
# digits each followed by a point, then "e", both exponent signs, tens
# digits 0 and 1, units digits 5 to 8 (exponent form is used only for
# E = -8..-5 and 15), and the separator.
_RECORD = b"-0.000" + b"d." * 15 + b"e-+015678,"
_WIDTH = len(_RECORD)
_DIGITS = slice(6, 36)
_SEP = _WIDTH - 1


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Tables over the 4-digit groups g = 0..9999, from numpy arithmetic.

    The first is g's digits, each followed by a point, as 8 ASCII bytes in
    one uint64.  The second has a row for each of the four places a group
    takes in D (the first holds 3 digits): the count of D's digits up to
    the last nonzero one in g, or 0 when g is 0.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: g's digits
    text = np.empty((10_000, 8), np.uint8)
    text[:, 0::2] = digits + ord("0")
    text[:, 1::2] = ord(".")
    significant = np.max((digits > 0) * np.arange(1, 5, dtype=np.int8), axis=1)
    counts = np.where(significant > 0, np.arange(-1, 12, 4, dtype=np.int8)[:, None] + significant, 0)
    return text.view(np.uint64).ravel(), counts


_GROUPS, _SIGNIFICANT = _group_tables()


def _shape_templates() -> np.ndarray:
    """(shapes, _WIDTH) uint8: each shape's record, 0 in the slots it hides.

    A shape is ((sign * 24) + E + 8) * 16 + significant digits.  Digit and
    point slots hold 0xFF where shown, to be masked with the digits.
    """
    grid = np.ogrid[0:2, _MIN_EXP : _MAX_EXP + 1, 0:16]
    sign, exp, nd = (np.broadcast_to(a, (2, 24, 16))[..., None] for a in grid)
    k = np.arange(15)
    sci = (exp < -4) | (exp > 14)
    small = ~sci & (exp < 0)
    # fixed form with E >= 0 shows the E + 1 integer digits even when zero
    digits = k < np.where(sci | small, nd, np.maximum(nd, exp + 1))
    point_after = np.where(sci, 0, exp)
    points = (k == point_after) & (nd > point_after + 1) & ~small
    units = np.abs(exp) % 10
    shown = np.concatenate(
        [sign == 1, small, small]
        + [small & (-exp - 1 > z) for z in range(3)]
        + [np.stack([digits, points], axis=-1).reshape(2, 24, 16, 30)]
        + [sci, sci & (exp < 0), sci & (exp > 0), sci & (np.abs(exp) < 10), sci & (np.abs(exp) >= 10)]
        + [sci & (units == u) for u in (5, 6, 7, 8)]
        + [np.ones_like(sci)],
        axis=-1,
    ).reshape(-1, _WIDTH)
    chars = np.frombuffer(_RECORD, np.uint8).copy()
    chars[_DIGITS] = 0xFF
    return np.where(shown, chars, 0).astype(np.uint8)


_TEMPLATES = _shape_templates()


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: x = hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


_POW10 = 10.0 ** np.arange(23)  # exact: each power of ten up to 10^22 is a double
_POW10_HI, _POW10_LO = _split(_POW10)
_POW10_E = np.array([float(f"1e{k}") for k in range(_MIN_EXP, 15)])  # the doubles nearest 10^k


def _round_digits(a: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10^(14 - exp)), exactly, as an integral float."""
    k = 14 - exp
    p = a * _POW10[k]
    ah, al = _split(a)
    sh, sl = _POW10_HI[k], _POW10_LO[k]
    e = ((ah * sh - p) + ah * sl + al * sh) + al * sl  # a * 10^k == p + e exactly
    whole = np.floor(p)
    # p - whole - 0.5 is exact and, when not zero, larger than |e|, so this
    # sum has the sign of a * 10^k - whole - 0.5; rint then rounds
    # whole + 0.75 up, whole + 0.25 down and a tie to even
    return np.rint(whole + (0.5 + 0.25 * np.sign((p - whole - 0.5) + e)))


def _records(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """(len(x), _WIDTH) records: each value's text and its byte of ``sep``,
    with NULs in the slots it does not show."""
    a = np.abs(x)
    exact = (a >= _LOW) & (a < _HIGH)
    a = np.where(exact, a, 1.0)
    exp = np.searchsorted(_POW10_E, a, side="right") - 1 + _MIN_EXP
    digits = _round_digits(a, exp)
    exact &= (digits >= 1e14) & (digits <= 1e15)  # else written per value below
    carry = digits == 1e15  # rounded up to the next power of ten
    digits[carry] = 1e14
    exp += carry
    # a zero shows D = 0 as "0"; values outside the range are written over
    digits[~exact] = 0.0
    exp[~exact] = 0

    # D's 4-digit groups.  Each floor is exact: a quotient that is not
    # whole is at least 10^-8 from one, and D <= 10^15 keeps its rounding
    # error below 10^-9.
    hi = np.floor(digits / 1e8)
    lo = digits - 1e8 * hi
    groups = np.empty((len(x), 4), np.intp)
    groups[:, 0] = hi_hi = np.floor(hi / 1e4)
    groups[:, 1] = hi - 1e4 * hi_hi
    groups[:, 2] = lo_hi = np.floor(lo / 1e4)
    groups[:, 3] = lo - 1e4 * lo_hi
    nd = np.maximum.reduce([table[g] for table, g in zip(_SIGNIFICANT, groups.T)])
    shape = (np.signbit(x) * 24 + exp - _MIN_EXP) * 16 + nd
    records = np.take(_TEMPLATES, shape, axis=0)
    # [2:] drops the first group's leading zero (it holds 3 digits) and its point
    records[:, _DIGITS] &= np.take(_GROUPS, groups).view(np.uint8)[:, 2:]
    records[:, _SEP] = sep
    for i in np.flatnonzero(~exact & (x != 0.0)):
        records[i] = _per_value_record(x[i], sep[i])
    return records


def _per_value_record(x: float, sep: int) -> np.ndarray:
    """The record of a value outside the exact range, by ``"%.15g"``."""
    text = b"%.15g%c" % (x, int(sep))
    return np.frombuffer(text.ljust(_WIDTH, b"\0"), np.uint8)


def csv_rows(table: np.ndarray) -> str:
    """Rows of ``table`` (2-D, float) as CSV lines: values split by commas,
    each line ended by a newline, each value as ``format(x, ".15g")``."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    sep = np.tile(np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8), _BLOCK_ROWS)
    chunks = []
    for start in range(0, rows, _BLOCK_ROWS):
        values = table[start : start + _BLOCK_ROWS].ravel()
        chunks.append(_records(values, sep[: len(values)]).tobytes().translate(None, b"\0"))
    return b"".join(chunks).decode("ascii")
