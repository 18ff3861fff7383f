"""Python's "%.16e" bytes for float64 columns, and 0/1 for bool columns,
from a vectorized kernel.

`curve.write_csv` imports this module on its first call.  For a finite,
nonzero x with k = floor(log10|x|), the 17 significant digits of
"%.16e" % x are the integer D nearest y = |x| * 10^(16-k).  The kernel
computes y as a float64 double-double and looks D's digits, the sign and
the exponent with its separator up in tables of 4-byte words.  Cells it
cannot decide (within 1e-9 of a rounding tie, or next to a power of ten
where k can be off by one) are formatted by Python's own `%`.  A column
of one bit pattern is formatted once.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# cells per block: bounds the writer's temporaries whatever the column
# count.  8192 cells double the peak on 16001 x 16 tables (to 1.9 and 0.8
# MB under tracemalloc) and save no time beyond a shared VM's noise
_CSV_BLOCK_CELLS = 4096
# exponents k = floor(log10|x|) of nonzero finite float64, and the powers
# 10^(16-k) that scale |x| to 17 integer digits
_EXP_MIN, _EXP_MAX = -324, 308
_N_EXP = _EXP_MAX - _EXP_MIN + 1
_P10_MIN = 16 - _EXP_MAX
# Veltkamp's constant 2^27 + 1: splits a float64 into two 26-bit halves
_SPLIT = 134217729.0
# y_hi + small is within 1e-14 of y: with |x| = m 2^e, m in [1/2, 1), and
# 10^(16-k) = (ten + rest) 2^E, m ten is exact (Dekker), and rest, m rest
# and the sum of the small terms each err by at most 2^-106 times
# 2^(e+E) < 2^57.5.  Cells within _TIE_MARGIN of a tie are Python's
_TIE_MARGIN = 1e-9
# uint32 words of a "%.16e" cell: sign, lead digit and point; four 4-digit
# chunks; the exponent and the separator in two words.  Python's widest
# cell, "-d.dddddddddddddddde-ddd", fills the first 6
_E_WORDS = 7
_SEPS = (",", "\r\n")


@cache
def _format_tables() -> dict:
    """Lookup tables of the "%.16e" kernel, built on the first write.

    `p10[:, p - _P10_MIN]` is 10^p = (ten + rest) 2^E as ten in [1, 2)
    correctly rounded, its Veltkamp halves, the rest rounded and E, from
    exact integers: ten from an exact divmod rounded half to even, the rest
    by Python's int / int, which rounds correctly.  Every other table
    is 1-D: bytes viewed as native uint32 words, so the slots the kernel
    fills read back as the same bytes.  The two-word tables are split into
    one table per word, indexed by the cell's value and whether it ends its
    row.  Words of zero bytes are padding that the writer drops.
    """
    def words(*cells, width):
        return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells),
                             np.uint32).reshape(len(cells), width // 4).T.copy()

    rows = []
    q = 10 ** (1 - _P10_MIN)
    for p in range(_P10_MIN, 16 - _EXP_MIN + 1):
        # q = 10^|p|, stepped from the previous row's; 10^p 2^-e in [1, 2):
        # for p < 0, 10^-p is no power of two
        q = q // 10 if p <= 0 else q * 10
        e = q.bit_length() - 1 if p >= 0 else -q.bit_length()
        num, den = (q, 1 << e) if p >= 0 else (1 << -e, q)
        # ten = num / den rounded half to even to 53 bits, and the rest
        # num / den - ten, from one exact division
        t, r = divmod(num << 52, den)
        if 2 * r > den or (2 * r == den and t & 1):
            t, r = t + 1, r - den
        rows.append((t / 2 ** 52, r / (den << 52), e))
    ten, rest, exp = np.array(rows).T
    c = ten * _SPLIT
    ten_hi = c - (c - ten)
    seps = [s.encode() for s in _SEPS]
    return {
        "p10": np.array([ten, ten_hi, ten - ten_hi, rest, exp]),
        # the 4 ASCII digits of 0000..9999, built without 10,000 % calls
        "chunk": (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
                  + ord("0")).astype(np.uint8).view(np.uint32)[:, 0],
        # sign, lead digit and point
        "lead": words(*(b"%s%d." % (sign, d) for sign in (b"", b"-")
                        for d in range(10)), width=4)[0],
        # [k - _EXP_MIN + _N_EXP * last]: "e%+03d" and the separator
        "tail": words(*(b"e%+03d%s" % (e, sep) for sep in seps
                        for e in range(_EXP_MIN, _EXP_MAX + 1)), width=8),
        "sign": words(b"", b"-", width=4)[0],
        # [inf + 2 * last]
        "nonfinite": words(*(v + sep for sep in seps
                             for v in (b"nan", b"inf")), width=8),
        "sep": words(*seps, width=4)[0],
        # [flag + 2 * last]: a bool cell and its separator
        "flag": words(*(d + sep for sep in seps for d in (b"0", b"1")),
                      width=4)[0],
    }


def _python_cells(values) -> np.ndarray:
    """Cells formatted by Python's "%.16e" in one call, as rows of 6
    uint32 words of their NUL-padded bytes: no cell is wider than 24."""
    values = tuple(values)
    text = ("%.16e\0" * len(values) % values).split("\0")[:-1]
    return np.array(text, dtype="S24").view(np.uint32).reshape(len(values), 6)


def _e_cells(x: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The "%.16e" cells of float64 `x`, each followed by "\\r\\n" where
    `last` is 1 and by "," where it is 0, as rows of `_E_WORDS` uint32
    words with NUL padding left in.  Cells whose digits D may differ from
    the correctly rounded ones (near a rounding tie, or k off by one) are
    Python's and replace their slots.
    """
    tab = _format_tables()
    normal = np.isfinite(x) & (x != 0)
    ax = np.where(normal, np.abs(x), 1.0)
    k = np.floor(np.log10(ax)).astype(np.intp)
    ten, ten_hi, ten_lo, rest, exp = tab["p10"][:, 16 - _P10_MIN - k]
    m, e = np.frexp(ax)
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    # Dekker: prod + err is m * ten exactly
    prod = m * ten
    err = (m_hi * ten_hi - prod) + m_hi * ten_lo + m_lo * ten_hi + m_lo * ten_lo
    scale = e + exp.astype(np.int32)
    small = np.ldexp(err + m * rest, scale)
    r = np.rint(small)
    # 10^16 < D < 10^17 - 2 puts y in [10^16, 10^17 - 1), where y_hi =
    # prod 2^scale is an integer: k was right and D did not round up
    d = np.ldexp(prod, scale).astype(np.int64) + r.astype(np.int64)
    fallback = normal & ((np.abs(small - r) > 0.5 - _TIE_MARGIN)
                         | (d <= 10 ** 16) | (d >= 10 ** 17 - 2))
    # zeros print D = 0, and so do Python's cells, whose D may reach 10^17
    d[fallback | ~normal] = 0
    lead = d // 10 ** 16
    digits = d - lead * 10 ** 16
    hi = digits // 10 ** 8
    lo = digits - hi * 10 ** 8

    slots = np.empty((len(x), _E_WORDS), dtype=np.uint32)
    sign = np.signbit(x)
    slots[:, 0] = tab["lead"][10 * sign + lead]
    for j, chunk in enumerate((hi // 10 ** 4, hi % 10 ** 4,
                               lo // 10 ** 4, lo % 10 ** 4), start=1):
        slots[:, j] = tab["chunk"][chunk]
    tail = k + (_N_EXP * last - _EXP_MIN)
    slots[:, 5] = tab["tail"][0][tail]
    slots[:, 6] = tab["tail"][1][tail]
    special = np.flatnonzero(~np.isfinite(x))
    if len(special):
        inf = np.isinf(x[special])
        # Python prints every NaN unsigned
        slots[special, 0] = tab["sign"][(sign[special] & inf).astype(np.intp)]
        slots[special, 1:5] = 0
        nonfinite = inf + 2 * last[special]
        slots[special, 5] = tab["nonfinite"][0][nonfinite]
        slots[special, 6] = tab["nonfinite"][1][nonfinite]
    idx = np.flatnonzero(fallback)
    if len(idx):
        slots[idx, :-1] = _python_cells(x[idx].tolist())
        slots[idx, -1] = tab["sep"][last[idx]]
    return slots


def write_rows(fh, columns: list[np.ndarray]) -> None:
    """Write the CSV rows of equal-length 1-D float64 and bool columns to
    binary file `fh`.

    Float cells are "%.16e" from the digit kernel (`_e_cells`); the few it
    cannot decide are formatted by Python itself.  A float column whose
    cells all share one bit pattern is formatted once, into a grid of
    slots that every block reuses, so the kernel runs only on the columns
    that vary.  A bool cell is one word of a 4-word table.  Rows are
    formatted `_CSV_BLOCK_CELLS` cells at a time, so memory stays bounded
    by the block.
    """
    n, cols = len(columns[0]), len(columns)
    fixed, vary, flags = [], [], []
    for c, column in enumerate(columns):
        if column.dtype == bool:
            flags.append(c)
            continue
        bits = column.view(np.int64)
        if n and not np.any(bits != bits[0]):
            fixed.append(c)
        else:
            vary.append(c)
    step = max(1, _CSV_BLOCK_CELLS // cols)
    last = np.tile(np.equal(vary, cols - 1).astype(np.intp), step)
    # adjacent columns are a slice, which numpy assigns far faster
    into = (slice(vary[0], vary[-1] + 1)
            if vary and vary[-1] - vary[0] == len(vary) - 1 else vary)
    grid = np.zeros((step, cols, _E_WORDS), dtype=np.uint32)
    flag = _format_tables()["flag"]
    with np.errstate(all="ignore"):
        if fixed:
            grid[:, fixed] = _e_cells(np.array([columns[c][0] for c in fixed]),
                                      np.equal(fixed, cols - 1).astype(np.intp))
        for start in range(0, n, step):
            rows = min(step, n - start)
            if vary:
                x = np.stack([columns[c][start:start + rows] for c in vary],
                             axis=1).ravel()
                grid[:rows, into] = _e_cells(
                    x, last[:len(x)]).reshape(rows, len(vary), -1)
            for c in flags:
                grid[:rows, c, 0] = flag[columns[c][start:start + rows]
                                         + 2 * (c == cols - 1)]
            # bytes.translate drops the NULs faster than a boolean mask
            fh.write(grid[:rows].tobytes().translate(None, b"\0"))
