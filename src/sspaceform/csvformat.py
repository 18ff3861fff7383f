"""Python's "%.16e" bytes for float64 arrays, from a vectorized kernel.

`curve.write_csv` imports this module on its first call.  For a finite,
nonzero x with k = floor(log10|x|), the 17 significant digits of
"%.16e" % x are the integer nearest y = |x| * 10^(16-k).  The kernel
computes y in long double, takes D = rint(y) and looks D's digits, the
sign and the exponent up in tables of 4-byte words.  A cell whose D may
not be the correctly rounded one (near a rounding tie, or next to a power
of ten where k can be off by one) is formatted by Python's own `%`, as is
every cell where long double has no 64-bit significand, so the bytes are
Python's whatever the kernel decides.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# cells formatted per block: bounds the writer's temporaries (slots, long
# double and int64 arrays; a tracemalloc peak under 1 MB) whatever the
# column count.  8192 cells save 5% of the writer's time but cost a cold
# `verify --csv` about 0.5 MB more peak RSS.
_CSV_BLOCK_CELLS = 4096
# exponents k = floor(log10|x|) of nonzero finite float64, and the powers
# 10^(16-k) that scale |x| to 17 integer digits
_EXP_MIN, _EXP_MAX = -324, 308
_P10_MIN = 16 - _EXP_MAX
# y_hat = |x| * 10^(16-k) in long double is within 0.0093 of the exact y:
# x is exact in long double, the table's 10^p is correctly rounded
# (relative error <= 2^-64, at most 10^17 * 2^-64 < 0.0055 on y < 10^17)
# and the product is rounded once (half an ulp, 2^-8, below 2^57).  So
# when |y_hat - rint(y_hat)| <= 0.5 - _TIE_MARGIN, y rounds to the same
# integer; cells nearer a tie are Python's
_TIE_MARGIN = 0.02


def _exact_kernel_available() -> bool:
    """Whether long double carries the 64-bit significand the digit kernel's
    error bound assumes (x87 extended or wider); without it every "%.16e"
    cell is formatted by Python."""
    return np.finfo(np.longdouble).nmant >= 63


@cache
def _format_tables() -> dict:
    """Lookup tables of the "%.16e" kernel, built on the first write.

    Every table is bytes viewed as native uint32 words, so the slots the
    kernel fills read back as the same bytes.  `p10[p - _P10_MIN]` is 10^p
    parsed from its decimal string, correctly rounded to long double.
    Words of zero bytes are padding that the writer drops.
    """
    def words(*cells, width):
        return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells),
                             np.uint32).reshape(len(cells), width // 4)

    exps = range(_EXP_MIN, _EXP_MAX + 1)
    return {
        "p10": np.array([f"1e{p}" for p in range(_P10_MIN, 16 - _EXP_MIN + 1)],
                        dtype=np.longdouble),
        # the 4 ASCII digits of 0000..9999, built without 10,000 % calls
        "chunk": (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
                  + ord("0")).astype(np.uint8).view(np.uint32)[:, 0],
        # sign, lead digit and point
        "lead": words(*(b"%s%d." % (sign, d) for sign in (b"", b"-")
                        for d in range(10)), width=4)[:, 0],
        "tail": words(*(b"e%+03d" % e for e in exps), width=8),
        "sign": words(b"", b"-", width=4)[:, 0],
        "nonfinite": words(b"nan", b"inf", width=8),
        "sep": words(b",", b"\r\n", width=4)[:, 0],
    }


def _python_cells(fmt: str, values) -> np.ndarray:
    """Cells formatted by Python's % in one call, as rows of uint32 words
    of their NUL-padded bytes."""
    values = tuple(values)
    text = ((fmt + "\0") * len(values) % values).split("\0")[:-1]
    width = 4 * -(-max(map(len, text)) // 4)
    return np.array(text, dtype=f"S{width}").view(np.uint32).reshape(
        len(values), -1)


def _distinct_cells(fmt: str, column: np.ndarray) -> np.ndarray:
    """`_python_cells` of a column, formatting each distinct bit pattern
    once (the ode writer's 0/1 domain flags are two)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return _python_cells(fmt, bits.view(np.float64).tolist())[inverse]


def _format_block(block: np.ndarray, formats: list[str],
                  exact: bool) -> np.ndarray:
    """The CSV bytes of a block of rows, as uint8 with NUL padding left in.

    Each cell gets a slot of uint32 words: sign, lead digit and point; four
    4-digit chunks; the exponent (or nan/inf); and its separator in the last
    word.  The 17 digits are D = rint(|x| * 10^(16-k)) computed in long
    double.  Cells whose D may differ from the correctly rounded one (near
    a rounding tie, or k off by one) and columns of other formats are
    formatted by Python and replace their slots.
    """
    tab = _format_tables()
    rows, cols = block.shape
    x = block.ravel()
    ax = np.abs(x)
    normal = np.isfinite(x) & (ax != 0)
    k = np.floor(np.log10(np.where(normal, ax, 1.0))).astype(np.int64)
    e_cell = np.tile([f == "%.16e" for f in formats], rows)
    if exact:
        y = ax.astype(np.longdouble) * tab["p10"][16 - k - _P10_MIN]
        d = np.rint(y)
        # y - d is exact and small, so float64 holds it.  With frac <= 0.48,
        # 10^16 < D < 10^17 - 2 puts the exact y in [10^16, 10^17 - 1):
        # k was right and D did not round up to 10^17
        frac = np.abs((y - d).astype(np.float64))
        d = np.where(normal, d.astype(np.int64), 0)
        fallback = e_cell & normal & ((frac > 0.5 - _TIE_MARGIN)
                                      | (d <= 10 ** 16) | (d >= 10 ** 17 - 2))
    else:
        fallback = e_cell
        d = np.zeros(len(x), dtype=np.int64)
    lead = d // 10 ** 16
    digits = d - lead * 10 ** 16
    hi = digits // 10 ** 8
    lo = digits - hi * 10 ** 8

    other = {c: _distinct_cells(formats[c], block[:, c])
             for c in range(cols) if formats[c] != "%.16e"}
    n_words = max([8] + [w.shape[1] + 1 for w in other.values()])
    slots = np.zeros((rows * cols, n_words), dtype=np.uint32)
    sign = np.signbit(x)
    slots[:, 0] = tab["lead"][10 * sign + lead]
    for j, chunk in enumerate((hi // 10 ** 4, hi % 10 ** 4,
                               lo // 10 ** 4, lo % 10 ** 4), start=1):
        slots[:, j] = tab["chunk"][chunk]
    slots[:, 5:7] = tab["tail"][k - _EXP_MIN]
    special = np.flatnonzero(~np.isfinite(x))
    if len(special):
        inf = np.isinf(x[special])
        # Python prints every NaN unsigned
        slots[special, 0] = tab["sign"][(sign[special] & inf).astype(np.intp)]
        slots[special, 1:5] = 0
        slots[special, 5:7] = tab["nonfinite"][inf.astype(np.intp)]
    idx = np.flatnonzero(fallback)
    if len(idx):
        cells = _python_cells("%.16e", x[idx].tolist())
        slots[idx, :-1] = 0
        slots[idx, :cells.shape[1]] = cells
    grid = slots.reshape(rows, cols, n_words)
    for c, w in other.items():
        grid[:, c, :-1] = 0
        grid[:, c, :w.shape[1]] = w
    grid[:, :-1, -1] = tab["sep"][0]
    grid[:, -1, -1] = tab["sep"][1]
    return slots.view(np.uint8).ravel()


def write_rows(fh, data: np.ndarray, formats: list[str]) -> None:
    """Write the CSV rows of a 2-D float array to binary file `fh`.

    "%.16e" cells come from the digit kernel (`_format_block`): cells it
    cannot decide exactly, about 4%, are formatted by Python itself.  Other
    formats are Python's, once per distinct value of their column.  Rows
    are formatted `_CSV_BLOCK_CELLS` cells at a time, so memory stays
    bounded by the block.
    """
    step = max(1, _CSV_BLOCK_CELLS // data.shape[1])
    exact = _exact_kernel_available()
    with np.errstate(all="ignore"):
        for start in range(0, len(data), step):
            out = _format_block(data[start:start + step], formats, exact)
            fh.write(out[out != 0])
