"""Python's "%.16e" bytes for float64 columns, from a vectorized kernel.

`curve.write_csv` imports this module on its first call.  For a finite,
nonzero x with k = floor(log10|x|), the 17 significant digits of
"%.16e" % x are the integer nearest y = |x| * 10^(16-k).  The kernel
computes y in long double, takes D = rint(y) and looks D's digits, the
sign and the exponent with its separator up in tables of 4-byte words.
A cell whose D may not be the correctly rounded one (near a rounding tie,
or next to a power of ten where k can be off by one) is formatted by
Python's own `%`, as is every cell where long double has no 64-bit
significand, so the bytes are Python's whatever the kernel decides.  A
column whose cells share one bit pattern is formatted once.
"""
from __future__ import annotations

from functools import cache

import numpy as np

# cells per block: bounds the writer's temporaries (the slot grid, long
# double and int64 arrays) whatever the column count.  On 16001 x 16
# tables 8192 cells save 4% (every column varies) to 13% (the catenary's
# verify CSV) of the writer's time, but double its tracemalloc peak, to
# 1.6 and 0.7 MB
_CSV_BLOCK_CELLS = 4096
# exponents k = floor(log10|x|) of nonzero finite float64, and the powers
# 10^(16-k) that scale |x| to 17 integer digits
_EXP_MIN, _EXP_MAX = -324, 308
_N_EXP = _EXP_MAX - _EXP_MIN + 1
_P10_MIN = 16 - _EXP_MAX
# y_hat = |x| * 10^(16-k) in long double is within 0.0093 of the exact y:
# x is exact in long double, the table's 10^p is correctly rounded
# (relative error <= 2^-64, at most 10^17 * 2^-64 < 0.0055 on y < 10^17)
# and the product is rounded once (half an ulp, 2^-8, below 2^57).  So
# when |y_hat - rint(y_hat)| <= 0.5 - _TIE_MARGIN, y rounds to the same
# integer; cells nearer a tie are Python's
_TIE_MARGIN = 0.02
# uint32 words of a "%.16e" cell: sign, lead digit and point; four 4-digit
# chunks; the exponent and the separator in two words.  Python's widest
# cell, "-d.dddddddddddddddde-ddd", fills the first 6
_E_WORDS = 7
_SEPS = (",", "\r\n")


def _exact_kernel_available() -> bool:
    """Whether long double carries the 64-bit significand the digit kernel's
    error bound assumes (x87 extended or wider); without it every "%.16e"
    cell is formatted by Python."""
    return np.finfo(np.longdouble).nmant >= 63


@cache
def _format_tables() -> dict:
    """Lookup tables of the "%.16e" kernel, built on the first write.

    Every table is 1-D: bytes viewed as native uint32 words, so the slots
    the kernel fills read back as the same bytes.  `p10[p - _P10_MIN]` is
    10^p parsed from its decimal string, correctly rounded to long double.
    The two-word tables are split into one table per word, indexed by the
    cell's value and whether it ends its row.  Words of zero bytes are
    padding that the writer drops.
    """
    def words(*cells, width):
        return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells),
                             np.uint32).reshape(len(cells), width // 4).T.copy()

    seps = [s.encode() for s in _SEPS]
    return {
        "p10": np.array([f"1e{p}" for p in range(_P10_MIN, 16 - _EXP_MIN + 1)],
                        dtype=np.longdouble),
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


def _e_cells(x: np.ndarray, last: np.ndarray, exact: bool) -> np.ndarray:
    """The "%.16e" cells of float64 `x`, each followed by "\\r\\n" where
    `last` is 1 and by "," where it is 0, as rows of `_E_WORDS` uint32
    words with NUL padding left in.

    The 17 digits are D = rint(|x| * 10^(16-k)) computed in long double.
    Cells whose D may differ from the correctly rounded one (near a
    rounding tie, or k off by one) are formatted by Python and replace
    their slots.
    """
    tab = _format_tables()
    ax = np.abs(x)
    normal = np.isfinite(x) & (ax != 0)
    k = np.floor(np.log10(np.where(normal, ax, 1.0))).astype(np.intp)
    if exact:
        y = ax.astype(np.longdouble) * tab["p10"][16 - _P10_MIN - k]
        d = np.rint(y)
        # y - d is exact and small, so float64 holds it.  With frac <= 0.48,
        # 10^16 < D < 10^17 - 2 puts the exact y in [10^16, 10^17 - 1):
        # k was right and D did not round up to 10^17
        frac = np.abs((y - d).astype(np.float64))
        d = np.where(normal, d.astype(np.int64), 0)
        fallback = normal & ((frac > 0.5 - _TIE_MARGIN)
                             | (d <= 10 ** 16) | (d >= 10 ** 17 - 2))
    else:
        fallback = np.ones(len(x), dtype=bool)
        d = np.zeros(len(x), dtype=np.int64)
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
        cells = _python_cells("%.16e", x[idx].tolist())
        slots[idx, :-1] = 0
        slots[idx, :cells.shape[1]] = cells
        slots[idx, -1] = tab["sep"][last[idx]]
    return slots


def write_rows(fh, columns: list[np.ndarray], formats: list[str]) -> None:
    """Write the CSV rows of equal-length 1-D float64 columns to binary
    file `fh`.

    "%.16e" cells come from the digit kernel (`_e_cells`); cells it cannot
    decide exactly, about 4%, are formatted by Python itself.  A "%.16e"
    column whose cells all share one bit pattern is formatted once, into a
    grid of slots that every block reuses, so the kernel runs only on the
    columns that vary.  Other formats are Python's, once per distinct
    value of their column per block.  Rows are formatted
    `_CSV_BLOCK_CELLS` cells at a time, so memory stays bounded by the
    block.
    """
    n, cols = len(columns[0]), len(columns)
    exact = _exact_kernel_available()
    fixed, vary, other = [], [], []
    for c, column in enumerate(columns):
        bits = column.view(np.int64)
        if formats[c] != "%.16e":
            other.append(c)
        elif n and not np.any(bits != bits[0]):
            fixed.append(c)
        else:
            vary.append(c)
    step = max(1, _CSV_BLOCK_CELLS // cols)
    last = np.tile(np.equal(vary, cols - 1).astype(np.intp), step)
    # adjacent columns are a slice, which numpy assigns far faster
    into = (slice(vary[0], vary[-1] + 1)
            if vary and vary[-1] - vary[0] == len(vary) - 1 else vary)
    grid = np.zeros((step, cols, _E_WORDS), dtype=np.uint32)
    with np.errstate(all="ignore"):
        if fixed:
            grid[:, fixed] = _e_cells(np.array([columns[c][0] for c in fixed]),
                                      np.equal(fixed, cols - 1).astype(np.intp),
                                      exact)
        for start in range(0, n, step):
            rows = min(step, n - start)
            if vary:
                x = np.stack([columns[c][start:start + rows] for c in vary],
                             axis=1).ravel()
                grid[:rows, into, :_E_WORDS] = _e_cells(
                    x, last[:len(x)], exact).reshape(rows, len(vary), -1)
            for c in other:
                w = _distinct_cells(formats[c] + _SEPS[c == cols - 1],
                                    columns[c][start:start + rows])
                if w.shape[1] > grid.shape[2]:
                    # a cell wider than any before widens every slot
                    grid = np.pad(grid, ((0, 0), (0, 0),
                                         (0, w.shape[1] - grid.shape[2])))
                grid[:rows, c, :w.shape[1]] = w
                grid[:rows, c, w.shape[1]:] = 0
            # bytes.translate drops the NULs faster than a boolean mask
            fh.write(grid[:rows].tobytes().translate(None, b"\0"))
