"""Unit-speed curves in R^(2m+s)(-3s) and their Frenet apparatus.

A curve is carried as a `CurveTrace`: a strictly increasing arclength grid,
positions, and coordinate derivatives gamma', gamma'', ... to some depth.
The covariant chain T, nabla_T T, nabla_T^2 T, ... is computed exactly from
those derivatives (no Christoffel sampling): in orthonormal-frame components

    nabla_T W = dW/dt + Phi(T, W)

with Phi bilinear and constant-coefficient, so the time derivatives of every
chain level follow from the Leibniz rule.  Derivative depth d supports the
chain up to nabla_T^(d-1) T, i.e. Frenet order up to d.
"""
from __future__ import annotations

import warnings
from itertools import islice
from math import comb
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .manifold import ModelParams, component_sum, connection_term, coords_to_frame

__all__ = [
    "CurveTrace",
    "FrenetData",
    "read_csv",
    "write_csv",
    "fd_derivative",
    "grid_samples",
    "uniform_step",
    "unit_speed_check",
    "covariant_chain",
    "frenet_apparatus",
]


# ---------------------------------------------------------------------------
# finite differences on a uniform grid (4th order, one-sided at the ends)
# ---------------------------------------------------------------------------

# 4th-order one-sided first-derivative stencils on 5 points, offset =
# position of the evaluation node within the stencil
_FD5 = {
    0: np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    4: np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 12.0,
}


def fd_derivative(arr: np.ndarray, h: float, stride: int = 1) -> np.ndarray:
    """d/dt along axis 0: 4th-order central stencil, one-sided at the ends.

    stride > 1 evaluates the stencil on every stride-th sample (effective
    step stride*h).  Chained differencing of deep derivatives on fine grids
    otherwise hits the roundoff floor eps/h^k; a wider effective step trades
    a little truncation error for orders of magnitude less noise.
    """
    arr = np.asarray(arr, dtype=float)
    q = int(stride)
    if q < 1:
        raise ValueError("stride must be >= 1")
    if len(arr) <= 4 * q:
        raise ValueError("need more than 4*stride samples for differencing")
    H = q * h
    out = np.empty_like(arr)
    out[2 * q:-2 * q] = (arr[:-4 * q] - 8 * arr[q:-3 * q]
                         + 8 * arr[3 * q:-q] - arr[4 * q:]) / (12 * H)
    n = len(arr)
    for i in range(2 * q):
        out[i] = np.tensordot(_FD5[0], arr[i:i + 4 * q + 1:q], axes=(0, 0)) / H
        out[n - 1 - i] = np.tensordot(
            _FD5[4], arr[n - 1 - i - 4 * q:n - i:q], axes=(0, 0)) / H
    return out


def _chained_derivatives(arr, h: float, count: int, stride: int = 1) -> list:
    """[arr, arr', ..., arr^(count)] by chained `fd_derivative`."""
    out = [arr]
    for _ in range(count):
        out.append(fd_derivative(out[-1], h, stride=stride))
    return out


# verify peaks near 0.87 kB of resident memory per sample, 0.87 GB at the cap
MAX_SAMPLES = 1_000_000


def grid_samples(span: float, step: float) -> int:
    """Samples of a grid of `step` over `span`, both ends included;
    ValueError above MAX_SAMPLES (or for a nan), before any allocation."""
    if not span / step < MAX_SAMPLES - 0.5:
        raise ValueError(f"step {step:g} over a span of {span:g} asks for more "
                         f"than the {MAX_SAMPLES} samples a grid may have")
    return int(round(span / step)) + 1


# two grid steps h, h' are equal when |h - h'| <= STEP_TOL max(1, |h|)
STEP_TOL = 1e-9


def uniform_step(ts: np.ndarray, who: str) -> float:
    """The step of a uniform grid, its first difference exactly; ValueError
    naming `who` if the grid is not uniform or has fewer than two samples."""
    if len(ts) < 2:
        raise ValueError(f"{who} requires at least two grid samples")
    steps = np.diff(ts)
    if np.max(np.abs(steps - steps[0])) > STEP_TOL * max(1.0, abs(steps[0])):
        raise ValueError(f"{who} requires a uniform grid")
    return steps[0]


# ---------------------------------------------------------------------------
# CSV input and output
# ---------------------------------------------------------------------------

def read_csv(path, ncols: int, what: str) -> np.ndarray:
    """The first `ncols` columns of a CSV file's data rows, of shape (rows,
    ncols); ValueError naming `what` for a header of fewer fields or more
    than MAX_SAMPLES rows.  No line past the cap is parsed (`max_rows`
    would reserve the cap's whole table), but one that holds more than
    blanks refuses the file.  A table without rows comes back empty, with
    no warning: each caller refuses it.
    """
    with open(path) as fh, warnings.catch_warnings():
        header = fh.readline().rstrip("\r\n").split(",")
        if len(header) < ncols:
            raise ValueError(f"{what} needs {ncols} columns, got {len(header)}")
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(islice(fh, MAX_SAMPLES + 1), delimiter=",",
                          usecols=range(ncols), ndmin=2)
        if len(data) > MAX_SAMPLES or any(map(str.strip, fh)):
            raise ValueError(f"{what} has more than the {MAX_SAMPLES} "
                             "samples a table may have")
    return data


def write_csv(path, header, columns) -> None:
    """Write a header row and the rows of equal-length 1-D columns as CSV.

    A bool column is printed 0 or 1 and every other column, as float64,
    with "%.16e".  The text equals csv.writer rows of f"{v:.16e}" strings,
    nan, inf and -0.0 included, and of int(flag), with the same "\\r\\n"
    line endings.  The rows come from `csvformat.write_rows`, a vectorized
    kernel whose "%.16e" cells are Python's bytes for every float64.
    """
    # imported here, so that a cold `import sspaceform.cli` does not
    # compile the kernel
    from .csvformat import write_rows

    columns = [np.asarray(c) for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        write_rows(fh, [c if c.dtype == bool else c.astype(float, copy=False)
                        for c in columns])


# ---------------------------------------------------------------------------
# trace container
# ---------------------------------------------------------------------------

@dataclass
class CurveTrace:
    """Sampled unit-speed curve with coordinate derivatives.

    derivs[k] holds gamma^(k+1) on the grid, so derivs[0] is the velocity.
    The grid must be uniform, as every 4th-order stencil downstream
    assumes: `step` is derived once from ts with `uniform_step` when the
    trace is built, and a non-uniform grid or one with fewer than two
    samples raises ValueError.  The deep derivatives come from one of two
    builders: `from_velocity` differences an exact velocity with a stride
    it picks and records in `fd_stride`, and `from_positions` differences
    sampled positions with stride 1.  `interior` is the residual edge band
    that the stride sets.  `sampled` marks traces whose derivatives were
    all differenced from positions; they get the looser unit-speed
    tolerance of `frenet_apparatus`, and the looser slant tolerance of
    `contact_angles` when its caller passes none (`verify` passes its
    profile's).  A non-finite value raises FloatingPointError naming its
    row.
    """

    params: ModelParams
    ts: np.ndarray
    points: np.ndarray
    derivs: list[np.ndarray]
    sampled: bool = False
    fd_stride: int = 1
    _step: float = field(init=False, repr=False)
    _tangent: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape != (len(self.ts), self.params.dim):
            raise ValueError("points must have shape (n, 2m+s)")
        self.derivs = [np.asarray(d, dtype=float) for d in self.derivs]
        for d in self.derivs:
            if d.shape != self.points.shape:
                raise ValueError("every derivative array must match points' shape")
        if not self.derivs:
            raise ValueError("at least the velocity gamma' is required")
        columns = [("t", self.ts), ("points", self.points)] + [
            (f"gamma^({k + 1})", d) for k, d in enumerate(self.derivs)]
        for name, arr in columns:
            bad = np.flatnonzero(~np.isfinite(arr.reshape(self.n, -1)).all(axis=1))
            if len(bad):
                raise FloatingPointError(
                    f"non-finite {name} in row {bad[0]} of the trace")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("parameter grid must be strictly increasing")
        self._step = uniform_step(self.ts, "CurveTrace")

    @property
    def step(self) -> float:
        """Grid step, the first difference of ts, checked uniform when the
        trace was built."""
        return self._step

    @property
    def n(self) -> int:
        return len(self.ts)

    @property
    def depth(self) -> int:
        return len(self.derivs)

    @property
    def y(self) -> np.ndarray:
        return self.points[:, self.params.m:2 * self.params.m]

    @property
    def velocity(self) -> np.ndarray:
        return self.derivs[0]

    @property
    def interior(self) -> slice:
        """Rows that residual maxima read: 2 + 3 * fd_stride one-sided
        stencil rows dropped at each end, none on a grid of at most twice."""
        trim = 2 + 3 * self.fd_stride
        return slice(trim, self.n - trim) if self.n > 2 * trim else slice(None)

    @classmethod
    def from_velocity(cls, params: ModelParams, ts, points, velocity,
                      step: float, depth: int) -> "CurveTrace":
        """Trace of `points` and their exact `velocity`, differenced to
        gamma^(depth) at the marched `step` with the stride for an effective
        step near 0.005, which keeps deep derivatives above roundoff."""
        stride = max(1, int(round(0.005 / step)))
        derivs = _chained_derivatives(velocity, step, depth - 1, stride)
        return cls(params, ts, points, derivs, fd_stride=stride)

    @classmethod
    def from_positions(cls, params: ModelParams, ts, points) -> "CurveTrace":
        """Build a trace from sampled positions only; gamma' to gamma^(4)
        by FD.

        The grid must be uniform (FD stencils assume constant step), and
        more than MAX_SAMPLES samples are refused before any differencing.
        """
        ts = np.asarray(ts, dtype=float)
        if len(ts) > MAX_SAMPLES:
            raise ValueError(f"more than the {MAX_SAMPLES} samples a trace "
                             "may have")
        h = uniform_step(ts, "from_positions")
        points = np.asarray(points, dtype=float)
        return cls(params, ts, points, _chained_derivatives(points, h, 4)[1:],
                   sampled=True)

    @classmethod
    def from_csv(cls, params: ModelParams, path) -> "CurveTrace":
        """Load columns t, x_1..x_m, y_1..y_m, z_1..z_s with `read_csv`;
        derivatives by FD."""
        data = read_csv(path, 1 + params.dim, "csv trace")
        return cls.from_positions(params, data[:, 0], data[:, 1:])

    def to_csv(self, path) -> None:
        """Write the columns t, x_1..x_m, y_1..y_m, z_1..z_s that `from_csv`
        reads."""
        m, s = self.params.m, self.params.s
        header = (["t"] + [f"x{i+1}" for i in range(m)]
                  + [f"y{i+1}" for i in range(m)]
                  + [f"z{a+1}" for a in range(s)])
        write_csv(path, header, [self.ts, *self.points.T])

    def tangent_frame(self) -> np.ndarray:
        """Frame components of the velocity, component-major: (2m+s, n).

        Built on the first call and kept, read-only, for the later ones.
        """
        if self._tangent is None:
            self._tangent = coords_to_frame(self.params, self.velocity.T, self.y.T)
            self._tangent.setflags(write=False)
        return self._tangent


# ---------------------------------------------------------------------------
# unit-speed diagnostic
# ---------------------------------------------------------------------------

def unit_speed_check(trace: CurveTrace) -> float:
    """Max over samples of |g(T,T) - 1| (frame components make g the dot)."""
    tf = trace.tangent_frame()
    return float(np.max(np.abs(component_sum(tf * tf) - 1.0)))


# ---------------------------------------------------------------------------
# exact covariant chain with Leibniz bookkeeping
# ---------------------------------------------------------------------------

def _frame_jet(trace: CurveTrace) -> list[np.ndarray]:
    """Time derivatives of the velocity's frame components, exactly.

    Frame components of gamma' are polynomial in (gamma-derivatives, y):
        A = gamma'_y/2, B = gamma'_x/2,
        C_alpha = (gamma'_z_alpha - <y, gamma'_x>)/2.
    Differentiating j times uses gamma^(j+1) and the Leibniz rule on
    <y, gamma'_x>.  Returns [W, W', ...] to order depth-1, component-major;
    W = tangent_frame.
    """
    m = trace.params.m
    # g[k] = gamma^(k) as (dim, n) views; their strided rows are read one at
    # a time, since NumPy loops a strided (k, n) block over its k components
    g = [a.T for a in [trace.points] + trace.derivs]
    jets = [trace.tangent_frame()]
    for j in range(1, trace.depth):
        v = g[j + 1]
        # d^j/dt^j <y, gamma'_x> = sum_i C(j,i) <y^(i), gamma^(1+j-i)_x>
        acc = np.zeros(trace.n)
        for i in range(j + 1):
            acc += comb(j, i) * component_sum(
                [y * x for y, x in zip(g[i][m:2 * m], g[j + 1 - i][:m])])
        jets.append(np.array([row / 2.0 for row in (*v[m:2 * m], *v[:m])]
                             + [(row - acc) / 2.0 for row in v[2 * m:]]))
    return jets


def covariant_chain(trace: CurveTrace) -> tuple[np.ndarray, ...]:
    """(T, nabla_T T, nabla_T^2 T, ...) in frame components, exact.

    Depth: with derivatives up to gamma^(d), the chain has d entries.
    Uses nabla_T W = W' + Phi(T, W) and the Leibniz rule
        (nabla_T W)^(j) = W^(j+1) + sum_i C(j,i) Phi(T^(i), W^(j-i)).
    The levels are (2m+s, n) and read-only; FrenetData keeps them for tau3.
    """
    params = trace.params
    tjet = _frame_jet(trace)           # derivatives of T's frame components
    t_sums = [component_sum(t[2 * params.m:]) for t in tjet[:-1]]   # S of T^(i)
    chain, jet = [tjet[0]], tjet       # jet: derivatives of the last level
    while len(jet) > 1:                # the next level's jet is one shorter
        nxt = []
        for j in range(len(jet) - 1):
            W = jet[j + 1].copy()
            for i in range(j + 1):
                W += comb(j, i) * connection_term(params, tjet[i], jet[j - i],
                                                  t_sum=t_sums[i])
            nxt.append(W)
        jet = nxt
        chain.append(jet[0])
    for level in chain:
        level.setflags(write=False)
    return tuple(chain)


# ---------------------------------------------------------------------------
# Frenet apparatus
# ---------------------------------------------------------------------------

# samples ignored at each window end by order detection: one-sided
# difference stencils of sampled traces are noisier there
ORDER_EDGE_TRIM = 4
# a curvature counts as zero where it is below this
ORDER_THRESHOLD = 1e-6


@dataclass
class FrenetData:
    """Per-sample orthonormal frame (frame components) and curvatures,
    measured from a trace by `frenet_apparatus`."""

    params: ModelParams
    ts: np.ndarray
    step: float                 # the trace's checked grid step
    order: int
    frames: np.ndarray          # (order, n, dim) frame components of V_1..V_r
    curvatures: np.ndarray      # (order-1, n), k_1..k_{r-1}
    chain: tuple                # covariant_chain(trace): (dim, n) read-only levels
    unit_speed_deviation: float  # max |g(T,T) - 1| over the trace

    @cached_property
    def padded_curvatures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k1, k2, k3) per sample, zero where the order does not reach them.

        The scalars every master equation reads; derived on first read from
        `curvatures`, so a `dataclasses.replace` that swaps the curvatures
        gets its own."""
        kept = [self.curvatures[i] for i in range(min(3, self.order - 1))]
        zeros = np.zeros(len(self.ts))
        zeros.setflags(write=False)
        return tuple(kept + [zeros] * (3 - len(kept)))

    @cached_property
    def curvature_jet(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k1', k1'', k2') differenced once at `step` from the padded,
        unmasked k1 and k2; read-only, as every consumer shares them."""
        k1, k2, _ = self.padded_curvatures
        k1p = fd_derivative(k1, self.step)
        jet = (k1p, fd_derivative(k1p, self.step), fd_derivative(k2, self.step))
        for arr in jet:
            arr.setflags(write=False)
        return jet


def frenet_apparatus(trace: CurveTrace) -> FrenetData:
    """Gram-Schmidt Frenet apparatus from the exact covariant chain.

    One pass over the first min(depth, 2m+s) chain levels, so the trace's
    derivative depth caps the order.  Level j is orthonormalized, and its
    Gram-Schmidt residual norm r_j = k_1 k_2 ... k_j gives k_j.  The order
    r is j at the first k_j whose maximum over the interior is below
    ORDER_THRESHOLD, and the pass stops there, so no level past the order
    is orthonormalized; with no such k_j the order is the cap.  The
    interior drops ORDER_EDGE_TRIM samples at each window end, and the
    returned arrays still cover the full grid.  A curvature that crosses
    the threshold mid-window is kept.  Each frame is sign-aligned with the
    previous sample, before the next level is projected on it, to prevent
    spurious flips.
    """
    dev = unit_speed_check(trace)
    tol = 1e-5 if trace.sampled else 1e-8
    if dev > tol:
        raise ValueError(f"trace is not unit speed: max |g(T,T)-1| = {dev:.3e}")

    chain = covariant_chain(trace)
    n, dim = trace.n, trace.params.dim
    levels = min(len(chain), dim)
    trim = ORDER_EDGE_TRIM
    interior = slice(trim, n - trim) if n > 2 * trim else slice(None)

    # modified Gram-Schmidt, one chain level at a time over all samples; a
    # sample whose residual norm falls below 1e-13 keeps zero frames and
    # zero curvatures from the next level on.  Projecting on an aligned
    # frame subtracts the same terms: <v, -b>(-b) = <v, b> b exactly.
    frames = np.zeros((levels, n, dim))
    curvatures = np.zeros((levels - 1, n))
    live = np.ones(n, dtype=bool)
    prod = np.ones(n)
    order = levels
    for j in range(levels):
        v = chain[j].T.copy()
        for b in frames[:j]:
            v -= np.vecdot(v, b)[:, None] * b
        nv = np.sqrt(np.vecdot(v, v))
        if j >= 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.where(prod > 0, np.where(live, nv, 0.0) / prod, 0.0)
            if np.max(k[interior]) < ORDER_THRESHOLD:
                order = j
                break
            curvatures[j - 1] = k
            prod = prod * k
        live &= ~(nv < 1e-13)
        frames[j, live] = v[live] / nv[live, None]
        if j >= 1:
            _align_signs(frames[j])
    # drop the levels past the order in place: a view of the kept levels
    # would keep every level alive, and a copy would hold both.
    # No view of `frames` is read after this.
    if order < levels:
        frames.resize((order, n, dim), refcheck=False)
    return FrenetData(params=trace.params, ts=trace.ts, step=trace.step,
                      order=order, frames=frames,
                      curvatures=curvatures[:order - 1], chain=chain,
                      unit_speed_deviation=dev)


def _align_signs(frame: np.ndarray) -> None:
    """Flip, in place, each sample that points against its aligned predecessor.

    A flip negates the dot product with the next sample, so the sign of
    sample i is the running product of the signs of the raw dot products
    d_i = <V(t_i), V(t_i-1)>.  A zero dot (a zero frame on either side)
    flips nothing and restarts the product at +1.
    """
    d = np.vecdot(frame[1:], frame[:-1])
    neg = np.concatenate(([0], d < 0)).cumsum()
    restart = np.concatenate(([True], ~((d < 0) | (d > 0))))
    last = np.maximum.accumulate(np.where(restart, np.arange(len(frame)), 0))
    flip = (neg - neg[last]) % 2 == 1
    frame[flip] = -frame[flip]

