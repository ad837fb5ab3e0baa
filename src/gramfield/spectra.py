"""Gram spectra, distribution functions, distances, and Stieltjes tools.

A Gram spectrum is the ascending eigenvalue array of MM* (pass M* for
M*M).  Every distribution function is one table, a monotone grid of
(x, F(x)) pairs with repeated x values encoding jumps: the
right-continuous step ECDF of a sample (``DistributionFunction.ecdf``)
and an inverted limiting distribution alike.

Two distances are provided.  The Kolmogorov distance is sup |F - G|
over the merged breakpoints.  The Levy distance

    inf{eps > 0 : F(x - eps) - eps <= G(x) <= F(x + eps) + eps  for all x}

has a closed form on the completed graphs (vertical segments at the
jumps, 0 left of the table, the last value right of it).  Each such
graph meets every line x + y = s in one point (x_F(s), y_F(s)), and
shifting G's graph by (eps, -eps) keeps each point on its own line, so

    L(F, G) = max_s |x_F(s) - x_G(s)| = max_s |y_F(s) - y_G(s)|.

y_F is piecewise linear in s with breakpoints at s = x_i + F_i, so the
maximum over the merged breakpoints is exact for step functions and
piecewise-linear tables alike, up to rounding.
"""

from __future__ import annotations

import numpy as np

from .symbols import _positive

__all__ = [
    "DistributionFunction",
    "gram_spectrum",
    "levy_distance",
    "kolmogorov_distance",
    "empirical_stieltjes",
    "bai_bound",
    "trace_stats",
    "invert_stieltjes_to_cdf",
    "default_inversion_grid",
    "write_cdf_csv",
    "read_cdf_csv",
]

_CLIP = 1e-9  # relative floor below which small negative eigenvalues are zeroed


def gram_spectrum(mat):
    """Ascending eigenvalues of MM* as a float array;
    ``gram_spectrum(M.conj().T)`` gives those of M*M.

    The Gram product is formed explicitly and fed to a self-adjoint
    eigensolver; roundoff negatives down to -1e-9 * max|eig| are clipped
    to zero, anything lower raises.  A product that overflows float64
    raises a ValueError: its diagonal (the squared row norms) bounds
    every entry, |g_ij| <= sqrt(g_ii g_jj), so checking it suffices.
    """
    entries = np.asarray(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        g = entries @ entries.conj().T
    if not np.all(np.isfinite(np.diagonal(g))):
        raise ValueError("Gram product MM* is not finite: a squared row "
                         "norm of M overflows float64 (or M holds NaN or "
                         "inf)")
    vals = np.linalg.eigvalsh(g)
    scale = max(1.0, float(np.abs(vals).max()) if len(vals) else 1.0)
    if vals.min(initial=0.0) < -_CLIP * scale:
        raise ValueError(
            f"Gram eigenvalue {vals.min():.3e} below clipping floor "
            f"{-_CLIP * scale:.3e}")
    # eigvalsh returns ascending values, and clipping keeps their order
    return np.clip(vals, 0.0, None)


class DistributionFunction:
    """Right-continuous CDF tabulated on a monotone grid.

    Tabulated grids are piecewise linear between distinct abscissae;
    repeated x values encode jumps.  Left of the table the value is 0,
    right of it the last tabulated value.
    """

    def __init__(self, xs, fs):
        xs = np.asarray(xs, dtype=np.float64)
        fs = np.asarray(fs, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != fs.shape or len(xs) == 0:
            raise ValueError("need matching nonempty 1-d x and F arrays")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise ValueError("tabulated CDF abscissae and values must be finite")
        if np.any(np.diff(xs) < 0) or np.any(np.diff(fs) < -1e-12):
            raise ValueError("tabulated CDF must be nondecreasing")
        if fs[0] < -1e-12 or fs[-1] > 1 + 1e-12:
            raise ValueError("tabulated CDF values must lie in [0, 1]")
        self.xs = xs
        self.fs = np.clip(fs, 0.0, 1.0)

    @classmethod
    def ecdf(cls, sample):
        """The step ECDF of a finite sample, in any order: each sorted
        value appears twice, at the heights before and after its jump."""
        xs = np.sort(np.asarray(sample, dtype=np.float64), axis=None)
        n = len(xs)
        fs = np.empty(2 * n)
        fs[0::2] = np.arange(0, n) / n
        fs[1::2] = np.arange(1, n + 1) / n
        return cls(np.repeat(xs, 2), fs)

    def eval(self, x):
        """Right-continuous evaluation F(x)."""
        return np.interp(x, self.xs, self.fs, left=0.0)

    def eval_left(self, x):
        """Left limit F(x-): the right limit of the mirrored table.

        The table is completed by a leading (x_0, 0) point, so F(x_0-)
        is 0 even when the table starts above 0.
        """
        xs = np.concatenate([self.xs[:1], self.xs])
        fs = np.concatenate([[0.0], self.fs])
        return np.interp(-np.asarray(x, dtype=np.float64), -xs[::-1], fs[::-1])


def kolmogorov_distance(F, G):
    """sup_x |F(x) - G(x)| over the merged breakpoints (both limits)."""
    pts = np.union1d(F.xs, G.xs)
    d_right = np.abs(F.eval(pts) - G.eval(pts))
    d_left = np.abs(F.eval_left(pts) - G.eval_left(pts))
    return float(max(d_right.max(), d_left.max()))


def _rotated_graph(F):
    """Breakpoints s = x + y of F's completed graph and its heights y there.

    The graph starts at (x_0, 0); the running max keeps s nondecreasing
    across the tiny dips that tabulated values may carry.
    """
    s = np.maximum.accumulate(np.concatenate([F.xs[:1], F.xs + F.fs]))
    return s, np.concatenate([[0.0], F.fs])


def levy_distance(F, G):
    """Levy distance: the largest gap between the two completed graphs
    along the lines x + y = s, taken over the merged breakpoints."""
    (sf, yf), (sg, yg) = _rotated_graph(F), _rotated_graph(G)
    s = np.concatenate([sf, sg])
    return float(np.abs(np.interp(s, sf, yf) - np.interp(s, sg, yg)).max())


def empirical_stieltjes(eigenvalues, z):
    """f(z) = (1/N) sum 1/(lambda_i - z) for Im z > 0."""
    z = complex(z)
    if not (np.isfinite(z) and z.imag > 0):
        raise ValueError(f"z must be finite with Im z > 0, got {z}")
    vals = np.asarray(eigenvalues, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("eigenvalues must be finite")
    return complex(np.mean(1.0 / (vals - z)))


def bai_bound(a, b):
    """Levy^4 of the two Gram ECDFs against the trace product bound.

    Returns (lhs, rhs) with lhs = L^4(F^{AA*}, F^{BB*}) and
    rhs = (2/N^2) Tr (A-B)(A-B)* Tr (AA* + BB*); the inequality
    lhs <= rhs holds for every pair of same-shape matrices.
    """
    ae, be = np.asarray(a), np.asarray(b)
    if ae.shape != be.shape:
        raise ValueError(f"shape mismatch: {ae.shape} vs {be.shape}")
    N = ae.shape[0]
    lhs = levy_distance(DistributionFunction.ecdf(gram_spectrum(ae)),
                        DistributionFunction.ecdf(gram_spectrum(be))) ** 4
    diff = float(np.sum(np.abs(ae - be) ** 2))
    total = float(np.sum(np.abs(ae) ** 2) + np.sum(np.abs(be) ** 2))
    rhs = 2.0 / N ** 2 * diff * total
    return lhs, rhs


def trace_stats(z, z_tilde, b=None):
    """Normalized traces (alpha, beta, beta_tilde) of the coupled fields.

    alpha = (1/n) Tr (Z - Zt)(Z - Zt)*, beta = (1/n) Tr (Z+B)(Z+B)*,
    beta_tilde likewise with the periodized field.  B defaults to 0.
    A trace that overflows float64 raises a ValueError.
    """
    ze, zte = np.asarray(z), np.asarray(z_tilde)
    if ze.shape != zte.shape:
        raise ValueError(f"shape mismatch: {ze.shape} vs {zte.shape}")
    be = 0.0 if b is None else np.asarray(b)
    if b is not None and be.shape != ze.shape:
        raise ValueError(f"shape mismatch: {ze.shape} vs {be.shape}")
    n = ze.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = float(np.sum(np.abs(ze - zte) ** 2)) / n
        beta = float(np.sum(np.abs(ze + be) ** 2)) / n
        beta_tilde = float(np.sum(np.abs(zte + be) ** 2)) / n
    stats = (alpha, beta, beta_tilde)
    if not np.all(np.isfinite(stats)):
        raise ValueError(f"trace statistics (alpha, beta, beta_tilde) = "
                         f"{stats} are not finite: a squared entry sum "
                         "overflows float64 (or an entry is NaN or inf)")
    return stats


def invert_stieltjes_to_cdf(f, grid, eta=1e-3):
    """Tabulated CDF from the inversion formula at height eta.

    mu([a, b]) = lim_{eta -> 0+} (1/pi) int_a^b Im f(xi + i eta) dxi, so
    the density Im f(xi + i eta)/pi is integrated by the trapezoid rule
    along ``grid`` and accumulated into a monotone table clipped to
    [0, 1].  The result carries an O(eta) smoothing bias; callers pick
    eta and the grid (a sensible default is step 1e-3 on
    [min eig - 1, max eig + 1]).

    ``f`` is the array of transform values f(xi + i eta) at the points
    xi of ``grid``.
    """
    eta = _positive(eta, "eta")
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    values = np.asarray(f, dtype=np.complex128)
    if values.shape != grid.shape:
        raise ValueError("precomputed values must align with the grid")
    dens = np.clip(values.imag / np.pi, 0.0, None)
    inc = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    cdf = np.minimum(np.maximum.accumulate(cdf), 1.0)
    return DistributionFunction(grid, cdf)


def default_inversion_grid(F: DistributionFunction, step=1e-3, pad=1.0):
    """Inversion grid covering F's table [x_0 - pad, x_last + pad] at
    ``step`` (for an ECDF: the sample's min and max)."""
    step = _positive(step, "step")
    pad = _positive(pad, "pad", zero=True)
    lo = float(F.xs[0]) - pad
    hi = float(F.xs[-1]) + pad
    return lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)


def write_cdf_csv(dist: DistributionFunction, path):
    """CSV export, one ``x,F`` header then 17-significant-digit rows."""
    np.savetxt(path, np.column_stack([dist.xs, dist.fs]), fmt="%.17g",
               delimiter=",", header="x,F", comments="")


def read_cdf_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,F":
            raise ValueError(f"malformed CDF CSV header in {path}: {header!r}")
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"empty CDF CSV: {path}")
    try:
        xs, fs = np.loadtxt(lines, delimiter=",", ndmin=2, unpack=True)
        return DistributionFunction(xs, fs)
    except ValueError as err:
        raise ValueError(f"malformed CDF CSV rows in {path}: {err}") from err
