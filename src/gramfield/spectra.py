"""Gram spectra, distribution functions, distances, and Stieltjes tools.

An empirical spectrum is the sorted nonnegative eigenvalue list of a
Gram matrix MM* (left) or M*M (right); it induces a right-continuous
step ECDF.  Distribution functions may also be tabulated (a monotone
grid of (x, F(x)) pairs, with repeated x values encoding jumps), which
is how inverted limiting distributions are stored.

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

from dataclasses import dataclass, field

import numpy as np

from .matgen import FieldMatrix

__all__ = [
    "EmpiricalSpectrum",
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


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted nonnegative eigenvalues of a Gram matrix of side ``dim``."""

    eigenvalues: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if len(vals) != self.dim:
            raise ValueError(f"{len(vals)} eigenvalues for dim {self.dim}")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if np.any(vals < 0):
            raise ValueError("eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", vals)

    def ecdf(self):
        return DistributionFunction.from_spectrum(self)


def gram_spectrum(mat, side="left"):
    """Eigenvalues of MM* (side="left") or M*M (side="right").

    The Gram product is formed explicitly and fed to a self-adjoint
    eigensolver; roundoff negatives down to -1e-9 * max|eig| are clipped
    to zero, anything lower raises.
    """
    entries = mat.entries if isinstance(mat, FieldMatrix) else np.asarray(mat)
    if side == "left":
        g = entries @ entries.conj().T
    elif side == "right":
        g = entries.conj().T @ entries
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    vals = np.linalg.eigvalsh(g)
    scale = max(1.0, float(np.abs(vals).max()) if len(vals) else 1.0)
    if vals.min(initial=0.0) < -_CLIP * scale:
        raise ValueError(
            f"Gram eigenvalue {vals.min():.3e} below clipping floor "
            f"{-_CLIP * scale:.3e}")
    vals = np.clip(vals, 0.0, None)
    return EmpiricalSpectrum(eigenvalues=np.sort(vals), dim=len(vals))


class DistributionFunction:
    """Right-continuous CDF, either an ECDF step or a tabulated monotone grid.

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
    def from_spectrum(cls, spectrum: EmpiricalSpectrum):
        vals = spectrum.eigenvalues
        n = len(vals)
        steps = np.arange(1, n + 1) / n
        # duplicate-x pairs encode each jump exactly
        xs = np.repeat(vals, 2)
        fs = np.empty(2 * n)
        fs[0::2] = np.arange(0, n) / n
        fs[1::2] = steps
        return cls(xs, fs)

    def eval(self, x):
        """Right-continuous evaluation F(x)."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.xs, x, side="right")
        return self._interp(x, idx)

    def eval_left(self, x):
        """Left limit F(x-)."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.xs, x, side="left")
        return self._interp(x, idx)

    def _interp(self, x, idx):
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.atleast_1d(idx)
        out = np.empty(len(x))
        below = idx == 0
        above = idx == len(self.xs)
        mid = ~below & ~above
        out[below] = 0.0
        out[above] = self.fs[-1]
        if mid.any():
            i = idx[mid]
            x0, x1 = self.xs[i - 1], self.xs[i]
            f0, f1 = self.fs[i - 1], self.fs[i]
            # searchsorted puts x in [x0, x1) ("right") or (x0, x1]
            # ("left"), so the bracketing abscissae always differ
            out[mid] = f0 + (x[mid] - x0) / (x1 - x0) * (f1 - f0)
        return float(out[0]) if scalar else out

    def breakpoints(self):
        return np.unique(self.xs)

    @property
    def total_mass(self):
        return float(self.fs[-1])


def _as_cdf(obj):
    if isinstance(obj, DistributionFunction):
        return obj
    if isinstance(obj, EmpiricalSpectrum):
        return obj.ecdf()
    raise TypeError(f"not a distribution: {type(obj)!r}")


def kolmogorov_distance(f, g):
    """sup_x |F(x) - G(x)| over the merged breakpoints (both limits)."""
    F, G = _as_cdf(f), _as_cdf(g)
    pts = np.union1d(F.breakpoints(), G.breakpoints())
    if len(pts) == 0:
        return 0.0
    d_right = np.abs(np.atleast_1d(F.eval(pts)) - np.atleast_1d(G.eval(pts)))
    d_left = np.abs(np.atleast_1d(F.eval_left(pts)) - np.atleast_1d(G.eval_left(pts)))
    return float(max(d_right.max(), d_left.max()))


def _rotated_graph(F):
    """Breakpoints s = x + y of F's completed graph and its heights y there.

    The graph starts at (x_0, 0); the running max keeps s nondecreasing
    across the tiny dips that tabulated values may carry.
    """
    s = np.maximum.accumulate(np.concatenate([F.xs[:1], F.xs + F.fs]))
    return s, np.concatenate([[0.0], F.fs])


def levy_distance(f, g):
    """Levy distance: the largest gap between the two completed graphs
    along the lines x + y = s, taken over the merged breakpoints."""
    (sf, yf), (sg, yg) = _rotated_graph(_as_cdf(f)), _rotated_graph(_as_cdf(g))
    s = np.concatenate([sf, sg])
    return float(np.abs(np.interp(s, sf, yf) - np.interp(s, sg, yg)).max())


def empirical_stieltjes(spectrum: EmpiricalSpectrum, z):
    """f(z) = (1/N) sum 1/(lambda_i - z) for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("Stieltjes transform requires Im z > 0")
    return complex(np.mean(1.0 / (spectrum.eigenvalues - z)))


def bai_bound(a, b):
    """Levy^4 of the two Gram ECDFs against the trace product bound.

    Returns (lhs, rhs) with lhs = L^4(F^{AA*}, F^{BB*}) and
    rhs = (2/N^2) Tr (A-B)(A-B)* Tr (AA* + BB*); the inequality
    lhs <= rhs holds for every pair of same-shape matrices.
    """
    ae = a.entries if isinstance(a, FieldMatrix) else np.asarray(a)
    be = b.entries if isinstance(b, FieldMatrix) else np.asarray(b)
    if ae.shape != be.shape:
        raise ValueError(f"shape mismatch: {ae.shape} vs {be.shape}")
    N = ae.shape[0]
    lhs = levy_distance(gram_spectrum(a), gram_spectrum(b)) ** 4
    diff = float(np.sum(np.abs(ae - be) ** 2))
    total = float(np.sum(np.abs(ae) ** 2) + np.sum(np.abs(be) ** 2))
    rhs = 2.0 / N ** 2 * diff * total
    return lhs, rhs


def trace_stats(z, z_tilde, b=None):
    """Normalized traces (alpha, beta, beta_tilde) of the coupled fields.

    alpha = (1/n) Tr (Z - Zt)(Z - Zt)*, beta = (1/n) Tr (Z+B)(Z+B)*,
    beta_tilde likewise with the periodized field.  B defaults to 0.
    """
    ze = z.entries if isinstance(z, FieldMatrix) else np.asarray(z)
    zte = z_tilde.entries if isinstance(z_tilde, FieldMatrix) else np.asarray(z_tilde)
    if ze.shape != zte.shape:
        raise ValueError(f"shape mismatch: {ze.shape} vs {zte.shape}")
    if b is None:
        be = 0.0
    else:
        be = b.entries if isinstance(b, FieldMatrix) else np.asarray(b)
        if np.shape(be) != ze.shape:
            raise ValueError(f"shape mismatch: {ze.shape} vs {np.shape(be)}")
    n = ze.shape[1]
    alpha = float(np.sum(np.abs(ze - zte) ** 2)) / n
    beta = float(np.sum(np.abs(ze + be) ** 2)) / n
    beta_tilde = float(np.sum(np.abs(zte + be) ** 2)) / n
    return alpha, beta, beta_tilde


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
    if eta <= 0:
        raise ValueError("eta must be positive")
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


def default_inversion_grid(spectrum: EmpiricalSpectrum, step=1e-3, pad=1.0):
    """Inversion grid covering [min eig - pad, max eig + pad] at ``step``."""
    lo = float(spectrum.eigenvalues.min()) - pad
    hi = float(spectrum.eigenvalues.max()) + pad
    return lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)


def write_cdf_csv(dist: DistributionFunction, path):
    """CSV export, one ``x,F`` header then 17-significant-digit rows."""
    with open(path, "w") as fh:
        fh.write("x,F\n")
        for x, Fv in zip(dist.xs, dist.fs):
            fh.write(f"{x:.17g},{Fv:.17g}\n")


def read_cdf_csv(path):
    xs, fs = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,F":
            raise ValueError(f"malformed CDF CSV header in {path}: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")
            xs.append(float(a))
            fs.append(float(b))
    if not xs:
        raise ValueError(f"empty CDF CSV: {path}")
    return DistributionFunction(np.array(xs), np.array(fs))
