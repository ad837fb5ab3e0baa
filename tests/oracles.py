"""Independent oracles shared by the test modules.

Everything here is computed by a route different from the library code
it checks: closed-form root selection for the Marchenko-Pastur and
information-plus-noise transforms, scipy quadrature of the closed-form
MP density for its CDF, a point-by-point tabulated CDF, and grid
searches for distribution distances.
"""

import bisect

import numpy as np
from scipy import integrate


def mp_stieltjes(z, c):
    """Marchenko-Pastur transform via the quadratic c z m^2 + (c + z - 1) m + 1 = 0.

    Root selection: the Stieltjes branch has Im m > 0 for Im z > 0.
    Matches the Gram matrix ZZ* of an N x n matrix with i.i.d. entries
    of variance 1/n and c = N/n.
    """
    z = complex(z)
    roots = np.roots([c * z, c + z - 1.0, 1.0])
    return roots[np.argmax(roots.imag)]


def info_plus_noise_stieltjes(z, c, sigma2, a):
    """Information-plus-noise transform via its cubic in m.

    The Gram matrix of X + A, with X an N x n matrix of i.i.d. entries of
    variance sigma2/n, A = a on the main diagonal and c = N/n (Dozier &
    Silverstein, J. Multivariate Anal. 98(4), 2007), has the transform

        m (a^2 - (1 + s m)^2 z + sigma2 (1 - c) (1 + s m)) = 1 + s m,

    s = sigma2 * c.  Root selection: the Stieltjes branch has Im m > 0
    and Im(z m) > 0; the oracle asserts that exactly one root has both.
    """
    z, s = complex(z), sigma2 * c
    roots = np.roots([-z * s * s, s * (sigma2 * (1 - c) - 2 * z),
                      a * a - z + sigma2 * (1 - c) - s, -1.0])
    (m,) = [r for r in roots if r.imag > 0 and (z * r).imag > 0]
    return m


def mp_density(x, c):
    a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
    if x <= a or x >= b:
        return 0.0
    return np.sqrt((b - x) * (x - a)) / (2 * np.pi * c * x)


def mp_cdf(x, c):
    """MP CDF by adaptive quadrature of the closed-form density."""
    a, b = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
    if x <= a:
        return 0.0
    val, _ = integrate.quad(mp_density, a, min(x, b), args=(c,), limit=400)
    return min(val, 1.0)


def table_cdf(xs, fs, x, left=False):
    """F(x), or F(x-) when ``left``, of a tabulated CDF, one point at a
    time: 0 left of the table, fs[-1] right of it, linear between
    distinct abscissae, and repeated abscissae are jumps."""
    if left:
        i = bisect.bisect_left(xs, x) - 1     # last xs[i] < x
    else:
        i = bisect.bisect_right(xs, x) - 1    # last xs[i] <= x
    if i < 0:
        return 0.0
    if i == len(xs) - 1:
        return fs[-1]
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return fs[i] + t * (fs[i + 1] - fs[i])


def brute_kolmogorov(vals_f, vals_g):
    """Two-sample Kolmogorov distance by direct ECDF scan."""
    vals_f = np.sort(np.asarray(vals_f, dtype=float))
    vals_g = np.sort(np.asarray(vals_g, dtype=float))
    pts = np.concatenate([vals_f, vals_g])
    cf = np.searchsorted(vals_f, pts, side="right") / len(vals_f)
    cg = np.searchsorted(vals_g, pts, side="right") / len(vals_g)
    return float(np.abs(cf - cg).max())


def brute_levy(vals_f, vals_g, step=1e-4):
    """Levy distance of two sample ECDFs: the least eps on a grid of
    spacing ``step`` at which both inequalities hold on an x grid.

    Coarse (O(step) accurate) but entirely independent of the library's
    closed form; used to cross-check on small spectra.  Feasibility is
    monotone in eps, so the eps grid is bisected.
    """
    vals_f = np.sort(np.asarray(vals_f, dtype=float))
    vals_g = np.sort(np.asarray(vals_g, dtype=float))

    def F(x):
        return np.searchsorted(vals_f, x, side="right") / len(vals_f)

    def G(x):
        return np.searchsorted(vals_g, x, side="right") / len(vals_g)

    lo = min(vals_f[0], vals_g[0]) - 1.0
    hi = max(vals_f[-1], vals_g[-1]) + 1.0
    xs = np.arange(lo, hi, step)
    epss = np.arange(0.0, 1.0 + step, step)

    def feasible(eps):
        return bool(np.all(F(xs - eps) - eps <= G(xs) + 1e-12)
                    and np.all(G(xs) <= F(xs + eps) + eps + 1e-12))

    first = bisect.bisect_left(epss, True, key=feasible)
    return epss[first] if first < len(epss) else 1.0


def grid_levy_sample_vs_table(vals, xs, fs, step=1e-3):
    """Levy distance of a sample ECDF and a piecewise-linear table by a
    feasibility scan over eps on an x grid of spacing ``step``.

    The table is 0 left of xs[0] and fs[-1] right of xs[-1].  Both
    inequalities are checked at grid points with eps a multiple of
    ``step``, so shifted arguments stay on the grid.  Feasibility on the
    grid at eps implies feasibility everywhere at eps + step (both CDFs
    are nondecreasing), hence the result is within ``step`` of the exact
    distance.
    """
    vals = np.sort(np.asarray(vals, dtype=float))
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    lo = min(vals[0], xs[0]) - 1.0
    hi = max(vals[-1], xs[-1]) + 1.0
    grid = lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)
    F = np.searchsorted(vals, grid, side="right") / len(vals)
    G = np.interp(grid, xs, fs, left=0.0, right=fs[-1])
    n_shift = int(np.ceil(1.0 / step))
    # F beyond the grid: 0 on the left, its total mass 1 on the right
    F_pad = np.concatenate([np.zeros(n_shift), F, np.ones(n_shift)])
    m = len(grid)
    for k in range(n_shift + 1):
        eps = k * step
        f_minus = F_pad[n_shift - k:n_shift - k + m]
        f_plus = F_pad[n_shift + k:n_shift + k + m]
        if np.all(f_minus - eps <= G + 1e-12) and \
           np.all(G <= f_plus + eps + 1e-12):
            return eps
    return 1.0
