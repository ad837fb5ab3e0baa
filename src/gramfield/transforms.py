"""Unitary congruences that decorrelate periodized field matrices.

The p x p Fourier matrix has entries p^{-1/2} e^{2 pi i j1 j2 / p}; its
real counterpart is the orthogonal matrix whose rows are the constant
row 1/sqrt(p), the paired sqrt(2/p) cos/sin rows, and (for even p) a
final alternating-sign row (-1)^{j2}/sqrt(p).

Conjugating a periodized field with these transforms yields a matrix of
independent entries whose per-entry variances form a grid of the
squared symbol.  For the Fourier congruence that grid is
:func:`variance_profile_grid`; for the real congruence each cos/sin row
pair mixes the mirror frequencies +-f, so the variance grid is the
mirror average :func:`symmetrized_variance_grid`.  :func:`whiteness_check`
verifies the independence claim statistically on a population of
samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "fourier_matrix",
    "real_orthogonal_matrix",
    "congruence",
    "variance_profile_grid",
    "symmetrized_variance_grid",
    "whiteness_check",
    "WhitenessReport",
]

_MAX_PAIRS = 2000  # entry pairs per family sampled by whiteness_check
_SUBSAMPLE_SEED = 20200405  # Philox key of that subsample


def fourier_matrix(p):
    """Unitary Fourier matrix with entries p^{-1/2} e^{2 pi i j1 j2 / p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    j = np.arange(p)
    return np.exp(2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)


def real_orthogonal_matrix(p):
    """Real orthogonal analogue of the Fourier matrix.

    Row 0 is constant 1/sqrt(p).  For j1 = 1 .. (p/2 - 1 if p even,
    (p-1)/2 if p odd), rows 2*j1-1 and 2*j1 are sqrt(2/p) cos(2 pi j1
    j2/p) and sqrt(2/p) sin(2 pi j1 j2/p).  Even p appends the
    alternating row (-1)^{j2}/sqrt(p); odd p stops at the sin row.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    q = np.zeros((p, p), dtype=np.float64)
    j2 = np.arange(p)
    q[0, :] = 1.0 / np.sqrt(p)
    pairs = (p - 1) // 2
    angle = 2.0 * np.pi * np.arange(1, pairs + 1)[:, None] * j2 / p
    q[1:2 * pairs:2] = np.sqrt(2.0 / p) * np.cos(angle)
    q[2:2 * pairs + 1:2] = np.sqrt(2.0 / p) * np.sin(angle)
    if p % 2 == 0:
        q[p - 1, :] = (-1.0) ** j2 / np.sqrt(p)
    return q


def congruence(t_left, mat, t_right):
    """T_left @ M @ T_right^adjoint (transpose when T_right is real).

    ``mat`` is any N x n array, and the transforms are square arrays
    matching its rows and columns.  Returns a plain array.
    Gram spectra of the input and output coincide because both factors
    are unitary.
    """
    t_left, mat, t_right = (np.asarray(a) for a in (t_left, mat, t_right))
    rows, cols = mat.shape
    if t_left.shape != (rows, rows) or t_right.shape != (cols, cols):
        raise ValueError(
            f"transform shapes {t_left.shape} and {t_right.shape} do not "
            f"match matrix shape {mat.shape}")
    return t_left @ mat @ t_right.conj().T


def variance_profile_grid(sym, N, n):
    """Squared-symbol grid (times n) at the Fourier frequencies.

    grid[l1, l2] = |Phi(l1/N, l2/n)|^2, the per-entry variance of the
    Fourier congruence.
    """
    t1 = np.arange(N) / N
    t2 = np.arange(n) / n
    return sym.profile(t1[:, None], t2[None, :])


def symmetrized_variance_grid(sym, N, n):
    """Exact per-entry variance grid (times n) of the real congruence.

    A cos/sin row pair of the real transform mixes the two mirror
    frequencies +-f, so each entry of Q_N Ztilde Q_n^T carries the
    average of the two mirror profile values:

        grid[l1, l2] = (|Phi(f1, f2)|^2 + |Phi(f1, -f2)|^2) / 2,
        f = floor((l + 1)/2) / p.

    The two terms coincide when |Phi(s, t)| = |Phi(s, -t)| (e.g. filters
    even in one index); in general neither alone is the variance.
    """
    if not sym.source.is_real:
        raise ValueError("symmetrized grid requires a real-coefficient filter")
    f1 = np.floor((np.arange(N) + 1.0) / 2.0) / N
    f2 = np.floor((np.arange(n) + 1.0) / 2.0) / n
    plus = sym.profile(f1[:, None], f2[None, :])
    minus = sym.profile(f1[:, None], -f2[None, :])
    return 0.5 * (plus + minus)


@dataclass
class WhitenessReport:
    """Summary of pairwise sample correlations across a sample population.

    ``random_*`` fields describe randomly chosen entry pairs (real and
    imaginary parts treated as separate variables); ``mirror_*`` fields
    describe the structured pairs (l1, l2) vs ((N-l1) mod N, (n-l2) mod
    n), which catch the conjugate-mirror dependence of a complex Fourier
    congruence applied to a real field.  ``passed`` requires the
    below-threshold fraction of both families to reach 0.95.
    """

    n_samples: int
    threshold: float
    random_pairs: int
    random_max: float
    random_frac_below: float
    mirror_pairs: int
    mirror_max: float
    mirror_frac_below: float

    @property
    def passed(self):
        ok = self.random_frac_below >= 0.95
        if self.mirror_pairs:
            ok = ok and self.mirror_frac_below >= 0.95
        return ok


def _pair_correlations(x, y):
    """|Pearson correlation| per row of the (pairs, samples) arrays."""
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean(axis=1, keepdims=True)
    sx = np.sqrt((x * x).sum(axis=1))
    sy = np.sqrt((y * y).sum(axis=1))
    num = np.abs((x * y).sum(axis=1))
    ok = (sx > 1e-150) & (sy > 1e-150)
    out = np.zeros(len(num))
    out[ok] = num[ok] / (sx[ok] * sy[ok])
    return out


def whiteness_check(samples):
    """Empirical independence check over a population of same-shape samples.

    ``samples`` is any array-like of S same-shape N x n matrices: an
    (S, N, n) array or a sequence of arrays or noise sheets.
    Subsamples ``_MAX_PAIRS`` random pairs of real-valued components
    (Re/Im channels of distinct entries) plus up to ``_MAX_PAIRS`` mirror
    pairs, computes sample correlations across the population, and
    compares them against the loose CLT threshold 4/sqrt(#samples).
    """
    arr = np.asarray(samples)
    S, N, n = arr.shape
    if S < 2:
        raise ValueError("whiteness_check needs at least 2 samples")
    channels = [arr.real, arr.imag] if np.iscomplexobj(arr) else [arr]
    # every real variable in one row per sample: channel, then l1, then l2
    flat = np.concatenate([ch.reshape(S, N * n) for ch in channels], axis=1)
    threshold = 4.0 / np.sqrt(S)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([_SUBSAMPLE_SEED, 0], dtype=np.uint64)))

    # random family: pairs of distinct (channel, l1, l2) slots
    idx_a = rng.integers(0, flat.shape[1], size=2 * _MAX_PAIRS)
    idx_b = rng.integers(0, flat.shape[1], size=2 * _MAX_PAIRS)
    keep = idx_a != idx_b
    idx_a, idx_b = idx_a[keep][:_MAX_PAIRS], idx_b[keep][:_MAX_PAIRS]
    rand_corr = _pair_correlations(flat[:, idx_a].T, flat[:, idx_b].T)

    # mirror family: (l1, l2) against ((N - l1) mod N, (n - l2) mod n),
    # within each channel
    r = rng.integers(0, N, size=_MAX_PAIRS)
    c = rng.integers(0, n, size=_MAX_PAIRS)
    rm, cm = (N - r) % N, (n - c) % n
    keep = (r != rm) | (c != cm)
    offsets = N * n * np.arange(len(channels))[:, None]
    idx = (offsets + r[keep] * n + c[keep]).ravel()
    idx_m = (offsets + rm[keep] * n + cm[keep]).ravel()
    mirror_corr = _pair_correlations(flat[:, idx].T, flat[:, idx_m].T)

    def stats(corr):
        if len(corr) == 0:
            return 0, 0.0, 1.0
        return len(corr), float(corr.max()), float((corr < threshold).mean())

    rp, rmax, rfrac = stats(rand_corr)
    mp, mmax, mfrac = stats(mirror_corr)
    return WhitenessReport(
        n_samples=S, threshold=float(threshold),
        random_pairs=rp, random_max=rmax, random_frac_below=rfrac,
        mirror_pairs=mp, mirror_max=mmax, mirror_frac_below=mfrac)
