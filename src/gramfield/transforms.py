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

from dataclasses import dataclass, field

import numpy as np

from .matgen import FieldMatrix

__all__ = [
    "UnitaryTransform",
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


@dataclass(frozen=True)
class UnitaryTransform:
    """A p x p unitary (fourier) or orthogonal (real_orthogonal) matrix."""

    size: int
    entries: np.ndarray = field(repr=False)

    def adjoint_entries(self):
        return self.entries.conj().T


def fourier_matrix(p):
    """Unitary Fourier matrix with entries p^{-1/2} e^{2 pi i j1 j2 / p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    j = np.arange(p)
    entries = np.exp(2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)
    return UnitaryTransform(size=p, entries=entries)


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
    pairs = p // 2 - 1 if p % 2 == 0 else (p - 1) // 2
    for j1 in range(1, pairs + 1):
        angle = 2.0 * np.pi * j1 * j2 / p
        q[2 * j1 - 1, :] = np.sqrt(2.0 / p) * np.cos(angle)
        q[2 * j1, :] = np.sqrt(2.0 / p) * np.sin(angle)
    if p % 2 == 0 and p > 1:
        q[p - 1, :] = (-1.0) ** j2 / np.sqrt(p)
    return UnitaryTransform(size=p, entries=q)


def congruence(t_left: UnitaryTransform, mat: FieldMatrix,
               t_right: UnitaryTransform):
    """T_left @ M @ T_right^adjoint (transpose when T_right is real).

    Gram spectra of the input and output coincide because both factors
    are unitary.
    """
    if t_left.size != mat.rows or t_right.size != mat.cols:
        raise ValueError(
            f"transform sizes ({t_left.size}, {t_right.size}) do not match "
            f"matrix shape {mat.shape}")
    out = t_left.entries @ mat.entries @ t_right.adjoint_entries()
    return FieldMatrix(out, kind="generic", seed=mat.seed)


def variance_profile_grid(sym, N, n):
    """Squared-symbol grid (times n) at the Fourier frequencies.

    grid[l1, l2] = |Phi(l1/N, l2/n)|^2, the per-entry variance of the
    Fourier congruence.
    """
    t1 = np.arange(N) / N
    t2 = np.arange(n) / n
    return np.abs(sym.eval(t1[:, None], t2[None, :])) ** 2


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
    plus = np.abs(sym.eval(f1[:, None], f2[None, :])) ** 2
    minus = np.abs(sym.eval(f1[:, None], -f2[None, :])) ** 2
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


def _as_sample_array(samples):
    if isinstance(samples, np.ndarray) and samples.ndim == 3:
        return samples
    mats = [s.entries if isinstance(s, FieldMatrix) else np.asarray(s)
            for s in samples]
    return np.stack(mats, axis=0)


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

    Subsamples ``_MAX_PAIRS`` random pairs of real-valued components
    (Re/Im channels of distinct entries) plus up to ``_MAX_PAIRS`` mirror
    pairs, computes sample correlations across the population, and
    compares them against the loose CLT threshold 4/sqrt(#samples).
    """
    arr = _as_sample_array(samples)
    S, N, n = arr.shape
    if S < 2:
        raise ValueError("whiteness_check needs at least 2 samples")
    complex_input = np.iscomplexobj(arr)
    channels = [arr.real, arr.imag] if complex_input else [arr]
    nchan = len(channels)
    threshold = 4.0 / np.sqrt(S)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([_SUBSAMPLE_SEED, 0], dtype=np.uint64)))

    # random family: pairs of distinct (l1, l2, channel) slots
    nvars = N * n * nchan
    idx_a = rng.integers(0, nvars, size=2 * _MAX_PAIRS)
    idx_b = rng.integers(0, nvars, size=2 * _MAX_PAIRS)
    keep = idx_a != idx_b
    idx_a, idx_b = idx_a[keep][:_MAX_PAIRS], idx_b[keep][:_MAX_PAIRS]

    def gather(flat_idx):
        ch, rest = np.divmod(flat_idx, N * n)
        r, c = np.divmod(rest, n)
        cols = np.empty((len(flat_idx), S))
        for ci in range(nchan):
            sel = ch == ci
            cols[sel] = channels[ci][:, r[sel], c[sel]].T
        return cols

    rand_corr = _pair_correlations(gather(idx_a), gather(idx_b))

    # mirror family: (l1, l2) against ((N - l1) mod N, (n - l2) mod n)
    r = rng.integers(0, N, size=_MAX_PAIRS)
    c = rng.integers(0, n, size=_MAX_PAIRS)
    rm, cm = (N - r) % N, (n - c) % n
    keep = (r != rm) | (c != cm)
    r, c, rm, cm = r[keep], c[keep], rm[keep], cm[keep]
    mirror_corr = np.empty(0)
    if len(r):
        cors = []
        for ci in range(nchan):
            cors.append(_pair_correlations(
                channels[ci][:, r, c].T, channels[ci][:, rm, cm].T))
        mirror_corr = np.concatenate(cors)

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
