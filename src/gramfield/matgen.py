"""Sampling of Gaussian field matrices and deterministic structured matrices.

A raw field matrix has entries

    Z[j1, j2] = n^{-1/2} * sum_k h(k1, k2) * U(j1 - k1, j2 - k2)

over an i.i.d. Gaussian noise sheet U, and its periodized companion
replaces the noise indices by (j1 - k1) mod N and (j2 - k2) mod n so
that only the N x n noise block is consumed.  Both constructions read
the same noise sheet, whose shape less twice its margin is the N x n
window, so their difference is confined to a border band of width equal
to the filter radius.  Only a noise sheet is a :class:`FieldMatrix`,
which keeps its margin; every other matrix is a plain array.

Randomness is counter-based and fully reproducible: each noise matrix
draws from ``Philox(key=(seed, 0))``, one stream per seed in
[0, 2**64), so its :class:`NoiseSpec` and margin rebuild a sheet bit for
bit.  Only noise sheets are random; everything downstream of the noise
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import FilterSequence1D, FilterSequence2D, _integer

__all__ = [
    "FieldMatrix",
    "NoiseSpec",
    "sample_noise",
    "build_field",
    "build_periodized_field",
    "build_toeplitz",
    "build_circulant",
    "circulant_eigenvalues",
    "build_pseudo_diagonal",
]


class FieldMatrix:
    """A noise sheet: its entries and the margin by which the sheet
    extends past its N x n window on each side.  Instances are treated
    as immutable once built, and convert to their entries through
    ``np.asarray``.  The margin must be nonnegative and, when positive,
    leave a nonempty window.
    """

    def __init__(self, entries, margin=0):
        entries = np.asarray(entries)
        if entries.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        margin = _integer(margin, "margin")
        rows, cols = entries.shape
        if margin < 0 or (margin and min(rows, cols) <= 2 * margin):
            raise ValueError(f"margin {margin} is negative or leaves no "
                             f"window of the {rows} x {cols} matrix")
        self.entries, self.margin = entries, margin

    @property
    def shape(self):
        return self.entries.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model: complex or real standard Gaussian entries.

    ``complex_standard`` draws U = A + iB with A, B independent real
    Gaussians of standard deviation 1/sqrt(2), so E U = 0, E U^2 = 0 and
    E |U|^2 = 1.  ``real_standard`` draws plain N(0, 1) variables.
    ``seed`` is the Philox key word 0 and must lie in [0, 2**64).
    """

    distribution: str = "complex_standard"
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("complex_standard", "real_standard"):
            raise ValueError(f"unknown distribution: {self.distribution!r}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} is outside [0, 2**64)")


def sample_noise(N, n, spec, margin=0):
    """I.i.d. noise on the window [-margin, N+margin) x [-margin, n+margin).

    The enlarged window lets a raw field use genuinely out-of-window
    noise; the periodized field reads only the central N x n block.
    Index (j1, j2) is stored at (j1 + margin, j2 + margin).
    """
    N, n = _integer(N, "N"), _integer(n, "n")
    margin = _integer(margin, "margin")
    if N < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {N} x {n}")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    rows, cols = N + 2 * margin, n + 2 * margin
    key = np.array([spec.seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    if spec.distribution == "complex_standard":
        parts = rng.standard_normal(size=(2, rows, cols))
        entries = (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    else:
        entries = rng.standard_normal(size=(rows, cols))
    return FieldMatrix(entries, margin=margin)


def _filtered(h, sheet, margin):
    """n^{-1/2} sum_k h(k) sheet[margin + j - k] on the window that the
    margin leaves, in sorted-coefficient order; real when h and the sheet
    are."""
    N, n = sheet.shape[0] - 2 * margin, sheet.shape[1] - 2 * margin
    k1s, k2s, coeffs = h.arrays()
    out = np.zeros((N, n), dtype=np.complex128)
    for k1, k2, c in zip(k1s, k2s, coeffs):
        r0, c0 = margin - k1, margin - k2
        out += c * sheet[r0:r0 + N, c0:c0 + n]
    out /= np.sqrt(n)
    if h.is_real and not np.iscomplexobj(sheet):
        out = out.real
    return out


def build_field(h: FilterSequence2D, noise):
    """Raw field: Z[j1, j2] = n^{-1/2} sum_k h(k) U(j1-k1, j2-k2).

    The field covers the N x n window of the sheet (a plain array has
    margin 0), its shape less twice the margin; the margin must reach the
    filter radius.
    """
    m = noise.margin if isinstance(noise, FieldMatrix) else 0
    if h.radius > m:
        raise ValueError(
            f"noise margin {m} too small for filter radius {h.radius}")
    return _filtered(h, np.asarray(noise), m)


def build_periodized_field(h: FilterSequence2D, noise):
    """Periodized field: noise indices reduced mod N and mod n.

    This is the raw-field sum over the periodic extension of the sheet's
    central N x n window (all of a plain array), so the raw and periodized
    fields built from one sheet are coupled.
    """
    m = noise.margin if isinstance(noise, FieldMatrix) else 0
    sheet = np.asarray(noise)
    block = sheet[m:sheet.shape[0] - m, m:sheet.shape[1] - m]
    return _filtered(h, np.pad(block, h.radius, mode="wrap"), h.radius)


def build_toeplitz(a: FilterSequence1D, n):
    """Toeplitz matrix A[j1, j2] = a(j1 - j2)."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    js, coeffs = a.arrays()
    inside = np.abs(js) < n
    table = np.zeros(2 * n - 1, dtype=np.complex128)  # index j + n - 1
    table[js[inside] + n - 1] = coeffs[inside]
    idx = np.arange(n)
    entries = table[(idx[:, None] - idx[None, :]) + n - 1]
    return entries.real if a.is_real else entries


def _circulant_column(a: FilterSequence1D, n):
    """First column atilde(j), j = 0..n-1, of the circulant approximant:
    the taps with |k| <= n summed at k mod n, so atilde(0) = a(0) + a(n)
    + a(-n) and atilde(j) = a(j) + a(j - n) otherwise."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be positive")
    js, coeffs = a.arrays()
    inside = np.abs(js) <= n
    column = np.zeros(n, dtype=np.complex128)
    np.add.at(column, js[inside] % n, coeffs[inside])
    return column


def build_circulant(a: FilterSequence1D, n):
    """Circulant approximant of the Toeplitz matrix of ``a``.

    Entries are atilde((j1 - j2) mod n), the exact closed form of the
    Fourier sum (1/n) sum_k psi_n(k/n) e^{-2 pi i k (j1-j2)/n} with psi_n
    the symbol truncated to |j| <= n.  The Fourier matrix diagonalizes
    the result with eigenvalues psi_n(k/n).
    """
    column = _circulant_column(a, n)
    idx = np.arange(len(column))
    entries = column[(idx[:, None] - idx[None, :]) % len(column)]
    return entries.real if a.is_real else entries


def circulant_eigenvalues(a: FilterSequence1D, n):
    """Diagonal psi_n(k/n), k = 0..n-1, of the Fourier-conjugated
    circulant: the discrete Fourier sum of its first column."""
    column = _circulant_column(a, n)
    return len(column) * np.fft.ifft(column)


def build_pseudo_diagonal(diag, N, n):
    """Rectangular N x n matrix with ``diag`` on the main diagonal."""
    N, n = _integer(N, "N"), _integer(n, "n")
    diag = np.asarray(diag)
    if diag.ndim != 1 or len(diag) != min(N, n):
        raise ValueError(
            f"diagonal length {diag.shape} does not match min({N}, {n})")
    entries = np.zeros((N, n), dtype=np.complex128)
    entries[np.arange(len(diag)), np.arange(len(diag))] = diag
    return entries

