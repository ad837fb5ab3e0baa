"""Unitary congruences that decorrelate periodized field matrices.

The p x p Fourier matrix has entries p^{-1/2} e^{2 pi i j1 j2 / p}; its
real counterpart is the orthogonal matrix whose rows are the constant
row 1/sqrt(p), the paired sqrt(2/p) cos/sin rows, and (for even p) a
final alternating-sign row (-1)^{j2}/sqrt(p).

The Fourier congruence of a periodized field has a closed form, sample
by sample: with U the noise block the field reads and Uhat = F_N U F_n^*,

    F_N Ztilde F_n^* = Phi(l1/N, l2/n) * Uhat[l1, l2] / sqrt(n).

For complex standard noise Uhat is again i.i.d. standard noise, so the
entries are independent with the variance grid
:func:`variance_profile_grid`.  For real noise Uhat has the Hermitian
symmetry Uhat[-l1, -l2] = conj Uhat[l1, l2], and the real congruence
is used instead.  Its entries are independent across the cos/sin frequency
blocks ((l + 1) // 2 per axis) but correlated within a block unless
|Phi(s, t)| = |Phi(s, -t)|; each cos/sin row pair mixes the mirror
frequencies +-f, so their variance grid is the mirror average
:func:`symmetrized_variance_grid`.
"""

from __future__ import annotations

import numpy as np

from .symbols import _integer

__all__ = [
    "fourier_matrix",
    "real_orthogonal_matrix",
    "variance_profile_grid",
    "symmetrized_variance_grid",
]

def fourier_matrix(p):
    """Unitary Fourier matrix with entries p^{-1/2} e^{2 pi i j1 j2 / p}."""
    p = _integer(p, "p", 1)
    j = np.arange(p)
    return np.exp(2j * np.pi * np.outer(j, j) / p) / np.sqrt(p)


def real_orthogonal_matrix(p):
    """Real orthogonal analogue of the Fourier matrix.

    Row 0 is constant 1/sqrt(p).  For j1 = 1 .. (p/2 - 1 if p even,
    (p-1)/2 if p odd), rows 2*j1-1 and 2*j1 are sqrt(2/p) cos(2 pi j1
    j2/p) and sqrt(2/p) sin(2 pi j1 j2/p).  Even p appends the
    alternating row (-1)^{j2}/sqrt(p); odd p stops at the sin row.
    """
    p = _integer(p, "p", 1)
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


def variance_profile_grid(h, N, n):
    """Squared-symbol grid (times n) at the Fourier frequencies.

    grid[l1, l2] = |Phi(l1/N, l2/n)|^2, the per-entry variance of the
    Fourier congruence.
    """
    N, n = _integer(N, "N", 1), _integer(n, "n", 1)
    t1 = np.arange(N) / N
    t2 = np.arange(n) / n
    return h.profile(t1[:, None], t2[None, :])


def symmetrized_variance_grid(h, N, n):
    """Exact per-entry variance grid (times n) of the real congruence.

    A cos/sin row pair of the real transform mixes the two mirror
    frequencies +-f, so each entry of Q_N Ztilde Q_n^T carries the
    average of the two mirror profile values:

        grid[l1, l2] = (|Phi(f1, f2)|^2 + |Phi(f1, -f2)|^2) / 2,
        f = floor((l + 1)/2) / p.

    The two terms coincide when |Phi(s, t)| = |Phi(s, -t)| (e.g. filters
    even in one index); in general neither alone is the variance.
    """
    if not h.is_real:
        raise ValueError("symmetrized grid requires a real-coefficient filter")
    N, n = _integer(N, "N", 1), _integer(n, "n", 1)
    f1 = np.floor((np.arange(N) + 1.0) / 2.0) / N
    f2 = np.floor((np.arange(n) + 1.0) / 2.0) / n
    plus = h.profile(f1[:, None], f2[None, :])
    minus = h.profile(f1[:, None], -f2[None, :])
    return 0.5 * (plus + minus)
