"""Finitely supported filter sequences and their spectral symbols.

The deterministic input of the whole pipeline is a finitely supported
complex sequence on the integer lattice Z^d, d = 1 or 2: the 2-d filter
h(k1, k2) or the 1-d sequence a(j).  One class, generic in ``dims``,
covers both (``FilterSequence2D`` and ``FilterSequence1D`` fix ``dims``),
and one ``SpectralSymbol`` evaluates the symbol of either, taking one
argument per filter dimension.  Everything derived from a filter here is
an exact finite sum: the absolute coefficient sum, the autocovariance

    C(j) = sum_k h(k) * conj(h(k - j)),

and the trigonometric-polynomial symbol

    Phi(t1, t2) = sum_l h(l1, l2) * exp(2 pi i (l1*t1 - l2*t2))
    psi(t)      = sum_j a(j) * exp(2 pi i j t)

Note the minus sign on the l2*t2 term of Phi: the first index enters the
phase with a plus sign, the second with a minus sign.  Angle arguments
are in cycles on [0, 1], never radians.  Filters and symbols are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "FilterSequence",
    "FilterSequence2D",
    "FilterSequence1D",
    "SpectralSymbol",
    "filter_to_json_dict",
    "filter_from_json_dict",
    "save_filter",
    "load_filter",
]


def _index(key, dims):
    """A support point as a tuple of ``dims`` ints; a 1-d key may be bare."""
    ks = key if isinstance(key, tuple) else (key,)
    if len(ks) != dims or any(k != int(k) for k in ks):
        raise ValueError(f"support point {key!r} is not a point of Z^{dims}")
    return tuple(int(k) for k in ks)


class FilterSequence:
    """Sparse complex sequence h(k) on Z^dims with finite support.

    ``coeffs`` maps index -> complex coefficient; an index is a
    ``dims``-tuple of integers (a bare integer when ``dims`` is 1).
    Support points are distinct by construction; an empty mapping
    represents h == 0.  Coefficients must be finite.
    """

    def __init__(self, coeffs, dims):
        if dims not in (1, 2):
            raise ValueError(f"unsupported filter dims: {dims!r}")
        items = sorted(((_index(key, dims), complex(c))
                        for key, c in coeffs.items()), key=lambda kc: kc[0])
        for key, c in items:
            if not np.isfinite(c):
                raise ValueError(f"coefficient {c} at {key} is not finite")
        self.dims = dims
        self._k = np.array([k for k, _ in items],
                           dtype=np.int64).reshape(len(items), dims)
        self._c = np.array([c for _, c in items], dtype=np.complex128)
        self._map = dict(items)

    @property
    def support(self):
        """Sorted support points: ints in 1-d, tuples otherwise."""
        keys = list(self._map)
        return [k for (k,) in keys] if self.dims == 1 else keys

    @property
    def coefficients(self):
        return self._c.copy()

    @property
    def coeff_abs_sum(self):
        """Sum of |h(k)| over the support (the sup bound for the symbol)."""
        return float(np.abs(self._c).sum())

    @property
    def is_real(self):
        """True when every coefficient has exactly zero imaginary part."""
        return bool(np.all(self._c.imag == 0.0))

    @property
    def radius(self):
        """Largest absolute index appearing in the support, 0 if empty."""
        return int(np.abs(self._k).max(initial=0))

    def __len__(self):
        return len(self._c)

    def __getitem__(self, key):
        return self._map.get(_index(key, self.dims), 0.0 + 0.0j)

    def covariance(self, *j):
        """Autocovariance C(j) = sum_k h(k) conj(h(k - j)).

        C(0) equals sum |h|^2 and C(-j) == conj(C(j)).
        """
        j = _index(j, self.dims)
        total = 0.0 + 0.0j
        for k, c in self._map.items():
            shifted = tuple(a - b for a, b in zip(k, j))
            total += c * np.conj(self._map.get(shifted, 0.0))
        return complex(total)

    def arrays(self):
        """One index array per dimension, then the coefficients, sorted."""
        return (*self._k.T, self._c)


class FilterSequence2D(FilterSequence):
    """h(k1, k2) on Z^2, keyed by (k1, k2) pairs."""

    def __init__(self, coeffs):
        super().__init__(coeffs, dims=2)


class FilterSequence1D(FilterSequence):
    """a(j) on the integers, keyed by j."""

    def __init__(self, coeffs):
        super().__init__(coeffs, dims=1)


class SpectralSymbol:
    """Evaluator for the trigonometric polynomial of a filter.

    Phi(t1, t2) = sum h(l1, l2) e^{2 pi i (l1 t1 - l2 t2)} in 2-d and
    psi(t) = sum a(j) e^{2 pi i j t} in 1-d; the symbol takes one
    argument per filter dimension.  |symbol| is bounded by the filter's
    absolute coefficient sum and the symbol is 1-periodic in each
    argument.  Evaluation broadcasts over numpy arrays; nothing is
    tabulated here (grids are the caller's concern).
    """

    def __init__(self, source: FilterSequence):
        self.source = source

    def eval(self, *t):
        if len(t) != self.source.dims:
            raise TypeError(f"a {self.source.dims}-d symbol takes "
                            f"{self.source.dims} arguments, got {len(t)}")
        t = [np.asarray(x, dtype=np.float64) for x in t]
        out = np.zeros(np.broadcast(*t).shape, dtype=np.complex128)
        for idx, coeff in zip(self.source._k, self.source._c):
            phase = idx[0] * t[0]
            for kd, td in zip(idx[1:], t[1:]):
                phase = phase - kd * td
            out += coeff * np.exp(2j * np.pi * phase)
        if out.ndim == 0:
            return complex(out)
        return out

    def profile(self, *t):
        """Variance profile |symbol(t)|^2."""
        val = self.eval(*t)
        return np.abs(val) ** 2 if isinstance(val, np.ndarray) else abs(val) ** 2


def filter_to_json_dict(filt):
    """JSON document for a filter: {"dims": d, "entries": [...]}.

    Each entry is [*k, re, im]: [k1, k2, re, im] in 2-d, [j, re, im] in
    1-d.  Round-trips exactly (floats are serialized via repr).
    """
    if not isinstance(filt, FilterSequence):
        raise TypeError(f"not a filter sequence: {type(filt)!r}")
    entries = [[*k, float(c.real), float(c.imag)]
               for k, c in zip(filt._k.tolist(), filt._c)]
    return {"dims": filt.dims, "entries": entries}


def filter_from_json_dict(doc):
    """Filter from its JSON document (``filter_to_json_dict``'s format).

    Raises ValueError when the document is not an object or its entries
    not a list, and names the index of the first entry that is not
    [*k, re, im] with integer tap indices k and numbers re, im, that
    repeats an earlier tap, or that holds an integer too large for a
    float or a tap index outside int64.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"filter document must be an object, got {doc!r}")
    dims = doc.get("dims")
    if dims not in (1, 2):
        raise ValueError(f"unsupported filter dims: {dims!r}")
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"filter entries must be a list, got {entries!r}")
    coeffs = {}
    for i, e in enumerate(entries):
        name = f"filter entries[{i}]"
        if not (isinstance(e, list) and len(e) == dims + 2
                and all(isinstance(x, (int, float))
                        and not isinstance(x, bool) for x in e)):
            raise ValueError(f"{name} must be [{', '.join(['k'] * dims)}, "
                             f"re, im] of numbers, got {e!r}")
        for k in e[:dims]:
            if not (abs(k) < 2 ** 63 and float(k).is_integer()):
                raise ValueError(f"{name} has tap index {k!r}, which is "
                                 "not an int64 integer")
        key = tuple(int(k) for k in e[:dims])
        if key in coeffs:
            raise ValueError(f"{name} repeats tap {key}")
        try:
            coeffs[key] = complex(float(e[dims]), float(e[dims + 1]))
        except OverflowError:
            raise ValueError(f"{name} holds an integer too large for a "
                             "float") from None
    cls = FilterSequence2D if dims == 2 else FilterSequence1D
    return cls(coeffs)


def save_filter(filt, path):
    with open(path, "w") as fh:
        json.dump(filter_to_json_dict(filt), fh)


def load_filter(path):
    with open(path) as fh:
        return filter_from_json_dict(json.load(fh))
