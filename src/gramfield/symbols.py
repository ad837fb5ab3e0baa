"""Finitely supported filter sequences and their spectral symbols.

The deterministic input of the whole pipeline is a finitely supported
complex sequence on the integer lattice Z^d, d = 1 or 2: the 2-d filter
h(k1, k2) or the 1-d sequence a(j).  One class, generic in ``dims``,
covers both (``FilterSequence2D`` and ``FilterSequence1D`` fix ``dims``),
and a filter evaluates its own symbol (``symbol``, one argument per
dimension) and variance profile |symbol|^2 (``profile``).  Everything
derived from a filter here is an exact finite sum: the absolute
coefficient sum, the autocovariance

    C(j) = sum_k h(k) * conj(h(k - j)),

and the trigonometric-polynomial symbol

    Phi(t1, t2) = sum_l h(l1, l2) * exp(2 pi i (l1*t1 - l2*t2))
    psi(t)      = sum_j a(j) * exp(2 pi i j t)

Note the minus sign on the l2*t2 term of Phi: the first index enters the
phase with a plus sign, the second with a minus sign.  Angle arguments
are in cycles on [0, 1], never radians.  Filters are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "FilterSequence",
    "FilterSequence2D",
    "FilterSequence1D",
    "filter_to_json_dict",
    "filter_from_json_dict",
]


def _is_tap_index(k):
    """True for an integer (by ``_integer``'s rule) with |k| < 2**63."""
    try:
        return abs(_integer(k, "tap index")) < 2 ** 63
    except ValueError:
        return False


def _index(key, dims):
    """A support point as a tuple of ``dims`` ints; a 1-d key may be bare."""
    ks = key if isinstance(key, tuple) else (key,)
    if len(ks) != dims or not all(map(_is_tap_index, ks)):
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

    def symbol(self, *t):
        """Phi(t1, t2) in 2-d, psi(t) in 1-d: one argument per dimension.

        Broadcasts over numpy arrays and returns a complex for scalar
        arguments.  |symbol| is at most ``coeff_abs_sum``, and the
        symbol is 1-periodic in each argument.
        """
        if len(t) != self.dims:
            raise TypeError(f"a {self.dims}-d symbol takes "
                            f"{self.dims} arguments, got {len(t)}")
        t = [np.asarray(x, dtype=np.float64) for x in t]
        out = np.zeros(np.broadcast(*t).shape, dtype=np.complex128)
        for idx, coeff in zip(self._k, self._c):
            phase = idx[0] * t[0]
            for kd, td in zip(idx[1:], t[1:]):
                phase = phase - kd * td
            out += coeff * np.exp(2j * np.pi * phase)
        if out.ndim == 0:
            return complex(out)
        return out

    def profile(self, *t):
        """Variance profile |symbol(t)|^2."""
        val = self.symbol(*t)
        return np.abs(val) ** 2 if isinstance(val, np.ndarray) else abs(val) ** 2


class FilterSequence2D(FilterSequence):
    """h(k1, k2) on Z^2, keyed by (k1, k2) pairs."""

    def __init__(self, coeffs):
        super().__init__(coeffs, dims=2)


class FilterSequence1D(FilterSequence):
    """a(j) on the integers, keyed by j."""

    def __init__(self, coeffs):
        super().__init__(coeffs, dims=1)


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


def _list(value, name):
    """``value`` itself; raises naming the key unless it is a list."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _is_number(value):
    """True for a real number (numpy scalars are) that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, name, verb="is"):
    """``float(value)``; raises a ValueError naming ``name`` unless
    ``value`` is a number, or when it is an integer too large for a float
    (the message says ``name`` ``verb`` one)."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {verb} an integer too large for a "
                         "float") from None


def _integer(value, name, minimum=None):
    """``value`` as an int: ints (numpy ints too) and integral floats
    pass, anything else (booleans too) raises a ValueError naming
    ``name``, as does an int below ``minimum`` when one is given.  An int
    is never routed through float, so seeds up to 2**64 - 1 stay exact."""
    if not (_is_number(value) and (isinstance(value, numbers.Integral)
                                   or float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _positive(value, name, zero=False):
    """``_number(value, name)``; raises a ValueError naming ``name``
    unless it is finite and positive (nonnegative when ``zero``)."""
    x = _number(value, name)
    if not (np.isfinite(x) and (x >= 0 if zero else x > 0)):
        sign = "nonnegative" if zero else "positive"
        raise ValueError(f"{name} must be finite and {sign}, got {x}")
    return x


def _complex_row(row, length, name, what):
    """``complex(re, im)`` of ``row = [..., re, im]``; raises a ValueError
    naming ``name`` unless ``row`` is ``what``, a list of ``length``
    numbers, or when it holds an integer too large for a float."""
    if not (isinstance(row, list) and len(row) == length
            and all(map(_is_number, row))):
        raise ValueError(f"{name} must be {what}, got {row!r}")
    return complex(*(_number(x, name, verb="holds") for x in row[-2:]))


def filter_from_json_dict(doc):
    """Filter from its JSON document (``filter_to_json_dict``'s format).

    Raises ValueError when the document is not an object holding exactly
    ``dims`` and ``entries`` or its entries not a list, and names the
    index of the first entry that is not [*k, re, im] with integer tap
    indices k and numbers re, im, that holds an integer too large for a
    float in re or im, or that has a tap index outside int64 or repeats
    an earlier tap.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"filter document must be an object, got {doc!r}")
    if set(doc) != {"dims", "entries"}:
        raise ValueError("filter document must hold exactly 'dims' and "
                         f"'entries', got keys {list(doc)}")
    dims = doc["dims"]
    if dims not in (1, 2):
        raise ValueError(f"unsupported filter dims: {dims!r}")
    what = f"[{', '.join(['k'] * dims)}, re, im] of numbers"
    coeffs = {}
    for i, e in enumerate(_list(doc["entries"], "filter entries")):
        name = f"filter entries[{i}]"
        coeff = _complex_row(e, dims + 2, name, what)
        for k in e[:dims]:
            if not _is_tap_index(k):
                raise ValueError(f"{name} has tap index {k!r}, which is "
                                 "not an int64 integer")
        key = tuple(int(k) for k in e[:dims])
        if key in coeffs:
            raise ValueError(f"{name} repeats tap {key}")
        coeffs[key] = coeff
    cls = FilterSequence2D if dims == 2 else FilterSequence1D
    return cls(coeffs)

