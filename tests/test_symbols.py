import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gramfield
from gramfield import limit_solver, matgen, spectra, symbols, transforms
from gramfield.symbols import (FilterSequence, FilterSequence1D,
                               FilterSequence2D, filter_from_json_dict,
                               filter_to_json_dict)


def random_filter2d(rng, n_terms=5, span=3):
    coeffs = {}
    while len(coeffs) < n_terms:
        k = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
    return FilterSequence2D(coeffs)


class TestPhi:
    def test_zero_frequency_term(self):
        h = FilterSequence2D({(0, 0): 1})
        for t1, t2 in [(0, 0), (0.3, 0.7), (1, 1)]:
            assert h.symbol(t1, t2) == pytest.approx(1.0)

    def test_single_exponential(self):
        h = FilterSequence2D({(1, 0): 1})
        assert h.symbol(0.25, 0.9) == pytest.approx(1j)

    def test_two_term_cancellation(self):
        # 1 + e^{-i pi} = 0 at (t1, t2) = (0, 0.5); minus sign on the
        # second index is what produces the cancellation
        h = FilterSequence2D({(0, 0): 1, (0, 1): 1})
        assert abs(h.symbol(0.0, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_sup_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            filt = random_filter2d(rng)
            t1, t2 = rng.random(20), rng.random(20)
            assert np.all(np.abs(filt.symbol(t1, t2))
                          <= filt.coeff_abs_sum + 1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(8)
        filt = random_filter2d(rng)
        for t1, t2 in rng.random((10, 2)):
            value = filt.symbol(t1, t2)
            assert value == pytest.approx(filt.symbol(t1 + 1, t2))
            assert value == pytest.approx(filt.symbol(t1, t2 - 1))

    def test_parseval_grid_sum_exact(self):
        # discrete orthogonality: the M x M grid average of |Phi|^2
        # equals C(0,0) exactly once M exceeds the support diameter
        rng = np.random.default_rng(9)
        filt = random_filter2d(rng, n_terms=4, span=2)
        m = 4 * (filt.radius + 1)
        t = np.arange(m) / m
        grid = np.abs(filt.symbol(t[:, None], t[None, :])) ** 2
        c00 = filt.covariance(0, 0).real
        assert grid.mean() == pytest.approx(c00, rel=1e-12)


class TestPsi:
    def test_constant(self):
        h = FilterSequence1D({0: 1})
        assert h.symbol(0.37) == pytest.approx(1.0)

    def test_cosine_pair(self):
        h = FilterSequence1D({1: 1, -1: 1})
        assert h.symbol(0.5) == pytest.approx(-2.0)
        t = np.linspace(0, 1, 11)
        assert np.allclose(h.symbol(t), 2 * np.cos(2 * np.pi * t))


class TestCovariance:
    def test_identity_filter(self):
        h = FilterSequence2D({(0, 0): 1})
        assert h.covariance(0, 0) == pytest.approx(1.0)
        assert h.covariance(1, 0) == pytest.approx(0.0)

    def test_two_term_filter(self):
        h = FilterSequence2D({(0, 0): 1, (1, 0): 0.5})
        assert h.covariance(0, 0) == pytest.approx(1.25)
        assert h.covariance(1, 0) == pytest.approx(0.5)

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            h = random_filter2d(rng)
            j1, j2 = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            assert h.covariance(-j1, -j2) == pytest.approx(
                np.conj(h.covariance(j1, j2)))

    def test_vanishes_beyond_support_diameter(self):
        rng = np.random.default_rng(11)
        h = random_filter2d(rng, span=2)
        assert h.covariance(5, 0) == 0
        assert h.covariance(0, -5) == 0


class TestJsonRoundTrip:
    def test_2d_exact(self):
        h = FilterSequence2D({(0, 0): 1 + 0.1j, (2, -3): -0.7 + np.pi * 1j})
        back = filter_from_json_dict(
            json.loads(json.dumps(filter_to_json_dict(h))))
        assert back.support == h.support
        assert np.array_equal(back.coefficients, h.coefficients)

    def test_1d_exact(self):
        a = FilterSequence1D({-5: 0.125, 0: 1.0, 3: -2.5e-17j})
        back = filter_from_json_dict(
            json.loads(json.dumps(filter_to_json_dict(a))))
        assert back.support == a.support
        assert np.array_equal(back.coefficients, a.coefficients)

    def test_schema_shape(self):
        doc = filter_to_json_dict(FilterSequence2D({(1, 2): 3 + 4j}))
        assert doc == {"dims": 2, "entries": [[1, 2, 3.0, 4.0]]}
        doc1 = filter_to_json_dict(FilterSequence1D({7: 1j}))
        assert doc1 == {"dims": 1, "entries": [[7, 0.0, 1.0]]}
        assert json.loads(json.dumps(doc)) == doc

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            filter_from_json_dict({"dims": 3, "entries": []})

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], r"filter document must be an object, got \[1, 2\]"),
        ({"dims": 2, "entries": 5}, "filter entries must be a list, got 5"),
        ({"dims": 2, "entires": [[0, 0, 1.0, 0.0]]},
         r"filter document must hold exactly 'dims' and 'entries', got keys "
         r"\['dims', 'entires'\]"),
        ({"dims": 1}, r"filter document must hold exactly 'dims' and "
                      r"'entries', got keys \['dims'\]"),
        ({"dims": 1, "entries": [], "name": "a"},
         r"filter document must hold exactly 'dims' and 'entries', got keys "
         r"\['dims', 'entries', 'name'\]")],
        ids=["document_not_object", "entries_not_list", "misspelt_entries",
             "no_entries", "extra_key"])
    def test_bad_document_rejected(self, doc, message):
        # used to raise a bare AttributeError / TypeError, or to load a
        # document without "entries" (misspelt or not) as h = 0
        with pytest.raises(ValueError, match=f"^{message}"):
            filter_from_json_dict(doc)

    @pytest.mark.parametrize("entries, message", [
        ([[0, 0, 1.0, 0.0], [1.7, 0, 0.5, 0.0]],
         r"entries\[1\] has tap index 1\.7, which is not an int64 integer"),
        ([[2 ** 63, 0, 1.0, 0.0]], r"entries\[0\] has tap index 9223372036"),
        ([[0, -2 ** 63, 1.0, 0.0]],
         r"entries\[0\] has tap index -9223372036"),
        ([[float("nan"), 0, 1.0, 0.0]], r"entries\[0\] has tap index nan"),
        ([[0, 0, 1.0, 0.0], [0, 1, 0.5, 0.0], [0, 0, 2.0, 0.0]],
         r"entries\[2\] repeats tap \(0, 0\)"),
        ([[0, 0, 1.0, 0.0], [1, 0, 0.5]],
         r"entries\[1\] must be \[k, k, re, im\] of numbers"),
        ([[0, 0, 10 ** 400, 0.0]],
         r"entries\[0\] holds an integer too large for a float"),
        ([[0, 0, 1.0, 0.0], [1, 0, 0.5, -10 ** 400]],
         r"entries\[1\] holds an integer too large for a float")],
        ids=["non_integral_index", "index_beyond_int64", "index_int64_min",
             "nan_index", "repeated_tap",
             "short_entry", "huge_integer_coefficient",
             "huge_integer_imaginary_part"])
    def test_bad_entry_rejected(self, entries, message):
        # used to truncate the index to tap (1, 0), keep the last of two
        # coefficients, or raise a bare IndexError / OverflowError
        with pytest.raises(ValueError, match=f"^filter {message}"):
            filter_from_json_dict({"dims": 2, "entries": entries})


def test_numpy_scalar_entries_accepted():
    # numpy scalars are numbers here as in SolverConfig; an np.int64 tap
    # index used to be rejected as not a number
    h = filter_from_json_dict({"dims": 2, "entries": [
        [np.int64(1), np.int32(-2), np.float32(0.5), np.int64(3)]]})
    assert h.support == [(1, -2)] and h[1, -2] == 0.5 + 3j


def test_empty_filter_is_zero():
    h = FilterSequence2D({})
    assert h.coeff_abs_sum == 0.0
    assert h.radius == 0
    assert h.symbol(0.1, 0.2) == 0.0


def test_real_flag():
    assert FilterSequence2D({(0, 0): 1.0, (1, 1): -2.0}).is_real
    assert not FilterSequence2D({(0, 0): 1e-30j}).is_real


FILTER_CLASSES = {1: FilterSequence1D, 2: FilterSequence2D}


def filters(dims, bound=None):
    """Random filters on Z^dims with support in [-4, 4]^dims."""
    reals = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=None if bound is None else -bound,
                      max_value=bound)
    coeffs = st.dictionaries(
        st.tuples(*[st.integers(-4, 4)] * dims),
        st.builds(complex, reals, reals), max_size=6)
    return coeffs.map(FILTER_CLASSES[dims])


@pytest.mark.parametrize("dims", [1, 2])
class TestFilterProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_exact(self, dims, data):
        h = data.draw(filters(dims))
        back = filter_from_json_dict(json.loads(json.dumps(
            filter_to_json_dict(h))))
        assert type(back) is type(h)
        assert back.support == h.support
        assert np.array_equal(back.coefficients, h.coefficients)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_covariance_conjugate_symmetry(self, dims, data):
        h = data.draw(filters(dims, bound=10.0))
        j = data.draw(st.tuples(*[st.integers(-9, 9)] * dims))
        assert h.covariance(*(-x for x in j)) == pytest.approx(
            np.conj(h.covariance(*j)), rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parseval_grid_mean(self, dims, data):
        # discrete orthogonality: the grid average of |symbol|^2 equals
        # C(0) once the grid exceeds the support diameter 2 * radius
        h = data.draw(filters(dims, bound=10.0))
        m = 2 * h.radius + 1 + data.draw(st.integers(0, 3))
        t = np.arange(m) / m
        axes = np.meshgrid(*[t] * dims, indexing="ij", sparse=True)
        grid = h.profile(*axes)
        c0 = h.covariance(*[0] * dims)
        assert c0.imag == 0.0
        assert grid.mean() == pytest.approx(c0.real, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf),
                                 complex(1.0, np.nan)])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        FilterSequence2D({(0, 0): 1.0, (1, 0): bad})
    with pytest.raises(ValueError, match="not finite"):
        FilterSequence1D({0: 1.0, 1: bad})


@pytest.mark.parametrize("key", [(2 ** 63, 0), (np.inf, 0), (np.nan, 0),
                                 (-2 ** 63, 0), (True, 0)])
def test_bad_support_point_rejected(key):
    # the constructor reads tap indices by the JSON reader's rule; the
    # first three used to raise OverflowError or a bare NaN error, the
    # last two were accepted, -2**63 with radius 0
    with pytest.raises(ValueError, match=r"is not a point of Z\^2"):
        FilterSequence2D({key: 1.0})


def test_generic_symbol_owns_profile_methods():
    # the benchmark tracer wraps the profile method in each exported class's
    # own namespace, so it must exist once
    assert "profile" in vars(FilterSequence)


def test_module_lists_match_package_exports():
    # the benchmark tracer wraps what each module's __all__ lists: every
    # name there must be a distinct object, and the package must export
    # exactly the names its modules list
    modules = (symbols, matgen, transforms, spectra, limit_solver)
    exported = {}
    for name, obj in vars(gramfield).items():
        if not name.startswith("_") and not inspect.ismodule(obj):
            exported.setdefault(obj.__module__, set()).add(name)
    assert set(exported) == {mod.__name__ for mod in modules}
    for mod in modules:
        objs = [getattr(mod, name) for name in mod.__all__]
        assert len({id(o) for o in objs}) == len(objs), mod.__name__
        assert set(mod.__all__) == exported[mod.__name__], mod.__name__


def test_symbol_takes_one_argument_per_dimension():
    with pytest.raises(TypeError):
        FilterSequence1D({0: 1}).symbol(0.1, 0.2)
    with pytest.raises(TypeError):
        FilterSequence2D({(0, 0): 1}).symbol(0.1)
