import numpy as np
import pytest

from wlift.experiments import noise_sweep
from wlift.lifting import hankel_basis
from wlift.signal import (Mixture, SampleSet, add_noise, project,
                          sample_uniform_m, synthesize)
from wlift.solver import complete
from wlift.weights import identity_weights


def test_synthesize_constant():
    y = synthesize(Mixture(3, [(1, 1)]))
    np.testing.assert_allclose(y, [1, 1, 1])


def test_synthesize_fourth_roots():
    y = synthesize(Mixture(4, [(1, 1j)]))
    np.testing.assert_allclose(y, [1j, -1, -1j, 1], atol=1e-15)


def test_synthesize_matches_scalar_summation():
    # independent oracle: evaluate each entry by direct scalar summation
    comps = [(1.0, np.exp(0.3j)), (2.0, np.exp(1.1j))]
    y = synthesize(Mixture(5, comps))
    for n in range(1, 6):
        expected = sum(b * z ** n for b, z in comps)
        assert abs(y[n - 1] - expected) < 1e-13


def test_synthesize_linear_in_coefficients():
    rng = np.random.default_rng(0)
    z = np.exp(2j * np.pi * rng.random(3))
    b1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    b2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    y1 = synthesize(Mixture(20, list(zip(b1, z))))
    y2 = synthesize(Mixture(20, list(zip(b2, z))))
    ysum = synthesize(Mixture(20, list(zip(b1 + b2, z))))
    np.testing.assert_allclose(ysum, y1 + y2, rtol=1e-12)


def test_mixture_rejects_degenerate():
    with pytest.raises(ValueError):
        Mixture(0, [(1, 1)])
    with pytest.raises(ValueError):
        Mixture(5, [])
    with pytest.raises(ValueError):
        Mixture(5, [(1, 0)])
    with pytest.raises(ValueError, match="non-finite base"):
        Mixture(5, [(1, complex(np.nan, 1))])
    for n in (2.5, float("nan")):  # not truncated to N = 2, nor passed on
        with pytest.raises(ValueError):
            Mixture(n, [(1, 1)])
    with pytest.raises(ValueError):  # a bool is no sample count
        Mixture(True, [(1, 1j)])
    assert Mixture(5.0, [(1, 1)]).n_samples == 5


def test_add_noise_zero_is_identity():
    y = np.array([1 + 2j, -3j])
    np.testing.assert_array_equal(add_noise(y, 0.0, seed=1), y)


def test_add_noise_amplitude_bound_and_determinism():
    y = np.zeros(1000, dtype=complex)
    out1 = add_noise(y, 0.1, seed=42)
    out2 = add_noise(y, 0.1, seed=42)
    assert np.max(np.abs(out1 - y)) <= 0.1
    np.testing.assert_array_equal(out1, out2)


def test_add_noise_rejects_negative_or_nan_bound():
    # an infinite bound would return infinite samples
    for bound in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise bound"):
            add_noise(np.zeros(4, dtype=complex), bound, seed=0)


def test_noise_bounds_reject_bools():
    # True compares equal to 1.0, so a flag passed as a bound would add
    # radius-1 noise; every entry point refuses it, as counts do. A bound
    # that is no real number gets the same ValueError, not a TypeError from
    # its comparison; None means no noise to complete() alone
    y = np.zeros(21, dtype=complex)
    sset = sample_uniform_m(21, 15, seed=0)
    for bound in (True, np.True_, False, np.False_, "x", 1 + 0j, None):
        with pytest.raises(ValueError, match="noise bound"):
            add_noise(y, bound, seed=0)
        if bound is not None:
            with pytest.raises(ValueError, match="noise bound"):
                complete(hankel_basis(21, 10), identity_weights((10, 12)),
                         sset, project(y, sset), noise_bound=bound)
        with pytest.raises(ValueError, match="noise bound"):
            noise_sweep(21, "hankel", 10, 1, 15, [bound], trials=1)


def test_add_noise_feasibility_budget():
    # ||P_Omega(e)||_2 <= sqrt(M) * eta for any Omega
    y = np.zeros(59, dtype=complex)
    e = add_noise(y, 0.05, seed=3)
    sset = sample_uniform_m(59, 20, seed=5)
    assert np.linalg.norm(project(e, sset)) <= np.sqrt(20) * 0.05


def test_uniform_m_full_and_cardinality():
    np.testing.assert_array_equal(sample_uniform_m(5, 5, seed=0).indices,
                                  np.arange(1, 6))
    assert sample_uniform_m(59, 30, seed=1).size == 30
    with pytest.raises(ValueError):
        sample_uniform_m(5, 6, seed=0)
    for n, m in ((5, 0), (True, True), (5, True), (5.0, 2), (5, 2.0)):
        with pytest.raises(ValueError):
            sample_uniform_m(n, m, seed=0)


def test_uniform_m_marginal_frequency():
    counts = np.zeros(10)
    draws = 2000
    for seed in range(draws):
        counts[sample_uniform_m(10, 4, seed=seed).indices - 1] += 1
    freq = counts / draws
    np.testing.assert_allclose(freq, 0.4, atol=0.05)


def test_project_examples():
    np.testing.assert_array_equal(
        project(np.array([1., 2, 3]), SampleSet(3, np.array([1, 3]))), [1, 3])
    y = np.array([1j, -1, -1j, 1])
    np.testing.assert_array_equal(project(y, SampleSet(4, np.array([2, 4]))),
                                  [-1, 1])
    np.testing.assert_array_equal(project(y, SampleSet(4, np.arange(1, 5))), y)
    with pytest.raises(ValueError, match="universe size"):
        project(y, SampleSet(5, np.array([2, 4])))


def test_project_embed_roundtrip():
    y = np.arange(1, 7).astype(complex)
    sset = SampleSet(6, np.array([2, 3, 5]))
    embedded = np.zeros(6, dtype=complex)
    embedded[sset.indices - 1] = project(y, sset)
    np.testing.assert_array_equal(project(embedded, sset), project(y, sset))


def test_sample_set_invariants():
    with pytest.raises(ValueError):
        SampleSet(4, np.array([1, 1, 2]))
    with pytest.raises(ValueError):
        SampleSet(4, np.array([0, 2]))
    with pytest.raises(ValueError):  # not truncated to [1, 2]
        SampleSet(10, [1.5, 2.7])
    np.testing.assert_array_equal(SampleSet(10, [1.0, 3.0]).indices, [1, 3])


def test_sample_set_rejects_bad_universe():
    # complement() would die on np.ones(11.5); a negative universe is no
    # set; True would build a one-index universe
    for universe in (10.5, -3, True):
        with pytest.raises(ValueError, match="universe"):
            SampleSet(universe, [])
    sset = SampleSet(np.int64(10), [1, 2])
    np.testing.assert_array_equal(sset.complement(), np.arange(3, 11))
    assert SampleSet(5.0, [1]).universe == 5
