import numpy as np

from flowfx import toy


def _centers_formula():
    ang = 2.0 * np.pi * np.arange(toy.N_MODES) / toy.N_MODES
    return np.stack([np.cos(ang), np.sin(ang)], axis=1) * toy.RING_RADIUS


def test_ring_centers_are_one_read_only_constant():
    centers = toy.ring_centers()
    assert centers is toy.ring_centers() and not centers.flags.writeable
    assert np.array_equal(centers, _centers_formula())


def test_sample_ring_draws_what_the_formula_draws():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    x0, labels = toy.sample_ring(rng, 300)
    want_labels = ref.integers(0, toy.N_MODES, 300)
    want = _centers_formula()[want_labels] + toy.MODE_SIGMA * ref.standard_normal((300, 2))
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(x0.view(np.uint64), want.view(np.uint64))
    assert x0.flags.writeable
