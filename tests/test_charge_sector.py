"""The coherence-order-0 sector built from the ancilla operators, against
the same block cut out of the full product-backend engine."""

import numpy as np
import pytest

from lsw import models, qrt
from lsw.exceptions import MixedChargeError, ValidationError
from lsw.spectral import charge_sector, decompose, to_eigen
from lsw.superop import to_dense
from lsw.sw import correction_terms, effective_liouvillian, generator_terms, reduced_effective


def burst(n_spins, omega):
    p = models.SuperradianceParams.from_sqrt_n_g(n_spins, 0.2, gamma=1.0, omega=omega)
    return models.superradiance_model(p)


def full_index(sector, dim_s):
    """The product backend's eigen index of every sector coordinate."""
    k, a, b = sector.index
    return (k * dim_s + a) * dim_s + b


@pytest.mark.parametrize("n_spins", [2, 4, 16])
@pytest.mark.parametrize("omega", [0.0, 0.2])
def test_sector_is_the_eigen_coordinate_slice(n_spins, omega):
    m = burst(n_spins, omega)
    sector = charge_sector(m.ancilla, m.charges)
    dim_s = m.dims[1]
    assert sector.spectral.dim == 4 * n_spins + 2
    assert sector.spectral.slow_dim == n_spins + 1
    sd = decompose(m.l_a, dim_s=dim_s)
    keep = full_index(sector, dim_s)
    # the sector is closed under V: no column of it reaches another order
    v_full = to_dense(to_eigen(sd, m.v))
    outside = np.setdiff1d(np.arange(sd.dim), keep)
    assert np.abs(v_full[np.ix_(outside, keep)]).max() <= 1e-15
    assert np.abs(to_dense(sector.v) - v_full[np.ix_(keep, keep)]).max() <= 1e-15
    l0_full = to_dense(sd.l0_eigen)[np.ix_(keep, keep)]
    assert np.abs(to_dense(sector.spectral.l0_eigen) - l0_full).max() <= 1e-15
    assert np.array_equal(sector.spectral.eigenvalues, sd.eigenvalues[keep])
    assert np.array_equal(keep[sector.spectral.slow], np.intersect1d(keep, sd.slow))


@pytest.mark.parametrize("n_spins", [2, 4, 16])
def test_population_blocks_match_reduced_effective(n_spins):
    m = burst(n_spins, 0.2)
    sector = charge_sector(m.ancilla, m.charges)
    ssd, sv = sector.spectral, sector.v
    sector_series = correction_terms(generator_terms(ssd, sv, 3), ssd)
    sd = decompose(m.l_a, dim_s=m.dims[1])
    series = correction_terms(generator_terms(sd, m.v, 3), sd)
    dn = m.dims[1]
    populations = np.arange(dn) * (dn + 1)  # vec index of |a><a|
    for order in (2, 3):
        want = reduced_effective(series, sd, m.dims, order).matrix
        want = want[np.ix_(populations, populations)]
        got = effective_liouvillian(sector_series, order)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_mixed_charge_eigenvector_raises():
    # the electron block with its two coherences rotated into |dn><up| +-
    # |up><dn|: each right eigenvector then spans the orders -1 and +1
    m = burst(2, 0.2)
    # columns: vec |dn><dn|, |dn><up| + |up><dn|, |dn><up| - |up><dn| and
    # |up><up| - |dn><dn|, row-stacked with up first
    right = np.array([[0, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, -1]], dtype=complex)
    lam = models.electron_eigenvalues(1.0, 0.2)
    l0 = right @ np.diag(lam) @ np.linalg.inv(right)
    mixed = qrt.AncillaModel(l0=l0, couplings=m.ancilla.couplings, epsilon=m.ancilla.epsilon)
    with pytest.raises(MixedChargeError, match="spans coherence orders"):
        charge_sector(mixed, m.charges)


def test_single_flip_flop_coupling_leaves_the_sector():
    # sx/2 (x) Ix alone raises the electron and the nuclei together; only
    # the sum with sy/2 (x) Iy conserves the charge
    m = burst(4, 0.2)
    flip_x = m.ancilla.couplings[0]
    single = qrt.AncillaModel(l0=m.l_a, couplings=[flip_x], epsilon=m.ancilla.epsilon)
    with pytest.raises(ValidationError, match="do not conserve the declared charge"):
        charge_sector(single, m.charges)
    assert charge_sector(m.ancilla, m.charges).spectral.dim == 18
