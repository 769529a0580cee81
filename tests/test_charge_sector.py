"""The coherence-order-0 sector built from the ancilla operators, against
the same block cut out of the whole space (the sector of trivial charges)."""

import warnings

import numpy as np
import pytest

from lsw import models, qrt
from lsw.exceptions import MixedChargeError, ToleranceNotMetError, ValidationError
from lsw.spectral import charge_sector, to_eigen
from lsw.superop import lift, to_dense
from lsw.sw import correction_terms, effective_liouvillian, generator_terms, reduced_effective


def burst(n_spins, omega):
    p = models.SuperradianceParams.from_sqrt_n_g(n_spins, 0.2, gamma=1.0, omega=omega)
    return models.superradiance_model(p)


def full_index(sector, dim_s):
    """The whole space's eigen index of every sector coordinate."""
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
    whole = charge_sector(m.ancilla)
    sd = whole.spectral
    keep = full_index(sector, dim_s)
    # the whole space's vectors are L_A's, lifted: R_k (x) |a><b| and l_k (x) <a b|
    assert np.array_equal(to_dense(sd.right), to_dense(lift(whole.right, dim_s, vec_cols=False)))
    assert np.array_equal(to_dense(sd.left), to_dense(lift(whole.left.T, dim_s, vec_cols=False).T))
    assert np.array_equal(to_dense(sector.spectral.right), to_dense(sd.right[:, keep]))
    assert np.array_equal(to_dense(sector.spectral.left), to_dense(sd.left[keep, :]))
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
    whole = charge_sector(m.ancilla)
    sd = whole.spectral
    series = correction_terms(generator_terms(sd, whole.v, 3), sd)
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


@pytest.mark.parametrize("n_spins,stored", [(8, 1152), (16, 4352)])
def test_cancelled_entries_are_not_stored(n_spins, stored):
    # the flip-flop pairs (sx/2, Ix) and (sy/2, Iy) cancel on about 40% of
    # the entries they reach; none of those is kept as an explicit zero
    v = charge_sector(burst(n_spins, 0.2).ancilla).v
    assert v.nnz == stored and np.all(v.data != 0)


def test_model_without_couplings_has_an_empty_block():
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.2)
    sector = charge_sector(qrt.AncillaModel(l0=l0, couplings=[]))
    assert sector.spectral.dim == 4 and sector.spectral.slow_dim == 1
    assert sector.v.shape == (4, 4) and sector.v.nnz == 0


def test_non_finite_block_raises_without_warning():
    # entries near 1e310: epsilon 1e300 times ancilla operators scaled by 1e10
    m = burst(2, 0.2)
    couplings = [(1e10 * a, s) for a, s in m.ancilla.couplings]
    huge = qrt.AncillaModel(l0=m.l_a, couplings=couplings, epsilon=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotMetError, match="non-finite"):
            charge_sector(huge)
