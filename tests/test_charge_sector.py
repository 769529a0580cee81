"""The coherence-order sectors built from the ancilla operators, against
the same blocks cut out of the whole space (the sector of trivial charges)."""

import contextlib
import csv
import io
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import u1_symmetric_model
from lsw import cli, models, qrt, spectral, superop
from lsw.exceptions import (
    DefectiveOperatorError,
    EmptySlowSpaceError,
    MixedChargeError,
    ToleranceNotMetError,
    ValidationError,
)
from lsw.spectral import AncillaBasis, charge_sector, to_eigen
from lsw.operators import spin_operators
from lsw.superop import LindbladSpec, lift, lindblad_superop, to_dense
from lsw.sw import (
    correction_terms,
    decoupling_blocks,
    decoupling_residual,
    effective_liouvillian,
    generator_terms,
    reduced_effective,
)


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


def test_vec_basis_refuses_an_l_a_that_mixes_orders():
    # a drive sx mixes the qubit's levels, so L_A maps the populations (order
    # 0) to the coherences (orders +-1): L_A's own basis refuses those
    # charges, as its eigenvectors do, and without them it is the whole space
    sp_, sm_, _ = spin_operators(1)
    spec = LindbladSpec(hdim=2, hamiltonian=0.5 * (sp_ + sm_), jumps=[(1.0, sm_)])
    model = qrt.AncillaModel(l0=lindblad_superop(spec), couplings=[])
    charges = (np.array([1, 0]), np.zeros(1, int))
    with pytest.raises(ValidationError, match="L_A does not conserve the declared charge"):
        AncillaBasis.vec(model, charges)
    with pytest.raises(MixedChargeError):
        AncillaBasis(model, charges)
    index, dims, l0, v = AncillaBasis.vec(model).block([0])
    assert dims.tolist() == [4] and np.array_equal(index[0], np.arange(4))
    assert np.array_equal(to_dense(l0), model.l0) and v.shape == (4, 4) and not to_dense(v).any()


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
    # the entries they reach; none of those is kept as an explicit zero in
    # a CSR block (N=16, past superop.DENSE_LIMIT; N=8 is dense)
    v = charge_sector(burst(n_spins, 0.2).ancilla).v
    assert np.count_nonzero(to_dense(v)) == stored
    assert isinstance(v, np.ndarray) or (v.nnz == stored and np.all(v.data != 0))


def test_model_without_couplings_has_an_empty_block():
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.2)
    sector = charge_sector(qrt.AncillaModel(l0=l0, couplings=[]))
    assert sector.spectral.dim == 4 and sector.spectral.slow_dim == 1
    assert sector.v.shape == (4, 4) and not to_dense(sector.v).any()


def test_non_finite_block_raises_without_warning():
    # entries near 1e310: epsilon 1e300 times ancilla operators scaled by 1e10
    m = burst(2, 0.2)
    couplings = [(1e10 * a, s) for a, s in m.ancilla.couplings]
    huge = qrt.AncillaModel(l0=m.l_a, couplings=couplings, epsilon=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotMetError, match="non-finite"):
            charge_sector(huge)


def flip_flop(n_spins, g=1.0, gamma=1.0, omega=0.2):
    """The superradiance ancilla model and its charges."""
    params = models.SuperradianceParams(n_spins=n_spins, g=g, gamma=gamma, omega=omega)
    return models.superradiance_ancilla(params), models.superradiance_charges(n_spins)


@pytest.mark.parametrize("n_spins", [1, 3, 8])
def test_sectors_tile_the_space(n_spins):
    # the orders -N..N hold the zero modes; with them the two coordinates of
    # orders +-(N+1) (|up><dn| (x) |a><b| at the extreme nuclear ladder
    # states), which hold none, make up the whole space
    ancilla, charges = flip_flop(n_spins)
    basis = AncillaBasis(ancilla, charges)
    orders = basis.orders()
    assert orders.tolist() == list(range(-n_spins, n_spins + 1))
    sectors = basis.sectors(orders)
    assert sum(s.spectral.dim for s in sectors) == 4 * (n_spins + 1) ** 2 - 2
    assert sum(s.spectral.slow_dim for s in sectors) == (n_spins + 1) ** 2
    for order in (n_spins + 1, -n_spins - 1):
        with pytest.raises(EmptySlowSpaceError, match=f"order-{order} sector"):
            AncillaBasis(ancilla, charges).sectors([order])
    # a sector cut from the stack is bit for bit the one built alone
    for order, stacked in zip(orders, sectors):
        alone = AncillaBasis(ancilla, charges).sectors([order])[0]
        for name in ("l0_eigen", "right", "left"):
            got, want = getattr(stacked.spectral, name), getattr(alone.spectral, name)
            assert np.array_equal(to_dense(got), to_dense(want))
        assert np.array_equal(to_dense(stacked.v), to_dense(alone.v))
        assert np.array_equal(stacked.index, alone.index)
        assert np.array_equal(stacked.spectral.eigenvalues, alone.spectral.eigenvalues)
        assert np.array_equal(stacked.spectral.slow, alone.spectral.slow)


@pytest.mark.parametrize("n_spins", [1, 2, 4, 6])
def test_mirror_sectors_have_equal_block_norms(n_spins):
    # every generator here preserves Hermiticity, which maps order q to -q:
    # the scan builds only q >= 0
    ancilla, charges = flip_flop(n_spins, g=0.7, omega=0.3)
    basis = AncillaBasis(ancilla, charges)
    norms = {}
    for order, sector in zip(basis.orders(), basis.sectors(basis.orders())):
        gen = generator_terms(sector.spectral, sector.v, 3)
        norms[order] = np.array([decoupling_blocks(sector.spectral, gen, e, 3) for e in (0.1, 0.03)])
    for order in range(1, n_spins + 1):
        assert np.abs(norms[-order] / norms[order] - 1).max() <= 1e-10


def test_charge_breaking_coupling_raises_in_every_sector():
    ancilla, charges = flip_flop(4)
    single = qrt.AncillaModel(l0=ancilla.l0, couplings=ancilla.couplings[:1], epsilon=1.0)
    for order in (0, 2, -3):
        with pytest.raises(ValidationError, match="do not conserve the declared charge"):
            AncillaBasis(single, charges).sectors([order])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n_spins=st.integers(1, 8),
    g=st.floats(0.2, 1.5),
    gamma=st.floats(0.5, 2.0),
    omega=st.floats(-0.6, 0.6),
    order=st.integers(1, 5),
)
def test_scan_per_order_matches_whole_space_residual(tmp_path_factory, n_spins, g, gamma, omega, order):
    # the CLI scan, per coherence order, against the whole-space sector
    model = {"kind": "superradiance", "n_spins": n_spins, "g": g, "gamma": gamma, "omega": omega}
    tmp = tmp_path_factory.mktemp("scan")
    (tmp / "run.yaml").write_text(yaml.safe_dump({"model": model, "order": order, "epsilons": [0.1, 0.03]}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["decoupling-scan", "--config", str(tmp / "run.yaml"), "--out", str(tmp / "o")])
    assert code == 0
    with open(tmp / "o_decoupling.csv") as fh:
        got = [float(row["residual"]) for row in csv.DictReader(fh)]
    ancilla, _ = flip_flop(n_spins, g, gamma, omega)
    whole = charge_sector(ancilla)
    gen = generator_terms(whole.spectral, whole.v, order)
    want = [decoupling_residual(whole.spectral, gen, e, order) for e in (0.1, 0.03)]
    # 1e-9 relative, or 2e-17 absolute, a few roundings of the O(1) entries
    # of L0 + eps V: near 1e-9 both routes round at about 1e-17 (6.5e-18
    # apart, 1.1e-8 relative, on a 5.7e-10 residual at N=6, order 5)
    for r, w in zip(got, want):
        assert abs(r - w) <= max(1e-9 * w, 2e-17), (r, w)


def _all_csr_and_default(build):
    """``build()`` with superop.DENSE_LIMIT 0, where every matrix assembled
    from entries is CSR (the route before the dense rule), and at the default."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(superop, "DENSE_LIMIT", 0)
        csr = build()
    return csr, build()


def _assert_same_values(got, want):
    for g, w in zip(got, want):
        g, w = to_dense(g), to_dense(w)
        assert g.shape == w.shape
        assert np.abs(g - w).max(initial=0.0) <= 1e-13 * max(1.0, np.abs(w).max(initial=0.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    q_a=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    q_s=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_dense_storage_keeps_every_value(q_a, q_s, seed):
    # the blocks of AncillaBasis.block and .sectors (L0, V and the vec-space
    # vectors), in eigen coordinates and in L_A's own basis, and the real
    # generator of the Hermitian frame, from a CSR G and from a dense G,
    # hold the same values dense as CSR
    model, charges, _ = u1_symmetric_model(q_a, q_s, seed)
    vec = AncillaBasis.vec(model, charges)
    every = vec.orders(every=True)

    def build():
        (k, a, b), _, l0, v = AncillaBasis.vec(model, charges).block(every)
        i, j = np.divmod(k, len(q_a))
        frame = spectral.hermitian_frame(i * len(q_s) + a, j * len(q_s) + b)
        out = [l0, v, spectral.frame_generator(frame, l0 + v)]
        try:
            basis = AncillaBasis(model, charges)
            sectors = basis.sectors(basis.orders())
        except (MixedChargeError, DefectiveOperatorError):  # a draw the eigen route refuses
            return out
        out += basis.block(basis.orders())[2:]
        for s in sectors:
            out += [s.spectral.l0_eigen, s.v, s.spectral.right, s.spectral.left]
        return out

    csr, default = _all_csr_and_default(build)
    assert len(csr) == len(default)
    assert all(not isinstance(m, np.ndarray) for m in csr)
    _assert_same_values(default, csr)


def test_engine_blocks_keep_their_storage():
    # the N=32 q=0 sector (130 coordinates) is assembled dense, and
    # superop.compact gives every engine block the storage the all-CSR
    # assembly gives it: its fast blocks (97 x 97) stay CSR
    ancilla, charges = flip_flop(32, g=0.2 / np.sqrt(32))

    def build():
        sector = charge_sector(ancilla, charges)
        gen = generator_terms(sector.spectral, sector.v, 3)
        series = correction_terms(gen, sector.spectral)
        pairs = [*gen.blocks, *series.blocks]
        return [sector.v, *gen.v_blocks, *gen.l0_blocks, *(x for pair in pairs for x in pair)]

    csr, default = _all_csr_and_default(build)
    assert isinstance(default[0], np.ndarray) and not isinstance(csr[0], np.ndarray)
    kinds = [isinstance(m, np.ndarray) for m in csr[1:]]
    assert [isinstance(m, np.ndarray) for m in default[1:]] == kinds
    assert any(kinds) and not all(kinds)
    _assert_same_values(default, csr)
