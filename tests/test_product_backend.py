"""The structured backend on the whole product space against the dense one.

For L0 = L_A (x) 1_S every quantity of the decoupling recursion is a
basis-independent D x D object (S_n, W_n, the full-space slow generator)
or a spectrum, so the dense reference and ``charge_sector`` with trivial
charges (one sector, the whole space) must agree on it although their
eigenvector bases differ.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec
from lsw import models
from lsw.operators import hermitian_basis
from lsw.qrt import AncillaModel
from lsw.spectral import assemble, charge_sector, decompose, fast_inverse, projectors, to_eigen
from lsw.superop import LindbladSpec, lift, lindblad_superop, to_dense
from lsw.sw import (
    closed_form_slow_orders,
    correction_terms,
    effective_liouvillian,
    generator_terms,
    match_eigenvalues,
    reduced_effective,
)

TOL = 1e-10


def ancilla_times_identity(dim_a, dim_s, seed, sparse_coupling, assembled):
    """Random block L_A, the full L0 = L_A (x) 1_S, and the ancilla model of
    L_A with couplings whose V has unit norm.

    The full L0 is either the lift written out entrywise,
    L0[(i a)(j b), (k c)(l d)] = L_A[(i j), (k l)] delta_ac delta_bd, so it is
    exactly a product, or assembled by ``lindblad_superop`` from H_A (x) 1 and
    complex jumps L_k (x) 1, which rounds differently in the last bit.  V
    comes from a random Hermitian on the whole space, written as the pairs
    (c_ij F_i, G_j) over the Hermitian bases F of A and G of S, or from a
    flip-flop plus z-type coupling in three pairs, whose block stays sparse.
    """
    rng = np.random.default_rng(seed)
    spec, _ = random_spec(dim_a, 2, seed)  # models.random_lindblad_model's L0 data
    l_a = lindblad_superop(spec)
    eye = np.eye(dim_s)
    dim = (dim_a * dim_s) ** 2
    if assembled:
        full = LindbladSpec(
            hdim=dim_a * dim_s,
            hamiltonian=np.kron(spec.hamiltonian, eye),
            jumps=[(rate, np.kron(op, eye)) for rate, op in spec.jumps],
        )
        l0 = lindblad_superop(full)
    else:
        l0 = np.einsum(
            "ijkl,ac,bd->iajbkcld", l_a.reshape((dim_a,) * 4), eye, eye
        ).reshape(dim, dim)
    if sparse_coupling:
        # r (f (x) g + f^T (x) g^T) + z_a (x) z_s, with f (x) g + f^T (x) g^T =
        # ((f + f^T) (x) (g + g^T) - i(f - f^T) (x) i(g - g^T)) / 2
        f, g = rng.standard_normal() * np.eye(dim_a, k=1), np.eye(dim_s, k=1).T
        pairs = [
            ((f + f.T) / 2, g + g.T),
            (-0.5j * (f - f.T), 1j * (g - g.T)),
            (np.diag(rng.standard_normal(dim_a)), np.diag(np.arange(dim_s))),
        ]
    else:
        basis_a = hermitian_basis(dim_a, traceless=False)
        basis_s = hermitian_basis(dim_s, traceless=False)
        c = rng.standard_normal((len(basis_a), len(basis_s)))
        pairs = [(c[i, j] * fa, gs) for i, fa in enumerate(basis_a) for j, gs in enumerate(basis_s)]
    norm = np.linalg.norm(sum(np.kron(a, s) for a, s in pairs), 2)
    return l_a, l0, AncillaModel(l0=l_a, couplings=[(a / norm, s) for a, s in pairs])


def assert_close(got, want):
    got, want = to_dense(got), to_dense(want)
    assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    dim_a=st.integers(2, 4),
    dim_s=st.integers(2, 3),
    order=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    sparse_coupling=st.booleans(),
    assembled=st.booleans(),
)
def test_product_backend_matches_dense(dim_a, dim_s, order, seed, sparse_coupling, assembled):
    l_a, l0, model = ancilla_times_identity(dim_a, dim_s, seed, sparse_coupling, assembled)
    if not assembled:
        assert np.array_equal(to_dense(lift(l_a, dim_s)), l0)
    dims = (dim_a, dim_s)
    v = model.perturbation()
    sector, sd_d = charge_sector(model), decompose(l0)
    # the sector's block is V in its vec-space eigen coordinates
    assert_close(sector.v, to_eigen(sector.spectral, v))
    runs = {}
    for sd, v_eigen in ((sector.spectral, sector.v), (sd_d, to_eigen(sd_d, v))):
        gen = generator_terms(sd, v_eigen, order)
        series = correction_terms(gen, sd)
        rs, ls = sd.right[:, sd.slow], sd.left[sd.slow, :]
        full_slow = rs @ effective_liouvillian(series, order) @ ls
        closed = [rs @ x @ ls for x in closed_form_slow_orders(sd, v_eigen)]
        reduced = reduced_effective(series, sd, dims, order).matrix
        # each eigenvalue belongs to its own right vector
        right = to_dense(sd.right)
        assert_close(l0 @ right, right * sd.eigenvalues)
        runs[sd.backend] = (sd, gen, series, full_slow, closed, reduced)
    assert set(runs) == {"sector", "dense"}
    (sd_p, gen_p, ser_p, full_p, closed_p, red_p) = runs["sector"]
    (sd_d, gen_d, ser_d, full_d, closed_d, red_d) = runs["dense"]
    for c_p, c_d in zip(closed_p, closed_d):
        assert_close(c_p, c_d)
    # the two backends order and scale their eigenvectors differently, so
    # the eigen-coordinate terms are compared by their full-space images
    terms = [
        [assemble(sd, sf=a, fs=b) for a, b in gen.blocks]
        + [assemble(sd, ss=ss, ff=ff) for ss, ff in series.blocks]
        for sd, gen, series in ((sd_p, gen_p, ser_p), (sd_d, gen_d, ser_d))
    ]
    for x_p, x_d in zip(*terms, strict=True):
        assert_close(sd_p.right @ x_p @ sd_p.left, sd_d.right @ x_d @ sd_d.left)
    assert_close(full_p, full_d)
    assert_close(red_p, red_d)
    matched = match_eigenvalues(sd_d.eigenvalues, sd_p.eigenvalues)
    assert np.abs(matched - sd_d.eigenvalues).max() <= TOL * max(
        1.0, np.abs(sd_d.eigenvalues).max()
    )
    assert sd_p.slow_dim == sd_d.slow_dim and abs(sd_p.gap - sd_d.gap) <= TOL


def test_superradiance_model_takes_product_path():
    p = models.SuperradianceParams(n_spins=3, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = charge_sector(m.ancilla).spectral
    assert sd.backend == "sector"
    assert np.abs(to_dense(sd.right @ sd.l0_eigen @ sd.left - m.l0)).max() < 1e-12
    assert sd.slow_dim == m.dims[1] ** 2 and sd.dim == m.l0.shape[0]
    eye = np.eye(sd.dim)
    assert np.abs(to_dense(sd.left @ sd.right) - eye).max() < 1e-12
    pq = projectors(sd)
    assert np.abs(to_dense(pq.p @ pq.p - pq.p)).max() < 1e-12
    assert np.abs(to_dense(fast_inverse(sd) @ m.l0 - pq.q)).max() < 1e-12
