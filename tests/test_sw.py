from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import dense_full_space, random_hermitian, u1_symmetric_model
from lsw import models, qrt, superop, sw
from lsw.exceptions import NonProductSlowSpaceError, OrderUnavailableError
from lsw.spectral import (
    DEFAULT_COND_LIMIT,
    AncillaBasis,
    assemble,
    charge_sector,
    decompose,
    fast_inverse,
    from_eigen,
    projectors,
    resolvent_apply,
    spectral_norm,
    to_eigen,
)
from lsw.superop import (
    DENSE_ENTRIES,
    devectorize,
    hamiltonian_superop,
    hat_apply,
    to_dense,
    trace_functional,
    vectorize,
)
from lsw.sw import (
    closed_form_slow_orders,
    correction_terms,
    decoupling_blocks,
    decoupling_residual,
    effective_liouvillian,
    generator_terms,
    match_eigenvalues,
    reduced_effective,
    split_blocks,
)


@pytest.fixture(scope="module")
def superradiance_n2():
    p = models.SuperradianceParams(n_spins=2, g=0.3, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    return m, sd


@pytest.fixture(scope="module")
def random_model():
    l0, v = dense_full_space(models.random_lindblad_model(2, 1, seed=77))
    sd = decompose(l0)
    return l0, v, sd


def test_first_generator_term_block_formula(superradiance_n2):
    m, sd = superradiance_n2
    pq = projectors(sd)
    finv = fast_inverse(sd)
    v = to_dense(m.v)
    gen = generator_terms(sd, to_eigen(sd, v), 1)
    explicit = (pq.p @ v @ pq.q) @ finv - finv @ (pq.q @ v @ pq.p)
    s1 = assemble(sd, sf=gen.blocks[0][0], fs=gen.blocks[0][1])
    assert np.abs(from_eigen(sd, s1) - explicit).max() < 1e-10


def test_block_diagonal_perturbation_gives_zero_generator(random_model, rng):
    l0, _, sd = random_model
    pq = projectors(sd)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v_diag = pq.p @ a @ pq.p + pq.q @ a @ pq.q
    gen = generator_terms(sd, to_eigen(sd, v_diag), 4)
    for sf, fs in gen.blocks:
        assert np.abs(assemble(sd, sf=sf, fs=fs)).max() < 1e-9


def test_second_generator_term_two_printed_forms(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, to_eigen(sd, v), 2)
    v_diag, v_off = split_blocks(sd, v)
    s1, s2 = (from_eigen(sd, assemble(sd, sf=a, fs=b)) for a, b in gen.blocks)
    # R0 applied to the commutator with the diagonal part, both printed ways
    alt1 = resolvent_apply(sd, hat_apply(v_diag, s1))
    alt2 = -resolvent_apply(sd, hat_apply(v_diag, resolvent_apply(sd, v_off)))
    assert np.abs(s2 - alt1).max() < 1e-11
    assert np.abs(s2 - alt2).max() < 1e-11


def block(a, rows, cols):
    return to_dense(a[rows][:, cols])


def test_generator_terms_block_off_diagonal(superradiance_n2):
    # in eigen coordinates the slow/fast mask leaves exact zeros
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 4)
    for s in (assemble(sd, sf=a, fs=b) for a, b in gen.blocks):
        assert np.abs(block(s, sd.slow, sd.slow)).max() == 0
        assert np.abs(block(s, sd.fast, sd.fast)).max() == 0


def test_first_correction_is_diagonal_block(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, to_eigen(sd, v), 2)
    series = correction_terms(gen, sd)
    v_diag, _ = split_blocks(sd, v)
    w1 = assemble(sd, ss=series.blocks[0][0], ff=series.blocks[0][1])
    assert np.abs(from_eigen(sd, w1) - v_diag).max() == 0.0
    assert np.abs(block(w1, sd.slow, sd.fast)).max() == 0
    assert np.abs(block(w1, sd.fast, sd.slow)).max() == 0


def test_corrections_vanish_without_off_diagonal(random_model, rng):
    l0, _, sd = random_model
    pq = projectors(sd)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v_diag = pq.p @ a @ pq.p + pq.q @ a @ pq.q
    gen = generator_terms(sd, to_eigen(sd, v_diag), 4)
    series = correction_terms(gen, sd)
    for ss, ff in series.blocks[1:]:
        assert np.abs(assemble(sd, ss=ss, ff=ff)).max() < 1e-9


def test_second_correction_slow_block_printed_form(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, to_eigen(sd, v), 2)
    series = correction_terms(gen, sd)
    pq = projectors(sd)
    finv = fast_inverse(sd)
    w2 = assemble(sd, ss=series.blocks[1][0], ff=series.blocks[1][1])
    w2_slow = pq.p @ from_eigen(sd, w2) @ pq.p
    printed = -(pq.p @ v @ pq.q) @ finv @ (pq.q @ v @ pq.p)
    assert np.abs(w2_slow - printed).max() < 1e-10


@pytest.mark.parametrize(
    "make_model",
    [
        lambda: models.random_lindblad_model(2, 1, seed=101),
        lambda: models.random_lindblad_model(3, 2, seed=5),
        lambda: models.degenerate_slow_model(seed=3),
    ],
)
def test_closed_forms_match_recursion(make_model):
    l0, v = dense_full_space(make_model())
    sd = decompose(l0)
    gen = generator_terms(sd, to_eigen(sd, v), 3)
    series = correction_terms(gen, sd)
    vnorm = np.linalg.norm(v, 2)
    for n, closed in enumerate(closed_form_slow_orders(sd, to_eigen(sd, v)), start=1):
        engine = effective_liouvillian(series, n, cumulative=False)
        # relative check with an absolute floor against roundoff of V**n
        tol = 1e-9 * np.abs(closed).max() + 1e-13 * vnorm**n
        assert np.abs(engine - closed).max() <= tol


def test_effective_liouvillian_accumulates(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, to_eigen(sd, v), 3)
    series = correction_terms(gen, sd, epsilon=0.1)
    total = effective_liouvillian(series, 3)
    parts = sum(
        effective_liouvillian(series, n, cumulative=False) for n in range(1, 4)
    )
    assert np.abs(total - parts).max() < 1e-12
    with pytest.raises(OrderUnavailableError):
        effective_liouvillian(series, 4)


def test_slow_terms_annihilate_trace(superradiance_n2):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
    series = correction_terms(gen, sd)
    trace_row = trace_functional(6) @ sd.right[:, sd.slow]
    for mat in series.slow_terms:
        assert np.abs(trace_row @ mat).max() < 1e-9


def assert_orders_keep_trace_and_hermiticity(sd, v_eigen, v_norm, hdim):
    """Orders 1-4: t R_s M_n = 0 for the trace row t, and the lift
    R_s M_n L_s maps Hermitian operators to Hermitian ones.

    Both are checked in absolute terms against |V|**n / gap**(n - 1), the
    size of the order-n correction (``v_norm`` is |V|): a slow term may
    itself be at the rounding level, where a relative check only measures
    noise.
    """
    series = correction_terms(generator_terms(sd, v_eigen, 4), sd)
    rs, ls = to_dense(sd.right[:, sd.slow]), to_dense(sd.left[sd.slow, :])
    # vec(X^dag) = conj(vec X)[swap], so a Hermiticity-preserving G has
    # conj(G)[swap][:, swap] == G
    i, j = np.divmod(np.arange(hdim * hdim), hdim)
    swap = j * hdim + i
    for n, m in enumerate(series.slow_terms, start=1):
        tol = 1e-12 * v_norm**n / sd.gap ** (n - 1)
        assert np.abs(trace_functional(hdim) @ rs @ m).max() <= tol
        lifted = rs @ m @ ls
        assert np.abs(lifted[np.ix_(swap, swap)].conj() - lifted).max() <= tol


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from((3, 4)))
def test_slow_orders_keep_trace_and_hermiticity_dense(seed, dim):
    l0, v = dense_full_space(models.degenerate_slow_model(seed, dim=dim))
    sd = decompose(l0)
    assert_orders_keep_trace_and_hermiticity(sd, to_eigen(sd, v), spectral_norm(v), dim)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dim_a=st.integers(2, 4), dim_s=st.integers(2, 3), seed=st.integers(0, 10_000))
def test_slow_orders_keep_trace_and_hermiticity_product(dim_a, dim_s, seed):
    # the whole space as one sector, with V's block from the couplings
    anc = models.random_ancilla_model(dim_a, 2, seed, dim_system=dim_s)
    sector = charge_sector(anc)
    v_norm = spectral_norm(anc.perturbation())
    assert_orders_keep_trace_and_hermiticity(sector.spectral, sector.v, v_norm, dim_a * dim_s)


def test_decoupling_residual_zero_epsilon(superradiance_n2):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 2)
    assert decoupling_residual(sd, gen, 0.0, 2) < 1e-12


def test_decoupling_residual_scaling_quick():
    p = models.SuperradianceParams(n_spins=2, g=1.0, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 2)
    eps = np.array([1e-2, 1e-3])
    for order, target in ((1, 2.0), (2, 3.0)):
        res = [decoupling_residual(sd, gen, e, order) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert abs(slope - target) < 0.3


def _residual_oracle(sd, l0, v, gen, epsilon, order):
    """The residual by definition: two exponentials and full D x D SVDs."""
    a, b = gen.total_blocks(epsilon, order)
    s = to_dense(from_eigen(sd, assemble(sd, sf=a, fs=b)))
    l_full = to_dense(l0) + epsilon * to_dense(v)
    transformed = expm(-s) @ l_full @ expm(s)
    pq = projectors(sd)
    p, q = to_dense(pq.p), to_dense(pq.q)
    return spectral_norm(p @ transformed @ q) + spectral_norm(q @ transformed @ p)


def _residual_case(name):
    """(spectral data, assembled L0, V, V in eigen coordinates, epsilon grid)
    of one oracle comparison."""
    if name == "random-dense":
        l0, v = dense_full_space(models.random_lindblad_model(4, 2, seed=5))
        sd = decompose(l0)
        return sd, l0, v, to_eigen(sd, v), (2e-2, 5e-3, 1e-3)
    p = models.SuperradianceParams(n_spins=2, g=1.0, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    if name == "superradiance-product":  # the whole space as one sector
        sector = charge_sector(m.ancilla)
        return sector.spectral, m.l0, m.v, sector.v, (0.1, 1e-2, 1e-3)
    # dense, with the nine zero modes mixed by a complex basis change (LAPACK
    # returns real slow vectors here, which would hide a missing conjugate)
    l0 = to_dense(m.l0)
    sd = decompose(l0)
    mix = np.random.default_rng(3).standard_normal((sd.slow_dim, sd.slow_dim, 2)) @ [1, 1j]
    right, left = sd.right.copy(), sd.left.copy()
    right[:, sd.slow] = right[:, sd.slow] @ mix
    left[sd.slow, :] = np.linalg.solve(mix, left[sd.slow, :])
    mixed = replace(sd, right=right, left=left, l0_eigen=left @ l0 @ right)
    return mixed, l0, m.v, to_eigen(mixed, m.v), (0.1, 1e-2, 1e-3)


@pytest.mark.parametrize("case", ["superradiance-product", "superradiance-mixed", "random-dense"])
def test_decoupling_residual_matches_two_exponential_oracle(case):
    sd, l0, v, v_eigen, eps_grid = _residual_case(case)
    v = to_dense(v)
    gen = generator_terms(sd, v_eigen, 8)
    for order in range(1, 9):
        for eps in eps_grid:
            got = decoupling_residual(sd, gen, eps, order)
            assert abs(got - _residual_oracle(sd, l0, v, gen, eps, order)) <= 1e-14


@pytest.mark.parametrize("case", ["superradiance-product", "superradiance-mixed", "random-dense"])
def test_decoupling_residual_matches_oracle_beyond_perturbative_regime(case):
    # at epsilon 1.0, ||S||_1 reaches 456 on the superradiance cases and
    # exp(S) has condition number 1.6e6
    sd, l0, v, v_eigen, _ = _residual_case(case)
    v = to_dense(v)
    gen = generator_terms(sd, v_eigen, 8)
    for order in range(1, 9):
        for eps in (0.3, 1.0):
            want = _residual_oracle(sd, l0, v, gen, eps, order)
            assert abs(decoupling_residual(sd, gen, eps, order) - want) <= 1e-10 * want


def test_decoupling_residual_is_inf_when_the_transform_overflows():
    # at epsilon 2, ||S||_1 is 7.7e4 and the products with exp(+-S) overflow
    sd, _, _, v_eigen, _ = _residual_case("superradiance-product")
    gen = generator_terms(sd, v_eigen, 8)
    assert decoupling_residual(sd, gen, 2.0, 8) == np.inf


@pytest.mark.parametrize("dim_s", [1, 2])
def test_decoupling_residual_without_fast_space(dim_s):
    # L0 = 0: every mode is slow, so S vanishes and its slow/fast blocks are
    # empty; on the dense backend (dim_s 1) and as one whole-space sector
    rng = np.random.default_rng(6)
    zero = np.zeros((4, 4), dtype=complex)
    if dim_s == 1:
        sd = decompose(zero)
        v = to_eigen(sd, hamiltonian_superop(random_hermitian(rng, 2)))
    else:
        pairs = [(random_hermitian(rng, 2), random_hermitian(rng, dim_s)) for _ in range(2)]
        sector = charge_sector(qrt.AncillaModel(l0=zero, couplings=pairs))
        sd, v = sector.spectral, sector.v
    assert sd.fast.size == 0
    gen = generator_terms(sd, v, 3)
    assert decoupling_residual(sd, gen, 0.5, 3) == 0.0
    _, second, third = closed_form_slow_orders(sd, v)
    assert np.abs(second).max() == 0 and np.abs(third).max() == 0


def _compositions(total, parts):
    """Ordered tuples of positive integers of length `parts` summing to `total`:
    the gaps between 0, each choice of `parts - 1` cut points in 1..total-1,
    and `total`, in lexicographic order."""
    return [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
        for cuts in combinations(range(1, total), parts - 1)
    ]


def _chain(s_terms, ks, x):
    """Nested commutator maps of S_{k1}..S_{kp} applied to x, one by one."""
    for k in reversed(ks):
        x = hat_apply(s_terms[k - 1], x)
    return x


def _naive_terms(sd, v, nmax):
    """generator_terms and correction_terms for V in eigen coordinates, on
    whole matrices, every chain of every composition evaluated afresh.  The
    slow/fast split and the resolvent are masks on the dense matrices."""
    slow = np.isin(np.arange(sd.dim), sd.slow)
    inverse = np.divide(1.0, sd.eigenvalues, out=np.zeros(sd.dim, complex), where=~slow)
    # entry (i, j) of R0's eigen coordinates: 1/lambda_i (i fast, j slow),
    # -1/lambda_j (i slow, j fast), else 0
    resolvent = inverse[:, None] * slow - slow[:, None] * inverse
    v = to_dense(v)
    v_diag = v * (slow[:, None] == slow)
    v_off = v - v_diag
    terms = []
    for n in range(1, nmax + 1):
        rhs = v_off if n == 1 else hat_apply(terms[n - 2], v_diag)
        for two_m, coeff in sw._XCOTH.items():
            if n > 1 and 0 < two_m <= n - 1:
                for ks in _compositions(n - 1, two_m):
                    rhs = rhs + coeff * _chain(terms, ks, v_off)
        terms.append(-to_dense(rhs) * resolvent)
    corrections = [v_diag]
    for n in range(2, nmax + 1):
        w = 0 * v_diag
        for p, coeff in sw._TANH_HALF.items():
            if p <= n - 1:
                for ks in _compositions(n - 1, p):
                    w = w + coeff * _chain(terms, ks, v_off)
        corrections.append(w)
    return terms, corrections


# The block engine sums each chain per depth and order (sw._summed_chain),
# which reassociates the naive sums.  On superradiance (N = 2, 4 and 8,
# eigenvector condition 2.4) it differs from them through order 8 by at
# most 7.6e-16 of each term's largest entry.  Where the eigenvectors are
# ill-conditioned, both round intermediate products far larger than the
# term (7.6e-12 of S_5's largest entry at condition 2.9e3), so the property
# test scales by the size the order-n term can reach, |V|^n / gap^n for S_n
# and |V|^n / gap^(n - 1) for W_n, |V| the largest entry of V's eigen
# coordinates: there the differences measured at most 8.7e-15 of it over
# 320 random cases of its strategy
CHAIN_REL_TOL = 4e-15
CHAIN_SIZE_TOL = 5e-14
# decoupling_blocks against the two-exponential norms of the naive terms:
# over 320 random cases at most 4.3e-16 of the norm where it is large
# (7.3e-12 on 1.7e4, past the perturbative regime); the absolute part is
# the oracle tests' 1e-14
BLOCK_NORM_REL_TOL, BLOCK_NORM_ABS_TOL = 1e-9, 1e-14


def assembled(gen, series):
    """The dense eigen-coordinate S_n and W_n, from their blocks."""
    sd = gen.spectral
    return (
        [assemble(sd, sf=a, fs=b) for a, b in gen.blocks],
        [assemble(sd, ss=ss, ff=ff) for ss, ff in series.blocks],
    )


def assert_terms_match_naive(gen, series, terms, corrections):
    s_terms, w_terms = assembled(gen, series)
    for got, want in zip(s_terms + w_terms, terms + corrections, strict=True):
        want = to_dense(want)
        assert np.abs(to_dense(got) - want).max() <= CHAIN_REL_TOL * np.abs(want).max()


def assert_terms_match_naive_by_size(sd, v, gen, series, terms, corrections):
    v_max = np.abs(to_dense(v)).max()
    growth = v_max / sd.gap  # 0 without fast modes
    s_terms, w_terms = assembled(gen, series)
    for n, (got, want) in enumerate(zip(s_terms, terms, strict=True), start=1):
        assert np.abs(to_dense(got) - to_dense(want)).max() <= CHAIN_SIZE_TOL * growth**n
    for n, (got, want) in enumerate(zip(w_terms, corrections, strict=True), start=1):
        bound = CHAIN_SIZE_TOL * v_max * growth ** (n - 1)
        assert np.abs(to_dense(got) - to_dense(want)).max() <= bound


def test_chain_table_matches_naive_chains(superradiance_n2):
    m, _ = superradiance_n2
    sector = charge_sector(m.ancilla)
    sd, v = sector.spectral, sector.v
    gen = generator_terms(sd, v, 8)
    series = correction_terms(gen, sd)
    assert_terms_match_naive(gen, series, *_naive_terms(sd, v, 8))


def test_generator_terms_commutator_count(superradiance_n2, monkeypatch):
    # orders 1-8 take (n - 1) commutators with V_diag and the table entries
    # U(p, j), p <= j < n and p <= 6, that the even depths need: U(1, j) =
    # [V_off, S_j] costs one, U(p, j) for p >= 2 costs j - p + 1.  Chains
    # memoized per composition suffix took 102 at order 8 and doubled with
    # each order
    m, _ = superradiance_n2
    sector = charge_sector(m.ancilla)
    real, calls = sw._commutator, []
    monkeypatch.setattr(sw, "_commutator", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    counts = []
    for nmax in range(1, 9):
        calls.clear()
        generator_terms(sector.spectral, sector.v, nmax)
        counts.append(len(calls))
    assert counts == [0, 1, 4, 8, 15, 25, 40, 60]


def _naive_block_norms(sd, v, terms, epsilon, order):
    """The spectral norms of P T Q and Q T P by definition, for S(eps) summed
    from ``terms``: T = exp(-S) (L0 + eps V) exp(S) in eigen coordinates,
    its off-diagonal blocks mapped to the full space by the eigenvectors."""
    s = sum(epsilon**n * to_dense(terms[n - 1]) for n in range(1, order + 1))
    t = expm(-s) @ (to_dense(sd.l0_eigen) + epsilon * to_dense(v)) @ expm(s)
    norms = []
    for rows, cols in ((sd.slow, sd.fast), (sd.fast, sd.slow)):
        block = to_dense(sd.right[:, rows]) @ t[np.ix_(rows, cols)] @ to_dense(sd.left[cols, :])
        norms.append(spectral_norm(block))
    return norms


def _engine_case(kind, seed, pick):
    """(spectral data, V in its eigen coordinates) of one engine comparison:
    a charged random model or superradiance, on one coherence-order sector
    or dense over the whole space, or the no-fast-mode space of
    :func:`test_decoupling_residual_without_fast_space`."""
    rng = np.random.default_rng(seed)
    if kind.startswith("no-fast"):
        zero = np.zeros((4, 4), dtype=complex)
        if kind == "no-fast-dense":
            sd = decompose(zero)
            return sd, to_eigen(sd, hamiltonian_superop(random_hermitian(rng, 2)))
        pairs = [(random_hermitian(rng, 2), random_hermitian(rng, 2)) for _ in range(2)]
        sector = charge_sector(qrt.AncillaModel(l0=zero, couplings=pairs))
        return sector.spectral, sector.v
    if kind.startswith("u1"):
        q_a = rng.integers(0, 3, size=rng.integers(2, 4))
        q_s = rng.integers(0, 2, size=rng.integers(2, 4))
        ancilla, charges, _ = u1_symmetric_model(q_a, q_s, seed)
    else:
        n_spins = 1 + pick % (8 if kind.endswith("sector") else 2)
        p = models.SuperradianceParams(n_spins=n_spins, g=1.0, gamma=1.0, omega=0.2)
        ancilla, charges = models.superradiance_ancilla(p), models.superradiance_charges(n_spins)
    if kind.endswith("dense"):
        l0, v = dense_full_space(ancilla)
        sd = decompose(l0)
        return sd, to_eigen(sd, v)
    basis = AncillaBasis(ancilla, charges)
    orders = basis.orders()
    sector = basis.sectors([orders[pick % orders.size]])[0]
    return sector.spectral, sector.v


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        ["u1-sector", "u1-dense", "superradiance-sector", "superradiance-dense",
         "no-fast-sector", "no-fast-dense"]
    ),
    seed=st.integers(0, 2**16),
    pick=st.integers(0, 64),
    nmax=st.integers(1, 8),
    dense_entries=st.sampled_from([0, DENSE_ENTRIES]),
)
@example(kind="no-fast-sector", seed=6, pick=0, nmax=3, dense_entries=DENSE_ENTRIES)
@example(kind="no-fast-dense", seed=6, pick=0, nmax=3, dense_entries=0)
@example(kind="superradiance-sector", seed=0, pick=7, nmax=8, dense_entries=0)
@example(kind="u1-dense", seed=1, pick=0, nmax=8, dense_entries=0)
def test_block_engine_matches_naive_terms(kind, seed, pick, nmax, dense_entries):
    # DENSE_ENTRIES 0 leaves every block to the fill rule alone, so sparse
    # and dense blocks meet in the same products
    with mock.patch.object(superop, "DENSE_ENTRIES", dense_entries):
        sd, v = _engine_case(kind, seed, pick)
        gen = generator_terms(sd, v, nmax)
        series = correction_terms(gen, sd)
        terms, corrections = _naive_terms(sd, v, nmax)
        assert_terms_match_naive_by_size(sd, v, gen, series, terms, corrections)
        for eps in (0.1, 0.02):
            got = decoupling_blocks(sd, gen, eps, nmax)
            want = _naive_block_norms(sd, v, terms, eps, nmax)
            if sd.fast.size == 0:
                assert got == (0.0, 0.0)
            for g, w in zip(got, want):
                assert abs(g - w) <= BLOCK_NORM_REL_TOL * w + BLOCK_NORM_ABS_TOL, (g, w)


def _wide_factors(sd):
    """The D-wide residual factors the small ones replace: the QR triangles of
    R_s and L_s^H, with L_f^H and R_f themselves, in the order of
    ``SWGenerator.residual_factors``.  ``decoupling_blocks`` then forms the
    slow x D and D x slow matrices R_s-side K t_sf L_f and R_f t_fs L_s-side
    and takes their SVDs."""
    return (
        np.linalg.qr(to_dense(sd.right[:, sd.slow]), mode="r"),
        to_dense(sd.left[sd.fast, :]).conj().T,
        to_dense(sd.right[:, sd.fast]),
        np.linalg.qr(to_dense(sd.left[sd.slow, :]).conj().T, mode="r"),
    )


def _ill_conditioned_sector(seed):
    """The whole-space sector of a qubit ancilla whose L_A has eigenvector
    condition number 4e7, within a factor 2.5 of DEFAULT_COND_LIMIT, coupled
    to a qubit system.  L_A's fast block [[-1, c], [0, -2]] has the
    eigenvectors (1, 0) and about (1, -1/c), so c = 2e7; the model's epsilon
    1/c keeps V's eigen coordinates near 1, as they grow with c."""
    rng = np.random.default_rng(seed)
    c = 2e7
    l_a = np.zeros((4, 4), dtype=complex)
    l_a[1:, 1:] = [[-1.0, c, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -1.5 + 0.3j]]
    pairs = [(random_hermitian(rng, 2), random_hermitian(rng, 2)) for _ in range(2)]
    sector = charge_sector(qrt.AncillaModel(l0=l_a, couplings=pairs, epsilon=1 / c))
    assert DEFAULT_COND_LIMIT / 10 < sector.spectral.condition < DEFAULT_COND_LIMIT
    return sector.spectral, sector.v


# the small residual factors against the D-wide ones, both applied to the
# same stacked T blocks: over this test's examples at most 1.6e-16 of the
# norm on sectors, 1.7e-15 on the dense backend and 1.4e-15 at the
# condition number 4e7 (where the norms themselves are near 1e-17)
FACTOR_REL_TOL = 1e-14


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        ["u1-sector", "u1-dense", "superradiance-sector", "superradiance-dense", "ill-conditioned"]
    ),
    seed=st.integers(0, 2**16),
    pick=st.integers(0, 64),
    nmax=st.integers(1, 6),
)
@example(kind="ill-conditioned", seed=0, pick=0, nmax=4)
@example(kind="superradiance-sector", seed=0, pick=0, nmax=8)
def test_small_residual_factors_match_the_wide_route(kind, seed, pick, nmax):
    # K^H K = R_s^H R_s and its like, from L_A's eigenvectors per (a, b) pair
    # in sectors, against QR triangles and SVDs of the D-wide vectors
    if kind == "ill-conditioned":
        sd, v = _ill_conditioned_sector(seed)
    else:
        sd, v = _engine_case(kind, seed, pick)
    gen = generator_terms(sd, v, nmax)
    eps = np.array([0.1, 0.02])
    got = decoupling_blocks(sd, gen, eps, nmax)
    gen.residual_factors = _wide_factors(sd)
    want = decoupling_blocks(sd, gen, eps, nmax)
    for g, w in zip(got, want, strict=True):
        assert np.all(np.abs(g - w) <= FACTOR_REL_TOL * w), (g, w)


def test_first_order_vanishes_for_collective_model(superradiance_n2):
    # the perturbation has no slow-space component, so order one is zero
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 1)
    series = correction_terms(gen, sd)
    first = effective_liouvillian(series, 1, cumulative=False)
    assert np.abs(first).max() < 1e-12


def test_reduced_effective_matches_collective_decay(superradiance_n2):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 2)
    series = correction_terms(gen, sd)
    red = reduced_effective(series, sd, m.dims, 2, cumulative=False)
    rate, shift = models.second_order_rates(m.params)
    target = models.collective_decay_generator(m, rate, shift)
    assert np.abs(red.matrix - target).max() <= 1e-9 * np.abs(target).max()
    assert np.abs(red.ancilla_state - m.electron_steady).max() < 1e-9


def test_reduced_effective_trivial_system():
    # unique-steady ancilla with a one-dimensional system factor
    l0, v = dense_full_space(models.random_lindblad_model(3, 2, seed=12))
    sd = decompose(l0)
    gen = generator_terms(sd, to_eigen(sd, v), 1)
    series = correction_terms(gen, sd)
    red = reduced_effective(series, sd, (3, 1), 1)
    assert red.matrix.shape == (1, 1)
    assert abs(red.matrix[0, 0]) < 1e-10


def test_reduced_effective_rejects_non_product_space():
    # slow dim 2, no product form
    l0, v = dense_full_space(models.degenerate_slow_model(seed=8))
    sd = decompose(l0)
    gen = generator_terms(sd, to_eigen(sd, v), 1)
    series = correction_terms(gen, sd)
    with pytest.raises(NonProductSlowSpaceError):
        reduced_effective(series, sd, (3, 1), 1)


def test_reduced_effective_rejects_non_product_space_of_the_right_size():
    # the four populations of a 4-level Hamiltonian with distinct gaps are
    # slow: slow_dim 4 = d_S**2 for dims (2, 2), yet not sigma (x) X
    l0 = hamiltonian_superop(np.diag([0.0, 1.0, 3.0, 7.0]))
    sd = decompose(l0)
    assert sd.slow_dim == 4
    series = correction_terms(generator_terms(sd, l0, 1), sd)
    with pytest.raises(NonProductSlowSpaceError, match="not sigma"):
        reduced_effective(series, sd, (2, 2), 1)


def test_reduced_effective_is_the_slow_block_on_the_product_backend():
    p = models.SuperradianceParams(n_spins=4, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)

    def reduced_and_block(sd, v):
        series = correction_terms(generator_terms(sd, v, 3), sd)
        return reduced_effective(series, sd, m.dims, 3).matrix, effective_liouvillian(series, 3)

    sector = charge_sector(m.ancilla)  # the whole space
    product, block = reduced_and_block(sector.spectral, sector.v)
    sd = decompose(to_dense(m.l0))
    dense, _ = reduced_and_block(sd, to_eigen(sd, m.v))
    scale = np.abs(block).max()
    assert np.abs(product - block).max() <= 1e-15 * scale
    assert np.abs(dense - product).max() <= 1e-12 * scale


def test_reduced_third_order_zero_detuning_commutator_form():
    # at omega=0 the third order reduces to two commutator terms with
    # coefficients 2 g^3/gamma^2 and g^3/gamma^2
    p = models.SuperradianceParams(n_spins=2, g=0.2, gamma=1.0, omega=0.0)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
    series = correction_terms(gen, sd)
    red3 = reduced_effective(series, sd, m.dims, 3, cumulative=False).matrix
    g, gamma = p.g, p.gamma
    dn = m.dims[1]
    rng = np.random.default_rng(4)
    for _ in range(5):
        mu = random_hermitian(rng, dn)
        out = devectorize(red3 @ vectorize(mu))
        jump = m.iminus @ mu @ m.iplus
        expected = 2j * g**3 / gamma**2 * (jump @ m.iz - m.iz @ jump)
        core = m.iplus @ m.iz @ m.iminus
        expected += 1j * g**3 / gamma**2 * (core @ mu - mu @ core)
        assert np.abs(out - expected).max() < 1e-10


def test_reduced_orders_trace_and_hermiticity_preserving(superradiance_n2, rng):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
    series = correction_terms(gen, sd)
    dn = m.dims[1]
    for order in (1, 2, 3):
        red = reduced_effective(series, sd, m.dims, order, cumulative=False).matrix
        for _ in range(3):
            mu = random_hermitian(rng, dn)
            out = devectorize(red @ vectorize(mu))
            assert abs(np.trace(out)) < 1e-10
            hermit = devectorize(red @ vectorize(mu.conj().T))
            assert np.abs(hermit - out.conj().T).max() < 1e-10


def test_spectral_accuracy_slopes():
    # eigenvalues of the order-n slow generator track the exact slow
    # spectrum with error of order epsilon**(n+1)
    l0, v = dense_full_space(models.degenerate_slow_model(seed=11))
    sd = decompose(l0)
    gen = generator_terms(sd, to_eigen(sd, v), 3)
    series = correction_terms(gen, sd)
    eps_grid = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    for order in (1, 2, 3):
        errs = []
        for eps in eps_grid:
            eff = np.linalg.eigvals(effective_liouvillian(series, order, epsilon=eps))
            wfull = np.linalg.eigvals(l0 + eps * v)
            idx = np.argsort(np.abs(wfull))[: sd.slow_dim]
            matched = match_eigenvalues(eff, wfull[idx])
            diffs = np.abs(eff - matched)
            diffs = diffs[diffs > 1e-13]  # conserved zero mode carries no error
            errs.append(diffs.max())
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert abs(slope - (order + 1)) < 0.3


def test_match_eigenvalues_permutation():
    ref = np.array([1.0 + 0j, 2.0 + 0j, 3.0 + 0j])
    cand = np.array([3.001 + 0j, 1.002 + 0j, 1.998 + 0j])
    matched = match_eigenvalues(ref, cand)
    assert np.abs(matched - np.array([1.002, 1.998, 3.001])).max() < 1e-12
