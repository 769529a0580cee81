from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_hermitian
from lsw import models, sw
from lsw.exceptions import NonProductSlowSpaceError, OrderUnavailableError
from lsw.spectral import (
    as_operand,
    decompose,
    fast_inverse,
    projectors,
    resolvent_apply,
    spectral_norm,
)
from lsw.superop import (
    devectorize,
    hamiltonian_superop,
    hat_apply,
    lindblad_superop,
    to_dense,
    trace_functional,
    vectorize,
)
from lsw.sw import (
    closed_form_slow_orders,
    correction_terms,
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
    spec = models.random_lindblad_model(2, 1, seed=77)
    l0, v = lindblad_superop(spec, sparse=False)
    sd = decompose(l0)
    return l0, v, sd


def test_first_generator_term_block_formula(superradiance_n2):
    m, sd = superradiance_n2
    pq = projectors(sd)
    finv = fast_inverse(sd)
    v = to_dense(m.v)
    gen = generator_terms(sd, v, 1)
    explicit = (pq.p @ v @ pq.q) @ finv - finv @ (pq.q @ v @ pq.p)
    assert np.abs(gen.terms[0] - explicit).max() < 1e-10


def test_block_diagonal_perturbation_gives_zero_generator(random_model, rng):
    l0, _, sd = random_model
    pq = projectors(sd)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v_diag = pq.p @ a @ pq.p + pq.q @ a @ pq.q
    gen = generator_terms(sd, v_diag, 4)
    for s in gen.terms:
        assert np.abs(s).max() < 1e-9


def test_second_generator_term_two_printed_forms(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, v, 2)
    v_diag, v_off = split_blocks(sd, v)
    s1 = gen.terms[0]
    # R0 applied to the commutator with the diagonal part, both printed ways
    alt1 = resolvent_apply(sd, hat_apply(v_diag, s1))
    alt2 = -resolvent_apply(sd, hat_apply(v_diag, resolvent_apply(sd, v_off)))
    assert np.abs(gen.terms[1] - alt1).max() < 1e-11
    assert np.abs(gen.terms[1] - alt2).max() < 1e-11


def test_generator_terms_block_off_diagonal(superradiance_n2):
    m, sd = superradiance_n2
    pq = projectors(sd)
    gen = generator_terms(sd, to_dense(m.v), 4)
    for s in gen.terms:
        scale = np.linalg.norm(s)
        if scale == 0:
            continue
        diag = pq.p @ s @ pq.p + pq.q @ s @ pq.q
        assert np.linalg.norm(diag) <= 1e-9 * scale


def test_first_correction_is_diagonal_block(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, v, 2)
    series = correction_terms(gen, sd, v)
    v_diag, _ = split_blocks(sd, v)
    assert np.abs(series.corrections[0] - v_diag).max() == 0.0


def test_corrections_vanish_without_off_diagonal(random_model, rng):
    l0, _, sd = random_model
    pq = projectors(sd)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v_diag = pq.p @ a @ pq.p + pq.q @ a @ pq.q
    gen = generator_terms(sd, v_diag, 4)
    series = correction_terms(gen, sd, v_diag)
    for w in series.corrections[1:]:
        assert np.abs(w).max() < 1e-9


def test_second_correction_slow_block_printed_form(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, v, 2)
    series = correction_terms(gen, sd, v)
    pq = projectors(sd)
    finv = fast_inverse(sd)
    w2_slow = pq.p @ series.corrections[1] @ pq.p
    printed = -(pq.p @ v @ pq.q) @ finv @ (pq.q @ v @ pq.p)
    assert np.abs(w2_slow - printed).max() < 1e-10


@pytest.mark.parametrize(
    "builder",
    [
        lambda: models.random_lindblad_model(2, 1, seed=101),
        lambda: models.random_lindblad_model(3, 2, seed=5),
        lambda: models.degenerate_slow_model(seed=3),
    ],
)
def test_closed_forms_match_recursion(builder):
    spec = builder()
    l0, v = lindblad_superop(spec, sparse=False)
    sd = decompose(l0)
    gen = generator_terms(sd, v, 3)
    series = correction_terms(gen, sd, v)
    vnorm = np.linalg.norm(v, 2)
    for n, closed in enumerate(closed_form_slow_orders(sd, v), start=1):
        engine = effective_liouvillian(series, n, cumulative=False)
        # relative check with an absolute floor against roundoff of V**n
        tol = 1e-9 * np.abs(closed).max() + 1e-13 * vnorm**n
        assert np.abs(engine - closed).max() <= tol


def test_effective_liouvillian_accumulates(random_model):
    l0, v, sd = random_model
    gen = generator_terms(sd, v, 3)
    series = correction_terms(gen, sd, v, epsilon=0.1)
    total = effective_liouvillian(series, 3)
    parts = sum(
        effective_liouvillian(series, n, cumulative=False) for n in range(1, 4)
    )
    assert np.abs(total - parts).max() < 1e-12
    with pytest.raises(OrderUnavailableError):
        effective_liouvillian(series, 4)


def test_slow_terms_annihilate_trace(superradiance_n2):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_dense(m.v), 3)
    series = correction_terms(gen, sd, to_dense(m.v))
    trace_row = trace_functional(6) @ sd.right[:, sd.slow]
    for mat in series.slow_terms:
        assert np.abs(trace_row @ mat).max() < 1e-9


def assert_orders_keep_trace_and_hermiticity(sd, v, hdim):
    """Orders 1-4: t R_s M_n = 0 for the trace row t, and the lift
    R_s M_n L_s maps Hermitian operators to Hermitian ones.

    Both are checked in absolute terms against |V|**n / gap**(n - 1), the
    size of the order-n correction: a slow term may itself be at the
    rounding level, where a relative check only measures noise.
    """
    series = correction_terms(generator_terms(sd, v, 4), sd, v)
    rs, ls = to_dense(sd.right[:, sd.slow]), to_dense(sd.left[sd.slow, :])
    # vec(X^dag) = conj(vec X)[swap], so a Hermiticity-preserving G has
    # conj(G)[swap][:, swap] == G
    i, j = np.divmod(np.arange(hdim * hdim), hdim)
    swap = j * hdim + i
    for n, m in enumerate(series.slow_terms, start=1):
        tol = 1e-12 * spectral_norm(v) ** n / sd.gap ** (n - 1)
        assert np.abs(trace_functional(hdim) @ rs @ m).max() <= tol
        lifted = rs @ m @ ls
        assert np.abs(lifted[np.ix_(swap, swap)].conj() - lifted).max() <= tol


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), dim=st.sampled_from((3, 4)))
def test_slow_orders_keep_trace_and_hermiticity_dense(seed, dim):
    l0, v = lindblad_superop(models.degenerate_slow_model(seed, dim=dim))
    assert_orders_keep_trace_and_hermiticity(decompose(l0), v, dim)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dim_a=st.integers(2, 4), dim_s=st.integers(2, 3), seed=st.integers(0, 10_000))
def test_slow_orders_keep_trace_and_hermiticity_product(dim_a, dim_s, seed):
    anc = models.random_ancilla_model(dim_a, 2, seed, dim_system=dim_s)
    sd = decompose(anc.l0, dim_s=dim_s)
    v = as_operand(sd, anc.perturbation(sparse=True))
    assert_orders_keep_trace_and_hermiticity(sd, v, dim_a * dim_s)


def test_decoupling_residual_zero_epsilon(superradiance_n2):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_dense(m.v), 2)
    assert decoupling_residual(sd, to_dense(m.v), gen, 0.0, 2) < 1e-12


def test_decoupling_residual_scaling_quick():
    p = models.SuperradianceParams(n_spins=2, g=1.0, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_dense(m.v), 2)
    eps = np.array([1e-2, 1e-3])
    for order, target in ((1, 2.0), (2, 3.0)):
        res = [decoupling_residual(sd, to_dense(m.v), gen, e, order) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert abs(slope - target) < 0.3


def _residual_oracle(sd, v, gen, epsilon, order):
    """The residual by definition: two exponentials and full D x D SVDs."""
    s = to_dense(gen.total(epsilon, order))
    l_full = to_dense(sd.operator + epsilon * as_operand(sd, v))
    transformed = expm(-s) @ l_full @ expm(s)
    p, q = to_dense(sd.pq.p), to_dense(sd.pq.q)
    return spectral_norm(p @ transformed @ q) + spectral_norm(q @ transformed @ p)


def _residual_case(name):
    """(spectral data, V, epsilon grid) of one oracle comparison."""
    if name == "random-dense":
        l0, v = lindblad_superop(models.random_lindblad_model(4, 2, seed=5), sparse=False)
        return decompose(l0), v, (2e-2, 5e-3, 1e-3)
    p = models.SuperradianceParams(n_spins=2, g=1.0, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    if name == "superradiance-product":
        return decompose(m.l_a, dim_s=m.dims[1]), m.v, (0.1, 1e-2, 1e-3)
    # dense, with the nine zero modes mixed by a complex basis change (LAPACK
    # returns real slow vectors here, which would hide a missing conjugate)
    sd = decompose(to_dense(m.l0))
    mix = np.random.default_rng(3).standard_normal((sd.slow_dim, sd.slow_dim, 2)) @ [1, 1j]
    right, left = sd.right.copy(), sd.left.copy()
    right[:, sd.slow] = right[:, sd.slow] @ mix
    left[sd.slow, :] = np.linalg.solve(mix, left[sd.slow, :])
    return replace(sd, right=right, left=left), m.v, (0.1, 1e-2, 1e-3)


@pytest.mark.parametrize("case", ["superradiance-product", "superradiance-mixed", "random-dense"])
def test_decoupling_residual_matches_two_exponential_oracle(case):
    sd, v, eps_grid = _residual_case(case)
    v = as_operand(sd, v)
    gen = generator_terms(sd, v, 8)
    for order in range(1, 9):
        for eps in eps_grid:
            got = decoupling_residual(sd, v, gen, eps, order)
            assert abs(got - _residual_oracle(sd, v, gen, eps, order)) <= 1e-14


@pytest.mark.parametrize("case", ["superradiance-product", "superradiance-mixed", "random-dense"])
def test_decoupling_residual_matches_oracle_beyond_perturbative_regime(case):
    # at epsilon 1.0, ||S||_1 reaches 456 on the superradiance cases and
    # exp(S) has condition number 1.6e6
    sd, v, _ = _residual_case(case)
    v = as_operand(sd, v)
    gen = generator_terms(sd, v, 8)
    for order in range(1, 9):
        for eps in (0.3, 1.0):
            want = _residual_oracle(sd, v, gen, eps, order)
            assert abs(decoupling_residual(sd, v, gen, eps, order) - want) <= 1e-10 * want


def test_decoupling_residual_is_inf_when_the_transform_overflows():
    # at epsilon 2, ||S||_1 is 7.7e4 and the products with exp(+-S) overflow
    sd, v, _ = _residual_case("superradiance-product")
    v = as_operand(sd, v)
    gen = generator_terms(sd, v, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        assert decoupling_residual(sd, v, gen, 2.0, 8) == np.inf


@pytest.mark.parametrize("dim_s", [1, 2])
def test_decoupling_residual_without_fast_space(dim_s):
    # L0 = 0: every mode is slow, so S vanishes and its slow/fast blocks are empty
    sd = decompose(np.zeros((4, 4), dtype=complex), dim_s=dim_s)
    assert sd.fast.size == 0
    v = as_operand(sd, hamiltonian_superop(random_hermitian(np.random.default_rng(6), 2 * dim_s)))
    gen = generator_terms(sd, v, 3)
    assert decoupling_residual(sd, v, gen, 0.5, 3) == 0.0


def _chain(s_terms, ks, x):
    """Nested commutator maps of S_{k1}..S_{kp} applied to x, one by one."""
    for k in reversed(ks):
        x = hat_apply(s_terms[k - 1], x)
    return x


def _naive_terms(sd, v, nmax):
    """generator_terms and correction_terms, every chain evaluated afresh."""
    v_diag, v_off = split_blocks(sd, v)
    terms = []
    for n in range(1, nmax + 1):
        rhs = v_off if n == 1 else hat_apply(terms[n - 2], v_diag)
        for two_m, coeff in sw._XCOTH.items():
            if n > 1 and 0 < two_m <= n - 1:
                for ks in sw._compositions(n - 1, two_m):
                    rhs = rhs + coeff * _chain(terms, ks, v_off)
        terms.append(-resolvent_apply(sd, rhs))
    corrections = [v_diag]
    for n in range(2, nmax + 1):
        w = 0 * v_diag
        for p, coeff in sw._TANH_HALF.items():
            if p <= n - 1:
                for ks in sw._compositions(n - 1, p):
                    w = w + coeff * _chain(terms, ks, v_off)
        corrections.append(w)
    return terms, corrections


def test_memoized_chains_match_naive_chains_bitwise(superradiance_n2):
    m, _ = superradiance_n2
    sd = decompose(m.l_a, dim_s=m.dims[1])
    v = as_operand(sd, m.v)
    gen = generator_terms(sd, v, 8)
    series = correction_terms(gen, sd, v)
    terms, corrections = _naive_terms(sd, v, 8)
    for got, want in zip(gen.terms + series.corrections, terms + corrections, strict=True):
        assert np.abs(to_dense(got) - to_dense(want)).max() == 0


def test_first_order_vanishes_for_collective_model(superradiance_n2):
    # the perturbation has no slow-space component, so order one is zero
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_dense(m.v), 1)
    series = correction_terms(gen, sd, to_dense(m.v))
    first = effective_liouvillian(series, 1, cumulative=False)
    assert np.abs(first).max() < 1e-12


def test_reduced_effective_matches_collective_decay(superradiance_n2):
    m, sd = superradiance_n2
    gen = generator_terms(sd, to_dense(m.v), 2)
    series = correction_terms(gen, sd, to_dense(m.v))
    red = reduced_effective(series, sd, m.dims, 2, cumulative=False)
    rate, shift = models.second_order_rates(m.params)
    target = models.collective_decay_generator(m, rate, shift)
    assert np.abs(red.matrix - target).max() <= 1e-9 * np.abs(target).max()
    assert np.abs(red.ancilla_state - m.electron_steady).max() < 1e-9


def test_reduced_effective_trivial_system():
    # unique-steady ancilla with a one-dimensional system factor
    spec = models.random_lindblad_model(3, 2, seed=12)
    l0, v = lindblad_superop(spec, sparse=False)
    sd = decompose(l0)
    gen = generator_terms(sd, v, 1)
    series = correction_terms(gen, sd, v)
    red = reduced_effective(series, sd, (3, 1), 1)
    assert red.matrix.shape == (1, 1)
    assert abs(red.matrix[0, 0]) < 1e-10


def test_reduced_effective_rejects_non_product_space():
    spec = models.degenerate_slow_model(seed=8)  # slow dim 2, no product form
    l0, v = lindblad_superop(spec, sparse=False)
    sd = decompose(l0)
    gen = generator_terms(sd, v, 1)
    series = correction_terms(gen, sd, v)
    with pytest.raises(NonProductSlowSpaceError):
        reduced_effective(series, sd, (3, 1), 1)


def test_reduced_effective_rejects_non_product_space_of_the_right_size():
    # the four populations of a 4-level Hamiltonian with distinct gaps are
    # slow: slow_dim 4 = d_S**2 for dims (2, 2), yet not sigma (x) X
    l0 = hamiltonian_superop(np.diag([0.0, 1.0, 3.0, 7.0]))
    sd = decompose(l0)
    assert sd.slow_dim == 4
    series = correction_terms(generator_terms(sd, l0, 1), sd, l0)
    with pytest.raises(NonProductSlowSpaceError, match="not sigma"):
        reduced_effective(series, sd, (2, 2), 1)


def test_reduced_effective_is_the_slow_block_on_the_product_backend():
    p = models.SuperradianceParams(n_spins=4, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)

    def reduced_and_block(sd):
        v = as_operand(sd, m.v)
        series = correction_terms(generator_terms(sd, v, 3), sd, v)
        return reduced_effective(series, sd, m.dims, 3).matrix, effective_liouvillian(series, 3)

    product, block = reduced_and_block(decompose(m.l_a, dim_s=m.dims[1]))
    dense, _ = reduced_and_block(decompose(to_dense(m.l0)))
    scale = np.abs(block).max()
    assert np.abs(product - block).max() <= 1e-15 * scale
    assert np.abs(dense - product).max() <= 1e-12 * scale


def test_reduced_third_order_zero_detuning_commutator_form():
    # at omega=0 the third order reduces to two commutator terms with
    # coefficients 2 g^3/gamma^2 and g^3/gamma^2
    p = models.SuperradianceParams(n_spins=2, g=0.2, gamma=1.0, omega=0.0)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_dense(m.v), 3)
    series = correction_terms(gen, sd, to_dense(m.v))
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
    gen = generator_terms(sd, to_dense(m.v), 3)
    series = correction_terms(gen, sd, to_dense(m.v))
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
    spec = models.degenerate_slow_model(seed=11)
    l0, v = lindblad_superop(spec, sparse=False)
    sd = decompose(l0)
    gen = generator_terms(sd, v, 3)
    series = correction_terms(gen, sd, v)
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
