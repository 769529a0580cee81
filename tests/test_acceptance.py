"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  The
second-order closed-form check (criterion 2) writes its reference constants
out for the model's flip-flop vertex g/2; the companion check
``test_criterion_2_derived_constants`` pins the engine against
``models.second_order_rates`` at the same tolerance.
"""

import time

import numpy as np
import scipy.sparse as sp

from conftest import dense_full_space, model_fleet, random_hermitian, vec_sector
from lsw import dynamics, models, qrt, sw
from lsw.spectral import decompose, projectors, to_eigen
from lsw.superop import to_csr, to_dense, trace_functional, vectorize


def report(number, ok, detail):
    print(f"\nacceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_qubit_eigensystem():
    start = time.perf_counter()
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.2)
    sd = decompose(to_dense(l0))
    expected = np.sort_complex(np.array([0.0, -0.5 + 0.2j, -0.5 - 0.2j, -1.0]))
    eig_err = np.abs(np.sort_complex(sd.eigenvalues) - expected).max()
    r0 = sd.right[:, sd.slow[0]]
    r0 = r0 / r0[3]
    dn_dn = np.zeros(4, dtype=complex)
    dn_dn[3] = 1.0
    right_err = np.abs(r0 - dn_dn).max()
    l0vec = sd.left[sd.slow[0], :]
    l0vec = l0vec / l0vec[0]
    left_err = np.abs(l0vec - vectorize(np.eye(2))).max()
    elapsed = time.perf_counter() - start
    ok = eig_err < 1e-10 and right_err < 1e-10 and left_err < 1e-10 and elapsed < 1.0
    assert report(
        1,
        ok,
        f"eigenvalue err {eig_err:.2e}, zero-vector errs {right_err:.2e}/{left_err:.2e}, "
        f"{elapsed:.2f} s",
    )


def _second_order_worst_rel_error(rate_fn, shift_fn):
    worst = 0.0
    start = time.perf_counter()
    for gamma in (0.5, 1.0, 2.0):
        for omega in (0.0, 0.2, 1.0):
            for g in (0.02, 0.1):
                p = models.SuperradianceParams(
                    n_spins=2, g=g, gamma=gamma, omega=omega
                )
                m = models.superradiance_model(p)
                sd = decompose(to_dense(m.l0))
                gen = sw.generator_terms(sd, to_eigen(sd, to_dense(m.v)), 2)
                series = sw.correction_terms(gen, sd)
                red = sw.reduced_effective(series, sd, m.dims, 2, cumulative=False).matrix
                target = models.collective_decay_generator(
                    m, rate_fn(p), shift_fn(p)
                )
                rel = np.abs(red - target).max() / np.abs(target).max()
                worst = max(worst, rel)
    return worst, time.perf_counter() - start


def test_criterion_2_second_order_closed_form():
    # eliminating an electron that decays at gamma with detuning omega
    # through a vertex lam gives lam**2*gamma/((gamma/2)**2 + omega**2); the
    # model's flip-flop vertex is lam = g/2, from (1/2)(s+ I- + s- I+)
    def closed_form_rate(p):
        return (p.g / 2) ** 2 * p.gamma / ((p.gamma / 2) ** 2 + p.omega**2)

    def closed_form_shift(p):
        return -((p.g / 2) ** 2) * p.omega / ((p.gamma / 2) ** 2 + p.omega**2)

    worst, elapsed = _second_order_worst_rel_error(closed_form_rate, closed_form_shift)
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(
        2,
        ok,
        f"18-point grid, worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_2_derived_constants():
    # same grid and tolerance, constants derived from the model itself
    def derived_rate(p):
        return models.second_order_rates(p)[0]

    def derived_shift(p):
        return models.second_order_rates(p)[1]

    worst, elapsed = _second_order_worst_rel_error(derived_rate, derived_shift)
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(
        "2 (derived constants)",
        ok,
        f"18-point grid, worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_third_order_closed_form():
    worst = 0.0
    for n_spins in (2, 4, 8):
        p = models.SuperradianceParams(n_spins=n_spins, g=0.06, gamma=1.1, omega=0.35)
        m = models.superradiance_model(p)
        sd = decompose(to_dense(m.l0))
        gen = sw.generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
        series = sw.correction_terms(gen, sd)
        red = sw.reduced_effective(series, sd, m.dims, 3, cumulative=False).matrix
        target = models.third_order_generator(m)
        worst = max(worst, np.abs(red - target).max() / np.abs(target).max())
    ok = worst <= 1e-9
    assert report(3, ok, f"N in (2, 4, 8), worst rel err {worst:.2e}")


def test_criterion_4_decoupling_residual_scaling():
    start = time.perf_counter()
    p = models.SuperradianceParams(n_spins=2, g=1.0, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = sw.generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
    eps = np.array([1e-2, 1e-3, 1e-4])
    slopes = []
    for order in (1, 2, 3):
        residuals = [
            sw.decoupling_residual(sd, gen, e, order) for e in eps
        ]
        slopes.append(np.polyfit(np.log(eps), np.log(residuals), 1)[0])
    elapsed = time.perf_counter() - start
    ok = all(abs(s - (n + 1)) <= 0.3 for n, s in zip((1, 2, 3), slopes)) and elapsed < 30
    assert report(
        4,
        ok,
        "slopes " + ", ".join(f"{s:.2f}" for s in slopes) + f" (targets 2, 3, 4), {elapsed:.1f} s",
    )


def test_criterion_5_spectral_accuracy_scaling():
    l0, v = dense_full_space(models.degenerate_slow_model(seed=11))
    sd = decompose(l0)
    gen = sw.generator_terms(sd, to_eigen(sd, v), 2)
    series = sw.correction_terms(gen, sd)
    eps_grid = np.array([3e-2, 1e-2, 3e-3, 1e-3])
    errs = []
    for eps in eps_grid:
        eff = np.linalg.eigvals(sw.effective_liouvillian(series, 2, epsilon=eps))
        wfull = np.linalg.eigvals(l0 + eps * v)
        idx = np.argsort(np.abs(wfull))[: sd.slow_dim]
        matched = sw.match_eigenvalues(eff, wfull[idx])
        diffs = np.abs(eff - matched)
        errs.append(diffs[diffs > 1e-13].max())
    slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
    ok = abs(slope - 3.0) <= 0.3
    assert report(5, ok, f"order-2 eigenvalue error slope {slope:.2f} (target 3)")


def test_criterion_6_qrt_two_route_equality():
    start = time.perf_counter()
    worst_diff = 0.0
    worst_eig = np.inf
    count = 0
    for seed in range(20):
        dim = 2 + seed % 3  # ancilla dimensions 2..4
        model = models.random_ancilla_model(dim, 2, seed=500 + seed)
        ops = [a for a, _ in model.couplings]
        bs = qrt.close_operator_set(model.l0, ops)
        cm = qrt.coefficient_matrix(bs)
        sigma = qrt.steady_state(model.l0)
        oracle = qrt.coefficient_matrix_resolvent_oracle(model.l0, sigma, ops)
        worst_diff = max(worst_diff, np.abs(cm.a_matrix - oracle).max())
        worst_eig = min(worst_eig, cm.eigmin_dissipation)
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst_diff < 1e-8 and worst_eig >= -1e-9 and elapsed < 30 and count == 20
    assert report(
        6,
        ok,
        f"{count} models, worst route diff {worst_diff:.2e}, "
        f"min dissipation eigenvalue {worst_eig:.2e}, {elapsed:.1f} s",
    )


# integrated |error| ratio of the order-2 vs order-2+3 curves on the frozen
# grid below, recorded after the first converged run
FIG1_ERROR_RATIO = 5.4909


def test_criterion_7_burst_comparison():
    p = models.SuperradianceParams.from_sqrt_n_g(16, 0.2, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    gen_exact = to_csr(m.l0 + m.v)
    times = np.linspace(0.0, 2000.0, 401)
    traj = dynamics.evolve(gen_exact, m.initial_state, times)
    # without the charge the 1,156-dim space is too large to step densely
    assert traj.stepper == "expm_multiply"
    intensity = dynamics.emission_intensity(traj, m.iz_full, gen_exact)

    sd = decompose(to_dense(m.l0))
    gen = sw.generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
    series = sw.correction_terms(gen, sd)
    red2 = sw.reduced_effective(series, sd, m.dims, 2, cumulative=True).matrix
    red23 = sw.reduced_effective(series, sd, m.dims, 3, cumulative=True).matrix
    dn = m.dims[1]
    mu0 = np.zeros((dn, dn), dtype=complex)
    mu0[0, 0] = 1.0
    traj23 = dynamics.evolve(red23, mu0, times)
    i2 = dynamics.emission_intensity(dynamics.evolve(red2, mu0, times), m.iz, red2)
    i23 = dynamics.emission_intensity(traj23, m.iz, red23)
    # the order-2+3 generator is not manifestly of standard dissipative
    # form, yet the state stays positive for this model
    eigmin_23 = dynamics.min_state_eigenvalue(traj23)

    # (a) burst: the literal initial value is exactly zero (the coupling
    # coherence builds at second order), so check both the literal bound
    # and the meaningful one against the settled early-time emission
    literal = intensity.max() > 1.2 * intensity[0]
    baseline = intensity[np.searchsorted(times, 5.0)]
    burst = intensity.max() > 1.2 * baseline

    # (b) adding the third order tightens the intensity curve
    err2 = np.trapezoid(np.abs(intensity - i2), times)
    err23 = np.trapezoid(np.abs(intensity - i23), times)
    ratio = err2 / err23
    regression_ok = abs(ratio - FIG1_ERROR_RATIO) < 0.02 * FIG1_ERROR_RATIO
    ok = literal and burst and ratio > 1.0 and regression_ok and eigmin_23 > -1e-6
    assert report(
        7,
        ok,
        f"burst peak/baseline {intensity.max() / baseline:.2f}, "
        f"error ratio {ratio:.4f} (recorded {FIG1_ERROR_RATIO}), "
        f"order-2+3 state eigmin {eigmin_23:.2e}",
    )


def test_criterion_7_stretch_n100():
    # the N=100 burst (D=40,804) runs in the coherence-order-0 sector of the
    # polarized state, built from the operators in L_A's own basis:
    # dimension 402, small enough to step with its dense propagator
    start = time.perf_counter()
    n = 100
    p = models.SuperradianceParams.from_sqrt_n_g(n, 0.2, gamma=1.0, omega=0.2)
    rho0 = sp.kron(*models.superradiance_initial(n), format="csr")
    gen, y0, rows, cols = vec_sector(
        models.superradiance_ancilla(p), models.superradiance_charges(n), rho0
    )
    iz = np.kron(np.eye(2), models.collective_ops(n)[2])
    f = iz[cols, rows]  # Tr(I_z rho) = f . y
    times = np.linspace(0.0, 40000.0, 201)
    states, stepper = dynamics.propagate(gen, y0, times)
    assert stepper == "expm"
    intensity = -np.real(states @ (gen.T @ f))
    baseline = intensity[np.searchsorted(times, 5.0)]
    elapsed = time.perf_counter() - start
    ok = intensity.max() > 1.2 * baseline and elapsed < 30
    assert report("7 (stretch N=100)", ok,
                  f"burst peak/baseline {intensity.max() / baseline:.2f}, "
                  f"sector {y0.size} of {iz.size}, {elapsed:.1f} s")


def test_criterion_8_zero_detuning_regrouping():
    ratios = (0.05, 0.02, 0.01)
    rels = []
    for gr in ratios:
        p = models.SuperradianceParams(n_spins=2, g=gr, gamma=1.0, omega=0.0)
        m = models.superradiance_model(p)
        sd = decompose(to_dense(m.l0))
        gen = sw.generator_terms(sd, to_eigen(sd, to_dense(m.v)), 3)
        series = sw.correction_terms(gen, sd)
        l23 = sw.reduced_effective(series, sd, m.dims, 3, cumulative=True).matrix
        reg = models.regrouped_generator(m)
        rels.append(np.linalg.norm(l23 - reg) / np.linalg.norm(l23))
    slope = np.polyfit(np.log(ratios), np.log(rels), 1)[0]
    ok = abs(slope - 2.0) <= 0.3
    assert report(8, ok, f"relative deviation slope {slope:.2f} (target 2)")


def test_criterion_9_structural_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = []
    for name, l0, v in model_fleet():
        dim = int(round(np.sqrt(l0.shape[0])))
        tr = trace_functional(dim)
        if np.abs(tr @ l0).max() >= 1e-10:
            failures.append(f"{name}: trace preservation")
        rho = random_hermitian(rng, dim)
        out = (l0 @ vectorize(rho)).reshape(dim, dim)
        if np.abs(out - out.conj().T).max() >= 1e-12 * max(1, np.abs(out).max()):
            failures.append(f"{name}: hermiticity preservation")
        sd = decompose(l0)
        pq = projectors(sd)
        eye = np.eye(sd.dim)
        checks = [
            np.abs(pq.p @ pq.p - pq.p).max(),
            np.abs(pq.q @ pq.q - pq.q).max(),
            np.abs(pq.p @ pq.q).max(),
            np.abs(pq.p + pq.q - eye).max(),
        ]
        if max(checks) >= 1e-9:
            failures.append(f"{name}: projector algebra")
        if np.abs(sd.left @ sd.right - eye).max() >= 1e-9:
            failures.append(f"{name}: biorthonormality")
        if np.abs(sd.right @ sd.left - eye).max() >= 1e-9:
            failures.append(f"{name}: completeness")
        if v is not None and np.abs(tr @ v).max() >= 1e-10:
            failures.append(f"{name}: perturbation trace preservation")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    assert report(
        9,
        ok,
        f"{len(model_fleet())} models, "
        + ("all invariants hold" if not failures else "; ".join(failures))
        + f", {elapsed:.1f} s",
    )
