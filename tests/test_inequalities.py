import math

import numpy as np
import pytest

from pesim import inequalities
from pesim.grid import Grid1D
from pesim.inequalities import (
    all_reports,
    check_bernis,
    check_hflux_bounds,
    check_interp_log,
    check_interp_lower,
    check_mollifier_bound,
    elementary_report,
    hflux_report,
    mollifier_report,
    ode_comparison_bound,
    ode_comparison_report,
    random_trig_field,
    signed_ratio,
)


def test_signed_ratio_conventions():
    assert signed_ratio(1.0, 2.0) == 0.5
    assert signed_ratio(-3.0, -2.0) == pytest.approx(2.0 / 3.0)
    assert signed_ratio(-1.0, -2.0) == 2.0  # -1 > -2 violates: ratio 2 > 1
    assert signed_ratio(1.0, -2.0) == math.inf
    assert signed_ratio(-1.0, 0.0) == 0.0
    assert signed_ratio(1.0, 0.0) == math.inf


# ---------------------------------------------------------------------------
# Bernis-type interpolation
# ---------------------------------------------------------------------------

def test_bernis_constant_reports_zero():
    g = Grid1D(0.0, 1.0, 64)
    assert check_bernis(np.full(g.n_cells, 2.0), g, 0.0) == 0.0


def test_bernis_rejects_beta_one_and_nonpositive():
    g = Grid1D(0.0, 1.0, 64)
    f = np.full(g.n_cells, 2.0)
    with pytest.raises(ValueError):
        check_bernis(f, g, 1.0)
    with pytest.raises(ValueError):
        check_bernis(np.full(g.n_cells, -1.0), g, 0.0)
    # a beta whose integrals overflow evaluates nothing
    wavy = 2.0 + np.cos(np.pi * g.centers)
    for beta in (1e5, 1e308):
        with pytest.raises(ValueError, match="non-finite"):
            check_bernis(wavy, g, beta)


def test_make_report_nan_ratio_wins_and_fails():
    # a NaN ratio evaluated nothing: it is reported, not skipped as NaN > worst is
    results = [(0.5, {"i": 0}), (math.nan, {"i": 1}), (2.0, {"i": 2}), (math.nan, {"i": 3})]
    rep = inequalities._make_report("nan", results, 0.05)
    assert math.isnan(rep.worst_ratio) and rep.worst_case_payload == {"i": 1}
    assert rep.passed is False and rep.samples == 4
    rep = inequalities._make_report("ok", [(0.5, {"i": 0}), (0.9, {"i": 1})], 0.05)
    assert rep.worst_ratio == 0.9 and rep.passed is True


def test_bernis_cosine_example():
    g = Grid1D(0.0, 1.0, 400)
    f = 2.0 + np.cos(np.pi * g.centers)
    assert check_bernis(f, g, 0.0) <= 1.05


def test_bernis_beta_sweep_random_fields():
    rng = np.random.default_rng(101)
    g = Grid1D(0.0, 1.0, 400)
    for _ in range(200):
        f = random_trig_field(g, rng)
        for beta in (-1.0, 0.0, 2.0, 3.0):
            assert check_bernis(f, g, beta) <= 1.05


def test_bernis_tighter_at_finer_resolution():
    # the quadrature checkers pass with tolerance 0.02 at N = 1600
    rng = np.random.default_rng(102)
    g = Grid1D(0.0, 1.0, 1600)
    for _ in range(60):
        f = random_trig_field(g, rng)
        for beta in (-1.0, 0.0, 2.0, 3.0):
            assert check_bernis(f, g, beta) <= 1.02


# ---------------------------------------------------------------------------
# interpolation bounds
# ---------------------------------------------------------------------------

def test_interp_log_constant_equality():
    # equality case: both sides reduce to -|Omega| ln c (at c = 1 both vanish
    # and the convention reports 0)
    g = Grid1D(0.0, 1.0, 128)
    for c in (0.5, 3.0):
        assert check_interp_log(np.full(g.n_cells, c), g) == pytest.approx(1.0, rel=1e-12)
    assert check_interp_log(np.full(g.n_cells, 1.0), g) == 0.0


def test_interp_lower_constant_value():
    g = Grid1D(0.0, 1.0, 128)
    assert check_interp_lower(np.full(g.n_cells, 1.0), g, 1.0, 1.0) == pytest.approx(0.25)


def test_interp_random_fields():
    rng = np.random.default_rng(103)
    g = Grid1D(0.0, 1.0, 400)
    for _ in range(200):
        f = random_trig_field(g, rng)
        for pq in (1.5, 2.0):
            assert check_interp_lower(f, g, pq, pq) <= 1.05
        assert check_interp_log(f, g) <= 1.05


def test_interp_tighter_at_finer_resolution():
    rng = np.random.default_rng(104)
    g = Grid1D(0.0, 1.0, 1600)
    for _ in range(60):
        f = random_trig_field(g, rng)
        for pq in (1.5, 2.0):
            assert check_interp_lower(f, g, pq, pq) <= 1.02
        assert check_interp_log(f, g) <= 1.02


def test_interp_rejects_nonpositive():
    g = Grid1D(0.0, 1.0, 64)
    bad = np.full(g.n_cells, -0.5)
    with pytest.raises(ValueError):
        check_interp_lower(bad, g, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_interp_log(bad, g)
    for p, q in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="^p and q must be positive"):
            check_interp_lower(np.full(g.n_cells, 2.0), g, p, q)


@pytest.mark.parametrize("check, args", [(check_bernis, (0.0,)), (check_interp_lower, (1.0, 1.0)),
                                         (check_interp_log, ())],
                         ids=["bernis", "interp_lower", "interp_log"])
def test_quadrature_checkers_reject_wrong_length_and_nan(check, args):
    g = Grid1D(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="expected 64 values"):
        check(np.full(g.n_cells + 1, 2.0), g, *args)
    nan = np.full(g.n_cells, 2.0)
    nan[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        check(nan, g, *args)


# ---------------------------------------------------------------------------
# pointwise bounds
# ---------------------------------------------------------------------------

def test_mollifier_bound_nu2():
    # RHS = 1/3 (0^0 = 1 convention); the sup is approached as s -> infinity
    # keep eps/(3 s^2) well above roundoff so the exact bound is not blurred
    s = np.geomspace(1e-3, 1e4, 4000)
    ratio = check_mollifier_bound(2.0, 1e-2, s)
    assert ratio <= 1.0
    assert ratio > 0.999


def test_mollifier_bound_nu0_equality_at_zero():
    assert check_mollifier_bound(0.0, 1e-2, [0.0]) == 1.0


def test_mollifier_bound_sweep():
    s = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 3000)])
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
        for eps in (1e-4, 1e-2, 0.5):
            assert check_mollifier_bound(nu, eps, s) <= 1.0


def test_mollifier_rejects_bad_nu():
    with pytest.raises(ValueError):
        check_mollifier_bound(2.5, 1e-2, [1.0])
    for eps in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\)"):
            check_mollifier_bound(1.0, eps, [1.0])
    with pytest.raises(ValueError, match="^samples must be nonnegative"):
        check_mollifier_bound(1.0, 1e-2, [1.0, -1e-300])


def test_hflux_bounds_sweep():
    s = np.geomspace(1e-3, 1e2, 2000)
    for n in (0.0, 1.0, 2.0, 3.0, 3.5):
        for eps in (1e-4, 1e-2, 0.5):
            ratios = check_hflux_bounds(n, eps, s)
            assert all(r <= 1.0 for r in ratios.values())


def test_hflux_value_ratio_saturates():
    ratios = check_hflux_bounds(2.0, 0.01, np.geomspace(1e-3, 1e3, 2000))
    assert ratios["value"] > 0.99


def test_hflux_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        check_hflux_bounds(2.0, 0.01, [0.0, 1.0])


# ---------------------------------------------------------------------------
# ODE comparison
# ---------------------------------------------------------------------------

def test_ode_comparison_huge_initial_datum():
    assert ode_comparison_bound(0.0, 1.0, 1.0, 2.0, 1e6, 10.0)


def test_ode_comparison_equilibrium_start():
    # y0 = (b/a)^(1/beta): the solution is constant and below the barrier
    assert ode_comparison_bound(0.0, 1.0, 1.0, 2.0, 1.0, 5.0)


def test_ode_comparison_fractional_exponent():
    assert ode_comparison_bound(0.0, 2.0, 0.5, 5.0 / 3.0, 100.0, 10.0)


def test_ode_comparison_rejects_beta_below_one():
    with pytest.raises(ValueError):
        ode_comparison_bound(0.0, 1.0, 1.0, 0.9, 1.0, 5.0)



@pytest.mark.parametrize("a, b, y0", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1e-3)])
def test_ode_comparison_rejects_bad_coefficients(a, b, y0):
    with pytest.raises(ValueError, match=r"^need a > 0, b > 0, y0 >= 0"):
        ode_comparison_bound(0.0, a, b, 2.0, y0, 5.0)


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan])
def test_ode_comparison_rejects_end_not_after_start(t_end):
    with pytest.raises(ValueError, match="^t_end must exceed t0"):
        ode_comparison_bound(0.0, 1.0, 1.0, 2.0, 1.0, t_end)


def test_ode_comparison_random_draws(shipped_reports):
    # the shipped suite's report: 100 draws from seed 20244
    rep = next(r for r in shipped_reports[0] if r.name == "ode_comparison")
    assert rep.passed
    assert rep.samples == 100


def _two_branch_reference(t0, a, b, beta, y0, t_end, n_steps):
    """The per-step RK4 loop the kernel replaced: both rate branches for every
    draw, combined with np.where, and the barrier compared after every step."""
    a, b, beta, y0 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (a, b, beta, y0))
    y_eq = (b / a) ** (1.0 / beta)
    zmode = y0 > y_eq
    p = beta / (beta - 1.0)
    s = np.where(zmode, np.where(zmode, y0, 1.0) ** (1.0 - beta), y0)

    def rate(sv):
        f_y = b - a * np.where(zmode, 1.0, sv) ** beta
        f_z = (beta - 1.0) * (a - b * np.where(zmode, sv, 0.5) ** p)
        return np.where(zmode, f_z, f_y)

    dt = (t_end - t0) / n_steps
    exp_back = -1.0 / (beta - 1.0)
    worst = 0.0
    t = t0
    with np.errstate(over="ignore"):
        for _ in range(n_steps):
            k1 = rate(s)
            k2 = rate(s + 0.5 * dt * k1)
            k3 = rate(s + 0.5 * dt * k2)
            k4 = rate(s + dt * k3)
            s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            y = np.where(zmode, np.where(zmode, s, 1.0) ** exp_back, s)
            bound = ((beta - 1.0) * a * (t - t0)) ** exp_back + y_eq
            worst = max(worst, float((y / bound).max()))
    return worst


# (a, b, beta, y0): z-mode from a huge datum, y-mode from zero, a start exactly
# at the equilibrium (b/a)^(1/beta) = 1, beta = 1.001 (the early barrier
# overflows to inf) in both modes, and a fractional exponent in both modes
_ODE_DRAWS = [
    (1.0, 1.0, 2.0, 1e6),
    (3.0, 0.5, 1.5, 0.0),
    (2.0, 2.0, 2.5, 1.0),
    (0.4, 7.0, 1.001, 5e5),
    (5.0, 0.2, 1.001, 0.0),
    (2.0, 0.5, 5.0 / 3.0, 100.0),
    (0.1, 9.0, 5.0 / 3.0, 0.5),
]


def _fine_ratio_blocks(t0, a, b, beta, y0, t_end, n_steps):
    """The kernel the graded one replaced, its loop unchanged: one RK4 step of
    dt per sample, and (t_blk, ratios) yielded per block of _ODE_BLOCK steps."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    y_eq = (b / a) ** (1.0 / beta)
    zmode = y0 > y_eq
    bm1 = beta - 1.0
    s = np.where(zmode, np.where(zmode, y0, 1.0) ** (1.0 - beta), y0)
    # both modes share the rate c0*(c1 - c2*s^e); the y-mode factor 1 is exact
    c0, e = np.where(zmode, bm1, 1.0), np.where(zmode, beta / bm1, beta)
    c1, c2 = np.where(zmode, a, b), np.where(zmode, b, a)

    dt = (t_end - t0) / n_steps
    h2, h6, exp_back, bm1a = 0.5 * dt, dt / 6.0, -1.0 / bm1, bm1 * a
    t = t0
    for start in range(0, n_steps, inequalities._ODE_BLOCK):
        s_blk = np.empty((min(inequalities._ODE_BLOCK, n_steps - start), s.size))
        t_blk = np.empty((len(s_blk), 1))
        for j in range(len(s_blk)):
            k1 = c0 * (c1 - c2 * s**e)
            k2 = c0 * (c1 - c2 * (s + h2 * k1) ** e)
            k3 = c0 * (c1 - c2 * (s + h2 * k2) ** e)
            k4 = c0 * (c1 - c2 * (s + dt * k3) ** e)
            s = np.add(s, h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=s_blk[j])
            t += dt
            t_blk[j] = t
        y = np.where(zmode, np.where(zmode, s_blk, 1.0) ** exp_back, s_blk)
        bound = (bm1a * (t_blk - t0)) ** exp_back + y_eq
        yield t_blk, y / bound


def _fine_reference(t0, a, b, beta, y0, t_end, n_steps=inequalities._ODE_GRID_STEPS):
    """(worst ratio, draw, t) of _fine_ratio_blocks, reduced as the replaced
    kernel did."""
    worst, worst_draw, worst_t = 0.0, 0, t0
    with np.errstate(over="ignore"):
        for t_blk, ratios in _fine_ratio_blocks(t0, a, b, beta, y0, t_end, n_steps):
            k = int(ratios.argmax())  # argmax, like max, stops at the first NaN
            ratio = float(ratios.flat[k])
            if ratio > worst or math.isnan(ratio):
                row, worst_draw = divmod(k, ratios.shape[1])
                worst, worst_t = ratio, float(t_blk[row, 0])
                if math.isnan(ratio):
                    break
    return worst, worst_draw, worst_t


@pytest.mark.parametrize(
    "n_steps", [1, inequalities._ODE_BLOCK, inequalities._ODE_BLOCK + 1, 2000])
def test_rk4_barrier_kernel_matches_two_branch_loop(n_steps, monkeypatch):
    rng = np.random.default_rng(7)
    a, b, beta, y0 = (np.array(col) for col in zip(*_ODE_DRAWS))
    a = np.concatenate([a, rng.uniform(0.1, 10.0, 8)])
    b = np.concatenate([b, rng.uniform(0.1, 10.0, 8)])
    beta = np.concatenate([beta, rng.uniform(1.001, 3.0, 8)])
    y0 = np.concatenate([y0, rng.uniform(0.0, 1e6, 8)])
    t_end = 10.0 * n_steps / 2000
    # up to 1/_ODE_GRADE samples every graded step spans one sample, so the
    # kernel is the two-branch loop to the bit; beyond that it interpolates,
    # and the fine reference stands in for the loop
    one_sample_steps = n_steps < 1.0 / inequalities._ODE_GRADE

    def check(got, *draws):
        ref = _two_branch_reference(0.0, *draws, t_end, n_steps)
        if one_sample_steps:
            assert got[0] == ref
        else:
            fine = _fine_reference(0.0, *draws, t_end, n_steps)
            assert fine[0] == ref
            assert abs(got[0] - fine[0]) <= 1e-9 and got[1:] == fine[1:]
        return ref

    check(inequalities._rk4_barrier_worst(0.0, a, b, beta, y0, t_end, n_steps), a, b, beta, y0)

    # the scalar path, one draw at a time through ode_comparison_bound
    seen = []
    kernel = inequalities._rk4_barrier_worst

    def spy(*args):
        seen.append(kernel(*args, n_steps=n_steps))
        return seen[-1]

    monkeypatch.setattr(inequalities, "_rk4_barrier_worst", spy)
    for draw in _ODE_DRAWS:
        passed = ode_comparison_bound(0.0, *draw, t_end)
        assert passed == (check(seen[-1], *draw) <= 1.0 + inequalities._ODE_FP_TOL)


def _shipped_ode_draws():
    """The shipped report's draws: seed 20244, drawn column by column."""
    rng = np.random.default_rng(20244)
    return [rng.uniform(lo, hi, inequalities._ODE_DRAWS)
            for lo, hi in ((0.1, 10.0), (0.1, 10.0), (1.001, 3.0), (0.0, 1e6))]


def test_graded_kernel_matches_fine_reference_on_shipped_draws(shipped_reports):
    # every sample of every shipped draw, in sample order: the reference's rows
    # are pulled as each of the kernel's blocks needs them, wherever blocks end
    args = (0.0, *_shipped_ode_draws(), inequalities._ODE_T_SPAN, inequalities._ODE_GRID_STEPS)
    graded_max = fine_max = np.zeros(inequalities._ODE_DRAWS)
    fine = _fine_ratio_blocks(*args)
    t_f, r_f = np.empty((0, 1)), np.empty((0, inequalities._ODE_DRAWS))
    with np.errstate(over="ignore"):
        for t_g, r_g in inequalities._ode_ratio_blocks(*args):
            while len(t_f) < len(t_g):
                t_next, r_next = next(fine)
                t_f, r_f = np.concatenate([t_f, t_next]), np.concatenate([r_f, r_next])
            rows = len(t_g)
            assert np.array_equal(t_g, t_f[:rows])
            assert np.abs(r_g - r_f[:rows]).max() <= 1e-9
            graded_max = np.maximum(graded_max, r_g.max(axis=0))
            fine_max = np.maximum(fine_max, r_f[:rows].max(axis=0))
            t_f, r_f = t_f[rows:], r_f[rows:]
        assert len(t_f) == 0 and next(fine, None) is None
    rep = next(r for r in shipped_reports[0] if r.name == "ode_comparison")
    assert graded_max.argmax() == fine_max.argmax() == rep.worst_case_payload["draw"]
    assert rep.worst_ratio == graded_max.max()


@np.errstate(invalid="ignore")
def test_ode_comparison_diverged_integration_fails(monkeypatch):
    kernel = inequalities._rk4_barrier_worst
    # one RK4 step of dt = 10 overshoots to a negative y, and y^1.5 is NaN
    assert math.isnan(kernel(0.0, 10.0, 10.0, 1.5, 0.0, 10.0, n_steps=1)[0])
    # a NaN in one draw must not hide behind, or wipe out, the other draw
    for order in ((0, 1), (1, 0)):
        draws = np.array([[10.0, 10.0, 1.5, 0.0], [1.0, 1.0, 2.0, 1.0]])[list(order)]
        worst, draw, t = kernel(0.0, *draws.T, 10.0, n_steps=1)
        assert math.isnan(worst) and draw == order.index(0) and t == 10.0
    monkeypatch.setattr(inequalities, "_rk4_barrier_worst",
                        lambda *args: kernel(*args, n_steps=1))
    assert not ode_comparison_bound(0.0, 10.0, 10.0, 1.5, 0.0, 10.0)
    rep = ode_comparison_report()  # one step of dt = 10: draw 0 diverges to NaN
    assert math.isnan(rep.worst_ratio) and not rep.passed


@pytest.mark.parametrize("n_steps", [inequalities._ODE_BLOCK, 2 * inequalities._ODE_BLOCK + 2,
                                     inequalities._ODE_GRID_STEPS])
@pytest.mark.parametrize("planted", [0, 2, 4])
def test_rk4_barrier_worst_names_planted_draw(planted, n_steps):
    # draws rising slowly from y0 = 0 stay far below their barriers.  A draw
    # resting at its equilibrium y = 1 has the ratio t/(1 + t), largest at the
    # last step, also on the finest grid, where the graded kernel interpolates
    # the samples between its steps.  A draw falling from y0 = 1e6 follows y = coth(t + c),
    # c = arcoth(1e6) ~ 1e-6, and comes closest to its barrier near
    # t = sqrt(c) = 1e-3: right after the first step on the coarse grids, at
    # sample 100 on the finest.
    kernel = inequalities._rk4_barrier_worst
    draws = np.array([[0.1 + 0.01 * k, 0.1, 3.0, 0.0] for k in range(5)])
    times = [0.0]  # the sample times, summed one step at a time
    for _ in range(n_steps):
        times.append(times[-1] + 1.0 / n_steps)
    t_last = times[-1]
    draws[planted] = [1.0, 1.0, 2.0, 1.0]
    worst, draw, t = kernel(0.0, *draws.T, 1.0, n_steps)
    assert draw == planted and t == t_last
    assert worst == pytest.approx(t_last / (1.0 + t_last), rel=1e-14)
    draws[planted] = [1.0, 1.0, 2.0, 1e6]
    worst, draw, t = kernel(0.0, *draws.T, 1.0, n_steps)
    assert draw == planted and t == times[max(1, round(1e-3 * n_steps))]
    assert worst > 0.9


def test_ode_report_payload_names_worst_draw(monkeypatch):
    kernel = inequalities._rk4_barrier_worst
    monkeypatch.setattr(inequalities, "_rk4_barrier_worst",
                        lambda *args: kernel(*args, n_steps=2000))
    rep = ode_comparison_report()  # the shipped draws: seed 20244, 100 draws, t_span 10
    payload = rep.worst_case_payload
    rng = np.random.default_rng(20244)
    draws = [rng.uniform(lo, hi, 100)
             for lo, hi in ((0.1, 10.0), (0.1, 10.0), (1.001, 3.0), (0.0, 1e6))]
    i = payload["draw"]
    assert [payload[k] for k in ("a", "b", "beta", "y0")] == [col[i] for col in draws]
    assert payload["t_span"] == 10.0
    # the named draw alone reaches the same worst ratio at the named time
    worst, _, t = kernel(0.0, *(col[i] for col in draws), 10.0, n_steps=2000)
    assert t == payload["t"]
    assert worst == pytest.approx(rep.worst_ratio, rel=1e-14)


# ---------------------------------------------------------------------------
# shipped suites
# ---------------------------------------------------------------------------

def test_all_reports_pass(shipped_reports):
    reports = shipped_reports[0]
    assert len(reports) >= 5
    for rep in reports:
        assert rep.passed, rep
        assert rep.worst_ratio <= 1.0 + rep.tolerance
    names = {rep.name for rep in reports}
    assert {"bernis", "interp_lower", "interp_log", "mollifier", "hflux",
            "ode_comparison"} <= names


def test_pointwise_reports_ratio_at_most_one():
    for rep in (mollifier_report(), hflux_report()):
        assert rep.worst_ratio <= 1.0


def test_elementary_bounds():
    rep = elementary_report()
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + rep.tolerance


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        all_reports("nonsense")
