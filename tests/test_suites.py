import numpy as np

from hankelschmidt import suites
from hankelschmidt.blaschke import blaschke_eval, frostman_shift, tm_basis
from hankelschmidt.hardy import HardyVector, basis_matrix, default_grid_size, grid_points
from hankelschmidt.spectral import orthonormalize, subspace_gap

ORDER = 128


def draw_alpha(rng):
    return 0.5 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))


def shifted_basis_order(b, alpha):
    """The smallest order <= 1024 that resolves K_{B_alpha}, or None."""
    shifted, _ = frostman_shift(b, alpha, ORDER)
    work = ORDER
    while work <= 1024:
        try:
            tm_basis(shifted, work)
            return work
        except ValueError:
            work *= 2
    return None


def direct_check(b, alpha, work):
    """(gap, isometry, boundary identity) from frostman_shift at the work order."""
    shifted, g = frostman_shift(b, alpha, work)
    cols = [HardyVector(np.convolve(g.coeffs, h.coeffs)[:work]) for h in tm_basis(shifted, work)]
    iso = max(abs(c.norm() - 1.0) for c in cols)
    gap = subspace_gap(basis_matrix(tm_basis(b, work)), orthonormalize(basis_matrix(cols)))
    grid = grid_points(default_grid_size(work))
    g_samples = (1 - np.conj(alpha) * blaschke_eval(b, grid)) / np.sqrt(1 - abs(alpha) ** 2)
    ident = g_samples * blaschke_eval(shifted, grid) + blaschke_eval(b, grid) * np.conj(g_samples)
    return gap, iso, float(np.max(np.abs(ident)))


def find_draws(count_resolved, count_escalated):
    rng = np.random.default_rng(0)
    resolved, escalated = [], []
    while len(resolved) < count_resolved or len(escalated) < count_escalated:
        b = suites.random_blaschke(rng)
        try:
            tm_basis(b, ORDER)
        except ValueError:
            continue
        alpha = draw_alpha(rng)
        work = shifted_basis_order(b, alpha)
        if work == ORDER:
            resolved.append((b, alpha))
        elif work is not None:
            escalated.append((b, alpha, work))
    return resolved[:count_resolved], escalated[:count_escalated]


def test_frostman_check_shifts_once_and_reuses_the_callers_basis(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(b, *args):
            calls.append((fn.__name__, b, args))
            return fn(b, *args)
        return wrapper

    monkeypatch.setattr(suites, "frostman_shift", counted(frostman_shift))
    monkeypatch.setattr(suites, "tm_basis", counted(tm_basis))
    resolved, escalated = find_draws(3, 3)
    for b, alpha in resolved:
        calls.clear()
        v = basis_matrix(tm_basis(b, ORDER))
        assert suites._frostman_invariance_check(b, alpha, v) is not None
        assert [name for name, _, _ in calls] == ["frostman_shift", "tm_basis"]
        assert calls[1][1] is not b
    for b, alpha, work in escalated:
        calls.clear()
        v = basis_matrix(tm_basis(b, ORDER))
        assert suites._frostman_invariance_check(b, alpha, v) is not None
        assert sum(name == "frostman_shift" for name, _, _ in calls) == 1
        assert [args for name, arg, args in calls if name == "tm_basis" and arg is b] == [(work,)]


def test_model_space_suite_shifts_once_per_alpha(monkeypatch):
    shifts = []
    checks = []
    check = suites._frostman_invariance_check

    def counted_shift(b, alpha, order):
        shifts.append(alpha)
        return frostman_shift(b, alpha, order)

    def counted_check(b, alpha, v):
        checks.append(alpha)
        return check(b, alpha, v)

    monkeypatch.setattr(suites, "frostman_shift", counted_shift)
    monkeypatch.setattr(suites, "_frostman_invariance_check", counted_check)
    result = suites.suite_model_spaces(3, n_blaschke=6, n_alpha=3, order=ORDER)
    assert result["pass"]
    assert len(checks) >= 18
    assert shifts == checks


def test_escalated_check_matches_a_direct_shift_at_the_work_order():
    _, escalated = find_draws(0, 3)
    for b, alpha, work in escalated:
        assert work > ORDER
        got = suites._frostman_invariance_check(b, alpha, basis_matrix(tm_basis(b, ORDER)))
        want = direct_check(b, alpha, work)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def test_model_space_suite_returns_at_order_2048():
    # the shifted basis must be allowed to resolve at the suite's own order
    result = suites.suite_model_spaces(0, n_blaschke=1, n_alpha=1, order=2048)
    assert result["pass"]
    assert result["order"] == 2048
