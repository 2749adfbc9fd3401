import numpy as np

from hankelschmidt import extraction, suites
from hankelschmidt.blaschke import BlaschkeProduct, blaschke_eval, frostman_shift, tm_basis
from hankelschmidt.hardy import default_grid_size, grid_points
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


def direct_check(b, alpha, work, shift=frostman_shift):
    """(gap, isometry, boundary identity) from a shift at the work order."""
    shifted, g = shift(b, alpha, work)
    cols = np.column_stack([np.convolve(g, h)[:work] for h in tm_basis(shifted, work).T])
    iso = max(abs(np.linalg.norm(c) - 1.0) for c in cols.T)
    gap = subspace_gap(tm_basis(b, work), orthonormalize(cols))
    grid = grid_points(default_grid_size(work))
    g_samples = (1 - np.conj(alpha) * blaschke_eval(b, grid)) / np.sqrt(1 - abs(alpha) ** 2)
    ident = g_samples * blaschke_eval(shifted, grid) + blaschke_eval(b, grid) * np.conj(g_samples)
    return gap, iso, float(np.max(np.abs(ident)))


def find_draws(count_resolved, count_unresolved):
    """(B, alpha) draws whose K_{B_alpha} basis resolves at ORDER, and
    (B, alpha, work) draws whose basis first resolves at a larger order."""
    rng = np.random.default_rng(0)
    resolved, unresolved = [], []
    while len(resolved) < count_resolved or len(unresolved) < count_unresolved:
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
            unresolved.append((b, alpha, work))
    return resolved[:count_resolved], unresolved[:count_unresolved]


def moved_shift(b, alpha, order, by=1e-9):
    """frostman_shift with the first zero of B_alpha moved by `by`."""
    shifted, g = frostman_shift(b, alpha, order)
    zeros = shifted.zeros.copy()
    zeros[0] += by
    return BlaschkeProduct(zeros, shifted.phase), g


def test_frostman_check_shifts_once_and_reuses_the_callers_basis(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(b, *args, **kwargs):
            calls.append((fn.__name__, b, args))
            return fn(b, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(suites, "frostman_shift", counted(frostman_shift))
    monkeypatch.setattr(suites, "tm_basis", counted(tm_basis))
    monkeypatch.setattr(extraction, "tm_basis", counted(tm_basis))
    resolved, unresolved = find_draws(3, 3)
    assert all(work > ORDER for _, _, work in unresolved)
    for b, alpha, *_ in resolved + unresolved:
        calls.clear()
        v = tm_basis(b, ORDER)
        assert suites._frostman_invariance_check(b, alpha, v) is not None
        # one shift of B, one basis of B_alpha at the suite order, none of B
        assert [(name, arg is b, args) for name, arg, args in calls] == [
            ("frostman_shift", True, (alpha, ORDER)),
            ("tm_basis", False, (ORDER,)),
        ]


def test_model_space_suite_shifts_once_per_alpha(monkeypatch):
    shifts = []
    checks = []
    bases = []
    check = suites._frostman_invariance_check

    def counted_shift(b, alpha, order):
        shifts.append(alpha)
        return frostman_shift(b, alpha, order)

    def counted_basis(b, order, **kwargs):
        bases.append(b)
        return tm_basis(b, order, **kwargs)

    def counted_check(b, alpha, v):
        before = len(bases)
        result = check(b, alpha, v)
        checks.append((alpha, result is not None, [c is b for c in bases[before:]]))
        return result

    monkeypatch.setattr(suites, "frostman_shift", counted_shift)
    monkeypatch.setattr(suites, "tm_basis", counted_basis)
    monkeypatch.setattr(extraction, "tm_basis", counted_basis)
    monkeypatch.setattr(suites, "_frostman_invariance_check", counted_check)
    result = suites.suite_model_spaces(3, n_blaschke=6, n_alpha=3, order=ORDER)
    assert result["pass"]
    assert len(checks) >= 18
    assert shifts == [alpha for alpha, _, _ in checks]
    # a check whose shift succeeds takes one basis, of B_alpha; none of B
    assert all(on_b == ([False] if ok else []) for _, ok, on_b in checks)


def test_suite_order_check_matches_a_direct_shift_at_the_resolving_order():
    _, unresolved = find_draws(0, 3)
    for b, alpha, work in unresolved:
        assert work > ORDER
        got = suites._frostman_invariance_check(b, alpha, tm_basis(b, ORDER))
        want = direct_check(b, alpha, work)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def test_suite_order_check_sees_a_zero_moved_by_1e_9(monkeypatch):
    # K_{B_alpha} has not decayed by ORDER, yet the truncated check sees a
    # fault as the check at the resolving order does
    _, unresolved = find_draws(0, 3)
    monkeypatch.setattr(suites, "frostman_shift", moved_shift)
    for b, alpha, work in unresolved:
        assert work > ORDER
        gap, _, _ = suites._frostman_invariance_check(b, alpha, tm_basis(b, ORDER))
        want, _, _ = direct_check(b, alpha, work, shift=moved_shift)
        assert gap > 1e-10
        assert abs(gap - want) <= 1e-4 * want


def test_model_space_suite_returns_at_order_2048():
    # the shifted basis must be allowed to resolve at the suite's own order
    result = suites.suite_model_spaces(0, n_blaschke=1, n_alpha=1, order=2048)
    assert result["pass"]
    assert result["order"] == 2048
