import numpy as np
import pytest

from hankelschmidt import extraction, suites
from hankelschmidt.blaschke import (
    BlaschkeProduct,
    MobiusMap,
    blaschke_eval,
    compose_with_mobius,
    frostman_shift,
    tm_basis,
)
from hankelschmidt.hardy import default_grid_size, grid_points
from hankelschmidt.spectral import orthonormalize, subspace_gap
import oracles

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


def stacked_check(b, alpha, by=0.0):
    """(gap, isometry, boundary identity) of the suite's stacked check for one
    (B, alpha) draw, with the first zero of B_alpha moved by `by`."""
    zeros, phases, g, (error,) = suites._frostman_shifts(b, np.array([alpha]), ORDER)
    assert error is None
    zeros[:, 0] += by
    v = tm_basis(b, ORDER)[None]
    return tuple(float(x[0]) for x in suites._frostman_gaps([b], v, np.array([alpha]), zeros, phases, g))


def test_frostman_check_shifts_once_and_reuses_the_callers_basis(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(b, *args, **kwargs):
            calls.append((fn.__name__, b, args))
            return fn(b, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(suites, "_frostman_shifts", counted(suites._frostman_shifts))
    monkeypatch.setattr(suites, "_tm_bases", counted(suites._tm_bases))
    monkeypatch.setattr(suites, "tm_basis", counted(tm_basis))
    monkeypatch.setattr(extraction, "tm_basis", counted(tm_basis))
    resolved, unresolved = find_draws(3, 3)
    assert all(work > ORDER for _, _, work in unresolved)
    for b, alpha, *_ in resolved + unresolved:
        calls.clear()
        assert stacked_check(b, alpha) is not None
        # one shift of B, one basis of B_alpha at the suite order, none of B
        (shift, on_b, (alphas, order)), (basis, zeros, args) = calls
        assert (shift, on_b is b, alphas.tolist(), order) == ("_frostman_shifts", True, [alpha], ORDER)
        assert (basis, zeros.shape, args) == ("_tm_bases", (1, b.degree), (ORDER,))
        assert np.array_equal(zeros[0], frostman_shift(b, alpha, ORDER)[0].zeros)


def test_model_space_suite_shifts_once_per_alpha(monkeypatch):
    shifts = []
    checked = []
    bases = []
    shifted_bases = []
    shift, gaps, stacked = suites._frostman_shifts, suites._frostman_gaps, suites._tm_bases

    def counted_shifts(b, alphas, order):
        out = shift(b, alphas, order)
        shifts.extend((b, a, e is None) for a, e in zip(alphas, out[-1]))
        return out

    def counted_basis(b, order, **kwargs):
        bases.append(b)
        return tm_basis(b, order, **kwargs)

    def counted_gaps(bs, v, alphas, *rest):
        checked.extend(zip(np.repeat(np.array(bs, dtype=object), alphas.size // len(bs)), alphas))
        return gaps(bs, v, alphas, *rest)

    def counted_stacked(zeros, order):
        shifted_bases.extend(zeros)
        return stacked(zeros, order)

    monkeypatch.setattr(suites, "_frostman_shifts", counted_shifts)
    monkeypatch.setattr(suites, "tm_basis", counted_basis)
    monkeypatch.setattr(extraction, "tm_basis", counted_basis)
    monkeypatch.setattr(suites, "_frostman_gaps", counted_gaps)
    monkeypatch.setattr(suites, "_tm_bases", counted_stacked)
    result = suites.suite_model_spaces(3, n_blaschke=6, n_alpha=3, order=ORDER)
    assert result["pass"]
    assert len(shifts) >= 18
    # each alpha is shifted once, and each one whose shift succeeds is checked once
    assert len({a for _, a, _ in shifts}) == len(shifts)
    key = lambda pair: (id(pair[0]), pair[1].real, pair[1].imag)  # noqa: E731
    ok = sorted(((b, a) for b, a, good in shifts if good), key=key)
    assert len(ok) == 18 and ok == sorted(checked, key=key)
    assert len(shifts) - len(ok) + len(bases) - 6 == result["skipped_draws"]
    # a check whose shift succeeds takes one basis, of B_alpha; tm_basis is
    # taken once of each drawn B and never of a B_alpha
    assert len(shifted_bases) == 18
    assert len(set(map(id, bases))) == len(bases)
    assert {id(b) for b, _, _ in shifts} <= set(map(id, bases))


def test_suite_order_check_matches_a_direct_shift_at_the_resolving_order():
    _, unresolved = find_draws(0, 3)
    for b, alpha, work in unresolved:
        assert work > ORDER
        got = stacked_check(b, alpha)
        want = direct_check(b, alpha, work)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def test_suite_order_check_sees_a_zero_moved_by_1e_9():
    # K_{B_alpha} has not decayed by ORDER, yet the truncated check sees a
    # fault as the check at the resolving order does
    _, unresolved = find_draws(0, 3)
    for b, alpha, work in unresolved:
        assert work > ORDER
        gap, _, _ = stacked_check(b, alpha, by=1e-9)
        want, _, _ = direct_check(b, alpha, work, shift=moved_shift)
        assert gap > 1e-10
        assert abs(gap - want) <= 1e-4 * want


def test_model_space_suite_returns_at_order_2048():
    # the shifted basis must be allowed to resolve at the suite's own order
    result = suites.suite_model_spaces(0, n_blaschke=1, n_alpha=1, order=2048)
    assert result["pass"]
    assert result["order"] == 2048


# ---------------------------------------------------------------------------
# stacked suites against the per-draw oracles


def assert_same_report(got, want, path="report"):
    """Non-float fields identical, floats within 1e-14."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-14, (path, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            assert_same_report(got[k], want[k], f"{path}/{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("order, seed", [(n, s) for n in (128, 64) for s in range(5)])
def test_stacked_suites_match_the_per_draw_oracles(order, seed):
    for name in ("suite_model_spaces", "suite_mobius", "suite_theorem"):
        want = getattr(oracles, name)(seed, order=order)
        assert_same_report(getattr(suites, name)(seed, order=order), want, name)


def test_model_spaces_match_the_oracle_where_shifts_are_redrawn():
    # at order 64 some B fail the tail gate and some shifts fail theirs: the
    # redraws must read the generator as one draw at a time does
    skipped = []
    for seed in range(8):
        want = oracles.suite_model_spaces(seed, order=64)
        assert_same_report(suites.suite_model_spaces(seed, order=64), want)
        skipped.append(want["skipped_draws"])
    assert max(skipped) > 0


def test_stacked_tm_bases_match_tm_basis():
    # every row, those that have not decayed by the order included, has the
    # bits of its own one-row call
    rng = np.random.default_rng(5)
    for d in (0, 1, 3, 5):
        zeros = 0.95 * np.sqrt(rng.uniform(size=(6, d))) * np.exp(2j * np.pi * rng.uniform(size=(6, d)))
        zeros[0, :] = 0.99
        got = suites._tm_bases(zeros, ORDER)
        assert got.shape == (6, ORDER, d)
        for row, basis in zip(zeros, got):
            want = tm_basis(BlaschkeProduct(row), ORDER, tail_tol=np.inf)
            assert basis.tobytes() == want.tobytes()


def test_each_theorem_block_is_checked_against_its_own_gamma(monkeypatch):
    # a block given another symbol's Gamma fails: in the whole extraction at
    # its first gate, and in verification alone at the action gate
    real = suites.extract_representations

    def swapped(pairs, tol):
        pairs = list(pairs)
        k = next(i for i, (g, _) in enumerate(pairs) if g is not pairs[0][0])
        pairs[k] = (pairs[0][0], pairs[k][1])
        return real(pairs, tol=tol)

    monkeypatch.setattr(suites, "extract_representations", swapped)
    result = suites.suite_theorem(0)
    assert not result["pass"] and "inconsistent data" in result["failures"][0]
    monkeypatch.setattr(suites, "extract_representations", real)
    verify = extraction._verify_stack

    def misaligned(b, model_tail_tol):
        if len({id(g) for g in b.gamma}) > 1:
            k = next(i for i, g in enumerate(b.gamma) if g is not b.gamma[0])
            b.gamma[0], b.gamma[k] = b.gamma[k], b.gamma[0]
        return verify(b, model_tail_tol)

    monkeypatch.setattr(extraction, "_verify_stack", misaligned)
    result = suites.suite_theorem(0)
    assert not result["pass"] and result["failures"]
    assert all("action residual" in f for f in result["failures"])


def test_each_mobius_draw_is_conjugated_at_its_own_alpha(monkeypatch):
    real, calls = suites._conjugate_functions, []

    def swapped(fs, maps, order):
        calls.append(maps)
        if len(calls) == 1:  # the matched Schmidt columns of every draw
            maps = [maps[1], maps[0], *maps[2:]]
        return real(fs, maps, order)

    monkeypatch.setattr(suites, "_conjugate_functions", swapped)
    result = suites.suite_mobius(0)
    assert len(calls) == 2
    assert not result["pass"] and result["max_residuals"]["mapped_basis_gap"] > 0.5


def test_change_of_variable_lemma_sees_a_map_off_by_1e_3(monkeypatch):
    monkeypatch.setattr(suites, "compose_with_mobius",
                        lambda b, m: compose_with_mobius(b, MobiusMap(m.alpha * (1 + 1e-3))))
    result = suites.suite_mobius(0)
    assert not result["pass"] and result["max_residuals"]["weighted_subspace_covariance"] > 1e-8
