import numpy as np
import pytest

from hankelschmidt import blaschke, extraction, suites
from hankelschmidt.blaschke import (
    BlaschkeProduct,
    MobiusMap,
    compose_with_mobius,
    frostman_shift,
    tm_basis,
)
from hankelschmidt.hardy import default_grid_size, grid_points
from hankelschmidt.spectral import _orthonormal_columns, _subspace_gaps
import oracles
from oracles import blaschke_eval

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
    gap = float(_subspace_gaps(tm_basis(b, work), _orthonormal_columns(cols)[0])[0])
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
    zeros, phases, g, (error,) = suites._frostman_shifts([b], np.array([alpha]), ORDER)
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
    monkeypatch.setattr(suites, "_gated_tm_bases", counted(suites._gated_tm_bases))
    monkeypatch.setattr(extraction, "tm_basis", counted(tm_basis))
    resolved, unresolved = find_draws(3, 3)
    assert all(work > ORDER for _, _, work in unresolved)
    for b, alpha, *_ in resolved + unresolved:
        calls.clear()
        assert stacked_check(b, alpha) is not None
        # one shift of B, one basis of B_alpha at the suite order, none of B
        (shift, on_b, (alphas, order)), (basis, zeros, args) = calls
        assert (shift, len(on_b), on_b[0] is b) == ("_frostman_shifts", 1, True)
        assert (alphas.tolist(), order) == ([alpha], ORDER)
        assert (basis, zeros.shape, args) == ("_tm_bases", (1, b.degree), (ORDER,))
        assert np.array_equal(zeros[0], frostman_shift(b, alpha, ORDER)[0].zeros)


def refusing(shifts):
    """_frostman_shifts that also refuses every alpha with |alpha| > 0.45,
    about one draw in five."""
    def wrapper(bs, alphas, order):
        *out, errors = shifts(bs, alphas, order)
        return (*out, [ValueError("refused") if abs(a) > 0.45 else e for a, e in zip(alphas, errors)])
    return wrapper


def refuse_large_alphas(monkeypatch):
    # blaschke's name is the one frostman_shift, and so the oracle, calls
    wrapper = refusing(blaschke._frostman_shifts)
    monkeypatch.setattr(blaschke, "_frostman_shifts", wrapper)
    monkeypatch.setattr(suites, "_frostman_shifts", wrapper)


def sequential_draws(monkeypatch, seed, n_blaschke, n_alpha, order):
    """The oracle's report, the B it refused, and the (B, alpha) it refused
    and accepted, as zero arrays and alphas: the draws of one B at a time."""
    refused_b, refused, accepted = [], [], []
    basis, shift = oracles.tm_basis, oracles.frostman_shift

    def counted_basis(b, order):
        try:
            return basis(b, order)
        except ValueError:
            refused_b.append(b.zeros)
            raise

    def counted_shift(b, alpha, order):
        try:
            out = shift(b, alpha, order)
        except ValueError:
            refused.append((b.zeros, alpha))
            raise
        accepted.append((b.zeros, alpha))
        return out

    with monkeypatch.context() as m:
        m.setattr(oracles, "tm_basis", counted_basis)
        m.setattr(oracles, "frostman_shift", counted_shift)
        report = oracles.suite_model_spaces(seed, n_blaschke=n_blaschke, n_alpha=n_alpha, order=order)
    return report, refused_b, refused, accepted


def key(b_zeros, alpha):
    return b_zeros.tobytes(), float(alpha.real), float(alpha.imag)


def test_model_space_suite_shifts_once_per_alpha(monkeypatch):
    assert_each_alpha_shifted_once(monkeypatch, refuse=False)


def test_model_space_suite_shifts_once_per_alpha_where_bases_are_refused(monkeypatch):
    assert_each_alpha_shifted_once(monkeypatch, refuse=False, seed=4, order=64)


def test_model_space_suite_shifts_once_per_alpha_where_alphas_are_refused(monkeypatch):
    refuse_large_alphas(monkeypatch)
    assert_each_alpha_shifted_once(monkeypatch, refuse=True)


def assert_each_alpha_shifted_once(monkeypatch, refuse, seed=3, order=ORDER):
    want, refused_b, refused, accepted = sequential_draws(monkeypatch, seed, 6, 3, order)
    drawn, gated, shifts, checked, shifted_bases = [], [], [], [], []
    draw, gate, shift, gaps, stacked = (suites.random_blaschke, suites._gated_tm_bases, suites._frostman_shifts,
                                        suites._frostman_gaps, suites._tm_bases)

    def counted_draw(rng):
        drawn.append(draw(rng))
        return drawn[-1]

    def counted_gate(bs, order, tail_tol):
        try:
            out = gate(bs, order, tail_tol)
        except ValueError:
            gated.append((bs, False))
            raise
        gated.append((bs, True))
        return out

    def counted_shifts(bs, alphas, order):
        out = shift(bs, alphas, order)
        shifts.extend((b, a, e is None) for b, a, e in zip(bs, alphas, out[-1]))
        return out

    def counted_gaps(bs, v, alphas, *rest):
        checked.extend(zip(np.repeat(np.array(bs, dtype=object), alphas.size // len(bs)), alphas))
        return gaps(bs, v, alphas, *rest)

    def counted_stacked(zeros, order):
        shifted_bases.extend(zeros)
        return stacked(zeros, order)

    monkeypatch.setattr(suites, "random_blaschke", counted_draw)
    monkeypatch.setattr(suites, "_gated_tm_bases", counted_gate)
    monkeypatch.setattr(blaschke, "_gated_tm_bases", counted_gate)  # the name tm_basis calls
    monkeypatch.setattr(suites, "_frostman_shifts", counted_shifts)
    monkeypatch.setattr(suites, "_frostman_gaps", counted_gaps)
    monkeypatch.setattr(suites, "_tm_bases", counted_stacked)
    result = suites.suite_model_spaces(seed, n_blaschke=6, n_alpha=3, order=order)
    assert_same_report(result, want)
    assert result["pass"] and len(accepted) == 18 and (len(refused) > 0) == refuse
    assert (len(refused_b) > 0) == (order < ORDER)
    # each alpha is shifted once (after a rewind the generator can give an
    # alpha shifted before again, but for another B), and each shift the
    # one-at-a-time draws accept is checked once; skipped_draws counts the B
    # and alphas they refuse
    assert len({(id(b), a) for b, a, _ in shifts}) == len(shifts)
    assert sorted(key(b.zeros, a) for b, a in checked) == sorted(key(*x) for x in accepted)
    # the shifts of the B the one-at-a-time draws keep are theirs, accepted
    # and refused alike; a rewind to a refused alpha drops the B drawn after
    # its B, with their shifts
    kept = {z.tobytes() for z, _ in accepted}
    good = sorted(key(b.zeros, a) for b, a, ok in shifts if ok and b.zeros.tobytes() in kept)
    bad = sorted(key(b.zeros, a) for b, a, ok in shifts if not ok and b.zeros.tobytes() in kept)
    assert good == sorted(key(*x) for x in accepted) and bad == sorted(key(*x) for x in refused)
    if not refuse:  # no rewind: each alpha value is shifted once, and every shift is one of theirs
        assert len({a for _, a, _ in shifts}) == len(shifts) == len(good)
    assert {z.tobytes() for z in refused_b} <= {bs[0].zeros.tobytes() for bs, good in gated if not good}
    assert result["skipped_draws"] == len(refused_b) + len(refused)
    # the gate runs once on each drawn B, one B per call, and on nothing
    # else, under either name, so tm_basis never runs on a B_alpha; a B is
    # shifted only once it passes, and a check whose shift succeeds takes
    # one basis, of B_alpha
    assert all(len(bs) == 1 for bs, _ in gated)
    assert sorted(map(id, drawn)) == sorted(id(bs[0]) for bs, _ in gated)
    assert {id(b) for b, _, _ in shifts} <= {id(bs[0]) for bs, good in gated if good}
    assert len(shifted_bases) == 18


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
    # at order 64 some B fail the tail gate (no shift fails its gates there):
    # the redraws must read the generator as one draw at a time does
    skipped = []
    for seed in range(8):
        want = oracles.suite_model_spaces(seed, order=64)
        assert_same_report(suites.suite_model_spaces(seed, order=64), want)
        skipped.append(want["skipped_draws"])
    assert max(skipped) > 0


def model_space_rounds(events):
    """The rounds of suite_model_spaces from its log of draws, gate results
    and shifts (one per degree, after a round's draws): per round whether it
    starts with the missing alphas of a B carried over from the round
    before, and its slots in draw order, [B, whether its gate passed, its
    alphas, whether one of them is refused], the carried B first."""
    rounds, slots, shifted, short = [], [], {}, None
    for kind, value in events + [("end", None)]:
        if kind in ("B", "alpha", "end") and shifted:  # the round before is over
            for slot in slots:
                slot[3] = any(shifted.get((id(slot[0]), a)) is False for a in slot[2])
            rounds.append((slots[0][0] is short, slots))
            short = next((slot[0] for slot in slots if slot[3]), None)
            slots, shifted = [], {}
        if kind == "B":
            slots.append([value, None, [], False])
        elif kind == "gate":
            slots[-1][1] = value
        elif kind == "alpha":
            if not slots:
                assert short is not None
                slots.append([short, True, [], False])
            slots[-1][2].append(value)
        elif kind == "shift":
            shifted.update(value)
    assert not slots
    return rounds


def test_model_spaces_match_the_oracle_where_alphas_are_refused(monkeypatch):
    # refusing every alpha with |alpha| > 0.45, in the suite and in the oracle,
    # takes the paths no natural draw takes: rewinds to a refused alpha, gate
    # refusals that such a rewind drops, so that they count in skipped_draws
    # only as the generator draws them again, and a B refused right after a
    # carried B's missing alphas are drawn
    refuse_large_alphas(monkeypatch)
    events = []
    draw, alpha = suites.random_blaschke, suites._draw_alpha
    gate, shift = suites.tm_basis, suites._frostman_shifts

    def logged_draw(rng):
        events.append(("B", draw(rng)))
        return events[-1][1]

    def logged_alpha(rng):
        events.append(("alpha", alpha(rng)))
        return events[-1][1]

    def logged_gate(*args):
        try:
            out = gate(*args)
        except ValueError:
            events.append(("gate", False))
            raise
        events.append(("gate", True))
        return out

    def logged_shifts(bs, alphas, order):
        out = shift(bs, alphas, order)
        events.append(("shift", {(id(b), a): e is None for b, a, e in zip(bs, alphas, out[-1])}))
        return out

    seen = dict.fromkeys(("rewind to an alpha", "gate refusal dropped by a rewind",
                          "B refused after carried alphas"), 0)
    refused_b = refused = 0
    for seed in range(8):
        want, *counts = sequential_draws(monkeypatch, seed, 30, 3, 64)
        refused_b, refused = refused_b + len(counts[0]), refused + len(counts[1])
        events.clear()
        with monkeypatch.context() as m:
            for name, f in (("random_blaschke", logged_draw), ("_draw_alpha", logged_alpha),
                            ("tm_basis", logged_gate), ("_frostman_shifts", logged_shifts)):
                m.setattr(suites, name, f)
            assert_same_report(suites.suite_model_spaces(seed, order=64), want)
        for carried, slots in model_space_rounds(events):
            first = next((i for i, slot in enumerate(slots) if slot[3]), None)
            seen["rewind to an alpha"] += first is not None
            seen["gate refusal dropped by a rewind"] += first is not None and any(
                slot[1] is False for slot in slots[first + 1:])
            seen["B refused after carried alphas"] += carried and len(slots) > 1 and slots[1][1] is False
    assert refused_b > 0 and refused > 0
    assert all(seen.values()), seen


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
