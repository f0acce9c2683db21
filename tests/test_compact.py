"""Shell-space engine: transform identities, full-engine agreement, scale."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import qlsat.compact
from oracles import (
    all_shells_scaled_shell_transform,
    build_d_max,
    build_v_max,
    build_w_max,
    compact_histogram,
    exact_scaled_shell_transform,
    initial_compact,
    plain_compact_run,
    shell_weights,
    start_vector,
)
from qlsat.compact import build_v_scaled, compact_run
from qlsat.engine import run_trial
from qlsat.generate import EnsembleSpec, generate
from qlsat.mixer import MixerSpec, dense_u, u_coefficients
from qlsat.phases import KIND_NEIGHBORHOOD, KIND_SIMPLE, PolicySpec, resolve_policy, sign_blocks
from qlsat.sat import SatProblem, clause_from_literals

NEIGHBORHOOD = PolicySpec(KIND_NEIGHBORHOOD)


def planted_zero_1sat(n: int, m: int) -> SatProblem:
    """One clause per constrained variable forbidding it to be true."""
    clauses = tuple(clause_from_literals([-(i + 1)]) for i in range(m))
    return SatProblem(n=n, k=1, clauses=clauses)


@pytest.mark.parametrize("n,m", [(3, 3), (8, 8), (8, 5), (40, 12)])
def test_shell_weights_cover_all_assignments(n, m):
    weights = shell_weights(n, m)
    assert weights.shape == (m + 1,)
    assert weights.sum() == float(1 << n)


def test_initial_state_is_uniform():
    state = initial_compact(6)
    np.testing.assert_allclose(state.amps, math.sqrt(2.0**-6), atol=0)
    assert state.shell_norm() == pytest.approx(1.0, abs=1e-14)
    part = initial_compact(6, m=2)
    assert part.amps.shape == (3,)
    assert part.shell_norm() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 8, 20])
def test_shell_transform_is_an_involution(n):
    w = build_w_max(n)
    np.testing.assert_allclose(w @ w, np.eye(n + 1), atol=1e-12)


def test_shell_transform_involution_survives_moderate_growth():
    # entries reach ~5e6 at n=51; cancellation costs most of the mantissa
    w = build_w_max(51)
    assert np.max(np.abs(w @ w - np.eye(52))) < 1e-8


def test_factored_form_reproduces_shell_mixing_matrix():
    for n in (2, 3, 5, 8):
        w = build_w_max(n)
        v = (w * build_d_max(n)) @ w
        np.testing.assert_allclose(v, build_v_max(n), atol=1e-10)


def test_reference_two_variable_shell_matrix():
    expected = np.array(
        [
            [0.5, 1.0, -0.5],
            [0.5, 0.0, 0.5],
            [-0.5, 1.0, 0.5],
        ]
    )
    np.testing.assert_allclose(build_v_max(2), expected, atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_shell_matrix_aggregates_dense_operator_columns(n):
    # with solution 0, an assignment's conflict count is its bit count
    u = dense_u(MixerSpec(n))
    pc = np.array([s.bit_count() for s in range(1 << n)])
    v = build_v_max(n)
    for b in range(n + 1):
        r = (1 << b) - 1  # representative assignment of weight b
        for c in range(n + 1):
            assert v[b, c] == pytest.approx(np.sum(u[r, pc == c]), abs=1e-10)


def test_shell_matrix_with_explicit_coefficients():
    spec = MixerSpec(6, alpha=2)
    u = u_coefficients(spec)
    v = build_v_max(6, u=u)
    pc = np.array([s.bit_count() for s in range(64)])
    dense = dense_u(spec)
    for b in range(7):
        r = (1 << b) - 1
        for c in range(7):
            assert v[b, c] == pytest.approx(np.sum(dense[r, pc == c]), abs=1e-10)


# comb(1030, 515) exceeds the float range, where the exact build stops
@pytest.mark.parametrize("n", [10, 100, 600, 1030])
def test_scaled_shell_matrix_is_orthogonal(n):
    v = build_v_scaled(n)
    np.testing.assert_allclose(v @ v.T, np.eye(n + 1), atol=1e-12)


@pytest.mark.parametrize("n,m", [(6, 6), (9, 6), (10, 5)])
def test_scaled_matrix_is_the_similarity_transform_of_the_raw_one(n, m):
    g = np.sqrt(shell_weights(n, m))
    scaled = build_v_scaled(n, m)
    if m == n:
        raw = build_v_max(n)
    else:
        # aggregate the dense operator over shells of the m-variable instance
        u = dense_u(MixerSpec(n))
        low = (1 << m) - 1
        pc = np.array([(s & low).bit_count() for s in range(1 << n)])
        raw = np.empty((m + 1, m + 1))
        for b in range(m + 1):
            r = (1 << b) - 1
            for c in range(m + 1):
                raw[b, c] = np.sum(u[r, pc == c])
    np.testing.assert_allclose(scaled, g[:, None] * raw / g[None, :], atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_under_constrained_shells_make_the_identity(m):
    # with m <= n/2 every shell sits below the weight threshold
    np.testing.assert_allclose(build_v_scaled(8, m), np.eye(m + 1), atol=1e-12)


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_compact_matches_full_engine_on_maximal_1sat(kind, n):
    spec = EnsembleSpec(n=n, k=1, m=n, kind="max-constrained-1sat", seed=1, planted=0)
    problem = generate(spec).problem
    policy = PolicySpec(kind)
    full = run_trial(problem, policy, record_histograms=True)
    compact = compact_run(n, policy, record_histograms=True)
    assert compact.engine == "compact"
    assert compact.steps == full.steps
    np.testing.assert_allclose(
        compact.p_soln_by_step, full.p_soln_by_step, atol=1e-10
    )
    for hc, hf in zip(compact.histograms, full.histograms):
        np.testing.assert_allclose(hc, hf, atol=1e-10)
    assert compact.best_j == full.best_j
    assert compact.best_cost == pytest.approx(full.best_cost, rel=1e-9)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_compact_matches_full_engine_below_maximal_constraint(m):
    problem = planted_zero_1sat(8, m)
    policy = PolicySpec(KIND_SIMPLE)
    full = run_trial(problem, policy, record_histograms=True)
    compact = compact_run(8, policy, m=m, record_histograms=True)
    assert compact.steps == full.steps
    np.testing.assert_allclose(
        compact.p_soln_by_step, full.p_soln_by_step, atol=1e-10
    )
    for hc, hf in zip(compact.histograms, full.histograms):
        np.testing.assert_allclose(hc, hf, atol=1e-10)


def test_compact_norm_survives_large_n():
    result = compact_run(100, PolicySpec(KIND_NEIGHBORHOOD), record_histograms=True)
    for hist, p in zip(result.histograms, result.p_soln_by_step):
        assert hist.sum() == pytest.approx(1.0, abs=1e-10)
        assert hist[0] == pytest.approx(p, abs=1e-15)
    # the scaled start state is the uniform state, shell by shell
    want = compact_histogram(initial_compact(100))
    np.testing.assert_allclose(result.histograms[0], want, rtol=1e-14, atol=0)


def test_hundred_variable_reference_numbers():
    result = compact_run(100, PolicySpec(KIND_NEIGHBORHOOD), record_histograms=True)
    assert result.steps == 51
    assert result.p_soln_by_step[51] == pytest.approx(0.301500, abs=1e-4)
    assert result.best_j == 51
    assert result.best_cost == pytest.approx(169.154, abs=1e-2)
    assert result.histograms[0][50] == pytest.approx(0.079589, abs=1e-4)
    assert result.histograms[1][50] == pytest.approx(0.385205, abs=1e-4)


def test_probability_peak_walks_one_shell_per_step():
    result = compact_run(100, PolicySpec(KIND_NEIGHBORHOOD), record_histograms=True)
    # restricted to the half nearest the solution, the peak moves inward
    # one conflict count per step until it reaches zero
    for j in range(2, 52):
        hist = result.histograms[j]
        assert int(np.argmax(hist[:51])) == 50 - (j - 1)
    # the unrestricted peak agrees except at two early steps where a
    # mirror lobe beyond count 50 is briefly larger
    exceptions = [
        j for j in range(2, 52) if int(np.argmax(result.histograms[j])) != 50 - (j - 1)
    ]
    assert exceptions == [3, 6]
    # step 2 splits symmetrically around the starting shell
    h2 = result.histograms[2]
    assert abs(h2[49] - h2[51]) < 1e-12


def test_compact_rejects_bad_shell_counts():
    with pytest.raises(ValueError):
        compact_run(5, PolicySpec(KIND_SIMPLE), m=6)
    with pytest.raises(ValueError):
        compact_run(5, PolicySpec(KIND_SIMPLE), m=0)
    # the shell matrix refuses them too, with the same message
    with pytest.raises(ValueError, match=r"^need 1 <= m <= n, got m=7, n=5$"):
        build_v_scaled(5, 7)
    with pytest.raises(ValueError, match=r"^need 1 <= m <= n, got m=-1, n=-1$"):
        build_v_scaled(-1)


def test_shell_counts_may_be_numpy_integers_but_not_floats():
    # numpy integers once failed in the start vector's int.bit_length
    assert compact_run(np.int64(10), NEIGHBORHOOD).steps == 6
    assert compact_run(10, NEIGHBORHOOD, m=np.int64(5)).steps == 6
    assert build_v_scaled(np.int64(5)).tobytes() == build_v_scaled(5).tobytes()
    got = compact_run(np.int64(100), NEIGHBORHOOD, record_histograms=True)
    want = compact_run(100, NEIGHBORHOOD, record_histograms=True)
    assert got.p_soln_by_step == want.p_soln_by_step
    assert np.array(got.histograms).tobytes() == np.array(want.histograms).tobytes()
    for call in (
        lambda: compact_run(10.0, NEIGHBORHOOD),
        lambda: compact_run(10, NEIGHBORHOOD, m=5.0),
        lambda: build_v_scaled(10.0),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
def test_a_negative_j_max_is_refused_before_the_shell_matrix(kind, monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the shell matrix was built")

    monkeypatch.setattr(qlsat.compact, "build_v_scaled", no_matrix)
    with pytest.raises(ValueError, match="j_max must be 0 or more, got -1"):
        compact_run(10, PolicySpec(kind), j_max=-1)


@pytest.mark.parametrize(
    "spec",
    [PolicySpec(KIND_SIMPLE, c_start=2**63), PolicySpec(KIND_NEIGHBORHOOD, n_start=2**63)],
)
def test_more_than_2_63_steps_are_refused_before_the_shell_matrix(spec, monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the shell matrix was built")

    monkeypatch.setattr(qlsat.compact, "build_v_scaled", no_matrix)
    with pytest.raises(ValueError, match=r"^9223372036854775809 steps exceed"):
        compact_run(6, spec)


def test_a_neighborhood_start_past_int64_runs_as_its_cut():
    # two steps at n = 6 read a start from the cut, 9, on only mod 4: 2**63 runs as 12
    n, cut = 6, 6 + 1 + 2
    start = cut + (2**63 - cut) % 4
    want = compact_run(n, PolicySpec(KIND_NEIGHBORHOOD, n_start=start), j_max=2,
                       record_histograms=True)
    got = compact_run(n, PolicySpec(KIND_NEIGHBORHOOD, n_start=2**63), j_max=2,
                      record_histograms=True)
    assert (got.p_soln_by_step, got.best_j) == (want.p_soln_by_step, want.best_j)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.histograms, want.histograms))


def test_simple_policy_cap_scales_with_constraint_count():
    # c_start = m/2 for 1-SAT shells, so the cap is m//2 + 1 steps
    for n, m in [(12, 12), (12, 7)]:
        result = compact_run(n, PolicySpec(KIND_SIMPLE), m=m)
        assert result.steps == m // 2 + 1


def test_shell_probabilities_sum_to_one_per_step():
    result = compact_run(30, PolicySpec(KIND_SIMPLE), record_histograms=True)
    for hist in result.histograms:
        assert hist.sum() == pytest.approx(1.0, abs=1e-10)
        assert hist.shape == (31,)


@pytest.mark.parametrize("kind", [KIND_SIMPLE, KIND_NEIGHBORHOOD])
@pytest.mark.parametrize("n", [100, 300, 500])
def test_solution_probability_is_the_first_histogram_entry(kind, n):
    # both are the correctly rounded square of the zero-conflict amplitude;
    # a scalar power missed it by an ulp at some steps of these runs (which
    # steps depends on the BLAS thread count)
    result = compact_run(n, PolicySpec(kind), record_histograms=True)
    for p, hist in zip(result.p_soln_by_step, result.histograms, strict=True):
        assert p == hist[0]


def test_compact_weights_match_binomial_shells():
    weights = shell_weights(10, 6)
    for c in range(7):
        assert weights[c] == comb(6, c) * 16


@pytest.mark.parametrize("m", [1, 2, 3, 51, 100, 301, 600])
def test_float_shell_transform_matches_the_exact_build(m):
    built = qlsat.compact._scaled_shell_transform(m)
    np.testing.assert_allclose(built, exact_scaled_shell_transform(m), rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 300, 2046, 2047, 2100])
def test_mirrored_start_vector_equals_the_per_shell_loop(m):
    # odd and even m, and from m = 2046 on starts below the normal range
    mant, exp = qlsat.compact._start_vector(m)
    want_mant, want_exp = start_vector(m)
    assert np.array_equal(mant, want_mant) and np.array_equal(exp, want_exp)
    # kept for the next call, so no caller may write into them
    assert not mant.flags.writeable and not exp.flags.writeable


# every m to 64; odd and even m around 100 and 300; the last m whose
# recurrence runs on the scaled starts (1026) and the first that rescales
# (1027); and subnormal starts from m = 2046 on
HALF_RECURRENCE_M = [
    *range(1, 65), 99, 100, 101, 150, 299, 300, 301, 600, 1000,
    1024, 1025, 1026, 1027, 1030, 2045, 2046, 2047, 2100,
]


@pytest.mark.parametrize("m", HALF_RECURRENCE_M)
def test_half_recurrence_has_the_bits_of_the_all_shells_recurrence(m):
    t = all_shells_scaled_shell_transform(m)
    assert np.array_equal(qlsat.compact._scaled_shell_transform(m), t)
    if m > 1030:
        return
    for n in (m, m + 3):
        flip = t[:, n // 2 + 1 :]
        want = np.eye(m + 1) - 2.0 * (flip @ flip.T)
        assert build_v_scaled(n, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [100, 2100])
def test_compact_run_computes_its_start_vector_once(n):
    qlsat.compact._start_vector.cache_clear()
    result = compact_run(n, NEIGHBORHOOD, j_max=2)
    assert qlsat.compact._start_vector.cache_info().misses == 1
    # past m = 1026 the transform rescales; the run must start from the
    # start vector as computed, not from one the rescale wrote into
    qlsat.compact._start_vector.cache_clear()
    assert compact_run(n, NEIGHBORHOOD, j_max=2).p_soln_by_step == result.p_soln_by_step


@pytest.mark.parametrize("n,m", [(8, 3), (100, 100), (301, 150)])
def test_shell_matrix_built_in_place_has_the_bits_of_the_plain_formula(n, m):
    # at (8, 3) no column is negated and V is the identity, zeros and all
    flip = qlsat.compact._scaled_shell_transform(m)[:, n // 2 + 1 :]
    want = np.eye(m + 1) - 2.0 * (flip @ flip.T)
    assert build_v_scaled(n, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [100, 300, 600])
def test_compact_run_matches_the_exact_transform_engine(n, monkeypatch):
    result = compact_run(n, NEIGHBORHOOD)
    monkeypatch.setattr(qlsat.compact, "_scaled_shell_transform", exact_scaled_shell_transform)
    exact = compact_run(n, NEIGHBORHOOD)
    np.testing.assert_allclose(result.p_soln_by_step, exact.p_soln_by_step, rtol=0, atol=1e-12)
    assert result.best_j == exact.best_j


# (n, m, policy) whose smaller sign sets lie in the upper shells: the +1
# shells of the neighborhood policy, from above m at n_start = 250 (an
# empty set) and at the top at n_start = 100; the -1 shells of a high
# threshold; and at m = 3 the tie of the +1 shells {1, 2} with the -1
# shells {0, 3}, which goes to the +1 shells
UPPER_SETS = [
    (300, 200, PolicySpec(KIND_NEIGHBORHOOD, n_start=250)),
    (120, 120, PolicySpec(KIND_NEIGHBORHOOD, n_start=100)),
    (300, 300, PolicySpec(KIND_SIMPLE, c_start=250)),
    (4, 3, PolicySpec(KIND_NEIGHBORHOOD, n_start=2)),
]
# half ties, where the +1 and -1 sets are equal in size, and a run with
# nine empty +1 sets
TIES_AND_EMPTY_SETS = [
    (3, 3, NEIGHBORHOOD),
    (5, 5, PolicySpec(KIND_SIMPLE, c_start=Fraction(7, 2))),
    (30, 30, PolicySpec(KIND_NEIGHBORHOOD, n_start=40)),
]
KINDS = (KIND_SIMPLE, KIND_NEIGHBORHOOD)


@pytest.mark.parametrize(
    "n,m,policy,j_max",
    [
        *[(n, n, PolicySpec(kind), None) for n in (100, 300, 600) for kind in KINDS],
        *[(300, 200, PolicySpec(kind), None) for kind in KINDS],
        *[(300, 300, PolicySpec(kind), j_max) for kind in KINDS for j_max in (0, 1, 2)],
        *[(n, m, policy, None) for n, m, policy in UPPER_SETS + TIES_AND_EMPTY_SETS],
    ],
)
def test_reflection_steps_match_the_plain_product(n, m, policy, j_max):
    got = compact_run(n, policy, j_max=j_max, m=m, record_histograms=True)
    want = plain_compact_run(n, policy, j_max=j_max, m=m, record_histograms=True)
    assert got.steps == want.steps
    assert got.best_j == want.best_j
    np.testing.assert_allclose(got.p_soln_by_step, want.p_soln_by_step, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.histograms, want.histograms, rtol=0, atol=1e-12)
    if j_max is not None:
        assert got.steps == j_max
    if got.steps < 2:  # step 1 is the plain product itself
        assert got.p_soln_by_step == want.p_soln_by_step


def test_upper_sign_sets_run_every_kind_of_step():
    kinds = set()
    for n, m, policy in UPPER_SETS:
        blocks = sign_blocks(resolve_policy(policy, n, m, 1), m, m)
        for _, rows, plus in list(qlsat.compact._sign_sets(blocks, m))[1:]:
            kinds.add((isinstance(rows, slice), plus))
    assert kinds == {(True, True), (True, False)}


def small_policies(n, m):
    """Every neighborhood start 0..n + 3 and every threshold 0..m + 5/2 in halves."""
    yield from (PolicySpec(KIND_NEIGHBORHOOD, n_start=s) for s in range(n + 4))
    yield from (PolicySpec(KIND_SIMPLE, c_start=Fraction(h, 2)) for h in range(2 * m + 6))


@pytest.mark.parametrize("n", range(1, 13))
def test_every_step_after_the_first_reads_one_slice_of_its_smaller_set(n):
    for m in range(1, n + 1):
        for policy in small_policies(n, m):
            blocks = sign_blocks(resolve_policy(policy, n, m, 1), m, m)
            for signs, rows, plus in list(qlsat.compact._sign_sets(blocks, m))[1:]:
                minus = np.flatnonzero(signs < 0)
                plus_wanted = 2 * minus.size >= m + 1  # a tie goes to the +1 set
                want = np.flatnonzero(signs > 0) if plus_wanted else minus
                assert isinstance(rows, slice)
                assert plus == plus_wanted
                assert np.arange(m + 1)[rows].tolist() == want.tolist()


def test_shell_transform_past_the_normal_float_range():
    # the smallest starts, 2**-1050, are subnormal; rows must still be unit vectors
    t = qlsat.compact._scaled_shell_transform(2100)
    np.testing.assert_allclose(np.einsum("bc,bc->b", t, t), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t, t.T, rtol=0, atol=1e-14)
    assert t[1050, 0] == pytest.approx(math.sqrt(comb(2100, 1050) / 2**2100), rel=1e-15)


@pytest.mark.parametrize("n", [1030, 2000])
def test_compact_run_in_the_thousands(n):
    result = compact_run(n, NEIGHBORHOOD, record_histograms=True)
    assert result.steps == n // 2 + 1
    assert all(0.0 <= p <= 1.0 for p in result.p_soln_by_step)
    drift = [abs(hist.sum() - 1.0) for hist in result.histograms]
    assert max(drift) <= 1e-10


def test_under_constrained_run_keeps_the_uniform_solution_probability():
    # m <= n/2 makes the mixing matrix exactly the identity
    result = compact_run(600, NEIGHBORHOOD, m=300)
    assert result.p_soln_by_step == [2.0**-300] * (result.steps + 1)
    assert result.best_j == 1
