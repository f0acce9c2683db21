"""Mixing operator: distance kernel, shell coefficients, fast transform."""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    blocked_fwht,
    butterfly_fwht,
    dense_w_hat,
    s_coefficient,
    tau_vector,
    whole_table_u,
)

from qlsat.mixer import (
    CHUNK,
    DEFAULT_DENSE_LIMIT,
    MixerSpec,
    apply_u,
    dense_u,
    fwht,
    kernel_rows,
    popcounts,
    u_coefficients,
    u_numerators,
    _plan,
)
from qlsat.sat import CapacityError


def brute_s(n, h, d):
    """Signed count over all weight-h masks against a fixed weight-d mask."""
    s = (1 << d) - 1
    total = 0
    for r in range(1 << n):
        if r.bit_count() == h:
            total += (-1) ** (r & s).bit_count()
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_kernel_matches_brute_force(n):
    for h in range(n + 1):
        for d in range(n + 1):
            assert s_coefficient(n, h, d) == brute_s(n, h, d)


@pytest.mark.parametrize("n", [4, 9, 12])
def test_kernel_recurrence_matches_direct_sum(n):
    for h, row in enumerate(kernel_rows(n)):
        assert len(row) == n + 1
        for d in range(n + 1):
            assert row[d] == s_coefficient(n, h, d)


def test_mixer_spec_defaults_and_validation():
    assert MixerSpec(9).alpha == 4
    assert MixerSpec(8).alpha == 4
    assert MixerSpec(8, alpha=0).alpha == 0
    with pytest.raises(ValueError):
        MixerSpec(0)
    with pytest.raises(ValueError):
        MixerSpec(4, alpha=5)
    np.testing.assert_array_equal(tau_vector(MixerSpec(4)), [1, 1, 1, -1, -1])


@pytest.mark.parametrize("n", range(2, 31))
def test_adjacent_shell_coefficient_closed_form(n):
    numerators = u_numerators(MixerSpec(n))
    assert numerators[1] == 2 * math.comb(n - 1, n // 2)
    # row sums telescope: the all-ones vector is preserved by the operator
    total = sum(math.comb(n, d) * numerators[d] for d in range(n + 1))
    assert total == 1 << n


def test_adjacent_shell_coefficient_reference_values():
    assert u_coefficients(MixerSpec(8))[1] == pytest.approx(0.2734375, abs=1e-12)
    assert u_coefficients(MixerSpec(20))[1] == pytest.approx(0.176197052, abs=1e-9)
    assert abs(u_coefficients(MixerSpec(8))[1] - 0.27) < 5e-3
    assert abs(u_coefficients(MixerSpec(20))[1] - 0.18) < 5e-3


def test_adjacent_shell_coefficient_approaches_inverse_sqrt_scaling():
    # u_1 * sqrt(pi n / 2) should settle toward 1 from above as n grows.
    errors = []
    for n in range(4, 31, 2):
        u1 = Fraction(u_numerators(MixerSpec(n))[1], 1 << n)
        errors.append(abs(float(u1) * math.sqrt(math.pi * n / 2) - 1.0))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.009


@pytest.mark.parametrize("n", range(2, 21))
def test_shell_coefficient_sign_pattern(n):
    u = u_coefficients(MixerSpec(n))
    for d in range(1, n + 1):
        if n % 2 == 0:
            assert u[d] != 0
            assert (u[d] < 0) == (d % 4 in (2, 3))
        elif d % 2 == 0:
            assert u[d] == 0
        else:
            assert (u[d] > 0) == (d % 4 == 1)


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_fast_transform_matches_dense_matrix(n):
    rng = np.random.default_rng(n)
    w = dense_w_hat(n)
    # entries are parity signs of the AND of row and column index
    for r in range(1 << n):
        for s in range(1 << n):
            assert w[r, s] == (-1) ** (r & s).bit_count()
    x = rng.standard_normal(1 << n)
    np.testing.assert_allclose(fwht(x), w @ x, atol=1e-10)
    # applying twice recovers the input scaled by 2**n
    np.testing.assert_allclose(fwht(fwht(x)), (1 << n) * x, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 13, 17])
def test_radix_transform_matches_the_butterfly(n):
    # Every output of either algorithm is a signed sum of all 2**n inputs;
    # the butterfly rounds once per level (n roundings), a radix-16 pass at
    # most 15 times, so both stay within 4 * n * eps * sum(|x|) of the
    # exact sum and within 5 * n * eps * sum(|x|) of each other.
    x = np.random.default_rng(7 + n).standard_normal(1 << n)
    tol = 5 * n * np.finfo(np.float64).eps * np.abs(x).sum()
    expected = butterfly_fwht(x)
    assert np.abs(fwht(x) - expected).max() <= tol
    y = x.copy()
    assert fwht(y, inplace=True) is y
    assert np.abs(y - expected).max() <= tol


@pytest.mark.parametrize("n", range(1, 22))
def test_transform_has_the_bits_of_the_blocked_passes(n):
    # one block per pass up to n = 15, blocks of CHUNK entries from n = 16;
    # from n = 18 the low passes run a BLOCK at a time before the high ones
    rng = np.random.default_rng(90 + n)
    x = rng.standard_normal(1 << n)
    want = blocked_fwht(x).tobytes()
    assert fwht(x).tobytes() == want
    y = x.copy()
    assert fwht(y, inplace=True) is y and y.tobytes() == want
    base = rng.standard_normal(2 << n)
    before = base.copy()
    view = base[::2]
    assert fwht(view, inplace=True).tobytes() == blocked_fwht(view).tobytes()
    np.testing.assert_array_equal(base, before)


def test_one_matmul_per_pass_up_to_chunk_entries():
    assert CHUNK == 1 << 15
    for n in range(1, 16):
        assert all(extents is None for *_, passes in _plan(n) for *_, extents in passes)
    for n in (16, 17, 20):
        assert all(extents is not None for *_, passes in _plan(n) for *_, extents in passes)
    assert _plan(16) is _plan(16)


def test_inplace_transform_of_a_strided_view_returns_the_transform():
    base = np.random.default_rng(3).standard_normal(32)
    view = base[::2]
    expected = fwht(view.copy())
    np.testing.assert_array_equal(fwht(view, inplace=True), expected)
    np.testing.assert_allclose(expected, butterfly_fwht(view), rtol=0, atol=1e-14)


def test_fast_transform_inplace_flag():
    x = np.ones(8)
    out = fwht(x)
    assert out is not x and x[0] == 1.0
    out2 = fwht(x, inplace=True)
    assert out2 is x


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_fast_apply_matches_dense_operator(n):
    rng = np.random.default_rng(100 + n)
    spec = MixerSpec(n)
    u = dense_u(spec)
    for _ in range(20):
        x = rng.standard_normal(1 << n)
        np.testing.assert_allclose(apply_u(spec, x), u @ x, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("alpha", [None, 0, 1])
def test_dense_operator_is_symmetric_orthogonal(n, alpha):
    u = dense_u(MixerSpec(n, alpha))
    np.testing.assert_allclose(u, u.T, atol=0)
    np.testing.assert_allclose(u.T @ u, np.eye(1 << n), atol=1e-12)


def test_dense_operator_values_by_distance():
    spec = MixerSpec(4)
    u = dense_u(spec)
    coef = u_coefficients(spec)
    pc = popcounts(4)
    for r in range(16):
        for s in range(16):
            assert u[r, s] == coef[pc[r ^ s]]


def test_tau_rows_are_shared_and_read_only():
    for n, alpha in ((5, 2), (12, None), (13, 4), (14, 14), (20, 3)):
        spec = MixerSpec(n, alpha=alpha)
        rows = spec.tau_rows
        piece = min(1 << n, 1 << 13)
        assert rows.dtype == np.float32 and rows.shape == (max(n - 12, 1), piece)
        # laid out by piece and widened (+/-2**-n is exact in float32), the
        # rows are the whole float64 table of weights
        laid_out = np.concatenate(
            [rows[(lo // piece).bit_count()] for lo in range(0, 1 << n, piece)]
        )
        expected = tau_vector(spec)[popcounts(n)] / (1 << n)
        np.testing.assert_array_equal(laid_out.astype(np.float64), expected)
        assert spec.tau_rows is rows
        assert MixerSpec(n, alpha=spec.alpha).tau_rows is rows  # one build per (n, alpha)
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


@pytest.mark.parametrize("n", range(1, 22))
@pytest.mark.parametrize("inplace", [False, True])
def test_apply_u_has_the_bits_of_the_whole_table_product(n, inplace):
    # one piece up to n = 13, many pieces above; one transform block up to
    # n = 15, many above; one BLOCK of low passes up to n = 17, many above
    rng = np.random.default_rng(70 + n)
    x = rng.standard_normal(1 << n)
    for alpha in sorted({0, n // 2, max(n - 3, 0), n}):
        spec = MixerSpec(n, alpha=alpha)
        want = whole_table_u(spec, x)
        got = apply_u(spec, x.copy(), inplace=inplace)
        assert got.tobytes() == want.tobytes()
    # a step's signs, gathered piece by piece as each block's sweep reaches it
    signs, table = np.array([1.0, -1.0, -1.0, 1.0]), rng.integers(0, 4, 1 << n, dtype=np.uint8)
    got = apply_u(spec, x.copy(), inplace, signs, table)
    assert got.tobytes() == whole_table_u(spec, signs[table] * x).tobytes()


@pytest.mark.parametrize("n", [3, 9, 16])
def test_apply_u_leaves_its_input_unless_asked(n):
    spec = MixerSpec(n)
    x = np.random.default_rng(40 + n).standard_normal(1 << n)
    before = x.copy()
    y = apply_u(spec, x)
    assert y is not x
    np.testing.assert_array_equal(x, before)
    z = apply_u(spec, x, inplace=True)
    assert z is x
    np.testing.assert_array_equal(z, y)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_alpha_zero_is_the_rank_one_reflection(n):
    size = 1 << n
    expected = 2.0 / size * np.ones((size, size)) - np.eye(size)
    np.testing.assert_allclose(dense_u(MixerSpec(n, alpha=0)), expected, atol=1e-12)


def test_alpha_n_is_the_identity():
    np.testing.assert_allclose(dense_u(MixerSpec(3, alpha=3)), np.eye(8), atol=1e-12)


def test_reference_four_state_matrix():
    expected = 0.5 * np.array(
        [
            [1, 1, 1, -1],
            [1, 1, -1, 1],
            [1, -1, 1, 1],
            [-1, 1, 1, 1],
        ]
    )
    np.testing.assert_allclose(dense_u(MixerSpec(2)), expected, atol=1e-12)


def test_dense_capacity_guard():
    assert DEFAULT_DENSE_LIMIT == 12
    with pytest.raises(CapacityError):
        dense_u(MixerSpec(13))
    with pytest.raises(CapacityError):
        dense_w_hat(13)


def test_apply_u_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_u(MixerSpec(3), np.ones(4))


@pytest.mark.parametrize(
    "transform,x,message",
    [
        (fwht, np.ones(3), "length must be a power of two, got 3"),
        (fwht, np.ones(0), "length must be a power of two, got 0"),
        (fwht, np.ones((4, 1)), r"need a 1-D vector, got shape \(4, 1\)"),
        (lambda x: apply_u(MixerSpec(2), x), np.ones((4, 1)),
         r"need a 1-D vector, got shape \(4, 1\)"),
    ],
    ids=["fwht-3", "fwht-0", "fwht-2d", "apply_u-2d"],
)
def test_transforms_refuse_a_vector_that_is_not_one_power_of_two_long(transform, x, message):
    with pytest.raises(ValueError, match=message):
        transform(x)
