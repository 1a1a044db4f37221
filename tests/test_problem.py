import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from netsaddle.problem import (BilinearQuadratic, make_bilinear_quadratic,
                               stacked_gradient_field)


def test_same_seed_gives_bit_identical_instances():
    p1 = make_bilinear_quadratic(8, 3, 3, 0.2, seed=11)
    p2 = make_bilinear_quadratic(8, 3, 3, 0.2, seed=11)
    assert np.array_equal(p1.centers_a, p2.centers_a)
    assert np.array_equal(p1.centers_b, p2.centers_b)


def test_zero_sum_centers_sum_to_zero(ring16_problem):
    assert np.abs(ring16_problem.centers_a.sum(axis=0)).max() <= 1e-12
    assert np.abs(ring16_problem.centers_b.sum(axis=0)).max() <= 1e-12


def test_single_node_zero_sum_centers_are_exactly_zero():
    prob = make_bilinear_quadratic(1, 3, 3, 0.5, seed=2, zero_sum_centers=True)
    assert (prob.centers_a == 0.0).all()
    assert (prob.centers_b == 0.0).all()


@pytest.mark.parametrize("n", [16384, 65536])
def test_zero_sum_instances_build_at_large_n(n):
    # Mean-subtracted centres sum to rounding that grows with n: past 1e-12
    # from n = 16384 on, in 9 of these seeds there and all 20 at 65536.
    for seed in range(20):
        prob = make_bilinear_quadratic(n, 2, 2, 0.1, seed=seed, zero_sum_centers=True)
        assert (prob.saddle_point() == 0.0).all()


def test_zero_sum_flag_rejects_centres_that_do_not_sum_to_zero():
    prob = make_bilinear_quadratic(16384, 2, 2, 0.1, seed=0, zero_sum_centers=False)
    with pytest.raises(ValueError, match="column sum"):
        BilinearQuadratic(centers_a=prob.centers_a, centers_b=prob.centers_b, mu=0.1,
                          zero_sum=True)
    # One centre moved by a hair more than the scaled bound is rejected too.
    zero_sum = make_bilinear_quadratic(16, 2, 2, 0.1, seed=0, zero_sum_centers=True)
    a = zero_sum.centers_a.copy()
    a[0, 0] += 1e-12
    with pytest.raises(ValueError, match="centers_a"):
        BilinearQuadratic(centers_a=a, centers_b=zero_sum.centers_b, mu=0.1, zero_sum=True)


def test_factory_validation():
    with pytest.raises(ValueError):
        make_bilinear_quadratic(0, 2, 2, 0.1, seed=0)
    with pytest.raises(ValueError):
        make_bilinear_quadratic(4, 2, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        make_bilinear_quadratic(4, 2, 3, 0.1, seed=0)  # bilinear needs p == d


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_nonfinite_mu_is_rejected_by_factory_and_class(mu):
    """A NaN or infinite mu would give L = sqrt(1 + mu^2) = nan or inf."""
    with pytest.raises(ValueError, match="mu must be positive"):
        make_bilinear_quadratic(16, 2, 2, mu, seed=7)
    centers = np.zeros((4, 2))
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        BilinearQuadratic(centers_a=centers, centers_b=centers, mu=mu, seed=0)


# ---------------------------------------------------------------------------
# gradients


def reference_row(prob, i, z_i):
    """Row i of the stacked field from reference_impl's per-block gradients."""
    gx, gy = ref.gradients(prob.centers_a[i], prob.centers_b[i], prob.mu,
                           z_i[:prob.p], z_i[prob.p:])
    return np.concatenate([gx, -gy])


def test_gradient_at_own_center():
    prob = make_bilinear_quadratic(4, 2, 2, 0.3, seed=5, zero_sum_centers=False)
    a0 = prob.centers_a[0]
    z = np.zeros((4, 4))
    z[0, :2] = a0
    row = prob.gradient_field(z)[0]
    assert np.array_equal(row, reference_row(prob, 0, z[0]))
    assert np.allclose(row[:2], 0.0, atol=1e-15)
    assert np.allclose(-row[2:], a0 + 0.3 * prob.centers_b[0], atol=1e-15)


def test_gradient_zero_at_homogeneous_saddle():
    prob = BilinearQuadratic(centers_a=np.zeros((3, 2)), centers_b=np.zeros((3, 2)),
                             mu=0.1, zero_sum=True)
    row = prob.gradient_field(np.zeros((3, 4)))[1]
    assert np.array_equal(row, reference_row(prob, 1, np.zeros(4)))
    assert (row == 0.0).all()


def test_gradient_index_and_shape_errors(ring16_problem):
    with pytest.raises(ValueError):     # a row per node: 17 rows for 16 nodes
        ring16_problem.gradient_field(np.zeros((17, 4)))
    with pytest.raises(ValueError):     # p + d = 4 columns
        ring16_problem.gradient_field(np.zeros((16, 5)))


def test_gradients_match_finite_differences(ring16_problem):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        i = int(rng.integers(16))
        z = 3.0 * rng.standard_normal(4)
        exact = stacked_gradient_field(ring16_problem, np.tile(z, (16, 1)))[i]
        approx = ref.finite_difference_gradient(ring16_problem, i, z, h=1e-6)
        worst = max(worst, np.abs(approx - exact).max() / max(1.0, np.abs(exact).max()))
    assert worst <= 1e-6


def test_stacked_field_sign_convention(ring16_problem):
    # At z = 0 the stacked row is [-mu a_i, -mu b_i].
    field = stacked_gradient_field(ring16_problem, np.zeros((16, 4)))
    expected = np.hstack([-0.1 * ring16_problem.centers_a,
                          -0.1 * ring16_problem.centers_b])
    assert np.allclose(field, expected, atol=1e-15)


def test_stacked_field_average_vanishes_at_saddle(ring16_problem):
    z_star = ring16_problem.saddle_point()
    field = stacked_gradient_field(ring16_problem, np.tile(z_star, (16, 1)))
    assert np.abs(field.mean(axis=0)).max() <= 1e-12


def test_stacked_field_single_node_matches_local():
    prob = make_bilinear_quadratic(1, 2, 2, 0.4, seed=9, zero_sum_centers=False)
    z = np.array([[0.3, -1.2, 0.7, 0.1]])
    row = stacked_gradient_field(prob, z)[0]
    assert np.array_equal(row, reference_row(prob, 0, z[0]))


def test_vectorized_field_matches_per_node_loop(ring16_problem):
    z = np.random.default_rng(4).standard_normal((16, 4))
    vectorized = ring16_problem.gradient_field(z)
    looped = np.array([reference_row(ring16_problem, i, z[i]) for i in range(16)])
    assert np.array_equal(vectorized, looped)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("p", [1, 2, 5])
def test_whole_row_field_is_the_split_column_formula_bit_for_bit(p):
    # gradient_field works on whole rows; reference_impl.gradients is the
    # per-block formula [y + mu (x - a), -(x - mu (y - b))].  They must agree
    # in every bit, the sign of zero included, on a (K, n, p+d) stack.
    n, K, mu = 6, 4, 0.25
    rng = np.random.default_rng(p)
    values = np.array([-1.5, -0.5, -0.0, 0.0, 0.5, 2.0])
    prob = BilinearQuadratic(centers_a=rng.choice(values, (n, p)),
                             centers_b=rng.choice(values, (n, p)), mu=mu)
    z = rng.choice(values, (K, n, 2 * p))
    z[0] = 0.0
    z[1] = -0.0
    # Rows with x = mu (y - b) exactly: there -(x - t) is -0.0 where t - x is +0.0.
    z[2, :, :p] = mu * (z[2, :, p:] - prob.centers_b)
    x, y = z[..., :p], z[..., p:]
    gx, gy = ref.gradients(prob.centers_a, prob.centers_b, mu, x, y)
    expected = np.concatenate([gx, -gy], axis=-1)
    assert np.signbit(expected[2, :, p:]).any()      # the trap is exercised
    assert_same_bits(prob.gradient_field(z), expected)
    for k in range(K):
        assert_same_bits(prob.gradient_field(z[k]), expected[k])


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25)
def test_strong_monotonicity_and_lipschitz(seed):
    # The per-node stacked field satisfies <G(u)-G(v), u-v> >= mu ||u-v||^2
    # and ||G(u)-G(v)|| <= sqrt(2) L ||u-v||.
    prob = make_bilinear_quadratic(4, 2, 2, 0.1, seed=3)
    rng = np.random.default_rng(seed)
    i = int(rng.integers(4))
    u = 5.0 * rng.standard_normal(4)
    v = 5.0 * rng.standard_normal(4)
    Gu = np.tile(u, (4, 1))
    Gv = np.tile(v, (4, 1))
    gu = prob.gradient_field(Gu)[i]
    gv = prob.gradient_field(Gv)[i]
    diff = u - v
    inner = float((gu - gv) @ diff)
    nrm2 = float(diff @ diff)
    assert inner >= 0.1 * nrm2 - 1e-9 * max(1.0, nrm2)
    L = prob.smoothness_constant()
    assert np.linalg.norm(gu - gv) <= math.sqrt(2.0) * L * math.sqrt(nrm2) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# saddle point


def test_zero_sum_saddle_is_origin(ring16_problem):
    assert (ring16_problem.saddle_point() == 0.0).all()


def test_zero_center_means_give_origin_without_zero_sum_flag():
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([[0.0, 2.0], [0.0, -2.0]])
    prob = BilinearQuadratic(centers_a=a, centers_b=b, mu=0.1)
    assert np.allclose(prob.saddle_point(), 0.0, atol=1e-15)


def test_saddle_point_solves_block_system():
    # a_mean = (1, 0), b_mean = (0, 0), mu = 0.1: solve the 2x2 block system
    # and confirm the averaged stacked gradient vanishes there.
    mu = 0.1
    a = np.tile([1.0, 0.0], (4, 1))
    b = np.zeros((4, 2))
    prob = BilinearQuadratic(centers_a=a, centers_b=b, mu=mu)
    z_star = prob.saddle_point()
    x_expected = (mu**2 * np.array([1.0, 0.0])) / (1 + mu**2)
    y_expected = (mu * np.array([1.0, 0.0])) / (1 + mu**2)
    assert np.allclose(z_star, np.concatenate([x_expected, y_expected]), atol=1e-15)
    field = prob.gradient_field(np.tile(z_star, (4, 1)))
    assert np.abs(field.mean(axis=0)).max() <= 1e-15


# ---------------------------------------------------------------------------
# smoothness


@pytest.mark.parametrize("mu,expected", [
    (0.1, math.sqrt(1.01)),
    (1.0, math.sqrt(2.0)),
])
def test_smoothness_constant_formula(mu, expected):
    prob = make_bilinear_quadratic(4, 2, 2, mu, seed=0)
    assert prob.smoothness_constant() == pytest.approx(expected, rel=1e-15)


def test_smoothness_pure_bilinear():
    prob = BilinearQuadratic(centers_a=np.zeros((2, 2)), centers_b=np.zeros((2, 2)),
                             mu=0.0)
    assert prob.smoothness_constant() == 1.0


def test_sampled_ratios_never_exceed_certified_L(ring16_problem):
    # Largest per-block gradient-difference ratio over 10000 sampled pairs of
    # points at one node each, from reference_impl's gradients.
    L = ring16_problem.smoothness_constant()
    rng = np.random.default_rng(77)
    sampled = 0.0
    for _ in range(10_000):
        i = int(rng.integers(16))
        u, v = 10.0 * rng.standard_normal(4), 10.0 * rng.standard_normal(4)
        args = (ring16_problem.centers_a[i], ring16_problem.centers_b[i], ring16_problem.mu)
        gux, guy = ref.gradients(*args, u[:2], u[2:])
        gvx, gvy = ref.gradients(*args, v[:2], v[2:])
        ratio = max(np.linalg.norm(gux - gvx), np.linalg.norm(guy - gvy)) / np.linalg.norm(u - v)
        sampled = max(sampled, float(ratio))
    assert sampled <= L * (1 + 1e-12)
    assert sampled == pytest.approx(L, rel=1e-2)  # the bound is tight for this field


def test_local_value_closed_form():
    # The objective the finite-difference oracle differentiates, by hand:
    # x.y = 0.25, ||x - a||^2 = 0.3125, ||y - b||^2 = 3.25, mu = 0.1.
    x = np.array([0.5, -0.25])
    y = np.array([1.5, 2.0])
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert ref.local_value(a, b, 0.1, x, y) == pytest.approx(0.103125, rel=1e-15)


# ---------------------------------------------------------------------------
# immutability


def test_instance_is_immutable(ring16_problem):
    with pytest.raises(ValueError):
        ring16_problem.centers_a[0, 0] = 5.0


@pytest.mark.parametrize("n,stack", [(1024, ()), (1024, (3,)), (16, (5,)), (16, (2, 3))])
def test_full_width_field_is_the_reference_gradients_bit_for_bit(n, stack):
    # The field's slopes, signs and [y x] gather span all n rows; on one
    # state and on stacks, at n = 1024 too, it is reference_impl.gradients.
    prob = make_bilinear_quadratic(n, 2, 2, 0.1, seed=3, zero_sum_centers=False)
    z = np.random.default_rng(n).standard_normal((*stack, n, 4))
    gx, gy = ref.gradients(prob.centers_a, prob.centers_b, prob.mu, z[..., :2], z[..., 2:])
    expected = np.concatenate([gx, -gy], axis=-1)
    assert_same_bits(prob.gradient_field(z), expected)
    if stack:   # a broadcast stack, as field_at_average_sq passes it
        rows = np.broadcast_to(z[(0,) * len(stack)], z.shape)
        assert_same_bits(prob.gradient_field(rows),
                         np.broadcast_to(expected[(0,) * len(stack)], z.shape))


@pytest.mark.parametrize("n", [1, 16, 1024])
def test_the_step_field_skips_only_the_shape_check(n):
    # stacked_gradient_field is the step's field: gradient_field without
    # the check of its input, which outside callers still get.
    prob = make_bilinear_quadratic(n, 2, 2, 0.1, seed=5, zero_sum_centers=False)
    z = np.random.default_rng(n).standard_normal((n, 4))
    assert stacked_gradient_field(prob, z).tobytes() == prob.gradient_field(z).tobytes()
    for shape in ((n + 1, 4), (n, 5), (4 * n,)):
        with pytest.raises(ValueError, match="does not match"):
            prob.gradient_field(np.zeros(shape))
