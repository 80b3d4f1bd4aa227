// Tests for the flow-layer extensions: NICE additive couplings, rational-
// quadratic spline couplings, ActNorm, and the polymorphic CouplingStack
// variants built from them.

#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "flow/actnorm.hpp"
#include "flow/additive_coupling.hpp"
#include "flow/coupling_stack.hpp"
#include "flow/rqs_coupling.hpp"
#include "linalg/lu.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis;
using autodiff::Var;
using flow::ActNorm;
using flow::AdditiveCoupling;
using flow::CouplingKind;
using flow::CouplingStack;
using flow::RqsCoupling;
using flow::StackConfig;
using linalg::Matrix;
using rng::Engine;

AdditiveCoupling randomized_additive(std::size_t dim, bool first,
                                     std::uint64_t seed) {
    Engine eng(seed);
    AdditiveCoupling layer(dim, first, {16}, eng);
    Engine weights(seed + 1);
    for (auto& p : layer.params())
        for (double& v : p.mutable_value().flat())
            v = 0.3 * rng::standard_normal(weights);
    return layer;
}

RqsCoupling randomized_rqs(std::size_t dim, bool first, std::uint64_t seed,
                           std::size_t bins = 8, double tail = 3.0) {
    Engine eng(seed);
    RqsCoupling layer(dim, first, {16}, eng, bins, tail);
    Engine weights(seed + 1);
    for (auto& p : layer.params())
        for (double& v : p.mutable_value().flat())
            v = 0.3 * rng::standard_normal(weights);
    return layer;
}

// ---------------------------------------------------------------------------
// AdditiveCoupling
// ---------------------------------------------------------------------------

TEST(AdditiveCoupling, FreshLayerIsIdentity) {
    Engine eng(1);
    AdditiveCoupling layer(4, true, {8}, eng);
    const Matrix x = rng::standard_normal_matrix(eng, 6, 4);
    std::vector<double> ld(6, 0.0);
    EXPECT_LT(linalg::max_abs_diff(layer.forward_values(x, ld), x), 1e-14);
}

class AdditiveInvertibility
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdditiveInvertibility, InverseUndoesForward) {
    const std::size_t dim = GetParam();
    const auto layer = randomized_additive(dim, dim % 2 == 0, 40 + dim);
    Engine eng(2);
    const Matrix x = rng::standard_normal_matrix(eng, 16, dim);
    std::vector<double> ld(16, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    std::vector<double> ld2(16, 0.0);
    EXPECT_LT(linalg::max_abs_diff(layer.inverse_values(y, ld2), x), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Dims, AdditiveInvertibility,
                         ::testing::Values(2, 3, 5, 9));

TEST(AdditiveCoupling, IsVolumePreserving) {
    const auto layer = randomized_additive(3, true, 50);
    Engine eng(3);
    const Matrix x = rng::standard_normal_matrix(eng, 8, 3);
    std::vector<double> ld(8, 0.0);
    layer.forward_values(x, ld);
    for (double v : ld) EXPECT_DOUBLE_EQ(v, 0.0);
    const auto fwd = layer.forward(Var(x));
    EXPECT_DOUBLE_EQ(fwd.log_det.value().max_abs(), 0.0);
}

TEST(AdditiveCoupling, GraphMatchesValuesAndGradChecks) {
    const auto layer = randomized_additive(4, false, 51);
    Engine eng(4);
    const Matrix x = rng::standard_normal_matrix(eng, 5, 4);
    std::vector<double> ld(5, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    EXPECT_LT(linalg::max_abs_diff(layer.forward(Var(x)).y.value(), y),
              1e-13);
    const auto res = autodiff::grad_check(
        [&layer](const Var& v) {
            return autodiff::sum(autodiff::square_v(layer.forward(v).y));
        },
        x, 1e-5, 1e-5);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

// ---------------------------------------------------------------------------
// RqsCoupling
// ---------------------------------------------------------------------------

TEST(RqsCoupling, FreshLayerIsIdentityWithZeroLogDet) {
    // Zero-initialised output layer + the derivative offset → uniform bins,
    // unit knot slopes: the spline must be the exact identity at init.
    Engine eng(20);
    RqsCoupling layer(4, true, {8}, eng);
    const Matrix x = rng::standard_normal_matrix(eng, 6, 4);
    std::vector<double> ld(6, 0.0);
    EXPECT_LT(linalg::max_abs_diff(layer.forward_values(x, ld), x), 1e-12);
    for (double v : ld) EXPECT_NEAR(v, 0.0, 1e-12);
}

class RqsInvertibility : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RqsInvertibility, InverseUndoesForward) {
    const std::size_t dim = GetParam();
    const auto layer = randomized_rqs(dim, dim % 2 == 0, 60 + dim);
    Engine eng(21);
    // Scale up so a meaningful fraction of coordinates lands in the linear
    // tails as well as the spline interior.
    Matrix x = rng::standard_normal_matrix(eng, 32, dim);
    for (double& v : x.flat()) v *= 2.0;
    std::vector<double> ld(32, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    std::vector<double> ld2(32, 0.0);
    const Matrix x2 = layer.inverse_values(y, ld2);
    EXPECT_LT(linalg::max_abs_diff(x2, x), 1e-12);
    // inverse_values reports the forward log-det at the reconstructed input.
    for (std::size_t r = 0; r < 32; ++r) EXPECT_NEAR(ld2[r], ld[r], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Dims, RqsInvertibility,
                         ::testing::Values(2, 3, 5, 9));

TEST(RqsCoupling, TailsAreIdentity) {
    // Outside [-tail_bound, tail_bound] the transform is the identity with
    // zero log-det contribution, so extreme samples pass through untouched.
    const auto layer = randomized_rqs(4, true, 70, 8, 2.0);
    Matrix x(2, 4);
    for (std::size_t c = 0; c < 4; ++c) {
        x(0, c) = 5.0 + static_cast<double>(c);
        x(1, c) = -6.0 - static_cast<double>(c);
    }
    std::vector<double> ld(2, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(y(r, c), x(r, c));
        EXPECT_EQ(ld[r], 0.0);
    }
}

TEST(RqsCoupling, LogDetMatchesNumericalJacobian) {
    const std::size_t dim = 5;
    const auto layer = randomized_rqs(dim, false, 71);
    Engine eng(22);
    const Matrix x = rng::standard_normal_matrix(eng, 1, dim);
    std::vector<double> ld(1, 0.0);
    layer.forward_values(x, ld);

    const double eps = 1e-6;
    Matrix jac(dim, dim);
    for (std::size_t c = 0; c < dim; ++c) {
        Matrix xp = x, xm = x;
        xp(0, c) += eps;
        xm(0, c) -= eps;
        std::vector<double> tmp(1, 0.0);
        const Matrix yp = layer.forward_values(xp, tmp);
        tmp[0] = 0.0;
        const Matrix ym = layer.forward_values(xm, tmp);
        for (std::size_t r = 0; r < dim; ++r)
            jac(r, c) = (yp(0, r) - ym(0, r)) / (2.0 * eps);
    }
    const linalg::LuDecomposition lu(jac);
    EXPECT_NEAR(ld[0], lu.log_abs_determinant(), 1e-6);
}

TEST(RqsCoupling, GraphMatchesValuesAndGradChecks) {
    const auto layer = randomized_rqs(4, false, 72);
    Engine eng(23);
    const Matrix x = rng::standard_normal_matrix(eng, 5, 4);
    std::vector<double> ld(5, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    // Tape and value paths share the dispatched spline kernels, so they
    // agree bitwise, not just to tolerance (DESIGN.md §13).
    const auto fwd = layer.forward(Var(x));
    EXPECT_EQ(linalg::max_abs_diff(fwd.y.value(), y), 0.0);
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_EQ(fwd.log_det.value()(r, 0), ld[r]);
    const auto res = autodiff::grad_check(
        [&layer](const Var& v) {
            auto f = layer.forward(v);
            return autodiff::add(autodiff::sum(autodiff::square_v(f.y)),
                                 autodiff::sum(f.log_det));
        },
        x, 1e-5, 1e-5);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

// ---------------------------------------------------------------------------
// ActNorm
// ---------------------------------------------------------------------------

TEST(ActNorm, FreshLayerIsIdentityWithZeroLogDet) {
    ActNorm layer(3);
    Engine eng(5);
    const Matrix x = rng::standard_normal_matrix(eng, 4, 3);
    std::vector<double> ld(4, 0.0);
    EXPECT_LT(linalg::max_abs_diff(layer.forward_values(x, ld), x), 1e-14);
    for (double v : ld) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ActNorm, LogDetEqualsSumOfLogScales) {
    ActNorm layer(2);
    layer.params()[0].mutable_value()(0, 0) = 0.5;
    layer.params()[0].mutable_value()(0, 1) = -0.2;
    layer.params()[1].mutable_value()(0, 0) = 1.0;
    Engine eng(6);
    const Matrix x = rng::standard_normal_matrix(eng, 3, 2);
    std::vector<double> ld(3, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    for (double v : ld) EXPECT_NEAR(v, 0.3, 1e-14);
    EXPECT_NEAR(y(0, 0), x(0, 0) * std::exp(0.5) + 1.0, 1e-14);
    std::vector<double> ld2(3, 0.0);
    EXPECT_LT(linalg::max_abs_diff(layer.inverse_values(y, ld2), x), 1e-12);
}

TEST(ActNorm, GradCheckThroughParameters) {
    // Gradcheck w.r.t. the input; parameter gradients follow from the same
    // broadcast machinery (covered by optimizer-step test below).
    ActNorm layer(3);
    layer.params()[0].mutable_value()(0, 1) = 0.4;
    Engine eng(7);
    const Matrix x0 = rng::standard_normal_matrix(eng, 4, 3);
    const auto res = autodiff::grad_check(
        [&layer](const Var& v) {
            auto fwd = layer.forward(v);
            return autodiff::add(autodiff::sum(autodiff::square_v(fwd.y)),
                                 autodiff::sum(fwd.log_det));
        },
        x0, 1e-5, 1e-5);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(ActNorm, ParametersReceiveGradients) {
    ActNorm layer(2);
    Engine eng(8);
    const Matrix x = rng::standard_normal_matrix(eng, 16, 2);
    auto fwd = layer.forward(Var(x));
    autodiff::sum(autodiff::square_v(fwd.y)).backward();
    EXPECT_GT(layer.params()[0].grad().max_abs(), 0.0);  // log-scale
    EXPECT_GT(layer.params()[1].grad().max_abs(), 0.0);  // shift
}

// ---------------------------------------------------------------------------
// Stack variants
// ---------------------------------------------------------------------------

StackConfig variant_config(CouplingKind kind, bool actnorm) {
    StackConfig cfg;
    cfg.dim = 3;
    cfg.num_blocks = 2;
    cfg.layers_per_block = 4;
    cfg.hidden = {12};
    cfg.coupling = kind;
    cfg.use_actnorm = actnorm;
    return cfg;
}

class StackVariant
    : public ::testing::TestWithParam<std::tuple<CouplingKind, bool>> {};

TEST_P(StackVariant, RoundTripAndDensityConsistency) {
    const auto [kind, actnorm] = GetParam();
    Engine eng(9);
    CouplingStack stack(variant_config(kind, actnorm), eng);
    Engine weights(10);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.15 * rng::standard_normal(weights);

    Engine eng2(11);
    const auto s = stack.sample(eng2, 12, 2);
    // Inverse round trip.
    const Matrix z0 = stack.inverse(s.z, 2);
    std::vector<double> ld(12, 0.0);
    const Matrix z_again = stack.transport_range(z0, 0, 2, ld);
    EXPECT_LT(linalg::max_abs_diff(z_again, s.z), 1e-9);
    // log_prob matches the sampling-path density.
    const auto lp = stack.log_prob(s.z, 2);
    for (std::size_t r = 0; r < 12; ++r)
        EXPECT_NEAR(lp[r], s.log_q[r], 1e-9);
}

TEST_P(StackVariant, FreezeCoversAllBlockLayers) {
    const auto [kind, actnorm] = GetParam();
    Engine eng(12);
    CouplingStack stack(variant_config(kind, actnorm), eng);
    stack.freeze_blocks_before(1);
    for (const auto& p : stack.block_params(0))
        EXPECT_FALSE(p.requires_grad());
    for (const auto& p : stack.block_params(1))
        EXPECT_TRUE(p.requires_grad());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, StackVariant,
    ::testing::Combine(::testing::Values(CouplingKind::kAffine,
                                         CouplingKind::kAdditive,
                                         CouplingKind::kRqs),
                       ::testing::Bool()));

TEST(StackVariant, AdditiveStackHasUniformDensityAlongPath) {
    // A purely additive stack is volume preserving: log q(z) equals the
    // base log-density of the pre-image for every sample.
    Engine eng(13);
    CouplingStack stack(variant_config(CouplingKind::kAdditive, false), eng);
    Engine weights(14);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.2 * rng::standard_normal(weights);
    Engine eng2(15);
    const Matrix z0 = rng::standard_normal_matrix(eng2, 10, 3);
    const auto s = stack.transport(z0, 2);
    for (std::size_t r = 0; r < 10; ++r)
        EXPECT_NEAR(s.log_q[r],
                    rng::standard_normal_log_pdf(z0.row_span(r)), 1e-12);
}

}  // namespace
