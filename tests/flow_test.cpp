#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "flow/additive_coupling.hpp"
#include "flow/coupling.hpp"
#include "flow/coupling_stack.hpp"
#include "flow/rqs_coupling.hpp"
#include "linalg/lu.hpp"
#include "nn/optimizer.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis;
using autodiff::Var;
using flow::AffineCoupling;
using flow::CouplingStack;
using flow::StackConfig;
using linalg::Matrix;
using rng::Engine;

/// A coupling layer with randomised (non-identity) conditioner weights, so
/// invertibility/log-det tests exercise a non-trivial map.
AffineCoupling randomized_coupling(std::size_t dim, bool first_half,
                                   std::uint64_t seed) {
    Engine eng(seed);
    AffineCoupling layer(dim, first_half, {16, 16}, eng, 2.0);
    Engine weights(seed + 1);
    for (auto& p : layer.params())
        for (double& v : p.mutable_value().flat())
            v = 0.3 * rng::standard_normal(weights);
    return layer;
}

TEST(Coupling, FreshLayerIsIdentity) {
    Engine eng(1);
    AffineCoupling layer(4, true, {8}, eng);
    const Matrix x = rng::standard_normal_matrix(eng, 10, 4);
    std::vector<double> ld(10, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    EXPECT_LT(linalg::max_abs_diff(x, y), 1e-14);
    for (double v : ld) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Coupling, MaskPartitionCoversAllCoordinates) {
    Engine eng(2);
    for (std::size_t dim : {2u, 3u, 5u, 8u}) {
        const AffineCoupling affine(dim, false, {8}, eng);
        const flow::AdditiveCoupling additive(dim, false, {8}, eng);
        const flow::RqsCoupling rqs(dim, false, {8}, eng);
        const flow::MaskedCoupling* layers[] = {&affine, &additive, &rqs};
        for (const auto* layer : layers) {
            std::vector<bool> seen(dim, false);
            for (auto i : layer->pass_indices()) seen[i] = true;
            for (auto i : layer->transform_indices()) {
                EXPECT_FALSE(seen[i]);
                seen[i] = true;
            }
            for (bool s : seen) EXPECT_TRUE(s);
        }
    }
}

TEST(Coupling, RejectsDimensionOne) {
    Engine eng(3);
    EXPECT_THROW(AffineCoupling(1, true, {8}, eng), std::invalid_argument);
}

class CouplingInvertibility
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(CouplingInvertibility, InverseUndoesForward) {
    const auto [dim, first_half] = GetParam();
    const auto layer = randomized_coupling(dim, first_half, 100 + dim);
    Engine eng(5);
    const Matrix x = rng::standard_normal_matrix(eng, 32, dim);
    std::vector<double> ld_f(32, 0.0);
    const Matrix y = layer.forward_values(x, ld_f);
    std::vector<double> ld_i(32, 0.0);
    const Matrix back = layer.inverse_values(y, ld_i);
    EXPECT_LT(linalg::max_abs_diff(x, back), 1e-10);
    // The inverse path reports the same forward log-det.
    for (std::size_t r = 0; r < 32; ++r) EXPECT_NEAR(ld_f[r], ld_i[r], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndMasks, CouplingInvertibility,
    ::testing::Combine(::testing::Values(2, 3, 4, 7, 10),
                       ::testing::Bool()));

TEST(Coupling, LogDetMatchesNumericalJacobian) {
    const std::size_t dim = 3;
    const auto layer = randomized_coupling(dim, true, 42);
    Engine eng(6);
    const Matrix x = rng::standard_normal_matrix(eng, 1, dim);

    std::vector<double> ld(1, 0.0);
    layer.forward_values(x, ld);

    // Finite-difference Jacobian.
    const double h = 1e-6;
    Matrix jac(dim, dim);
    for (std::size_t c = 0; c < dim; ++c) {
        Matrix xp = x;
        Matrix xm = x;
        xp(0, c) += h;
        xm(0, c) -= h;
        std::vector<double> scratch(1, 0.0);
        const Matrix yp = layer.forward_values(xp, scratch);
        scratch[0] = 0.0;
        const Matrix ym = layer.forward_values(xm, scratch);
        for (std::size_t r = 0; r < dim; ++r)
            jac(r, c) = (yp(0, r) - ym(0, r)) / (2.0 * h);
    }
    const double log_det_fd =
        linalg::LuDecomposition(jac).log_abs_determinant();
    EXPECT_NEAR(ld[0], log_det_fd, 1e-5);
}

TEST(Coupling, ForwardVarMatchesForwardValues) {
    const auto layer = randomized_coupling(5, false, 7);
    Engine eng(8);
    const Matrix x = rng::standard_normal_matrix(eng, 6, 5);
    const auto graph = layer.forward(Var(x));
    std::vector<double> ld(6, 0.0);
    const Matrix y = layer.forward_values(x, ld);
    EXPECT_LT(linalg::max_abs_diff(graph.y.value(), y), 1e-13);
    for (std::size_t r = 0; r < 6; ++r)
        EXPECT_NEAR(graph.log_det.value()(r, 0), ld[r], 1e-13);
}

TEST(Coupling, GradCheckThroughForward) {
    const auto layer = randomized_coupling(4, true, 9);
    Engine eng(10);
    const Matrix x0 = rng::standard_normal_matrix(eng, 3, 4);
    const auto res = autodiff::grad_check(
        [&layer](const Var& x) {
            auto fwd = layer.forward(x);
            return autodiff::add(autodiff::sum(fwd.y),
                                 autodiff::sum(fwd.log_det));
        },
        x0, 1e-5, 1e-5);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

// ---------------------------------------------------------------------------
// CouplingStack
// ---------------------------------------------------------------------------

StackConfig small_stack_config(std::size_t dim, std::size_t blocks,
                               std::size_t k) {
    StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = blocks;
    cfg.layers_per_block = k;
    cfg.hidden = {16};
    return cfg;
}

CouplingStack randomized_stack(const StackConfig& cfg, std::uint64_t seed) {
    Engine eng(seed);
    CouplingStack stack(cfg, eng);
    Engine weights(seed + 13);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.2 * rng::standard_normal(weights);
    return stack;
}

TEST(CouplingStack, FreshStackSamplesBaseDistribution) {
    Engine eng(11);
    CouplingStack stack(small_stack_config(3, 2, 4), eng);
    Engine eng2(12);
    const auto s = stack.sample(eng2, 2000, 2);
    // Identity flow: q == N(0, I); check log_q matches the base log-pdf.
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_NEAR(s.log_q[r],
                    rng::standard_normal_log_pdf(s.z.row_span(r)), 1e-12);
    EXPECT_NEAR(s.z.col_means()(0, 0), 0.0, 0.1);
}

TEST(CouplingStack, InverseUndoesTransport) {
    const auto stack = randomized_stack(small_stack_config(4, 3, 4), 50);
    Engine eng(13);
    const Matrix z0 = rng::standard_normal_matrix(eng, 20, 4);
    const auto s = stack.transport(z0, 3);
    const Matrix back = stack.inverse(s.z, 3);
    EXPECT_LT(linalg::max_abs_diff(z0, back), 1e-9);
}

TEST(CouplingStack, LogProbConsistentWithSamplingPath) {
    const auto stack = randomized_stack(small_stack_config(3, 2, 6), 51);
    Engine eng(14);
    const auto s = stack.sample(eng, 16, 2);
    const auto lp = stack.log_prob(s.z, 2);
    for (std::size_t r = 0; r < 16; ++r)
        EXPECT_NEAR(lp[r], s.log_q[r], 1e-9) << "row " << r;
}

TEST(CouplingStack, DensityIntegratesToOne2D) {
    // Mildly randomised weights (a strongly-kicked flow spreads mass beyond
    // any finite grid); the integral over a wide box must be ~1.
    Engine eng(52);
    CouplingStack stack(small_stack_config(2, 2, 4), eng);
    Engine weights(65);
    for (auto& p : stack.params())
        for (double& v : p.mutable_value().flat())
            v = 0.08 * rng::standard_normal(weights);
    double total = 0.0;
    const double h = 0.12;
    const double lim = 14.0;
    Matrix pt(1, 2);
    for (double a = -lim; a < lim; a += h)
        for (double b = -lim; b < lim; b += h) {
            pt(0, 0) = a;
            pt(0, 1) = b;
            total += std::exp(stack.log_prob(pt, 2)[0]) * h * h;
        }
    EXPECT_NEAR(total, 1.0, 0.02);
}

TEST(CouplingStack, AnchorNesting) {
    // Transport through m blocks then the remaining blocks equals transport
    // through all blocks at once.
    const auto stack = randomized_stack(small_stack_config(3, 3, 3), 53);
    Engine eng(15);
    const Matrix z0 = rng::standard_normal_matrix(eng, 8, 3);
    std::vector<double> ld_all(8, 0.0);
    const Matrix z_all = stack.transport_range(z0, 0, 3, ld_all);
    std::vector<double> ld_split(8, 0.0);
    const Matrix z_mid = stack.transport_range(z0, 0, 1, ld_split);
    const Matrix z_split = stack.transport_range(z_mid, 1, 3, ld_split);
    EXPECT_LT(linalg::max_abs_diff(z_all, z_split), 1e-10);
    for (std::size_t r = 0; r < 8; ++r)
        EXPECT_NEAR(ld_all[r], ld_split[r], 1e-10);
}

TEST(CouplingStack, FreezeSemantics) {
    Engine eng(16);
    CouplingStack stack(small_stack_config(2, 3, 2), eng);
    stack.freeze_blocks_before(2);
    for (std::size_t b = 0; b < 3; ++b) {
        const bool expect_trainable = b >= 2;
        for (const auto& p : stack.block_params(b))
            EXPECT_EQ(p.requires_grad(), expect_trainable) << "block " << b;
    }
    stack.unfreeze_all();
    for (const auto& p : stack.params()) EXPECT_TRUE(p.requires_grad());
}

TEST(CouplingStack, FrozenBlocksUnchangedByTraining) {
    auto stack = randomized_stack(small_stack_config(2, 2, 2), 54);
    stack.freeze_blocks_before(1);
    const Matrix w_before = stack.block_params(0).front().value();

    // One surrogate training step on block 1.
    nn::Adam opt(stack.block_params(1), 1e-2);
    Engine eng(17);
    const Matrix z0 = rng::standard_normal_matrix(eng, 32, 2);
    auto fwd = stack.forward(Var(z0), 2);
    opt.zero_grad();
    autodiff::sum(fwd.log_det).backward();
    opt.step();

    EXPECT_EQ(stack.block_params(0).front().value(), w_before);
}

TEST(CouplingStack, ValidatesArguments) {
    Engine eng(18);
    CouplingStack stack(small_stack_config(2, 2, 2), eng);
    EXPECT_THROW(stack.forward(Var(Matrix(1, 2)), 0), std::invalid_argument);
    EXPECT_THROW(stack.forward(Var(Matrix(1, 2)), 3), std::invalid_argument);
    EXPECT_THROW(stack.block_params(2), std::out_of_range);
    StackConfig bad = small_stack_config(2, 0, 2);
    EXPECT_THROW(CouplingStack(bad, eng), std::invalid_argument);
}

TEST(CouplingStack, TrainingShiftsDensityTowardTarget) {
    // Sanity: a few reverse-KL steps should move q's mean toward a shifted
    // Gaussian target N(2, I) in 1 block.
    Engine eng(19);
    StackConfig cfg = small_stack_config(2, 1, 4);
    CouplingStack stack(cfg, eng);
    nn::Adam opt(stack.params(), 2e-2);
    for (int step = 0; step < 150; ++step) {
        const Matrix z0 = rng::standard_normal_matrix(eng, 64, 2);
        auto fwd = stack.forward(Var(z0), 1);
        // loss = -E[log-det] - E[log N(z; 2, I)] (pathwise gradient via the
        // dot_constant surrogate: d/dz log N(z;2,I) = -(z - 2)).
        Matrix c(64, 2);
        for (std::size_t r = 0; r < 64; ++r)
            for (std::size_t col = 0; col < 2; ++col)
                c(r, col) = -(fwd.z.value()(r, col) - 2.0) / 64.0;
        auto loss = autodiff::add(
            autodiff::neg(autodiff::mean(fwd.log_det)),
            autodiff::neg(autodiff::dot_constant(fwd.z, c)));
        opt.zero_grad();
        loss.backward();
        opt.step();
    }
    Engine eng2(20);
    const auto s = stack.sample(eng2, 2000, 1);
    EXPECT_NEAR(s.z.col_means()(0, 0), 2.0, 0.35);
    EXPECT_NEAR(s.z.col_means()(0, 1), 2.0, 0.35);
}

}  // namespace
