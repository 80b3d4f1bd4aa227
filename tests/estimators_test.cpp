#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "estimators/adaptive_is.hpp"
#include "estimators/monte_carlo.hpp"
#include "estimators/problem.hpp"
#include "estimators/sir.hpp"
#include "estimators/sss.hpp"
#include "estimators/suc.hpp"
#include "estimators/sus.hpp"
#include "linalg/solver_error.hpp"
#include "rng/normal.hpp"
#include "testcases/synthetic.hpp"

namespace {

using namespace nofis;
using estimators::CountedProblem;
using estimators::RareEventProblem;

/// 1-D half-space problem with analytic probability: Ω = {x0 >= t},
/// P = 1 - Φ(t). Dimension padded so higher-D estimators exercise their
/// code paths.
class HalfSpace final : public RareEventProblem {
public:
    HalfSpace(std::size_t dim, double threshold)
        : dim_(dim), threshold_(threshold) {}
    std::size_t dim() const noexcept override { return dim_; }
    double g(std::span<const double> x) const override {
        return threshold_ - x[0];
    }
    double analytic() const { return 1.0 - rng::normal_cdf(threshold_); }

private:
    std::size_t dim_;
    double threshold_;
};

/// Tilted slab: Ω = {aᵀx >= t‖a‖}, analytic P = 1 - Φ(t).
class Slab final : public RareEventProblem {
public:
    Slab(std::vector<double> a, double t) : a_(std::move(a)), t_(t) {
        norm_ = linalg::norm2(a_);
    }
    std::size_t dim() const noexcept override { return a_.size(); }
    double g(std::span<const double> x) const override {
        return t_ * norm_ - linalg::dot(a_, x);
    }
    double analytic() const { return 1.0 - rng::normal_cdf(t_); }

private:
    std::vector<double> a_;
    double t_;
    double norm_;
};

TEST(LogError, Definition) {
    EXPECT_NEAR(estimators::log_error(1e-5, 1e-5), 0.0, 1e-12);
    EXPECT_NEAR(estimators::log_error(2.718281828e-5, 1e-5), 1.0, 1e-6);
    EXPECT_NEAR(estimators::log_error(1e-5, 2.718281828e-5), 1.0, 1e-6);
    // The floor keeps zero estimates finite.
    EXPECT_NEAR(estimators::log_error(0.0, 1e-5, 1e-10),
                std::log(1e-5) - std::log(1e-10), 1e-9);
    EXPECT_THROW(estimators::log_error(0.1, 0.0), std::invalid_argument);
}

TEST(MonteCarlo, UnbiasedOnCommonEvent) {
    HalfSpace prob(3, 1.0);  // P ≈ 0.1587
    estimators::MonteCarloEstimator mc({.num_samples = 200000, .batch = 8192});
    rng::Engine eng(1);
    const auto res = mc.estimate(prob, eng);
    EXPECT_EQ(res.calls, 200000u);
    EXPECT_NEAR(res.p_hat, prob.analytic(), 0.003);
    EXPECT_FALSE(res.failed);
}

TEST(MonteCarlo, ZeroEstimateOnVeryRareEvent) {
    HalfSpace prob(2, 6.0);  // P ≈ 1e-9
    estimators::MonteCarloEstimator mc({.num_samples = 10000, .batch = 4096});
    rng::Engine eng(2);
    EXPECT_DOUBLE_EQ(mc.estimate(prob, eng).p_hat, 0.0);
}

TEST(SubsetSimulation, RecoversHalfSpaceTail) {
    HalfSpace prob(4, 4.0);  // P ≈ 3.17e-5
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 3000, .p0 = 0.1, .max_levels = 10,
         .proposal_spread = 1.0});
    double mean = 0.0;
    const int reps = 5;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(10 + r);
        const auto res = sus.estimate(prob, eng);
        ASSERT_FALSE(res.failed);
        mean += res.p_hat;
    }
    mean /= reps;
    EXPECT_LT(estimators::log_error(mean, prob.analytic()), 0.35);
}

TEST(SubsetSimulation, MatchesAnalyticCubeProbability) {
    testcases::CubeCase cube;
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 4000, .p0 = 0.1, .max_levels = 14,
         .proposal_spread = 1.0});
    double mean = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(30 + r);
        const auto res = sus.estimate(cube, eng);
        ASSERT_FALSE(res.failed);
        mean += res.p_hat;
    }
    mean /= reps;
    EXPECT_LT(estimators::log_error(mean, cube.golden_pr()), 1.0);
}

TEST(SubsetSimulation, TerminatesOnCommonEvent) {
    HalfSpace prob(2, 0.5);  // P ≈ 0.31 — level 0 already suffices.
    estimators::SubsetSimulationEstimator sus({.samples_per_level = 2000});
    rng::Engine eng(4);
    const auto res = sus.estimate(prob, eng);
    EXPECT_NEAR(res.p_hat, prob.analytic(), 0.03);
    EXPECT_EQ(res.calls, 2000u);
}

TEST(SubsetSimulation, FailsGracefullyAtMaxLevels) {
    HalfSpace prob(2, 15.0);  // essentially unreachable
    estimators::SubsetSimulationEstimator sus(
        {.samples_per_level = 500, .p0 = 0.1, .max_levels = 3});
    rng::Engine eng(5);
    const auto res = sus.estimate(prob, eng);
    EXPECT_TRUE(res.failed || res.p_hat < 1e-6);
}

TEST(ScaledSigma, RecoversLinearLimitState) {
    // For a half-space, log P(s) = log(1 - Φ(t/s)) is captured well by the
    // SSS model; extrapolation should land within a factor of ~2.
    HalfSpace prob(6, 4.2);  // P ≈ 1.33e-5
    estimators::ScaledSigmaEstimator sss(
        {.sigmas = {1.5, 2.0, 2.5, 3.0, 3.5, 4.0}, .total_samples = 120000});
    double mean_err = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(40 + r);
        const auto res = sss.estimate(prob, eng);
        ASSERT_FALSE(res.failed);
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    EXPECT_LT(mean_err / reps, 1.0);
}

TEST(ScaledSigma, FailsWhenNoSigmaReachesFailure) {
    HalfSpace prob(2, 40.0);
    estimators::ScaledSigmaEstimator sss(
        {.sigmas = {1.5, 2.0, 2.5}, .total_samples = 3000});
    rng::Engine eng(6);
    const auto res = sss.estimate(prob, eng);
    EXPECT_TRUE(res.failed);
    EXPECT_EQ(res.calls, 3000u);  // 1000 per sigma x 3 — budget still spent
}

TEST(AdaptiveIs, FindsShiftedSlabRegion) {
    Slab prob({1.0, 1.0, 1.0}, 4.0);  // P ≈ 3.17e-5
    estimators::AdaptiveIsEstimator ais(
        {.num_components = 2, .iterations = 5,
         .samples_per_iteration = 3000, .final_samples = 4000});
    double mean_err = 0.0;
    const int reps = 3;
    for (int r = 0; r < reps; ++r) {
        rng::Engine eng(50 + r);
        const auto res = ais.estimate(prob, eng);
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    EXPECT_LT(mean_err / reps, 0.5);
}

TEST(AdaptiveIs, CallAccountingMatchesConfig) {
    HalfSpace prob(2, 2.0);
    estimators::AdaptiveIsEstimator ais(
        {.num_components = 2, .iterations = 3,
         .samples_per_iteration = 500, .final_samples = 700});
    rng::Engine eng(7);
    EXPECT_EQ(ais.estimate(prob, eng).calls, 3u * 500u + 700u);
}

TEST(AdaptiveIs, NonFiniteRowsAreNeverElite) {
    // g = 3 − x₀ with the simulator failing (NaN) wherever x₀ < −1. The
    // cross-entropy iterations must drop those rows, not refit the mixture
    // toward them; the estimate then matches the clean problem's.
    class NanBelow final : public RareEventProblem {
    public:
        std::size_t dim() const noexcept override { return 2; }
        double g(std::span<const double> x) const override {
            return x[0] < -1.0 ? std::numeric_limits<double>::quiet_NaN()
                               : 3.0 - x[0];
        }
    };
    const NanBelow nan_prob;
    const HalfSpace clean(2, 3.0);
    const estimators::AdaptiveIsEstimator ais({});
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        rng::Engine eng_nan(seed), eng_clean(seed);
        const auto got = ais.estimate(nan_prob, eng_nan);
        const auto want = ais.estimate(clean, eng_clean);
        ASSERT_FALSE(got.failed) << "seed " << seed << ": " << got.detail;
        ASSERT_FALSE(want.failed) << "seed " << seed;
        EXPECT_EQ(got.calls, want.calls);
        EXPECT_NEAR(got.p_hat, want.p_hat, 0.1 * want.p_hat) << "seed " << seed;
        EXPECT_NEAR(got.p_hat, clean.analytic(), 0.1 * clean.analytic())
            << "seed " << seed;
    }
}

TEST(Sir, LearnsSmoothBoundary) {
    HalfSpace prob(4, 3.0);  // P ≈ 1.35e-3 — learnable boundary
    estimators::SirEstimator sir(
        {.train_samples = 20000, .surrogate_evals = 400000,
         .hidden = {32, 32}, .epochs = 40});
    rng::Engine eng(8);
    const auto res = sir.estimate(prob, eng);
    EXPECT_EQ(res.calls, 20000u);
    EXPECT_LT(estimators::log_error(res.p_hat, prob.analytic()), 1.0);
}

/// Wraps another problem and returns NaN for a deterministic fraction of
/// calls — the shape of a guarded problem running under the propagate
/// policy.
class SometimesNan final : public RareEventProblem {
public:
    SometimesNan(const RareEventProblem& inner, std::size_t every)
        : inner_(inner), every_(every) {}
    std::size_t dim() const noexcept override { return inner_.dim(); }
    double g(std::span<const double> x) const override {
        if (++calls_ % every_ == 0)
            return std::numeric_limits<double>::quiet_NaN();
        return inner_.g(x);
    }

private:
    const RareEventProblem& inner_;
    std::size_t every_;
    mutable std::size_t calls_ = 0;
};

TEST(Sir, NonFiniteTrainingRowsAreDroppedNotPoisonous) {
    // Regression: one NaN g-value used to poison the mean/sd
    // standardisation — every target went NaN and the surrogate trained on
    // garbage, collapsing the estimate. Now the rows are stripped and the
    // estimate stays in the same ballpark as the clean run.
    HalfSpace clean(4, 3.0);
    SometimesNan dirty(clean, 50);  // 2% of training rows go NaN
    estimators::SirEstimator sir(
        {.train_samples = 20000, .surrogate_evals = 400000,
         .hidden = {32, 32}, .epochs = 40});
    rng::Engine eng(8);
    const auto res = sir.estimate(dirty, eng);
    EXPECT_TRUE(std::isfinite(res.p_hat));
    EXPECT_GT(res.p_hat, 0.0);
    EXPECT_LT(estimators::log_error(res.p_hat, clean.analytic()), 1.0);
}

TEST(Sir, AllNanTrainingSetFailsLoudly) {
    HalfSpace clean(3, 2.0);
    SometimesNan dirty(clean, 1);  // every call returns NaN
    estimators::SirEstimator sir(
        {.train_samples = 200, .surrogate_evals = 1000, .hidden = {8}});
    rng::Engine eng(9);
    EXPECT_THROW(sir.estimate(dirty, eng), nofis::BadInputError);
}

TEST(Sir, ZeroBudgetsAreRejectedUpFront) {
    // surrogate_evals == 0 used to divide hits by zero and surface as a
    // silent NaN p_hat; train_samples == 0 trained on nothing.
    HalfSpace prob(3, 2.0);
    rng::Engine eng(10);
    {
        estimators::SirEstimator sir(
            {.train_samples = 100, .surrogate_evals = 0, .hidden = {8}});
        EXPECT_THROW(sir.estimate(prob, eng), nofis::BadInputError);
    }
    {
        estimators::SirEstimator sir(
            {.train_samples = 0, .surrogate_evals = 1000, .hidden = {8}});
        EXPECT_THROW(sir.estimate(prob, eng), nofis::BadInputError);
    }
}

TEST(Suc, EstimatesModeratelyRareHalfSpace) {
    HalfSpace prob(3, 3.5);  // P ≈ 2.3e-4
    estimators::SubsetClassificationEstimator suc(
        {.samples_per_level = 2500, .p0 = 0.1, .max_levels = 8});
    double mean_err = 0.0;
    int ok = 0;
    for (int r = 0; r < 3; ++r) {
        rng::Engine eng(60 + r);
        const auto res = suc.estimate(prob, eng);
        if (res.failed) continue;
        ++ok;
        mean_err += estimators::log_error(res.p_hat, prob.analytic());
    }
    ASSERT_GT(ok, 0);
    EXPECT_LT(mean_err / ok, 1.5);
}

TEST(CountedProblem, GradRowsShapesAndCounts) {
    HalfSpace prob(3, 1.0);
    CountedProblem counted(prob);
    rng::Engine eng(9);
    const auto x = rng::standard_normal_matrix(eng, 5, 3);
    linalg::Matrix grads;
    const auto vals = counted.g_grad_rows(x, grads);
    EXPECT_EQ(vals.size(), 5u);
    EXPECT_EQ(grads.rows(), 5u);
    EXPECT_EQ(grads.cols(), 3u);
    EXPECT_EQ(counted.calls(), 5u);
    // d(threshold - x0)/dx = (-1, 0, 0) via the FD default.
    EXPECT_NEAR(grads(0, 0), -1.0, 1e-6);
    EXPECT_NEAR(grads(0, 1), 0.0, 1e-6);
}

// ---------------------------------------------------------------------------
// The final importance-sampling reduction (Eq. 2), on hand-built rows
// ---------------------------------------------------------------------------

/// g(x) = x0 − 1, so the rows below sit at g = −2, −1, 0, 1, 2.
class ShiftedLine final : public RareEventProblem {
public:
    std::size_t dim() const noexcept override { return 2; }
    double g(std::span<const double> x) const override { return x[0] - 1.0; }
};

/// Five rows x = (x0, 0.5) with log q = log N(x; 0, I) − ln w_r, so the
/// importance weights p/q are exactly w = {0.5, 2, 1, 4, 0.25}.
estimators::ProposalDraws hand_rows() {
    estimators::ProposalDraws d{
        {{-1.0, 0.5}, {0.0, 0.5}, {1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}}, {}};
    const double w[] = {0.5, 2.0, 1.0, 4.0, 0.25};
    for (std::size_t r = 0; r < d.x.rows(); ++r) {
        const double sq = d.x(r, 0) * d.x(r, 0) + d.x(r, 1) * d.x(r, 1);
        const double log_p = -std::log(2.0 * std::numbers::pi) - 0.5 * sq;
        d.log_q.push_back(log_p - std::log(w[r]));
    }
    return d;
}

TEST(FinalIs, ExactValuesFromHandBuiltRows) {
    ShiftedLine prob;
    CountedProblem counted(prob);
    estimators::IsDiagnostics d;
    const auto res = estimators::final_is_estimate(counted, hand_rows, &d);
    // Hits are g ≤ 0: rows 0..2, the g = 0 row included (w = 0.5, 2, 1).
    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.calls, 5u);
    EXPECT_EQ(d.draws, 5u);
    EXPECT_EQ(d.hits, 3u);
    EXPECT_NEAR(res.p_hat, 3.5 / 5.0, 1e-14);
    EXPECT_NEAR(d.max_weight, 2.0, 1e-14);
    // Hit ESS = (Σw)²/Σw² = 3.5² / 5.25.
    EXPECT_NEAR(d.effective_sample_size, 12.25 / 5.25, 1e-13);
    // All draws: Σw = 7.75, Σw² = 21.3125.
    EXPECT_NEAR(d.ess_all, 7.75 * 7.75 / 21.3125, 1e-13);
    // mean 1.55, E[w²] 4.2625, var 1.86.
    EXPECT_NEAR(d.weight_cv, std::sqrt(1.86) / 1.55, 1e-13);
}

TEST(FinalIs, NonFiniteGFailsTheEstimate) {
    // g is NaN at the g = 1 row: neither a hit nor a miss.
    class NanAtOne final : public RareEventProblem {
    public:
        std::size_t dim() const noexcept override { return 2; }
        double g(std::span<const double> x) const override {
            return x[0] == 2.0 ? std::numeric_limits<double>::quiet_NaN()
                               : x[0] - 1.0;
        }
    } prob;
    CountedProblem counted(prob);
    estimators::IsDiagnostics d;
    const auto res = estimators::final_is_estimate(counted, hand_rows, &d);
    EXPECT_TRUE(res.failed);
    EXPECT_TRUE(std::isnan(res.p_hat));
    EXPECT_EQ(res.detail, "1 of 5 final-IS g values are non-finite");
    EXPECT_EQ(res.calls, 5u);
    EXPECT_EQ(d.hits, 3u);
}

}  // namespace
