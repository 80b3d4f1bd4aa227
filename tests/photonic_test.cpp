#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "estimators/problem.hpp"
#include "photonic/ybranch.hpp"
#include "rng/normal.hpp"
#include "testcases/circuit_cases.hpp"

namespace {

using nofis::photonic::YBranchModel;
using nofis::testcases::YBranchCase;

/// Largest |adjoint − central FD| allowed per gradient component. With its
/// step of 1e-5 the FD default differs from the adjoint by at most ~2e-10
/// at the tested points; 1e-8 leaves room for that and still catches a
/// wrong or missing term of the adjoint.
constexpr double kGradTol = 1e-8;

/// T(x) of one model behind the RareEventProblem interface, so its g_grad
/// is the finite-difference default: the oracle for non-default Params.
class ModelProblem final : public nofis::estimators::RareEventProblem {
public:
    explicit ModelProblem(const YBranchModel& m) : m_(&m) {}
    std::size_t dim() const noexcept override { return m_->num_modes(); }
    double g(std::span<const double> x) const override {
        return m_->transmission(x);
    }

private:
    const YBranchModel* m_;
};

/// Folds the raw bytes of `v` into an FNV-1a digest.
void fnv1a(std::uint64_t& h, double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
}

/// Seeded standard-normal points; every odd point is scaled by 3 so the
/// set also reaches the failure region (T < 0.32).
std::vector<std::vector<double>> probe_points(std::uint64_t seed,
                                              std::size_t n,
                                              std::size_t dim = 26) {
    nofis::rng::Engine eng(seed);
    std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
    for (std::size_t i = 0; i < n; ++i) {
        nofis::rng::fill_standard_normal(eng, pts[i]);
        if (i % 2 == 1)
            for (double& v : pts[i]) v *= 3.0;
    }
    return pts;
}

/// Scales each failing probe point toward the origin (nominal design,
/// T above the limit) and bisects to T ≈ 0.32: points on the failure
/// boundary, where the training gradient matters most.
std::vector<std::vector<double>> boundary_points(const YBranchModel& model,
                                                 std::uint64_t seed,
                                                 std::size_t n) {
    std::vector<std::vector<double>> out;
    for (const auto& x : probe_points(seed, 4 * n)) {
        if (out.size() == n) break;
        if (model.transmission(x) >= YBranchCase::kTransmissionLimit)
            continue;
        double lo = 0.0, hi = 1.0;  // T(lo·x) above the limit, T(hi·x) below
        std::vector<double> y(x.size());
        for (int it = 0; it < 50; ++it) {
            const double mid = 0.5 * (lo + hi);
            for (std::size_t i = 0; i < x.size(); ++i) y[i] = mid * x[i];
            if (model.transmission(y) < YBranchCase::kTransmissionLimit)
                hi = mid;
            else
                lo = mid;
        }
        out.push_back(y);
    }
    return out;
}

/// transmission_grad at `x` returns transmission(x) bitwise and a
/// gradient within kGradTol of the finite-difference default of `fd`.
void expect_adjoint_matches_fd(const YBranchModel& model,
                               const nofis::estimators::RareEventProblem& fd,
                               double offset, std::span<const double> x) {
    std::vector<double> adj(x.size()), ref(x.size());
    const double t = model.transmission_grad(x, adj);
    const double want = model.transmission(x);
    EXPECT_EQ(std::memcmp(&t, &want, sizeof t), 0) << t << " vs " << want;
    EXPECT_EQ(fd.RareEventProblem::g_grad(x, ref), want - offset);
    for (std::size_t k = 0; k < x.size(); ++k)
        EXPECT_NEAR(adj[k], ref[k], kGradTol) << "component " << k;
}

TEST(YBranch, NominalTransmissionInDesignWindow) {
    YBranchModel model;
    const std::vector<double> nominal(26, 0.0);
    const double t = model.transmission(nominal);
    // Nominal arm transmission sits comfortably above the 32% failure spec.
    EXPECT_GT(t, 0.40);
    EXPECT_LT(t, 0.55);
}

TEST(YBranch, TransmissionBoundedByUnity) {
    YBranchModel model;
    nofis::rng::Engine eng(1);
    std::vector<double> x(26);
    for (int i = 0; i < 200; ++i) {
        nofis::rng::fill_standard_normal(eng, x);
        const double t = model.transmission(x);
        EXPECT_GE(t, 0.0);
        EXPECT_LE(t, 1.0) << "energy conservation violated";
    }
}

TEST(YBranch, DeformationReducesTransmissionOnAverage) {
    YBranchModel model;
    const std::vector<double> nominal(26, 0.0);
    const double t0 = model.transmission(nominal);
    nofis::rng::Engine eng(2);
    std::vector<double> x(26);
    double mean_deformed = 0.0;
    const int n = 300;
    for (int i = 0; i < n; ++i) {
        nofis::rng::fill_standard_normal(eng, x);
        for (double& v : x) v *= 2.0;  // strong deformation
        mean_deformed += model.transmission(x);
    }
    mean_deformed /= n;
    EXPECT_LT(mean_deformed, t0);
}

TEST(YBranch, WidthProfileReflectsFourierModes) {
    YBranchModel model;
    std::vector<double> x(26, 0.0);
    const auto w0 = model.width_profile(x);
    x[0] = 1.0;  // first sine mode: positive bump mid-taper
    const auto w1 = model.width_profile(x);
    ASSERT_EQ(w0.size(), w1.size());
    const std::size_t mid = w0.size() / 2;
    EXPECT_GT(w1[mid], w0[mid]);
    // Mode 1 vanishes at the taper ends.
    EXPECT_NEAR(w1.front(), w0.front(), 2e-3);
    EXPECT_NEAR(w1.back(), w0.back(), 2e-3);
}

TEST(YBranch, NominalWidthTapersMonotonically) {
    YBranchModel model;
    const auto w = model.width_profile(std::vector<double>(26, 0.0));
    for (std::size_t i = 1; i < w.size(); ++i) EXPECT_GT(w[i], w[i - 1]);
    EXPECT_NEAR(w.front(), 0.5, 0.01);
    EXPECT_NEAR(w.back(), 1.2, 0.01);
}

TEST(YBranch, SymmetricDeformationPairsGiveSimilarLoss) {
    // T depends on the deformation through coupling² and loss terms, so
    // x and -x give comparable (not wildly different) transmissions.
    YBranchModel model;
    nofis::rng::Engine eng(3);
    std::vector<double> x(26);
    nofis::rng::fill_standard_normal(eng, x);
    std::vector<double> neg(x);
    for (double& v : neg) v = -v;
    EXPECT_NEAR(model.transmission(x), model.transmission(neg), 0.05);
}

TEST(YBranch, ConfigurableSegmentsConverge) {
    // Halving the discretisation step changes T only slightly (the model is
    // a consistent discretisation, not segment-count noise).
    YBranchModel::Params p;
    p.segments = 64;
    YBranchModel coarse(p);
    p.segments = 128;
    YBranchModel fine(p);
    nofis::rng::Engine eng(4);
    std::vector<double> x(26);
    nofis::rng::fill_standard_normal(eng, x);
    EXPECT_NEAR(coarse.transmission(x), fine.transmission(x), 0.03);
}

TEST(YBranch, RejectsBadArguments) {
    YBranchModel model;
    EXPECT_THROW(model.transmission(std::vector<double>(3)),
                 std::invalid_argument);
    YBranchModel::Params p;
    p.segments = 1;
    EXPECT_THROW(YBranchModel{p}, std::invalid_argument);

    // Degenerate parameters; length_um = 0 used to make every T a silent
    // NaN (slope = 0/0).
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto rejects = [](auto&& edit) {
        YBranchModel::Params q;
        edit(q);
        EXPECT_THROW(YBranchModel{q}, std::invalid_argument);
    };
    rejects([](auto& q) { q.num_modes = 0; });
    rejects([](auto& q) { q.length_um = 0.0; });
    rejects([](auto& q) { q.length_um = -20.0; });
    rejects([](auto& q) { q.length_um = std::nan(""); });
    rejects([](auto& q) { q.length_um = kInf; });
    rejects([](auto& q) { q.lambda_um = 0.0; });
    rejects([](auto& q) { q.lambda_um = -1.55; });
    rejects([](auto& q) { q.lambda_um = std::nan(""); });
    rejects([](auto& q) { q.lambda_um = kInf; });
}

TEST(YBranch, TransmissionBitsMatchParent) {
    // Digests of the simulator's output bytes, captured from the
    // straightforward per-call implementation (sine basis and mode weights
    // recomputed on every call). Any reassociation of the width sum or the
    // propagation arithmetic changes them.
    YBranchModel model;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t failing = 0;
    for (const auto& x : probe_points(2024, 4096)) {
        const double t = model.transmission(x);
        failing += t < nofis::testcases::YBranchCase::kTransmissionLimit;
        fnv1a(h, t);
    }
    EXPECT_GT(failing, 0u) << "probe set never reaches the failure region";
    EXPECT_EQ(h, 0x5cac7cef41d686b3ULL);

    // g_grad digest, captured from the adjoint gradient; each point is
    // also checked against the finite-difference default.
    const YBranchCase ycase;
    std::uint64_t hg = 0xcbf29ce484222325ULL;
    std::vector<double> grad(26), fd(26);
    for (const auto& x : probe_points(77, 16)) {
        fnv1a(hg, ycase.g_grad(x, grad));
        for (const double v : grad) fnv1a(hg, v);
        ycase.RareEventProblem::g_grad(x, fd);
        for (std::size_t k = 0; k < grad.size(); ++k)
            EXPECT_NEAR(grad[k], fd[k], kGradTol) << "component " << k;
    }
    EXPECT_EQ(hg, 0xd443d55e4708f10aULL);
}

TEST(YBranchGradient, AdjointMatchesFiniteDifferences) {
    const YBranchCase ycase;
    const YBranchModel& model = ycase.model();
    const double limit = YBranchCase::kTransmissionLimit;
    for (const auto& x : probe_points(5, 24))  // 1σ and 3σ alternately
        expect_adjoint_matches_fd(model, ycase, limit, x);
    const auto edge = boundary_points(model, 6, 8);
    ASSERT_EQ(edge.size(), 8u);
    for (const auto& x : edge) {
        EXPECT_NEAR(model.transmission(x), limit, 1e-9);
        expect_adjoint_matches_fd(model, ycase, limit, x);
    }
}

TEST(YBranchGradient, CaseGradientIsAdjointMinusLimit) {
    const YBranchCase ycase;
    std::vector<double> got(26), want(26);
    for (const auto& x : probe_points(8, 6)) {
        const double g = ycase.g_grad(x, got);
        const double gv = ycase.g(x);
        EXPECT_EQ(std::memcmp(&g, &gv, sizeof g), 0) << g << " vs " << gv;
        ycase.model().transmission_grad(x, want);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), 26 * sizeof(double)),
                  0);
    }
    EXPECT_THROW(ycase.g_grad(std::vector<double>(26), std::span<double>(
                                                             got.data(), 3)),
                 std::invalid_argument);
}

TEST(YBranchGradient, AdjointMatchesFiniteDifferencesOnOtherParams) {
    const auto check = [](auto&& edit) {
        YBranchModel::Params p;
        edit(p);
        const YBranchModel model(p);
        const ModelProblem fd(model);
        for (const auto& x : probe_points(11, 8, p.num_modes))
            expect_adjoint_matches_fd(model, fd, 0.0, x);
    };
    check([](auto& p) { p.segments = 2; });
    check([](auto& p) { p.num_modes = 1; });
    check([](auto& p) { p.couple_strength = 0.0; });
}

TEST(YBranchDeterminism, ConcurrentFirstCallsMatchSerial) {
    // Eight threads make the very first calls into one freshly built model;
    // whatever it caches on first use must come out the same as serially.
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 32;
    const auto pts = probe_points(9, kThreads * kPerThread);

    const YBranchModel serial;
    std::vector<double> want(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        want[i] = serial.transmission(pts[i]);
    const auto want_w = serial.width_profile(pts.front());

    const YBranchModel shared;
    std::vector<double> got(pts.size());
    std::vector<std::vector<double>> got_w(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            if (t % 2 == 0) got_w[t] = shared.width_profile(pts.front());
            for (std::size_t i = t; i < pts.size(); i += kThreads)
                got[i] = shared.transmission(pts[i]);
            if (t % 2 == 1) got_w[t] = shared.width_profile(pts.front());
        });
    }
    for (auto& th : threads) th.join();

    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
            << "point " << i << ": " << got[i] << " vs " << want[i];
    for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got_w[t].size(), want_w.size());
        EXPECT_EQ(std::memcmp(got_w[t].data(), want_w.data(),
                              want_w.size() * sizeof(double)),
                  0)
            << "thread " << t;
    }
}

TEST(YBranchDeterminism, ConcurrentFirstGradientCallsMatchSerial) {
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 8;
    constexpr std::size_t kDim = 26;
    const auto pts = probe_points(10, kThreads * kPerThread);

    const YBranchModel serial;
    std::vector<double> want(pts.size());
    std::vector<double> want_grad(pts.size() * kDim);
    for (std::size_t i = 0; i < pts.size(); ++i)
        want[i] = serial.transmission_grad(
            pts[i], std::span<double>(want_grad).subspan(i * kDim, kDim));

    const YBranchModel shared;
    std::vector<double> got(pts.size());
    std::vector<double> got_grad(pts.size() * kDim);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (std::size_t i = t; i < pts.size(); i += kThreads)
                got[i] = shared.transmission_grad(
                    pts[i],
                    std::span<double>(got_grad).subspan(i * kDim, kDim));
        });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(got_grad.data(), want_grad.data(),
                          got_grad.size() * sizeof(double)),
              0);
}

}  // namespace
