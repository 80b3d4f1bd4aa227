#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "photonic/ybranch.hpp"
#include "rng/normal.hpp"
#include "testcases/circuit_cases.hpp"

namespace {

using nofis::photonic::YBranchModel;

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
                                              std::size_t n) {
    nofis::rng::Engine eng(seed);
    std::vector<std::vector<double>> pts(n, std::vector<double>(26));
    for (std::size_t i = 0; i < n; ++i) {
        nofis::rng::fill_standard_normal(eng, pts[i]);
        if (i % 2 == 1)
            for (double& v : pts[i]) v *= 3.0;
    }
    return pts;
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

    const nofis::testcases::YBranchCase ycase;
    std::uint64_t hg = 0xcbf29ce484222325ULL;
    std::vector<double> grad(26);
    for (const auto& x : probe_points(77, 16)) {
        fnv1a(hg, ycase.g_grad(x, grad));
        for (const double v : grad) fnv1a(hg, v);
    }
    EXPECT_EQ(hg, 0x5774d5b6371a4ec5ULL);
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

}  // namespace
