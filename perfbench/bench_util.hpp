#pragma once

// Shared pieces of the perfbench workloads: the run options, the result
// record every workload fills, and the statistics and process probes they
// report with.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Self-test scale: shrunken budgets so every code path runs in seconds.
    bool tiny = false;
    /// Where the traced run writes its Chrome trace (inside the checkout).
    std::string out_dir = ".bench_build/results";
};

/// One metric as printed: value plus unit.
struct Metric {
    double value = 0.0;
    std::string unit;
};

struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /// Human-readable reasons for every failed check (printed to stderr).
    std::vector<std::string> problems;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    /// Records a failed output check; the run is then not correct.
    void fail_check(const std::string& why) {
        correct = false;
        problems.push_back(why);
    }
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Process CPU seconds (user + system, all threads).
inline double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of the process, MiB.
inline double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Value at quantile q of the samples (nearest rank).
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = std::min(
        v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return v[idx];
}

/// The tail figure a timing is reported with: the quantile `q` when at
/// least ten samples lie beyond it, else the highest quantile that still
/// has ten beyond it, else (fewer than 20 samples) the maximum.
struct Tail {
    double value = 0.0;
    double quantile = 1.0;
};
inline Tail tail(const std::vector<double>& v, double q) {
    const double n = static_cast<double>(v.size());
    if (n < 20) return {v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()),
                        1.0};
    const double q_max = 1.0 - 10.0 / n;
    const double use = std::min(q, q_max);
    return {quantile(v, use), use};
}

}  // namespace perfbench
