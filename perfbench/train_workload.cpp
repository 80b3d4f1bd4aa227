// train-leaf / train-ybranch: one full NOFIS estimate (training plus final
// importance sampling) per timed call, at the case's Table-1 budget and the
// default lane count.
//
// Estimator seeds come from a fixed panel, the same in every run, so that
// log_err (the paper's accuracy currency) and g_calls compare across runs:
// a per-run random panel of a few seeds spreads log_err far wider than any
// regression bound. --seed sets the order in which the panel runs.

#include <cstring>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "../bench/bench_common.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace nofis;

/// Pure forwarding decorator that times every g / g_grad call into the
/// testcases layer. Spans come from whichever pool lane makes the call.
class TimedProblem final : public estimators::RareEventProblem {
public:
    explicit TimedProblem(const estimators::RareEventProblem& inner)
        : inner_(&inner) {}

    std::size_t dim() const noexcept override { return inner_->dim(); }
    double fd_step() const noexcept override { return inner_->fd_step(); }

    double g(std::span<const double> x) const override {
        const Timer t(g_);
        const ScopedSpan s("testcases.g");
        return inner_->g(x);
    }
    double g_grad(std::span<const double> x,
                  std::span<double> grad_out) const override {
        const Timer t(grad_);
        const ScopedSpan s("testcases.g_grad");
        return inner_->g_grad(x, grad_out);
    }
    double g_indexed(std::size_t index,
                     std::span<const double> x) const override {
        const Timer t(g_);
        const ScopedSpan s("testcases.g");
        return inner_->g_indexed(index, x);
    }
    double g_grad_indexed(std::size_t index, std::span<const double> x,
                          std::span<double> grad_out) const override {
        const Timer t(grad_);
        const ScopedSpan s("testcases.g_grad");
        return inner_->g_grad_indexed(index, x, grad_out);
    }
    std::vector<double> g_rows(const linalg::Matrix& x) const override {
        return inner_->g_rows(x);
    }

    struct Tally {
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> ns{0};
    };
    const Tally& g_tally() const noexcept { return g_; }
    const Tally& grad_tally() const noexcept { return grad_; }

private:
    struct Timer {
        explicit Timer(Tally& t) : tally(t), t0(Clock::now()) {}
        ~Timer() {
            tally.calls.fetch_add(1, std::memory_order_relaxed);
            tally.ns.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count()),
                std::memory_order_relaxed);
        }
        Tally& tally;
        Clock::time_point t0;
    };

    const estimators::RareEventProblem* inner_;
    mutable Tally g_;
    mutable Tally grad_;
};

constexpr std::uint64_t kPanelBase = 1;

std::size_t panel_size(const std::string& case_name, bool tiny) {
    if (tiny) return 2;
    return case_name == "Leaf" ? 2 : 1;
}

/// Untraced/traced estimate pairs of the traced run: enough for a median
/// where an estimate is cheap, one where it is not (the run must end within
/// three minutes).
std::size_t trace_pairs(const std::string& case_name, bool tiny) {
    return case_name == "Leaf" && !tiny ? 3 : 1;
}

core::NofisConfig config_for(const testcases::TestCase& tc, bool tiny) {
    auto cfg = nofis::bench::nofis_config_from_budget(tc.nofis_budget());
    if (tiny) {
        cfg.epochs = 3;
        cfg.samples_per_epoch = 40;
        cfg.n_is = 100;
    }
    return cfg;
}

/// Times one block of set-ups (case plus estimator construction), appends
/// the per-set-up seconds to `out` and hands back the last one built. One
/// construction takes well under a microsecond, so a sample times a block
/// of them, torn down outside the timed region.
void set_up_block(const std::string& case_name, bool tiny,
                  std::unique_ptr<testcases::TestCase>& tc,
                  std::unique_ptr<core::NofisEstimator>& est,
                  std::vector<double>& out) {
    constexpr std::size_t kPerBlock = 200;
    std::vector<std::unique_ptr<testcases::TestCase>> cases;
    std::vector<std::unique_ptr<core::NofisEstimator>> estimators;
    cases.reserve(kPerBlock);
    estimators.reserve(kPerBlock);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPerBlock; ++i) {
        cases.push_back(testcases::make_case(case_name));
        estimators.push_back(std::make_unique<core::NofisEstimator>(
            config_for(*cases.back(), tiny),
            core::LevelSchedule::manual(cases.back()->nofis_budget().levels)));
    }
    out.push_back(seconds_since(t0) / kPerBlock);
    tc = std::move(cases.back());
    est = std::move(estimators.back());
}

/// Repeats the set-up every 250 ms on a helper thread while the estimates
/// run. A sub-microsecond set-up reads the host's state at one instant (on
/// a shared machine it swung 1.5x between back-to-back processes); sampled
/// across the whole run its median is as steady as the estimates'. The
/// helper builds private objects only, so results are unaffected.
class SetUpSampler {
public:
    SetUpSampler(std::string case_name, bool tiny)
        : thread_([this, name = std::move(case_name), tiny] {
              std::unique_lock lock(mutex_);
              while (!cv_.wait_for(lock, std::chrono::milliseconds(250),
                                   [&] { return stop_; })) {
                  lock.unlock();
                  std::unique_ptr<testcases::TestCase> tc;
                  std::unique_ptr<core::NofisEstimator> est;
                  std::vector<double> one;
                  set_up_block(name, tiny, tc, est, one);
                  lock.lock();
                  samples_.push_back(one.front());
              }
          }) {}
    ~SetUpSampler() { finish(); }
    SetUpSampler(const SetUpSampler&) = delete;
    SetUpSampler& operator=(const SetUpSampler&) = delete;

    /// Stops the helper and returns its samples.
    std::vector<double> finish() {
        {
            std::lock_guard lock(mutex_);
            stop_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable()) thread_.join();
        return samples_;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::vector<double> samples_;
    std::thread thread_;  ///< last: starts after the members it uses
};

struct Timed {
    estimators::EstimateResult est;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

template <class F>
Timed timed_call(F&& f) {
    Timed t;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    t.est = f();
    t.wall_s = seconds_since(t0);
    t.cpu_s = process_cpu_s() - cpu0;
    return t;
}

double span_ms(const telemetry::SpanNode* n) {
    return n == nullptr ? 0.0 : n->wall_ms;
}

/// Sum of the phase `name` over every stage_<m> node under `train`.
void sum_phase(const telemetry::SpanNode& train, const char* name,
               double& ms, std::size_t& count) {
    for (const auto& stage : train.children)
        if (const telemetry::SpanNode* p = stage->find(name)) {
            ms += p->wall_ms;
            count += p->count;
        }
}

/// The traced run: `pairs` interleaved untraced and traced estimates of the
/// same seed (the overhead is the difference of their medians), then every
/// per-layer number of the last traced estimate from the benchmark's spans,
/// the decorator, pool_stats() and the library's own RunTrace.
void traced_run(const Options& opt, const testcases::TestCase& tc,
                const core::NofisEstimator& est, std::uint64_t seed,
                std::size_t pairs, Result& r) {
    std::vector<double> untraced_s, traced_s;
    std::optional<estimators::EstimateResult> reference;
    std::unique_ptr<telemetry::RunTrace> rt;
    std::unique_ptr<TimedProblem> timed_problem;
    core::NofisEstimator::RunResult run;
    parallel::PoolStats pool0, pool1;
    const auto check = [&](const estimators::EstimateResult& e) {
        ++r.attempted;
        if (e.failed) ++r.failed;
        if (!reference) reference = e;
        else if (std::memcmp(&reference->p_hat, &e.p_hat, sizeof(double)) !=
                     0 ||
                 reference->calls != e.calls)
            r.fail_check("traced and untraced estimates of seed " +
                         std::to_string(seed) + " differ");
    };
    for (std::size_t pair = 0; pair < pairs; ++pair) {
        rng::Engine eng_u(seed);
        const Timed untraced =
            timed_call([&] { return est.estimate(tc, eng_u); });
        check(untraced.est);
        untraced_s.push_back(untraced.wall_s);

        clear_spans();
        rt = std::make_unique<telemetry::RunTrace>();
        timed_problem = std::make_unique<TimedProblem>(tc);
        telemetry::set_active(rt.get());
        set_tracing(true);
        pool0 = parallel::pool_stats();
        rng::Engine eng_t(seed);
        Timed traced;
        {
            const ScopedSpan run_span("core.run");
            set_ambient_parent(run_span.id());
            traced = timed_call([&] {
                run = est.run(*timed_problem, eng_t);
                return run.estimate;
            });
            set_ambient_parent(0);
        }
        pool1 = parallel::pool_stats();
        set_tracing(false);
        telemetry::set_active(nullptr);
        check(traced.est);
        traced_s.push_back(traced.wall_s);
    }

    const auto self = self_time_ms(collect_spans());

    const telemetry::SpanNode* nrun = rt->root().find("nofis_run");
    const telemetry::SpanNode* train = nrun ? nrun->find("train") : nullptr;
    r.set("core.train_ms", span_ms(train), "ms");
    r.set("core.final_is_ms", span_ms(nrun ? nrun->find("final_is") : nullptr),
          "ms");
    r.set("core.stage_retries",
          static_cast<double>(run.health.stage_retries), "count");
    const auto self_of = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    r.set("core.self_ms", self_of("core.run"), "ms");

    std::size_t epochs_run = 0;
    for (const char* phase :
         {"sample_forward", "g_eval", "g_grad", "backward", "optimizer"}) {
        double ms = 0.0;
        std::size_t count = 0;
        if (train != nullptr) sum_phase(*train, phase, ms, count);
        if (std::strcmp(phase, "sample_forward") == 0) epochs_run = count;
        r.set(std::string("phase.") + phase + "_ms", ms, "ms");
    }
    const double planned = static_cast<double>(est.levels().num_levels() *
                                               est.config().epochs);
    r.set("core.useful_epoch_frac",
          epochs_run > 0 ? planned / static_cast<double>(epochs_run) : 0.0,
          "ratio");

    const auto per_call_us = [](const TimedProblem::Tally& t) {
        const auto calls = t.calls.load();
        return calls > 0 ? 1e-3 * static_cast<double>(t.ns.load()) /
                               static_cast<double>(calls)
                         : 0.0;
    };
    r.set("g.calls",
          static_cast<double>(timed_problem->g_tally().calls.load()), "count");
    r.set("g.us_per_call", per_call_us(timed_problem->g_tally()), "us");
    r.set("g_grad.calls",
          static_cast<double>(timed_problem->grad_tally().calls.load()),
          "count");
    r.set("g_grad.us_per_call", per_call_us(timed_problem->grad_tally()),
          "us");
    r.set("guard.retry_calls", static_cast<double>(run.health.g_retry_calls),
          "count");
    r.set("guard.faults",
          static_cast<double>(run.health.faults.total_faults()), "count");

    add_runtime_layer_metrics(r, *rt, pool0, pool1, traced_s.back());
    r.set("trace.overhead_s", median(traced_s) - median(untraced_s), "s");
    add_flow_layer_metrics(r, opt.tiny);
}

}  // namespace

Result run_train(const Options& opt, const std::string& case_name) {
    Result r;
    add_zero_layer_metrics(r);

    // Set-up: case and estimator construction.
    std::unique_ptr<testcases::TestCase> tc;
    std::unique_ptr<core::NofisEstimator> est;
    std::vector<double> setups;
    set_up_block(case_name, opt.tiny, tc, est, setups);
    const std::size_t k = panel_size(case_name, opt.tiny);
    std::vector<std::uint64_t> order(k);
    for (std::size_t i = 0; i < k; ++i)
        order[i] = kPanelBase + (opt.seed + i) % k;

    if (opt.trace) {
        traced_run(opt, *tc, *est, order.front(),
                   trace_pairs(case_name, opt.tiny), r);
        // serve-mixed is not a gated workload (README.md); its traffic runs
        // here at the nominal rate so the serve layers are still measured
        // and their responses still checked.
        if (case_name == "Leaf") add_serve_layer_metrics(opt, r);
        write_trace_file(opt);
        return r;
    }

    // Whole passes over the panel until the next pass would overrun the
    // measuring time; every pass has the same composition, so the medians
    // do not depend on how many passes fit.
    std::vector<double> walls, cpus;
    std::map<std::uint64_t, estimators::EstimateResult> first;
    SetUpSampler sampler(case_name, opt.tiny);
    const auto start = Clock::now();
    double pass_s = 0.0;
    while (walls.empty() || seconds_since(start) + pass_s <= opt.seconds) {
        const auto pass0 = Clock::now();
        for (const std::uint64_t s : order) {
            rng::Engine eng(s);
            const Timed t = timed_call([&] { return est->estimate(*tc, eng); });
            ++r.attempted;
            if (t.est.failed || !(t.est.p_hat > 0.0)) {
                ++r.failed;
                r.fail_check("estimate failed for panel seed " +
                             std::to_string(s) + ": " + t.est.detail);
            }
            walls.push_back(t.wall_s);
            cpus.push_back(t.cpu_s);
            std::printf("estimate seed=%llu wall_s=%.4f cpu_s=%.4f p=%.6e\n",
                        static_cast<unsigned long long>(s), t.wall_s, t.cpu_s,
                        t.est.p_hat);
            const auto [it, fresh] = first.try_emplace(s, t.est);
            if (!fresh &&
                (std::memcmp(&it->second.p_hat, &t.est.p_hat,
                             sizeof(double)) != 0 ||
                 it->second.calls != t.est.calls ||
                 it->second.cached_calls != t.est.cached_calls))
                r.fail_check("repeat of panel seed " + std::to_string(s) +
                             " is not bitwise identical");
        }
        pass_s = seconds_since(pass0);
    }

    for (const double s : sampler.finish()) setups.push_back(s);
    r.set("setup_s", median(setups), "s");

    double log_err = 0.0, g_calls = 0.0;
    for (const auto& [s, e] : first) {
        log_err += estimators::log_error(e.p_hat, tc->golden_pr());
        g_calls += static_cast<double>(e.calls - e.cached_calls);
    }
    const double n = static_cast<double>(first.size());
    double total_wall = 0.0;
    for (double w : walls) total_wall += w;

    r.set("estimate_s", median(walls), "s");
    r.set("estimate_cpu_s", median(cpus), "s");
    r.set("log_err", log_err / n, "ln");
    r.set("g_calls", g_calls / n, "count");
    std::vector<double> ms;
    for (double w : walls) ms.push_back(1e3 * w);
    r.set("latency_p50_ms", median(ms), "ms");
    const Tail t99 = tail(ms, 0.99);
    r.set("latency_p99_ms", t99.value, "ms");
    r.set("max_rate_rps", static_cast<double>(walls.size()) / total_wall,
          "1/s");
    r.set("ok_frac",
          1.0 - static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted),
          "ratio");
    r.set("rss_mb", peak_rss_mb(), "MiB");
    std::printf("samples: estimates=%zu passes=%zu panel=%zu "
                "latency_p99_ms is the p%.1f\n",
                walls.size(), walls.size() / k, k, 100.0 * t99.quantile);
    return r;
}

}  // namespace perfbench
