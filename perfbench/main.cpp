// perfbench: the repository benchmark driver.
//
//   perfbench --workload train-leaf|train-ybranch|serve-mixed --seed N
//             --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//
// Prints a host/build fingerprint line, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (and writes a Chrome
// trace to DIR). perfbench/run.py builds this binary and wraps it.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLanes = 1;

struct Spec {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed set against it).
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},         {"estimate_s", "s"},
    {"estimate_cpu_s", "s"},  {"log_err", "ln"},
    {"g_calls", "count"},     {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"}, {"max_rate_rps", "1/s"},
    {"ok_frac", "ratio"},     {"rss_mb", "MiB"},
};

constexpr Spec kPerLayer[] = {
    {"core.train_ms", "ms"},
    {"core.final_is_ms", "ms"},
    {"core.stage_retries", "count"},
    {"core.useful_epoch_frac", "ratio"},
    {"core.self_ms", "ms"},
    {"phase.sample_forward_ms", "ms"},
    {"phase.g_eval_ms", "ms"},
    {"phase.g_grad_ms", "ms"},
    {"phase.backward_ms", "ms"},
    {"phase.optimizer_ms", "ms"},
    {"g.calls", "count"},
    {"g.us_per_call", "us"},
    {"g_grad.calls", "count"},
    {"g_grad.us_per_call", "us"},
    {"guard.retry_calls", "count"},
    {"guard.faults", "count"},
    {"flow.transport_us_per_row", "us"},
    {"flow.log_prob_us_per_row", "us"},
    {"matmul.calls", "count"},
    {"matmul.madds", "count"},
    {"matmul.gflops", "GFLOP/s"},
    {"matmul.bytes_computed", "B"},
    {"pool.jobs", "count"},
    {"pool.busy_frac", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.bytes", "B"},
    {"protocol.decode_us", "us"},
    {"protocol.encode_us", "us"},
    {"server.tcp_gap_ms", "ms"},
    {"sched.latency_p99_ms", "ms"},
    {"sched.batch_rows_mean", "rows"},
    {"sched.queue_peak", "count"},
    {"gen.late_ms_p99", "ms"},
    {"trace.overhead_s", "s"},
};

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    return "unknown";
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

void print_fingerprint(const std::string& commit) {
    std::printf(
        "fingerprint {\"cpu\":%s,\"nproc\":%zu,\"pool_lanes\":%zu,"
        "\"kernels\":%s,\"simd_backend\":%s,\"build_type\":%s,"
        "\"compiler\":%s,\"commit\":%s}\n",
        json_string(cpu_model()).c_str(), nofis::parallel::hardware_threads(),
        nofis::parallel::num_threads(),
        json_string(nofis::linalg::kernels::choice_name()).c_str(),
        json_string(nofis::linalg::kernels::simd_backend()).c_str(),
        json_string(PERFBENCH_BUILD_TYPE).c_str(),
        json_string(__VERSION__).c_str(), json_string(commit).c_str());
}

void print_result(const Result& r, bool trace) {
    std::string metrics;
    auto emit = [&](const Spec& spec) {
        const auto it = r.metrics.find(spec.name);
        if (it == r.metrics.end())
            throw std::logic_error(std::string("metric not set: ") + spec.name);
        if (it->second.unit != spec.unit)
            throw std::logic_error(std::string("unit mismatch: ") + spec.name);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", it->second.value);
        metrics += (metrics.empty() ? "" : ", ") + json_string(spec.name) +
                   ": {\"value\": " + buf + ", \"unit\": " +
                   json_string(spec.unit) + "}";
    };
    if (trace)
        for (const Spec& s : kPerLayer) emit(s);
    else
        for (const Spec& s : kEndToEnd) emit(s);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
}

const char* flag(int argc, char** argv, const char* name, const char* def) {
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    return def;
}

}  // namespace

void add_zero_layer_metrics(Result& r) {
    for (const Spec& s : kPerLayer) r.set(s.name, 0.0, s.unit);
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    try {
        Options opt;
        opt.workload = flag(argc, argv, "--workload", "");
        const auto seed =
            nofis::util::parse_u64(flag(argc, argv, "--seed", "1"));
        const auto seconds =
            nofis::util::parse_double(flag(argc, argv, "--seconds", "10"));
        if (!seed || !seconds)
            throw std::invalid_argument("malformed --seed or --seconds");
        opt.seed = *seed;
        opt.seconds = *seconds;
        opt.trace = std::strcmp(flag(argc, argv, "--trace", "0"), "1") == 0;
        opt.out_dir = flag(argc, argv, "--out-dir", opt.out_dir.c_str());
        for (int i = 1; i < argc; ++i)
            if (std::strcmp(argv[i], "--tiny") == 0) opt.tiny = true;
        if (!(opt.seconds > 0.0))
            throw std::invalid_argument("--seconds must be positive");
        std::filesystem::create_directories(opt.out_dir);

        // Every workload runs on a one-lane pool. On a shared virtual
        // machine a multi-lane pool's fork-joins wait on waking idle
        // vCPUs, and that wait swings with the load of other tenants:
        // identical train-leaf runs measured 1.3 s to 3.7 s median per
        // estimate at 4 lanes (README.md). Results are bitwise identical at
        // any lane count, so only the timings depend on this choice.
        nofis::parallel::set_num_threads(kLanes);
        print_fingerprint(flag(argc, argv, "--commit", "unknown"));
        Result r;
        if (opt.workload == "train-leaf")
            r = run_train(opt, "Leaf");
        else if (opt.workload == "train-ybranch")
            r = run_train(opt, "YBranch");
        else if (opt.workload == "serve-mixed")
            r = run_serve(opt);
        else
            throw std::invalid_argument("unknown --workload '" +
                                        opt.workload + "'");
        for (const auto& p : r.problems)
            std::fprintf(stderr, "check failed: %s\n", p.c_str());
        print_result(r, opt.trace);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
