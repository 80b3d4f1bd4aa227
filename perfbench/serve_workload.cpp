// serve-mixed: an open loop over loopback TCP into an in-process
// serve::Server, at a ladder of fixed rates around one nominal rate.
//
// Traffic: two fixed-seed models (2-d and 26-d). Most requests are small
// `sample` / `log_prob` requests; a minority are `estimate` requests of the
// 26-d model against YBranch with the evalcache on. Every second estimate
// repeats a seed from a pool warmed during set-up, so the cache serves it;
// the others carry fresh seeds, so the cache is bypassed. Responses then do
// not depend on arrival order, which lets every TCP response be compared
// byte for byte with a serial in-process replay of the same request.
//
// Requests are timed from when they were due, not from when they were
// sent, so a stall in the server or the generator is charged to every
// request it delays.

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "estimators/problem.hpp"
#include "flow/serialize.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engine.hpp"
#include "rng/normal.hpp"
#include "serve/server.hpp"
#include "serve/tcp_client.hpp"
#include "span_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "testcases/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace nofis;
using serve::Op;
using serve::Request;

// Workload constants, fixed once from measurements on a 4-core x86 host
// (see perfbench/README.md).
constexpr double kNominalRps = 800.0;
/// The rate ladder as multiples of the nominal rate. Rungs double: on a
/// shared host the knee moves by tens of percent from run to run, so finer
/// rungs would make max_rate_rps flip between them.
constexpr double kLadder[] = {0.5, 1.0, 2.0, 4.0};
/// Share of the measuring time given to the nominal rung; the other rungs
/// split the rest.
constexpr double kNominalShare = 0.4;
/// Share of the measuring time given to each nominal-rate pass of the
/// traced run (it makes three).
constexpr double kLayerPassShare = 0.15;
/// p99 latency limit for max_rate_rps.
constexpr double kLatencyLimitMs = 50.0;
constexpr double kEstimateShare = 0.10;
constexpr std::size_t kSampleRows = 16;
constexpr std::size_t kLogProbRows = 8;
constexpr std::size_t kEstimateRows = 64;
constexpr std::size_t kWarmSeeds = 8;
constexpr std::uint64_t kWarmSeedBase = 1000;
/// Fresh estimate seeds count up from kFreshSeedBase + ((run seed mod 2^16)
/// << 24), far above every warm seed.
constexpr std::uint64_t kFreshSeedBase = 1ull << 40;
const char* const kModels[] = {"m2", "m26"};

/// The fixed-seed stack serve-mixed serves for dimension `dim`.
flow::CouplingStack make_serve_stack(std::size_t dim) {
    flow::StackConfig cfg;
    cfg.dim = dim;
    cfg.num_blocks = 4;
    cfg.layers_per_block = 4;
    cfg.hidden = {32, 32};
    rng::Engine eng(2024 + dim);
    return flow::CouplingStack(cfg, eng);
}

std::size_t connections() {
    const std::size_t hw = parallel::hardware_threads();
    return std::clamp<std::size_t>(hw > 1 ? hw - 1 : 1, 1, 3);
}

struct Planned {
    Request req;
    double due_s = 0.0;  ///< offset from the pass start
    bool fresh_estimate = false;
};

Request estimate_request(std::uint64_t seed) {
    Request q;
    q.op = Op::kEstimate;
    q.model = "m26";
    q.case_name = "YBranch";
    q.seed = seed;
    q.n = kEstimateRows;
    return q;
}

/// The fixed arrival schedule of one pass at `rps` for `seconds`, drawn
/// from `seed`. `next_id` / `next_fresh` keep request ids and fresh
/// estimate seeds unique across passes.
std::vector<Planned> plan_pass(std::uint64_t seed, double rps, double seconds,
                               std::uint64_t& next_id,
                               std::uint64_t& next_fresh, bool& repeat_next) {
    rng::Engine eng(seed);
    std::vector<Planned> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - eng.uniform()) / rps;
        if (t >= seconds) break;
        Planned p;
        p.due_s = t;
        const double u = eng.uniform();
        const std::size_t model = eng.uniform() < 0.5 ? 0 : 1;
        const std::size_t dim = model == 0 ? 2 : 26;
        if (u < kEstimateShare) {
            if (repeat_next) {
                p.req = estimate_request(kWarmSeedBase +
                                         eng.uniform_index(kWarmSeeds));
            } else {
                p.req = estimate_request(kFreshSeedBase + next_fresh++);
                p.fresh_estimate = true;
            }
            repeat_next = !repeat_next;
        } else if (u < kEstimateShare + (1.0 - kEstimateShare) / 2) {
            p.req.op = Op::kSample;
            p.req.model = kModels[model];
            p.req.seed = eng();
            p.req.n = kSampleRows;
        } else {
            p.req.op = Op::kLogProb;
            p.req.model = kModels[model];
            p.req.x = rng::standard_normal_matrix(eng, kLogProbRows, dim);
        }
        p.req.id = next_id++;
        out.push_back(std::move(p));
    }
    return out;
}

/// What one request saw: when it was due, sent and answered, and the
/// response line. The sender writes the first group, the connection's
/// receiver the second.
struct Outcome {
    Clock::time_point due, sent;
    bool send_failed = false;
    Clock::time_point recv;
    std::string line;
    bool recv_failed = false;

    bool transport_error() const noexcept { return send_failed || recv_failed; }
};

struct Pass {
    std::vector<Planned> plan;
    std::vector<Outcome> out;
    double rps = 0.0;
    double seconds = 0.0;
};

/// Set-up state: models on disk, a running server, open connections and
/// a warm cache.
struct Rig {
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<serve::TcpClient>> clients;
};

std::string model_dir(const Options& opt) { return opt.out_dir + "/models"; }

serve::SchedulerConfig scheduler_config() {
    serve::SchedulerConfig cfg;
    cfg.cache_mem_mb = 256;  // holds every fresh estimate row: no eviction
    // Overload shows as latency, not as refusals: a refused request would
    // count as a failed operation on the rungs above capacity.
    cfg.max_queue = 1u << 20;
    return cfg;
}

/// Runs the warm pool (and one small request per model) so the cache
/// holds every repeat seed and both models are resident.
template <class Call>
void warm_up(Call&& call) {
    for (std::size_t i = 0; i < kWarmSeeds; ++i)
        call(estimate_request(kWarmSeedBase + i));
    for (const char* m : kModels) {
        Request q;
        q.op = Op::kSample;
        q.model = m;
        q.n = 1;
        call(std::move(q));
    }
}

Rig set_up(const Options& opt) {
    const std::string dir = model_dir(opt);
    std::filesystem::create_directories(dir);
    flow::save_stack(make_serve_stack(2), dir + "/m2.nofisflow");
    flow::save_stack(make_serve_stack(26), dir + "/m26.nofisflow");
    Rig rig;
    serve::ServerConfig cfg;
    cfg.model_dir = dir;
    cfg.scheduler = scheduler_config();
    rig.server = std::make_unique<serve::Server>(cfg);
    for (std::size_t c = 0; c < connections(); ++c)
        rig.clients.push_back(std::make_unique<serve::TcpClient>(
            "127.0.0.1", rig.server->port()));
    warm_up([&](Request q) {
        const auto resp = rig.clients.front()->call(q);
        if (!resp.ok)
            throw std::runtime_error("warm-up request failed: " +
                                     resp.error_message);
    });
    return rig;
}

void tear_down(Rig& rig) {
    rig.clients.clear();
    if (rig.server) rig.server->shutdown();
    rig.server.reset();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Sleeps until shortly before `due`, then spins: a sleeping generator on
/// a virtual machine wakes up milliseconds late, and that lateness would be
/// charged to the server.
void wait_until(Clock::time_point due) {
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
}

/// Sends `pass.plan` open-loop: the calling thread sends each request when
/// it is due (round-robin over the connections) and one receiver thread per
/// connection matches responses, which arrive in request order.
void drive_tcp(Rig& rig, Pass& pass, bool traced) {
    const std::size_t nconn = rig.clients.size();
    const std::size_t n = pass.plan.size();
    pass.out.assign(n, Outcome{});
    std::vector<std::thread> receivers;
    // Request span ids are fixed up front: the sender parents its spans on
    // them and the request spans are recorded once the receivers joined.
    std::vector<std::uint64_t> span_ids(n, 0);
    if (traced)
        for (auto& id : span_ids) id = new_span_id();
    for (std::size_t c = 0; c < nconn; ++c)
        receivers.emplace_back([&, c] {
            for (std::size_t i = c; i < n; i += nconn) {
                Outcome& o = pass.out[i];
                try {
                    o.line = rig.clients[c]->recv_line();
                    o.recv = Clock::now();
                } catch (const std::exception&) {
                    // The connection is gone: this and every later request
                    // on it failed.
                    for (std::size_t j = i; j < n; j += nconn)
                        pass.out[j].recv_failed = true;
                    return;
                }
            }
        });
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i) {
        Outcome& o = pass.out[i];
        o.due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(pass.plan[i].due_s));
        wait_until(o.due);
        std::string line;
        if (traced) {
            const auto t0 = Clock::now();
            line = pass.plan[i].req.encode();
            const auto t1 = Clock::now();
            record_span("protocol.encode", new_span_id(), span_ids[i],
                        pass.plan[i].req.id, t0, t1);
        } else {
            line = pass.plan[i].req.encode();
        }
        o.sent = Clock::now();
        try {
            rig.clients[i % nconn]->send_line(line);
        } catch (const std::exception&) {
            o.send_failed = true;
        }
        if (traced)
            record_span("tcp.send", new_span_id(), span_ids[i],
                        pass.plan[i].req.id, o.sent, Clock::now());
    }
    for (auto& t : receivers) t.join();
    if (traced)
        for (std::size_t i = 0; i < n; ++i)
            if (!pass.out[i].transport_error())
                record_span("serve.request", span_ids[i], 0,
                            pass.plan[i].req.id, pass.out[i].due,
                            pass.out[i].recv);
}

/// Same schedule through the in-process serve::Client of a fresh, equally
/// warmed scheduler: what the requests cost without TCP and the protocol.
std::vector<double> drive_in_process(const Options& opt, const Pass& pass) {
    serve::ModelRegistry registry(model_dir(opt));
    serve::BatchScheduler scheduler(registry, scheduler_config());
    serve::Client client(scheduler);
    warm_up([&](Request q) { client.call(std::move(q)); });

    const std::size_t n = pass.plan.size();
    std::vector<double> lat_ms(n, 0.0);
    std::vector<Clock::time_point> due(n);
    std::deque<std::future<serve::Response>> pending;
    std::mutex mu;
    std::condition_variable cv;
    std::thread waiter([&] {
        for (std::size_t i = 0; i < n; ++i) {
            std::future<serve::Response> f;
            {
                std::unique_lock lock(mu);
                cv.wait(lock, [&] { return !pending.empty(); });
                f = std::move(pending.front());
                pending.pop_front();
            }
            f.get();
            lat_ms[i] = std::chrono::duration<double, std::milli>(
                            Clock::now() - due[i])
                            .count();
        }
    });
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(pass.plan[i].due_s));
        wait_until(due[i]);
        auto f = client.async(pass.plan[i].req);
        {
            std::lock_guard lock(mu);
            pending.push_back(std::move(f));
        }
        cv.notify_one();
    }
    waiter.join();
    scheduler.stop();
    return lat_ms;
}

/// Latency figures of one pass. Failed requests count as missing any
/// limit (+inf).
struct PassStats {
    std::vector<double> lat_ms;        ///< every request, failures = inf
    std::vector<double> fresh_est_ms;  ///< fresh estimates that succeeded
    std::vector<double> late_ms;       ///< send time minus due time
    std::size_t failed = 0;
    double p50 = 0.0, p99 = 0.0, p99_q = 0.0;
    bool backlog_grows = false;
};

PassStats pass_stats(const Pass& pass,
                     const std::vector<std::string>& expected) {
    PassStats s;
    const std::size_t n = pass.plan.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Outcome& o = pass.out[i];
        bool ok = !o.transport_error() && o.line == expected[i];
        double lat = std::numeric_limits<double>::infinity();
        if (ok) {
            lat = ms_between(o.due, o.recv);
            if (pass.plan[i].fresh_estimate) s.fresh_est_ms.push_back(lat);
        } else {
            ++s.failed;
        }
        s.lat_ms.push_back(lat);
        s.late_ms.push_back(ms_between(o.due, o.sent));
    }
    s.p50 = median(s.lat_ms);
    const Tail t = tail(s.lat_ms, 0.99);
    s.p99 = t.value;
    s.p99_q = t.quantile;
    // A growing backlog shows as the last quarter of the pass waiting
    // clearly longer than the first.
    const std::size_t q = n / 4;
    if (q > 0) {
        const std::vector<double> head(s.lat_ms.begin(), s.lat_ms.begin() + q);
        const std::vector<double> tail_q(s.lat_ms.end() - q, s.lat_ms.end());
        s.backlog_grows = median(tail_q) > 2.0 * median(head) + 1.0;
    }
    return s;
}

/// Checks every response of `passes` against a serial in-process replay of
/// the same requests, in order, on a fresh and equally warmed scheduler;
/// returns the per-pass statistics. The replay also yields the CPU seconds
/// of each fresh estimate, which runs alone there.
std::vector<PassStats> check_passes(const Options& opt,
                                    const std::vector<Pass>& passes,
                                    Result& r,
                                    std::vector<double>* fresh_cpu_s) {
    serve::ModelRegistry registry(model_dir(opt));
    serve::SchedulerConfig cfg = scheduler_config();
    cfg.max_wait_us = 0;  // serial: nothing to coalesce with
    serve::BatchScheduler scheduler(registry, cfg);
    serve::Client client(scheduler);
    warm_up([&](Request q) { client.call(std::move(q)); });

    std::vector<PassStats> stats;
    for (const Pass& p : passes) {
        std::vector<std::string> expected;
        expected.reserve(p.plan.size());
        for (const Planned& planned : p.plan) {
            const double cpu0 = process_cpu_s();
            expected.push_back(client.call(planned.req).encode());
            if (fresh_cpu_s != nullptr && planned.fresh_estimate)
                fresh_cpu_s->push_back(process_cpu_s() - cpu0);
        }
        stats.push_back(pass_stats(p, expected));
        r.attempted += p.plan.size();
        r.failed += stats.back().failed;
    }
    scheduler.stop();
    if (r.failed > 0)
        r.fail_check(std::to_string(r.failed) +
                     " serve responses failed or differ from the serial "
                     "in-process replay");
    return stats;
}

std::vector<Pass> plan_ladder(const Options& opt, double scale) {
    std::vector<Pass> passes;
    std::uint64_t next_id = 1, next_fresh = (opt.seed & 0xffff) << 24;
    bool repeat_next = false;
    const double n_other = static_cast<double>(std::size(kLadder) - 1);
    for (std::size_t k = 0; k < std::size(kLadder); ++k) {
        Pass p;
        p.rps = kNominalRps * kLadder[k] * scale;
        p.seconds = opt.seconds *
                    (kLadder[k] == 1.0 ? kNominalShare
                                       : (1.0 - kNominalShare) / n_other);
        p.plan = plan_pass(opt.seed * 1315423911ull + k, p.rps, p.seconds,
                           next_id, next_fresh, repeat_next);
        passes.push_back(std::move(p));
    }
    return passes;
}

std::size_t nominal_index() {
    for (std::size_t k = 0; k < std::size(kLadder); ++k)
        if (kLadder[k] == 1.0) return k;
    return 0;
}

/// Sum of a response field over the `estimate` responses of a pass.
double sum_estimate_field(const Pass& pass, const char* field) {
    double total = 0.0;
    for (std::size_t i = 0; i < pass.plan.size(); ++i) {
        if (pass.plan[i].req.op != Op::kEstimate || pass.out[i].line.empty())
            continue;
        const auto resp = serve::Response::decode(pass.out[i].line);
        if (const auto* v = resp.ok ? resp.result.find(field) : nullptr)
            total += v->as_double();
    }
    return total;
}

/// Serve-layer numbers from passes at the nominal rate: one untraced, one
/// traced over a schedule of its own (fresh seeds must stay fresh), then the
/// untraced schedule again through the in-process client. Each TCP pass
/// gets its own server: the library's trace must be active before a server
/// starts and outlive it.
void traced_serve(const Options& opt, double scale, Result& r) {
    auto make = [&](std::uint64_t salt, std::uint64_t& next_id,
                    std::uint64_t& next_fresh) {
        bool repeat_next = false;
        Pass p;
        p.rps = kNominalRps * scale;
        p.seconds = opt.seconds * kLayerPassShare;
        p.plan = plan_pass(opt.seed * 2654435761ull + salt, p.rps, p.seconds,
                           next_id, next_fresh, repeat_next);
        return p;
    };
    std::uint64_t next_id = 1, next_fresh = (opt.seed & 0xffff) << 24;
    std::vector<Pass> passes;
    passes.push_back(make(1, next_id, next_fresh));
    passes.push_back(make(2, next_id, next_fresh));
    Rig rig = set_up(opt);
    drive_tcp(rig, passes[0], false);
    tear_down(rig);

    telemetry::RunTrace rt;
    telemetry::set_active(&rt);
    rig = set_up(opt);
    set_tracing(true);
    const parallel::PoolStats pool0 = parallel::pool_stats();
    const auto t0 = Clock::now();
    drive_tcp(rig, passes[1], true);
    const double wall_s = seconds_since(t0);
    const parallel::PoolStats pool1 = parallel::pool_stats();
    set_tracing(false);
    tear_down(rig);
    telemetry::set_active(nullptr);

    const std::vector<double> inproc_ms = drive_in_process(opt, passes[0]);
    const auto stats = check_passes(opt, passes, r, nullptr);

    r.set("trace.overhead_s",
          1e-3 * (median(stats[1].fresh_est_ms) -
                  median(stats[0].fresh_est_ms)),
          "s");
    r.set("server.tcp_gap_ms", stats[0].p50 - median(inproc_ms), "ms");
    r.set("sched.latency_p99_ms", tail(inproc_ms, 0.99).value, "ms");
    const double batches = static_cast<double>(rt.counter("serve.batches"));
    r.set("sched.batch_rows_mean",
          batches > 0 ? static_cast<double>(rt.counter("serve.batch_rows")) /
                            batches
                      : 0.0,
          "rows");
    r.set("sched.queue_peak", rt.metric("serve.queue_peak"), "count");
    r.set("gen.late_ms_p99", tail(stats[0].late_ms, 0.99).value, "ms");

    const double calls = sum_estimate_field(passes[1], "calls");
    const double cached = sum_estimate_field(passes[1], "calls_cached");
    r.set("cache.hit_ratio", calls > 0 ? cached / calls : 0.0, "ratio");
    r.set("cache.bytes", rt.metric("cache.bytes"), "B");
    r.set("g.calls", sum_estimate_field(passes[1], "calls_fresh"), "count");

    add_runtime_layer_metrics(r, rt, pool0, pool1, wall_s);

    // Protocol layer, timed on the traced pass's own lines.
    double dec_us = 0.0, enc_us = 0.0;
    std::size_t lines = 0;
    for (std::size_t i = 0; i < passes[1].plan.size(); ++i) {
        const std::string req_line = passes[1].plan[i].req.encode();
        auto a = Clock::now();
        const Request decoded = Request::decode(req_line);
        auto b = Clock::now();
        dec_us += std::chrono::duration<double, std::micro>(b - a).count();
        const auto resp = serve::Response::decode(passes[1].out[i].line);
        a = Clock::now();
        const std::string enc = resp.encode();
        b = Clock::now();
        enc_us += std::chrono::duration<double, std::micro>(b - a).count();
        if (decoded.id != passes[1].plan[i].req.id || enc.empty())
            r.fail_check("protocol round trip changed a request");
        ++lines;
    }
    r.set("protocol.decode_us", lines ? dec_us / lines : 0.0, "us");
    r.set("protocol.encode_us", lines ? enc_us / lines : 0.0, "us");

    // The testcases layer behind the estimate requests, timed per g call
    // on fixed points (the server owns its case instances).
    const auto ybranch = testcases::make_case("YBranch");
    rng::Engine eng(7);
    const linalg::Matrix pts = rng::standard_normal_matrix(
        eng, opt.tiny ? 200 : 2000, ybranch->dim());
    double sink = 0.0;
    const auto g0 = Clock::now();
    for (std::size_t i = 0; i < pts.rows(); ++i)
        sink += ybranch->g(pts.row_span(i));
    r.set("g.us_per_call",
          1e6 * seconds_since(g0) / static_cast<double>(pts.rows()), "us");
    if (!std::isfinite(sink)) r.fail_check("YBranch g is not finite");
    add_flow_layer_metrics(r, opt.tiny);
}

}  // namespace

void add_serve_layer_metrics(const Options& opt, Result& r) {
    Result s;
    add_zero_layer_metrics(s);
    traced_serve(opt, opt.tiny ? 0.1 : 1.0, s);
    for (const char* name :
         {"cache.hit_ratio", "cache.bytes", "protocol.decode_us",
          "protocol.encode_us", "server.tcp_gap_ms", "sched.latency_p99_ms",
          "sched.batch_rows_mean", "sched.queue_peak", "gen.late_ms_p99"})
        r.metrics[name] = s.metrics[name];
    r.attempted += s.attempted;
    r.failed += s.failed;
    for (const auto& p : s.problems) r.fail_check("serve: " + p);
}

void write_trace_file(const Options& opt) {
    write_chrome_trace(opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".trace.json",
                       collect_spans());
}

void add_runtime_layer_metrics(Result& r, const telemetry::RunTrace& rt,
                               const parallel::PoolStats& before,
                               const parallel::PoolStats& after,
                               double wall_s) {
    const double madds =
        static_cast<double>(rt.counter("matmul.tiled_madds"));
    const double mm_us =
        static_cast<double>(rt.counter("matmul.tiled_busy_us"));
    r.set("matmul.calls", static_cast<double>(rt.counter("matmul.tiled_calls")),
          "count");
    r.set("matmul.madds", madds, "count");
    r.set("matmul.gflops", mm_us > 0 ? 2.0 * madds / (mm_us * 1e3) : 0.0,
          "GFLOP/s");
    // Computed, not measured: two 8-byte operands per multiply-add with no
    // reuse, an upper bound on the operand traffic of the tiled products.
    r.set("matmul.bytes_computed", 16.0 * madds, "B");

    r.set("pool.jobs", static_cast<double>(after.jobs - before.jobs), "count");
    double busy_ms = 0.0;
    for (std::size_t l = 0; l < after.lane_busy_ms.size(); ++l)
        busy_ms += after.lane_busy_ms[l] -
                   (l < before.lane_busy_ms.size() ? before.lane_busy_ms[l]
                                                   : 0.0);
    r.set("pool.busy_frac",
          busy_ms / (static_cast<double>(after.lanes) * 1e3 * wall_s),
          "ratio");
}

void add_flow_layer_metrics(Result& r, bool tiny) {
    // serve-mixed's shapes: one request's rows and a coalesced batch.
    const std::size_t reps = tiny ? 5 : 200;
    double transport_s = 0.0, log_prob_s = 0.0, rows = 0.0, sink = 0.0;
    for (const std::size_t dim : {std::size_t{2}, std::size_t{26}}) {
        const flow::CouplingStack stack = make_serve_stack(dim);
        for (const std::size_t n : {kSampleRows, std::size_t{128}}) {
            rng::Engine eng(n + dim);
            const linalg::Matrix z0 = rng::standard_normal_matrix(eng, n, dim);
            for (std::size_t i = 0; i < reps; ++i) {
                auto t0 = Clock::now();
                const auto s = stack.transport(z0, stack.num_blocks());
                transport_s += seconds_since(t0);
                t0 = Clock::now();
                const auto lp = stack.log_prob(s.z, stack.num_blocks());
                log_prob_s += seconds_since(t0);
                sink += lp.front();
                rows += static_cast<double>(n);
            }
        }
    }
    if (!std::isfinite(sink)) r.fail_check("flow log_prob is not finite");
    r.set("flow.transport_us_per_row", 1e6 * transport_s / rows, "us");
    r.set("flow.log_prob_us_per_row", 1e6 * log_prob_s / rows, "us");
}

Result run_serve(const Options& opt) {
    Result r;
    add_zero_layer_metrics(r);
    // The self-test runs the same ladder at a tenth of the rate.
    const double scale = opt.tiny ? 0.1 : 1.0;

    std::vector<double> setups;
    Rig rig;
    for (int rep = 0; rep < 3; ++rep) {
        tear_down(rig);
        const auto t0 = Clock::now();
        rig = set_up(opt);
        setups.push_back(seconds_since(t0));
    }
    r.set("setup_s", median(setups), "s");

    if (opt.trace) {
        tear_down(rig);
        traced_serve(opt, scale, r);
        write_trace_file(opt);
        return r;
    }

    // Rungs run in rising order and the ladder stops after the first rung
    // that misses the latency limit: every rung above it would only queue
    // longer.
    std::vector<Pass> passes = plan_ladder(opt, scale);
    std::size_t ran = 0;
    double rss_mb = 0.0;
    while (ran < passes.size()) {
        drive_tcp(rig, passes[ran], false);
        const Pass& p = passes[ran++];
        // Peak memory through the nominal rung: an overloaded rung's
        // backlog would make the peak depend on where the knee fell.
        if (ran == nominal_index() + 1) rss_mb = peak_rss_mb();
        std::vector<double> lat;
        for (const Outcome& o : p.out)
            lat.push_back(o.transport_error()
                              ? std::numeric_limits<double>::infinity()
                              : ms_between(o.due, o.recv));
        if (tail(lat, 0.99).value > kLatencyLimitMs && ran > nominal_index())
            break;
    }
    passes.resize(ran);
    tear_down(rig);

    std::vector<double> fresh_cpu;
    const auto stats = check_passes(opt, passes, r, &fresh_cpu);
    const std::size_t nom = nominal_index();
    const PassStats& ns = stats[nom];

    double max_rate = 0.0;
    for (std::size_t k = 0; k < passes.size(); ++k) {
        const bool meets = stats[k].p99 <= kLatencyLimitMs &&
                           !stats[k].backlog_grows && stats[k].failed == 0;
        std::printf("rung %.0f rps: n=%zu p50=%.3f ms p%.1f=%.3f ms "
                    "backlog_grows=%d failed=%zu%s\n",
                    passes[k].rps, passes[k].plan.size(), stats[k].p50,
                    100.0 * stats[k].p99_q, stats[k].p99,
                    stats[k].backlog_grows ? 1 : 0, stats[k].failed,
                    meets ? "" : "  (misses limit)");
        if (meets) max_rate = std::max(max_rate, passes[k].rps);
    }
    std::size_t est_count = 0;
    double log_err = 0.0;
    const double golden = testcases::make_case("YBranch")->golden_pr();
    for (std::size_t i = 0; i < passes[nom].plan.size(); ++i) {
        if (passes[nom].plan[i].req.op != Op::kEstimate ||
            passes[nom].out[i].line.empty())
            continue;
        const auto resp = serve::Response::decode(passes[nom].out[i].line);
        if (!resp.ok) continue;
        ++est_count;
        log_err += estimators::log_error(
            resp.result.find("p_hat")->as_double(), golden);
    }
    const double per_est =
        static_cast<double>(std::max<std::size_t>(1, est_count));

    r.set("estimate_s", 1e-3 * median(ns.fresh_est_ms), "s");
    r.set("estimate_cpu_s", median(fresh_cpu), "s");
    r.set("log_err", log_err / per_est, "ln");
    r.set("g_calls", sum_estimate_field(passes[nom], "calls_fresh") / per_est,
          "count");
    r.set("latency_p50_ms", ns.p50, "ms");
    r.set("latency_p99_ms", ns.p99, "ms");
    r.set("max_rate_rps", max_rate, "1/s");
    r.set("ok_frac",
          1.0 - static_cast<double>(ns.failed) /
                    static_cast<double>(std::max<std::size_t>(
                        1, passes[nom].plan.size())),
          "ratio");
    r.set("rss_mb", rss_mb, "MiB");
    std::printf("samples: nominal requests=%zu fresh estimates=%zu\n",
                passes[nom].plan.size(), ns.fresh_est_ms.size());
    return r;
}

}  // namespace perfbench
