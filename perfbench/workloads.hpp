#pragma once

#include <string>

#include "bench_util.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// train-leaf / train-ybranch: full NOFIS estimates of `case_name` at its
/// Table-1 budget.
Result run_train(const Options& opt, const std::string& case_name);

/// serve-mixed: open-loop TCP traffic against an in-process server.
Result run_serve(const Options& opt);

/// Runs serve-mixed's traffic at the nominal rate (untraced, traced and
/// in-process) and sets the serve-layer metrics: cache, protocol, server,
/// sched and gen. Counts its requests in `r` and checks every response.
void add_serve_layer_metrics(const Options& opt, Result& r);

/// Writes every span recorded so far as
/// <out_dir>/<workload>-seed<seed>.trace.json.
void write_trace_file(const Options& opt);

/// Times CouplingStack::transport and ::log_prob at serve-mixed's batch
/// shapes and sets flow.transport_us_per_row / flow.log_prob_us_per_row.
void add_flow_layer_metrics(Result& r, bool tiny);

/// Sets the linalg (matmul.*) and parallel (pool.*) metrics from a traced
/// stretch of `wall_s` seconds: `rt` was the active trace, `before` and
/// `after` are pool_stats() around it.
void add_runtime_layer_metrics(Result& r, const nofis::telemetry::RunTrace& rt,
                               const nofis::parallel::PoolStats& before,
                               const nofis::parallel::PoolStats& after,
                               double wall_s);

/// Every per-layer metric, zeroed, so a workload that does not exercise a
/// layer still prints it (the name set must not depend on the workload).
void add_zero_layer_metrics(Result& r);

}  // namespace perfbench
