#include "core/nofis.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "autodiff/ops.hpp"
#include "dist/diag_gaussian.hpp"
#include "evalcache/cached_problem.hpp"
#include "flow/serialize.hpp"
#include "nn/optimizer.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::core {

namespace {

using autodiff::Var;
using estimators::CountedProblem;
using estimators::EstimateResult;
using linalg::Matrix;

/// min(τ(a - g), 0): the tempered log-weight of Eq. (6)/(9).
double tempered_log_weight(double tau, double a, double g) {
    return std::min(tau * (a - g), 0.0);
}

/// Identity of a run for checkpoint purposes: every config field that
/// shapes the training trajectory, plus the level schedule and problem
/// dimension. Deliberately excludes `threads` and the cache wiring — both
/// are bitwise-orthogonal to results — so a snapshot taken at --threads 8
/// resumes fine at --threads 1 and vice versa.
std::uint64_t run_fingerprint(const NofisConfig& cfg,
                              const core::LevelSchedule& levels,
                              std::size_t dim) {
    checkpoint::FingerprintBuilder fp;
    fp.add(std::uint64_t{1})  // fingerprint schema version
        .add(static_cast<std::uint64_t>(dim))
        .add(static_cast<std::uint64_t>(levels.num_levels()));
    for (std::size_t i = 0; i < levels.num_levels(); ++i)
        fp.add(levels.level(i));
    fp.add(static_cast<std::uint64_t>(cfg.layers_per_block));
    fp.add(static_cast<std::uint64_t>(cfg.hidden.size()));
    for (std::size_t h : cfg.hidden) fp.add(static_cast<std::uint64_t>(h));
    fp.add(cfg.scale_cap)
        .add(static_cast<std::uint64_t>(cfg.coupling))
        .add(static_cast<std::uint64_t>(cfg.use_actnorm));
    // Spline knobs fold in only for rqs runs so every pre-rqs fingerprint
    // (and thus every existing checkpoint) stays valid.
    if (cfg.coupling == flow::CouplingKind::kRqs)
        fp.add(static_cast<std::uint64_t>(cfg.rqs_bins)).add(cfg.rqs_tail);
    // Latent-exploration knobs likewise fold in only when the feature is
    // on, so pre-latent fingerprints (and checkpoints) stay valid.
    if (cfg.latent.enabled)
        fp.add(std::uint64_t{0x1a7e47ULL})  // "latent" feature tag
            .add(static_cast<std::uint64_t>(cfg.latent.chains))
            .add(static_cast<std::uint64_t>(cfg.latent.steps))
            .add(cfg.latent.alpha)
            .add(static_cast<std::uint64_t>(cfg.latent.anneal))
            .add(cfg.latent.rw_sigma)
            .add(cfg.latent.sigma_floor)
            .add(static_cast<std::uint64_t>(cfg.latent.em_iters));
    fp.add(static_cast<std::uint64_t>(cfg.epochs))
        .add(static_cast<std::uint64_t>(cfg.samples_per_epoch))
        .add(cfg.learning_rate)
        .add(cfg.lr_decay)
        .add(cfg.grad_clip)
        .add(cfg.tau)
        .add(static_cast<std::uint64_t>(cfg.n_is))
        .add(static_cast<std::uint64_t>(cfg.freeze_previous))
        .add(cfg.defensive_weight)
        .add(cfg.defensive_sigma)
        .add(static_cast<std::uint64_t>(cfg.guard.policy))
        .add(static_cast<std::uint64_t>(cfg.guard.max_retries))
        .add(cfg.guard.perturb_sigma)
        .add(cfg.guard.clamp_value)
        .add(cfg.guard.seed)
        .add(static_cast<std::uint64_t>(cfg.stage_max_retries))
        .add(cfg.retry_lr_factor)
        .add(cfg.retry_grad_clip_factor)
        .add(cfg.retry_scale_cap_factor)
        .add(cfg.min_inside_fraction)
        .add(cfg.grad_explode_factor)
        // Former clip-mode slot: global-norm clipping always folded 0
        // here, so the constant keeps every fingerprint (and thus every
        // existing checkpoint) valid.
        .add(std::uint64_t{0})
        .add(cfg.checkpoint.salt);
    return fp.value();
}

/// n draws from the defensive mixture q = (1-w)·q_MK + w·N(0, s²I), with
/// exact mixture log-densities. Components are chosen per draw and the flow
/// draws are batched.
flow::CouplingStack::Samples sample_defensive_mixture(
    const flow::CouplingStack& trained_flow, rng::Engine& eng, std::size_t n,
    double weight, double sigma) {
    const std::size_t blocks = trained_flow.num_blocks();
    const double lw_wide = std::log(weight);
    const double lw_flow = std::log1p(-weight);
    const dist::DiagGaussian wide =
        dist::DiagGaussian::isotropic(trained_flow.dim(), sigma);
    std::vector<bool> from_wide(n);
    std::size_t n_wide = 0;
    for (std::size_t r = 0; r < n; ++r) {
        from_wide[r] = eng.uniform() < weight;
        if (from_wide[r]) ++n_wide;
    }
    const Matrix zw = wide.sample(eng, n_wide);
    const auto zf = trained_flow.sample(eng, n - n_wide, blocks);
    // Cross densities: flow density at wide points needs the inverse path;
    // wide density anywhere is closed-form.
    const std::vector<double> flow_at_wide =
        n_wide > 0 ? trained_flow.log_prob(zw, blocks) : std::vector<double>{};
    flow::CouplingStack::Samples out{Matrix(n, trained_flow.dim()),
                                     std::vector<double>(n)};
    std::size_t iw = 0;
    std::size_t jf = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const bool is_wide = from_wide[r];
        const auto row = is_wide ? zw.row_span(iw) : zf.z.row_span(jf);
        std::copy(row.begin(), row.end(), out.z.row_span(r).begin());
        const double a =
            lw_flow + (is_wide ? flow_at_wide[iw++] : zf.log_q[jf++]);
        const double b = lw_wide + wide.log_pdf(row);
        const double m = std::max(a, b);
        out.log_q[r] = m + std::log(std::exp(a - m) + std::exp(b - m));
    }
    return out;
}

RunHealth run_health(const estimators::FaultReport& faults,
                     const std::vector<StageDiagnostics>& stages,
                     const estimators::IsDiagnostics& is_diag) {
    RunHealth health;
    health.faults = faults;
    health.g_retry_calls = faults.retry_attempts;
    for (const auto& s : stages) {
        health.stage_retries += s.retries;
        if (s.retries > 0) ++health.stages_rolled_back;
        health.skipped_epochs += s.skipped_epochs;
    }
    health.final_ess = is_diag.effective_sample_size;
    health.ess_all = is_diag.ess_all;
    health.max_weight = is_diag.max_weight;
    health.weight_cv = is_diag.weight_cv;
    return health;
}

/// Folds the run's health ledger and proposal-quality numbers into the
/// active telemetry record (counters accumulate across repeated runs;
/// metrics hold the last run's values).
void record_run_telemetry(const EstimateResult& est, const RunHealth& health,
                          const estimators::IsDiagnostics& is_diag) {
    evalcache::report_call_split(est.calls, est.cached_calls);
    telemetry::RunTrace* tr = telemetry::active();
    if (tr == nullptr) return;
    tr->add_counter("calls", est.calls);
    tr->add_counter("g_retry_calls", health.g_retry_calls);
    tr->add_counter("stage_retries", health.stage_retries);
    tr->add_counter("stages_rolled_back", health.stages_rolled_back);
    tr->add_counter("skipped_epochs", health.skipped_epochs);
    tr->add_counter("faults.total", health.faults.total_faults());
    using estimators::FaultKind;
    for (std::size_t k = 0; k < static_cast<std::size_t>(FaultKind::kCount);
         ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (health.faults.count(kind) > 0)
            tr->add_counter(
                std::string("faults.") + estimators::fault_kind_name(kind),
                health.faults.count(kind));
    }
    tr->set_metric("p_hat", est.p_hat);
    tr->set_metric("ess_hits", health.final_ess);
    tr->set_metric("ess_all", health.ess_all);
    tr->set_metric("max_weight", health.max_weight);
    tr->set_metric("weight_cv", health.weight_cv);
    tr->set_metric("is_hits", static_cast<double>(is_diag.hits));
    tr->set_metric("is_draws", static_cast<double>(is_diag.draws));
}

std::optional<evalcache::CachedProblem> open_cache(
    const NofisConfig& cfg, const estimators::RareEventProblem& problem) {
    if (!cfg.cache) return std::nullopt;
    const std::string key = cfg.cache_key.empty()
                                ? "anon#d" + std::to_string(problem.dim())
                                : cfg.cache_key;
    return std::optional<evalcache::CachedProblem>(std::in_place, problem,
                                                   cfg.cache, key);
}

/// Black-box target term of one epoch's KL loss, already scaled by 1/N:
/// the mean tempered log-target (the loss report), its gradient ∂T/∂z that
/// dot_constant injects into the graph, and the fraction of rows in Ω_{a_m}.
struct TargetTerm {
    Matrix grad;
    double value = 0.0;
    double inside = 0.0;
};

/// One NofisEstimator::run: Algorithm 1 under the fault guard, the optional
/// evaluation cache and checkpointing. The run's progress lives in `st_`,
/// the same TrainSnapshot it persists, and the stage/attempt/epoch
/// functions read and write it in place. Capturing a snapshot copies `st_`
/// and fills the fields owned by live objects; resuming assigns a loaded
/// snapshot and pushes those fields back. Not copyable: the guard refers to
/// the cache decorator beside it.
class TrainingRun {
public:
    TrainingRun(const NofisConfig& cfg, const LevelSchedule& levels,
                const estimators::RareEventProblem& problem, rng::Engine& eng)
        : cfg_(cfg),
          levels_(levels),
          eng_(eng),
          cached_(open_cache(cfg, problem)),
          // Guarded(Cached(problem)): the cache sits closest to the
          // expensive g, so the guard's retry probes consult it too and
          // only raw simulator outputs are ever stored. A fault-free run is
          // bit-identical to the unguarded path.
          guarded_(cached_ ? static_cast<const estimators::RareEventProblem&>(
                                 *cached_)
                           : problem,
                   cfg.guard) {
        flow::StackConfig scfg;
        scfg.dim = problem.dim();
        scfg.num_blocks = levels.num_levels();
        scfg.layers_per_block = cfg.layers_per_block;
        scfg.hidden = cfg.hidden;
        scfg.scale_cap = cfg.scale_cap;
        scfg.coupling = cfg.coupling;
        scfg.use_actnorm = cfg.use_actnorm;
        scfg.rqs_bins = cfg.rqs_bins;
        scfg.rqs_tail = cfg.rqs_tail;
        rng::Engine init_eng = eng.split();
        stack_ = std::make_unique<flow::CouplingStack>(scfg, init_eng);
    }
    TrainingRun(const TrainingRun&) = delete;
    TrainingRun& operator=(const TrainingRun&) = delete;

    /// Opens the checkpoint directory and, with resume on, continues from
    /// its newest valid snapshot (DESIGN.md §12).
    void resume_or_start() {
        const checkpoint::CheckpointConfig& ck = cfg_.checkpoint;
        if (!ck.enabled()) return;
        st_.fingerprint = run_fingerprint(cfg_, levels_, stack_->dim());
        ckdir_.emplace(ck.dir, ck.keep);
        std::optional<checkpoint::TrainSnapshot> loaded;
        if (ck.resume) loaded = ckdir_->load_latest(st_.fingerprint);
        if (!loaded) return;
        // From here on the process is indistinguishable from one that never
        // stopped. The two telemetry counts re-seed this process's fresh
        // RunTrace with the pre-snapshot tallies so end-of-run counters
        // match an uninterrupted run.
        st_ = std::move(*loaded);
        flow::restore_params(*stack_, st_.params);
        stack_->set_scale_caps(st_.scale_caps);
        eng_.set_state(st_.rng_state);
        guarded_.import_state(st_.guard);
        if (st_.train_g_calls > 0)
            telemetry::count("g_calls.train", st_.train_g_calls);
        if (st_.g_grad_calls > 0)
            telemetry::count("g_grad_calls", st_.g_grad_calls);
    }

    /// Stages next_stage..M. Returns true when a stop request ended
    /// training early at a stage boundary.
    bool train() {
        const telemetry::ScopedSpan train_span("train");
        for (std::size_t m = st_.next_stage; m <= levels_.num_levels(); ++m) {
            // Retries re-enter the same stage span, so its wall-clock covers
            // every attempt and its phase counts expose the extra epochs.
            const telemetry::ScopedSpan stage_span("stage_" +
                                                   std::to_string(m));
            train_stage(m);
            // Stage boundary: durably snapshot "about to run stage m+1"
            // (m+1 = M+1 means only the final IS remains). Honour a pending
            // SIGINT/SIGTERM here — the stage finished and its snapshot is
            // on disk, so stopping now loses no work.
            st_.next_stage = m + 1;
            if (ckdir_) persist(nullptr);
            if (checkpoint::stop_requested()) return true;
        }
        return false;
    }

    /// Final importance-sampling estimate with q_MK (Eq. 2), still guarded,
    /// then the run's health ledger and telemetry.
    NofisEstimator::RunResult finish(bool interrupted) {
        NofisEstimator::RunResult result;
        result.interrupted = interrupted;
        EstimateResult est;
        if (interrupted) {
            // No final IS was spent; report the g-budget consumed so far.
            // A --resume run picks up from the boundary snapshot and spends
            // the final IS exactly once.
            est.failed = true;
            est.detail = "interrupted by stop request; resume to continue";
        } else if (cfg_.latent.enabled) {
            // Latent-space exploration (DESIGN.md §16): the chain budget is
            // carved out of n_is, so the total g-spend matches plain IS.
            est = latent::explore_and_estimate(
                *stack_, guarded_, eng_, cfg_.n_is, cfg_.tau, levels_.level(0),
                cfg_.latent, &result.is_diag, &result.latent_report);
        } else {
            est = NofisEstimator::importance_estimate(
                *stack_, guarded_, eng_, cfg_.n_is, &result.is_diag,
                cfg_.defensive_weight, cfg_.defensive_sigma);
        }
        // Honest budget: training calls + fault-retry evaluations on top of
        // the N_IS already counted by the final IS. (g_grad rides on the
        // value evaluation under the paper's autograd accounting.)
        est.calls += st_.train_g_calls + guarded_.report().retry_attempts;
        // Every value arrival at the cache is one of the calls above, so the
        // cumulative hit tally (pre-snapshot baseline + this process's
        // decorator) IS the cached share of `calls` (min guards the
        // invariant against drift). Fresh calls spent before a crash are
        // never re-counted as fresh, and fresh + cached == total holds.
        est.cached_calls = cached_ ? std::min<std::size_t>(
                                         st_.cached_hits + cached_->hits(),
                                         est.calls)
                                   : std::size_t{0};
        result.stages = std::move(st_.stages);
        result.health = run_health(guarded_.report(), result.stages,
                                   result.is_diag);
        if (result.health.degraded() && est.detail.empty())
            est.detail = result.health.faults.summary();
        record_run_telemetry(est, result.health, result.is_diag);
        result.estimate = est;
        result.flow = std::move(stack_);
        return result;
    }

private:
    /// Stage m: attempts with rollback. A diverged attempt restores the
    /// stage-start anchor, shrinks lr/clip/scale cap and retries; the last
    /// attempt runs in skip-bad-epochs mode so the run always completes.
    void train_stage(std::size_t m) {
        if (!st_.has_partial) {
            // Anchor taken before the stage touches any parameter; rolled-
            // back retries restart training from exactly this state.
            st_.attempt = 0;
            st_.attempt_lr = cfg_.learning_rate;
            st_.attempt_clip = cfg_.grad_clip;
            st_.stage_start_params = flow::snapshot_params(*stack_);
            st_.partial = StageDiagnostics{};
            st_.partial.stage = m;
            st_.partial.level = levels_.level(m - 1);
        }
        for (;; ++st_.attempt) {
            const bool last_attempt = st_.attempt >= cfg_.stage_max_retries;
            const char* reason = train_attempt(m, !last_attempt);
            if (reason == nullptr || last_attempt) break;
            flow::restore_params(*stack_, st_.stage_start_params);
            stack_->tighten_scale_cap(m - 1, cfg_.retry_scale_cap_factor);
            st_.attempt_lr *= cfg_.retry_lr_factor;
            st_.attempt_clip *= cfg_.retry_grad_clip_factor;
            ++st_.partial.retries;
            st_.partial.retry_reasons.emplace_back(reason);
        }
        st_.stages.push_back(std::move(st_.partial));
    }

    /// One training pass over stage m at (attempt_lr, attempt_clip).
    /// Returns the divergence reason, or nullptr. In abort mode the pass
    /// stops at the first divergent epoch so the caller can roll back; in
    /// skip mode (retry budget exhausted) a divergent epoch records a NaN
    /// loss sentinel instead of poisoning Adam's moments, and the pass
    /// always completes.
    const char* train_attempt(std::size_t m, bool abort_on_divergence) {
        std::vector<Var> train_params;
        if (cfg_.freeze_previous) {
            stack_->freeze_blocks_before(m - 1);
            train_params = stack_->block_params(m - 1);
        } else {
            stack_->unfreeze_all();
            for (std::size_t b = 0; b < m; ++b)
                for (auto& p : stack_->block_params(b))
                    train_params.push_back(p);
        }
        nn::Adam opt(train_params, st_.attempt_lr);
        if (st_.has_partial) {
            // Resumed mid-attempt: re-enter at the recorded epoch with the
            // snapshot's moments and decayed LR.
            opt.import_state(st_.opt_state);
            st_.has_partial = false;
        } else {
            st_.next_epoch = 0;
            st_.stage_lr = st_.attempt_lr;
            st_.partial.epoch_loss.clear();
            st_.partial.inside_fraction = 0.0;
        }
        const std::size_t start_epoch = st_.next_epoch;
        const std::size_t every = cfg_.checkpoint.every_epochs;
        for (std::size_t epoch = start_epoch; epoch < cfg_.epochs; ++epoch) {
            // Epoch snapshot, taken before any RNG draw so a resumed
            // process replays the epoch bit-for-bit. `epoch > start_epoch`
            // skips epoch 0 (the stage-boundary snapshot covers it) and an
            // immediate rewrite of the snapshot just resumed from.
            st_.next_epoch = epoch;
            if (ckdir_ && every > 0 && epoch > start_epoch &&
                epoch % every == 0)
                persist(&opt);
            const char* reason = train_epoch(m, opt, abort_on_divergence);
            if (reason == nullptr) continue;
            if (abort_on_divergence) return reason;
            ++st_.partial.skipped_epochs;
            st_.partial.epoch_loss.push_back(
                std::numeric_limits<double>::quiet_NaN());
        }
        if (abort_on_divergence &&
            st_.partial.inside_fraction < cfg_.min_inside_fraction)
            return "inside-fraction collapse";
        return nullptr;
    }

    /// One KL step of stage m: sample → g → ∇g → Adam. Returns the
    /// divergence reason, or nullptr after recording the epoch's loss.
    /// Per-phase spans accumulate across the stage's epochs; none touches
    /// the RNG or the math, so estimates are identical with telemetry off.
    const char* train_epoch(std::size_t m, nn::Adam& opt,
                            bool abort_on_divergence) {
        const std::size_t n = cfg_.samples_per_epoch;
        const std::size_t block = m - 1;
        std::optional<telemetry::ScopedSpan> phase;
        phase.emplace("sample_forward");
        const Matrix z0 = rng::standard_normal_matrix(eng_, n, stack_->dim());
        // Frozen prefix on the cheap value path; graph only for the
        // trainable tail. With NoFreeze everything is in the graph.
        Matrix z_in = z0;
        std::vector<double> frozen_log_det(n, 0.0);
        std::size_t graph_begin = 0;
        if (cfg_.freeze_previous && block > 0) {
            z_in = stack_->transport_range(z0, 0, block, frozen_log_det);
            graph_begin = block;
        }
        auto fwd = stack_->forward_range(Var(z_in), graph_begin, m);
        const Matrix& z = fwd.z.value();
        phase.reset();
        if (!z.all_finite()) return "non-finite flow output";

        const TargetTerm target = target_term(z, levels_.level(block));
        // loss = −mean(log-det) − T. The dot_constant surrogate carries
        // exactly ∂T/∂z into the graph.
        Var graph_loss = autodiff::add(
            autodiff::neg(autodiff::mean(fwd.log_det)),
            autodiff::neg(autodiff::dot_constant(fwd.z, target.grad)));
        const double inv_n = 1.0 / static_cast<double>(n);
        double mean_log_det = fwd.log_det.value().mean();
        for (double v : frozen_log_det) mean_log_det += v * inv_n;
        const double true_loss = -mean_log_det - target.value;
        if (!std::isfinite(true_loss) || !target.grad.all_finite())
            return "non-finite KL loss";

        phase.emplace("backward");
        opt.zero_grad();
        graph_loss.backward();
        const double grad_norm = opt.clip_grad_norm(st_.attempt_clip);
        phase.reset();
        if (abort_on_divergence &&
            (!std::isfinite(grad_norm) ||
             grad_norm > nn::grad_explode_limit(st_.attempt_clip,
                                                cfg_.grad_explode_factor)))
            return "exploding gradient norm";
        phase.emplace("optimizer");
        opt.set_learning_rate(st_.stage_lr);
        opt.step();
        st_.stage_lr *= cfg_.lr_decay;
        phase.reset();

        st_.partial.epoch_loss.push_back(true_loss);
        st_.partial.inside_fraction = target.inside;
        return nullptr;
    }

    /// ∂T/∂z_n = (1/N)(−τ·∇g·1[g>a] − z_n). Pass 1 batches g over all rows
    /// (parallel, per-row call indices in row order); the reductions run
    /// serially in row order, so the result is bitwise identical at any
    /// thread count. Pass 2 batches ∇g for the rows outside Ω_{a_m}.
    TargetTerm target_term(const Matrix& z, double a_m) {
        const std::size_t n = z.rows();
        const std::size_t d = z.cols();
        std::optional<telemetry::ScopedSpan> phase;
        phase.emplace("g_eval");
        st_.train_g_calls += n;
        telemetry::count("g_calls.train", n);
        const std::vector<double> g_vals = guarded_.g_rows(z);
        phase.reset();

        TargetTerm t{Matrix(n, d)};
        std::vector<std::size_t> grad_rows;
        for (std::size_t r = 0; r < n; ++r) {
            const double gv = g_vals[r];
            if (!std::isfinite(gv)) {
                // A non-finite g slipped through the guard (propagate
                // policy): the tempered target is undefined, so poison the
                // loss instead of silently zeroing the weight.
                t.value = std::numeric_limits<double>::quiet_NaN();
            }
            if (gv <= a_m) t.inside += 1.0;
            t.value += tempered_log_weight(cfg_.tau, a_m, gv) +
                       rng::standard_normal_log_pdf(z.row_span(r));
            if (gv > a_m) grad_rows.push_back(r);
        }

        // Backward through the same simulation point is free under the
        // paper's autograd accounting (see RareEventProblem::g_grad). Each
        // row writes only its own slice, one reserved call index per row.
        phase.emplace("g_grad");
        st_.g_grad_calls += grad_rows.size();
        telemetry::count("g_grad_calls", grad_rows.size());
        const std::size_t gbase = guarded_.reserve_calls(grad_rows.size());
        std::vector<std::exception_ptr> errors(grad_rows.size());
        parallel::parallel_for(
            grad_rows.size(), [&](std::size_t i0, std::size_t i1) {
                std::vector<double> grad_buf(d);
                for (std::size_t i = i0; i < i1; ++i) {
                    const std::size_t r = grad_rows[i];
                    try {
                        guarded_.g_grad_indexed(gbase + i, z.row_span(r),
                                                grad_buf);
                        for (std::size_t c = 0; c < d; ++c)
                            t.grad(r, c) = -cfg_.tau * grad_buf[c];
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            });
        parallel::rethrow_first(errors);
        phase.reset();

        for (std::size_t r = 0; r < n; ++r) {
            const auto zr = z.row_span(r);
            for (std::size_t c = 0; c < d; ++c) t.grad(r, c) -= zr[c];
        }
        const double inv_n = 1.0 / static_cast<double>(n);
        t.value *= inv_n;
        t.grad *= inv_n;
        t.inside *= inv_n;
        return t;
    }

    /// Writes the run state plus the fields owned by live objects. `opt` is
    /// the in-flight attempt's optimizer for an epoch snapshot, null at a
    /// stage boundary.
    void persist(const nn::Adam* opt) {
        checkpoint::TrainSnapshot s = st_;
        s.params = flow::snapshot_params(*stack_);
        s.scale_caps = stack_->scale_caps();
        s.rng_state = eng_.state();
        s.guard = guarded_.export_state();
        s.cached_hits = cached_ ? st_.cached_hits + cached_->hits() : 0;
        s.has_partial = opt != nullptr;
        if (opt != nullptr) s.opt_state = opt->export_state();
        ckdir_->write(s);
        const std::size_t crash_after = cfg_.checkpoint.crash_after_snapshots;
        if (crash_after > 0 && ckdir_->writes() >= crash_after)
            throw checkpoint::SimulatedCrash(
                "simulated crash after snapshot " +
                std::to_string(ckdir_->writes()));
    }

    const NofisConfig& cfg_;
    const LevelSchedule& levels_;
    rng::Engine& eng_;
    std::optional<evalcache::CachedProblem> cached_;
    estimators::GuardedProblem guarded_;
    std::unique_ptr<flow::CouplingStack> stack_;
    std::optional<checkpoint::CheckpointDir> ckdir_;
    checkpoint::TrainSnapshot st_;
};

}  // namespace

NofisEstimator::NofisEstimator(NofisConfig cfg, LevelSchedule levels)
    : cfg_(std::move(cfg)), levels_(std::move(levels)) {}

EstimateResult NofisEstimator::estimate(
    const estimators::RareEventProblem& problem, rng::Engine& eng) const {
    return run(problem, eng).estimate;
}

NofisEstimator::RunResult NofisEstimator::run(
    const estimators::RareEventProblem& problem, rng::Engine& eng) const {
    // End-to-end span; "train"/"stage_m"/phases and "final_is" nest inside.
    const telemetry::ScopedSpan run_span("nofis_run");
    if (cfg_.threads > 0) parallel::set_num_threads(cfg_.threads);
    TrainingRun training(cfg_, levels_, problem, eng);
    training.resume_or_start();
    const bool interrupted = training.train();
    return training.finish(interrupted);
}

EstimateResult NofisEstimator::importance_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_is, estimators::IsDiagnostics* diag,
    double defensive_weight, double defensive_sigma) {
    CountedProblem counted(problem);
    const auto draw = [&] {
        flow::CouplingStack::Samples s =
            defensive_weight <= 0.0
                ? trained_flow.sample(eng, n_is, trained_flow.num_blocks())
                : sample_defensive_mixture(trained_flow, eng, n_is,
                                           defensive_weight, defensive_sigma);
        return estimators::ProposalDraws{std::move(s.z), std::move(s.log_q)};
    };
    return estimators::final_is_estimate(counted, draw, diag);
}

}  // namespace nofis::core
