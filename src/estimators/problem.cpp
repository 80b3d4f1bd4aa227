#include "estimators/problem.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "parallel/thread_pool.hpp"
#include "rng/normal.hpp"
#include "telemetry/telemetry.hpp"

namespace nofis::estimators {

double RareEventProblem::g_grad(std::span<const double> x,
                                std::span<double> grad_out) const {
    if (x.size() != dim() || grad_out.size() != dim())
        throw std::invalid_argument("g_grad: dimension mismatch");
    const double h = fd_step();
    std::vector<double> probe(x.begin(), x.end());
    for (std::size_t i = 0; i < dim(); ++i) {
        const double orig = probe[i];
        probe[i] = orig + h;
        const double fp = g(probe);
        probe[i] = orig - h;
        const double fm = g(probe);
        probe[i] = orig;
        grad_out[i] = (fp - fm) / (2.0 * h);
    }
    return g(x);
}

std::vector<double> RareEventProblem::g_rows(const linalg::Matrix& x) const {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    std::vector<double> out(x.rows());
    std::vector<std::exception_ptr> errors(x.rows());
    parallel::parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            try {
                out[r] = g(x.row_span(r));
            } catch (...) {
                errors[r] = std::current_exception();
            }
        }
    });
    parallel::rethrow_first(errors);
    return out;
}

std::vector<double> CountedProblem::g_rows(const linalg::Matrix& x) {
    if (x.cols() != dim())
        throw std::invalid_argument("g_rows: dimension mismatch");
    calls_.fetch_add(x.rows(), std::memory_order_relaxed);
    return p_->g_rows(x);
}

std::vector<double> CountedProblem::g_grad_rows(const linalg::Matrix& x,
                                                linalg::Matrix& grad_out) {
    if (x.cols() != dim())
        throw std::invalid_argument("g_grad_rows: dimension mismatch");
    grad_out = linalg::Matrix(x.rows(), x.cols());
    std::vector<double> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = g_grad(x.row_span(r), grad_out.row_span(r));
    return out;
}

EstimateResult final_is_estimate(CountedProblem& problem,
                                 const std::function<ProposalDraws()>& draw,
                                 IsDiagnostics* diag) {
    const telemetry::ScopedSpan is_span("final_is");
    const ProposalDraws draws = draw();
    const linalg::Matrix& x = draws.x;
    const std::size_t n = x.rows();
    if (draws.log_q.size() != n)
        throw std::invalid_argument("final_is_estimate: log_q size mismatch");
    telemetry::count("g_calls.final_is", n);
    const std::vector<double> g_vals = problem.g_rows(x);

    IsDiagnostics d;
    d.draws = n;
    double sum_w = 0.0;
    double sum_w2 = 0.0;
    // Raw-weight moments over ALL draws (no failure indicator): the
    // standard early warnings for proposal collapse — a low all-draw ESS or
    // a large weight CV flags a mismatched q long before the hit-restricted
    // ESS reacts.
    double all_sum_w = 0.0;
    double all_sum_w2 = 0.0;
    std::size_t non_finite = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const double w =
            std::exp(rng::standard_normal_log_pdf(x.row_span(r)) -
                     draws.log_q[r]);
        all_sum_w += w;
        all_sum_w2 += w * w;
        const double gv = g_vals[r];
        if (!std::isfinite(gv)) {
            ++non_finite;
            continue;
        }
        if (gv > 0.0) continue;
        sum_w += w;
        sum_w2 += w * w;
        d.max_weight = std::max(d.max_weight, w);
        ++d.hits;
    }
    EstimateResult res;
    res.p_hat = non_finite > 0 ? std::numeric_limits<double>::quiet_NaN()
                               : sum_w / static_cast<double>(n);
    res.calls = problem.calls();
    res.failed = !std::isfinite(res.p_hat);
    if (non_finite > 0)
        res.detail = std::to_string(non_finite) + " of " + std::to_string(n) +
                     " final-IS g values are non-finite";
    d.effective_sample_size = sum_w2 > 0.0 ? (sum_w * sum_w) / sum_w2 : 0.0;
    d.ess_all =
        all_sum_w2 > 0.0 ? (all_sum_w * all_sum_w) / all_sum_w2 : 0.0;
    if (n > 0 && all_sum_w > 0.0) {
        const double mean_w = all_sum_w / static_cast<double>(n);
        const double var_w = std::max(
            all_sum_w2 / static_cast<double>(n) - mean_w * mean_w, 0.0);
        d.weight_cv = std::sqrt(var_w) / mean_w;
    }
    if (diag != nullptr) *diag = d;
    return res;
}

double log_error(double p_hat, double golden, double floor) {
    if (!(golden > 0.0))
        throw std::invalid_argument("log_error: golden must be positive");
    const double clipped = std::max(p_hat, floor);
    return std::abs(std::log(clipped) - std::log(golden));
}

}  // namespace nofis::estimators
