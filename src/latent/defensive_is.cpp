#include "latent/defensive_is.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "rng/normal.hpp"

namespace nofis::latent {

namespace {

/// n draws from the latent mixture α·N(0, I) + (1−α)·refined, pushed
/// through the trained flow, with their exact pushforward log-densities.
estimators::ProposalDraws latent_mixture_draws(
    const flow::CouplingStack& trained_flow, rng::Engine& eng,
    std::size_t n_draws, const dist::GaussianMixture& refined, double alpha) {
    const std::size_t d_dim = trained_flow.dim();

    // Component choice per draw, then batched sampling of each component.
    const double lw_flow = std::log(alpha);
    const double lw_ref = std::log1p(-alpha);  // −inf at α = 1 (flow only)
    std::vector<bool> from_ref(n_draws);
    std::size_t n_ref = 0;
    for (std::size_t r = 0; r < n_draws; ++r) {
        from_ref[r] = eng.uniform() < 1.0 - alpha;
        if (from_ref[r]) ++n_ref;
    }
    const linalg::Matrix z_ref =
        n_ref > 0 ? refined.sample(eng, n_ref) : linalg::Matrix(0, d_dim);
    const linalg::Matrix z_base =
        rng::standard_normal_matrix(eng, n_draws - n_ref, d_dim);

    // Exact latent mixture log-density per draw (both components are
    // closed-form in base space; no inverse transport needed).
    linalg::Matrix z0(n_draws, d_dim);
    std::vector<double> log_q(n_draws);
    std::size_t ir = 0;
    std::size_t ib = 0;
    for (std::size_t r = 0; r < n_draws; ++r) {
        const auto row =
            from_ref[r] ? z_ref.row_span(ir++) : z_base.row_span(ib++);
        std::copy(row.begin(), row.end(), z0.row_span(r).begin());
        const double a = lw_flow + rng::standard_normal_log_pdf(row);
        const double b = lw_ref + refined.log_pdf(row);
        const double m = std::max(a, b);
        log_q[r] = m + std::log(std::exp(a - m) + std::exp(b - m));
    }

    // One forward transport for every draw; the pushforward density only
    // needs the forward log-det: log q_x(T(z)) = log q_z(z) − log|det|.
    std::vector<double> log_det(n_draws, 0.0);
    linalg::Matrix x =
        trained_flow.transport_range(z0, 0, trained_flow.num_blocks(), log_det);
    for (std::size_t r = 0; r < n_draws; ++r) log_q[r] -= log_det[r];
    return {std::move(x), std::move(log_q)};
}

}  // namespace

estimators::EstimateResult defensive_estimate(
    const flow::CouplingStack& trained_flow,
    const estimators::RareEventProblem& problem, rng::Engine& eng,
    std::size_t n_draws, const dist::GaussianMixture& refined, double alpha,
    estimators::IsDiagnostics* diag) {
    if (!(alpha > 0.0) || alpha > 1.0)
        throw std::invalid_argument(
            "latent::defensive_estimate: alpha must be in (0, 1]");
    if (refined.dim() != trained_flow.dim())
        throw std::invalid_argument(
            "latent::defensive_estimate: refined mixture dim mismatch");
    estimators::CountedProblem counted(problem);
    return estimators::final_is_estimate(
        counted,
        [&] {
            return latent_mixture_draws(trained_flow, eng, n_draws, refined,
                                        alpha);
        },
        diag);
}

}  // namespace nofis::latent
