#include "estimators/adaptive_is.hpp"

#include <algorithm>
#include <cmath>

#include "rng/normal.hpp"

namespace nofis::estimators {

EstimateResult AdaptiveIsEstimator::estimate(const RareEventProblem& raw,
                                             rng::Engine& eng) const {
    CountedProblem problem(raw);
    const std::size_t d = problem.dim();

    // Initial exploratory mixture: components at the origin, inflated sigma,
    // with slight mean jitter so components can specialise to different
    // failure regions.
    std::vector<dist::GaussianMixture::Component> comps;
    for (std::size_t k = 0; k < cfg_.num_components; ++k) {
        dist::GaussianMixture::Component c;
        c.weight = 1.0 / static_cast<double>(cfg_.num_components);
        c.mean.assign(d, 0.0);
        for (double& m : c.mean) m = 0.25 * rng::standard_normal(eng);
        c.sigma.assign(d, cfg_.initial_sigma);
        comps.push_back(std::move(c));
    }
    dist::GaussianMixture proposal(std::move(comps));

    for (std::size_t it = 0; it < cfg_.iterations; ++it) {
        const linalg::Matrix x =
            proposal.sample(eng, cfg_.samples_per_iteration);
        const std::vector<double> gv = problem.g_rows(x);

        // Elite level: rho-quantile of the finite g values, floored at the
        // failure threshold. A non-finite g (the simulator failed) is
        // neither elite nor counted in the quantile.
        std::vector<double> sorted;
        sorted.reserve(gv.size());
        for (const double v : gv)
            if (std::isfinite(v)) sorted.push_back(v);
        if (sorted.empty()) continue;
        const auto q_idx = static_cast<std::size_t>(
            cfg_.elite_quantile * static_cast<double>(sorted.size() - 1));
        std::nth_element(sorted.begin(),
                         sorted.begin() + static_cast<std::ptrdiff_t>(q_idx),
                         sorted.end());
        const double level = std::max(sorted[q_idx], 0.0);

        // Importance weights of elite samples w.r.t. the zero-variance
        // target p(x)·1[g <= level].
        std::vector<double> w(gv.size(), 0.0);
        bool any = false;
        for (std::size_t r = 0; r < gv.size(); ++r) {
            if (!std::isfinite(gv[r]) || gv[r] > level) continue;
            const auto xr = x.row_span(r);
            const double lw =
                rng::standard_normal_log_pdf(xr) - proposal.log_pdf(xr);
            w[r] = std::exp(std::min(lw, 50.0));
            any = true;
        }
        if (any) proposal.ce_update(x, w, cfg_.sigma_floor);
    }

    // Final IS estimate with the adapted proposal.
    const auto draw = [&] {
        ProposalDraws d{proposal.sample(eng, cfg_.final_samples), {}};
        for (std::size_t r = 0; r < d.x.rows(); ++r)
            d.log_q.push_back(proposal.log_pdf(d.x.row_span(r)));
        return d;
    };
    IsDiagnostics diag;
    EstimateResult res = final_is_estimate(problem, draw, &diag);
    if (diag.hits == 0 && res.detail.empty()) {
        // The adapted proposal never reached the failure region: the classic
        // Adapt-IS collapse mode that Table 1 marks with huge errors.
        res.detail = "no failure hits with adapted proposal";
    }
    return res;
}

}  // namespace nofis::estimators
