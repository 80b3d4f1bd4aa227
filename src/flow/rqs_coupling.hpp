#pragma once

#include "flow/masked_coupling.hpp"

namespace nofis::flow {

/// Masked rational-quadratic spline coupling (Durkan et al., "Neural Spline
/// Flows", 2019) — the expressive third coupling family next to RealNVP
/// affine and NICE additive (DESIGN.md §14).
///
/// On the MaskedCoupling split the conditioner MLP emits 3·num_bins+1 raw
/// params per transformed dim, mapped to a monotone spline on
/// [-tail_bound, tail_bound]: softmax bin widths/heights with a min-bin
/// floor, softplus knot derivatives with a min-derivative floor, and
/// identity (linear) tails outside the interval. The transform has an
/// analytic inverse (stable quadratic root) and an exact log-det in both
/// directions. The parameter mapping is offset so zero raw params give
/// uniform bins and unit knot slopes — with the zero-initialised output
/// layer a fresh layer is the identity map, matching the other couplings'
/// init contract.
///
/// Unlike the affine coupling there is no log-scale bound: the spline's
/// range is hard-capped by construction, so the scale-cap virtuals keep
/// their no-op defaults and checkpoint snapshots record a 0 cap.
class RqsCoupling final : public MaskedCoupling {
public:
    RqsCoupling(std::size_t dim, bool pass_first_half,
                std::vector<std::size_t> hidden, rng::Engine& eng,
                std::size_t num_bins = 8, double tail_bound = 3.0);

    std::size_t num_bins() const noexcept { return num_bins_; }
    double tail_bound() const noexcept { return tail_bound_; }

private:
    ForwardVar transform(const autodiff::Var& xb,
                         const autodiff::Var& h) const override;
    void transform_rows(bool inverse, const double* in, const double* h,
                        double* out, double* log_det, std::size_t r0,
                        std::size_t r1) const override;

    std::size_t num_bins_;
    double tail_bound_;
};

}  // namespace nofis::flow
