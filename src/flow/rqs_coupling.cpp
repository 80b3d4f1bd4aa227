#include "flow/rqs_coupling.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "autodiff/ops.hpp"
#include "linalg/kernels/kernels.hpp"

namespace nofis::flow {

namespace {

namespace kernels = linalg::kernels;

/// Transformed elements below this count run inline. Each element costs an
/// O(num_bins) knot build plus two logs — heavier than the affine
/// tanh+exp — so the bar sits below the affine coupling's.
constexpr std::size_t kParallelRqsMinElems = 1u << 10;

/// Validates the spline knobs (before the conditioner draws its weights)
/// and returns the raw parameter count per transformed coordinate.
std::size_t spline_params(std::size_t num_bins, double tail_bound) {
    if (num_bins == 0 || num_bins > kernels::kMaxRqsBins)
        throw std::invalid_argument("RqsCoupling: num_bins must be in [1, " +
                                    std::to_string(kernels::kMaxRqsBins) +
                                    "]");
    if (!std::isfinite(tail_bound) || tail_bound <= 0.0)
        throw std::invalid_argument(
            "RqsCoupling: tail_bound must be finite and positive");
    return 3 * num_bins + 1;
}

}  // namespace

RqsCoupling::RqsCoupling(std::size_t dim, bool pass_first_half,
                         std::vector<std::size_t> hidden, rng::Engine& eng,
                         std::size_t num_bins, double tail_bound)
    : MaskedCoupling("RqsCoupling", dim, pass_first_half, std::move(hidden),
                     spline_params(num_bins, tail_bound),
                     kParallelRqsMinElems, eng),
      num_bins_(num_bins),
      tail_bound_(tail_bound) {}

FlowLayer::ForwardVar RqsCoupling::transform(const autodiff::Var& xb,
                                             const autodiff::Var& h) const {
    auto [yb, log_det] = autodiff::rqs_forward(xb, h, num_bins_, tail_bound_);
    return {yb, log_det};
}

void RqsCoupling::transform_rows(bool inverse, const double* in,
                                 const double* h, double* out,
                                 double* log_det, std::size_t r0,
                                 std::size_t r1) const {
    const auto idx_b = transform_indices();
    (inverse ? kernels::rqs_inv_rows : kernels::rqs_fwd_rows)(
        in, h, idx_b.data(), idx_b.size(), num_bins_, tail_bound_, dim(), out,
        log_det, r0, r1);
}

}  // namespace nofis::flow
