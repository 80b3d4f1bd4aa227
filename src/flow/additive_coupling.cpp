#include "flow/additive_coupling.hpp"

#include <limits>

#include "autodiff/ops.hpp"

namespace nofis::flow {

AdditiveCoupling::AdditiveCoupling(std::size_t dim, bool pass_first_half,
                                   std::vector<std::size_t> hidden,
                                   rng::Engine& eng)
    : MaskedCoupling("AdditiveCoupling", dim, pass_first_half,
                     std::move(hidden), /*out_per_coord=*/1,
                     // One add per element: never worth a fork.
                     std::numeric_limits<std::size_t>::max(), eng) {}

FlowLayer::ForwardVar AdditiveCoupling::transform(
    const autodiff::Var& xb, const autodiff::Var& h) const {
    // Volume preserving: log|det J| = 0 for every sample.
    return {autodiff::add(xb, h),
            autodiff::Var(linalg::Matrix(xb.rows(), 1))};
}

void AdditiveCoupling::transform_rows(bool inverse, const double* in,
                                      const double* h, double* out,
                                      double* /*log_det*/, std::size_t r0,
                                      std::size_t r1) const {
    const auto idx_b = transform_indices();
    const std::size_t nb = idx_b.size();
    for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t j = 0; j < nb; ++j) {
            const std::size_t c = r * dim() + idx_b[j];
            out[c] = inverse ? in[c] - h[r * nb + j] : in[c] + h[r * nb + j];
        }
}

}  // namespace nofis::flow
