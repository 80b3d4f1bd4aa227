#include "flow/coupling.hpp"

#include <numeric>

#include "autodiff/ops.hpp"
#include "linalg/kernels/kernels.hpp"

namespace nofis::flow {

namespace {

/// Transformed elements below this count run inline; each element costs a
/// tanh + exp, so the bar is much lower than the matmul threshold.
constexpr std::size_t kParallelAffineMinElems = 1u << 12;

}  // namespace

AffineCoupling::AffineCoupling(std::size_t dim, bool pass_first_half,
                               std::vector<std::size_t> hidden,
                               rng::Engine& eng, double scale_cap)
    : MaskedCoupling("AffineCoupling", dim, pass_first_half,
                     std::move(hidden), /*out_per_coord=*/2,
                     kParallelAffineMinElems, eng),
      scale_cap_(scale_cap) {}

FlowLayer::ForwardVar AffineCoupling::transform(const autodiff::Var& xb,
                                                const autodiff::Var& h) const {
    using namespace autodiff;
    // h = [ŝ | t], each nb wide.
    const std::size_t nb = xb.cols();
    std::vector<std::size_t> s_idx(nb);
    std::vector<std::size_t> t_idx(nb);
    std::iota(s_idx.begin(), s_idx.end(), std::size_t{0});
    std::iota(t_idx.begin(), t_idx.end(), nb);

    Var s = scale(tanh_v(select_cols(h, s_idx)), scale_cap_);
    Var t = select_cols(h, t_idx);
    return {add(mul(xb, exp_v(s)), t), row_sums(s)};
}

void AffineCoupling::transform_rows(bool inverse, const double* in,
                                    const double* h, double* out,
                                    double* log_det, std::size_t r0,
                                    std::size_t r1) const {
    const auto idx_b = transform_indices();
    (inverse ? linalg::kernels::affine_inv_rows
             : linalg::kernels::affine_fwd_rows)(in, h, idx_b.data(),
                                                 idx_b.size(), scale_cap_,
                                                 dim(), out, log_det, r0, r1);
}

}  // namespace nofis::flow
