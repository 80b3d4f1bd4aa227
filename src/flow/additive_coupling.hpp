#pragma once

#include "flow/masked_coupling.hpp"

namespace nofis::flow {

/// NICE additive coupling layer (Dinh et al., 2014):
///     y_A = x_A,    y_B = x_B + t(x_A),
/// volume-preserving (log|det J| = 0). Cheaper and more stable than the
/// affine coupling, but it cannot reshape density magnitudes — only move
/// them — which is why RealNVP is the paper's backbone; the difference is
/// measured by bench/ablation_coupling.
class AdditiveCoupling final : public MaskedCoupling {
public:
    AdditiveCoupling(std::size_t dim, bool pass_first_half,
                     std::vector<std::size_t> hidden, rng::Engine& eng);

private:
    ForwardVar transform(const autodiff::Var& xb,
                         const autodiff::Var& h) const override;
    void transform_rows(bool inverse, const double* in, const double* h,
                        double* out, double* log_det, std::size_t r0,
                        std::size_t r1) const override;
};

}  // namespace nofis::flow
