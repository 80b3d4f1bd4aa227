#pragma once

#include "flow/masked_coupling.hpp"

namespace nofis::flow {

/// RealNVP affine coupling layer (Dinh et al., 2017).
///
/// On the MaskedCoupling split the forward map is
///     y_A = x_A
///     y_B = x_B ⊙ exp(s(x_A)) + t(x_A)
/// where [s | t] is produced by one conditioner MLP, and the log-scale is
/// bounded as s = s_cap · tanh(ŝ) for training stability. The Jacobian is
/// triangular, so log|det J| = Σ_B s — exactly the cheap term Eq. (7) of the
/// paper requires.
class AffineCoupling final : public MaskedCoupling {
public:
    /// Hidden layout of the conditioner is `hidden` (e.g. {32, 32}); a fresh
    /// layer is the identity map.
    AffineCoupling(std::size_t dim, bool pass_first_half,
                   std::vector<std::size_t> hidden, rng::Engine& eng,
                   double scale_cap = 2.0);

    void scale_cap_multiply(double factor) override { scale_cap_ *= factor; }
    double scale_cap() const noexcept override { return scale_cap_; }
    void set_scale_cap(double cap) override { scale_cap_ = cap; }

private:
    ForwardVar transform(const autodiff::Var& xb,
                         const autodiff::Var& h) const override;
    void transform_rows(bool inverse, const double* in, const double* h,
                        double* out, double* log_det, std::size_t r0,
                        std::size_t r1) const override;

    double scale_cap_;
};

}  // namespace nofis::flow
