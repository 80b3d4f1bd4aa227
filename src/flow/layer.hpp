#pragma once

#include <memory>
#include <vector>

#include "autodiff/var.hpp"

namespace nofis::flow {

/// Interface of one invertible flow transformation f_i (Eq. 4 of the
/// paper): a differentiable forward for training, cheap value-only forward
/// for sampling, and an exact inverse for density evaluation. Implemented
/// by the MaskedCoupling families (AffineCoupling, AdditiveCoupling,
/// RqsCoupling) and ActNorm.
class FlowLayer {
public:
    virtual ~FlowLayer() = default;

    virtual std::size_t dim() const noexcept = 0;

    struct ForwardVar {
        autodiff::Var y;
        autodiff::Var log_det;  ///< per-sample log|det J| (n x 1)
    };
    /// Graph forward (training path).
    virtual ForwardVar forward(const autodiff::Var& x) const = 0;

    /// Value-only forward; adds per-row log|det J| into `log_det`.
    virtual linalg::Matrix forward_values(
        const linalg::Matrix& x, std::vector<double>& log_det) const = 0;

    /// Exact inverse; adds the *forward* log|det J| at the reconstructed
    /// input into `log_det`.
    virtual linalg::Matrix inverse_values(
        const linalg::Matrix& y, std::vector<double>& log_det) const = 0;

    virtual std::vector<autodiff::Var> params() const = 0;
    virtual void set_trainable(bool trainable) = 0;

    /// Multiplies the layer's log-scale bound by `factor` (in (0, 1] to
    /// tighten). Layers without a scale bound ignore it; the stage
    /// rollback-retry path uses this to rein in exploding couplings.
    virtual void scale_cap_multiply(double /*factor*/) {}

    /// Current log-scale bound; 0 for layers without one. Retry-tightened
    /// caps are run state, so checkpoint snapshots persist them alongside
    /// the parameters (a resumed run must clamp exactly as the original
    /// would have).
    virtual double scale_cap() const noexcept { return 0.0; }
    /// Restores a captured bound; no-op for layers without one.
    virtual void set_scale_cap(double /*cap*/) {}
};

}  // namespace nofis::flow
