#pragma once

#include <span>
#include <vector>

#include "flow/layer.hpp"
#include "nn/mlp.hpp"

namespace nofis::flow {

/// Shared scaffolding of the masked coupling families (affine, additive,
/// rational-quadratic spline).
///
/// The D coordinates split into an identity ("pass") set A and a
/// transformed set B; one conditioner MLP maps x_A to `out_per_coord`
/// raw parameters per transformed coordinate, and the family's transform
/// maps x_B elementwise given them:
///     y_A = x_A,    y_B = T(x_B; net(x_A)).
/// The Jacobian is triangular, so log|det J| is the family's per-row
/// transform log-det. Because y_A == x_A the conditioner sees the same
/// input in both directions, which is what makes the inverse exact.
///
/// This base owns the mask, the conditioner and every pass over it; a
/// family supplies only its transform, as a graph op for training and as a
/// row kernel for the value paths. The conditioner's output layer is
/// zero-initialised so, with each family's parameter mapping, a fresh
/// layer is the identity map.
class MaskedCoupling : public FlowLayer {
public:
    std::size_t dim() const noexcept override { return dim_; }

    /// Differentiable forward: y and the per-sample log|det J| (n x 1) as
    /// graph nodes.
    ForwardVar forward(const autodiff::Var& x) const final;

    /// Value-only forward (no graph — sampling and the IS estimate);
    /// `log_det` accumulates per-row log|det J|.
    linalg::Matrix forward_values(const linalg::Matrix& x,
                                  std::vector<double>& log_det) const final;

    /// Exact inverse; `log_det` accumulates the *forward* log|det J| at the
    /// reconstructed input (so callers can form log q(x) directly).
    linalg::Matrix inverse_values(const linalg::Matrix& y,
                                  std::vector<double>& log_det) const final;

    std::vector<autodiff::Var> params() const override {
        return net_.params();
    }
    void set_trainable(bool trainable) override {
        net_.set_trainable(trainable);
    }

    std::span<const std::size_t> pass_indices() const noexcept {
        return idx_a_;
    }
    std::span<const std::size_t> transform_indices() const noexcept {
        return idx_b_;
    }

protected:
    /// `pass_first_half`: if true the first ⌈D/2⌉ coordinates pass through.
    /// The conditioner is {|A|, hidden..., out_per_coord·|B|}. Value passes
    /// over at least `fork_min_elems` transformed elements (rows x |B|) tile
    /// over the pool; smaller ones run inline. `name` prefixes errors.
    MaskedCoupling(const char* name, std::size_t dim, bool pass_first_half,
                   std::vector<std::size_t> hidden, std::size_t out_per_coord,
                   std::size_t fork_min_elems, rng::Engine& eng);

    /// Graph transform of the transformed half: given x_B (n x |B|) and the
    /// raw conditioner output h, returns y_B and the per-sample log-det.
    virtual ForwardVar transform(const autodiff::Var& xb,
                                 const autodiff::Var& h) const = 0;

    /// Value transform for rows [r0, r1) of full-width `in`/`out` (n x D,
    /// pass columns of `out` already hold `in`'s values): forward, or its
    /// exact inverse, adding the forward log-det into `log_det`.
    virtual void transform_rows(bool inverse, const double* in,
                                const double* h, double* out, double* log_det,
                                std::size_t r0, std::size_t r1) const = 0;

private:
    linalg::Matrix apply_values(const linalg::Matrix& in,
                                std::vector<double>& log_det, bool inverse,
                                const char* op) const;

    const char* name_;
    std::size_t dim_;
    std::size_t fork_min_elems_;
    std::vector<std::size_t> idx_a_;  // pass-through coordinates
    std::vector<std::size_t> idx_b_;  // transformed coordinates
    nn::MLP net_;
};

}  // namespace nofis::flow
