#pragma once

#include <unordered_map>
#include <vector>

#include "autodiff/var.hpp"

namespace nofis::nn {

/// Portable snapshot of an optimizer's internal state (step counter plus
/// per-parameter moment/velocity slots in a documented order). Exporting
/// and re-importing it into a freshly constructed optimizer over the same
/// parameter list makes the next step() bitwise identical to never having
/// torn the optimizer down — the checkpoint/resume subsystem persists this
/// for mid-stage snapshots.
struct OptimizerState {
    long step_count = 0;
    /// Adam: first moments m then second moments v (2P matrices for P
    /// params); SGD: momentum velocities (P matrices); base: empty.
    std::vector<linalg::Matrix> slots;
};

/// Base optimizer: owns handles to the trainable parameters and updates
/// their values in place from accumulated gradients.
///
/// Frozen parameters (`requires_grad() == false`) are skipped by `step` —
/// this is how the NOFIS stage-m training leaves blocks 1..(m-1) untouched
/// while still letting them participate in the forward pass.
class Optimizer {
public:
    explicit Optimizer(std::vector<autodiff::Var> params)
        : params_(std::move(params)) {}
    virtual ~Optimizer() = default;

    void zero_grad();
    virtual void step() = 0;

    /// Clips the global L2 norm of all (unfrozen) gradients to `max_norm`.
    /// Returns the pre-clip norm. Call between backward() and step().
    double clip_grad_norm(double max_norm);

    /// State capture for checkpoint/resume; see OptimizerState. The base
    /// optimizer is stateless, so the default round-trips an empty state.
    virtual OptimizerState export_state() const { return {}; }
    /// Restores a state exported from an optimizer over the same parameter
    /// list; throws std::runtime_error on a layout mismatch.
    virtual void import_state(const OptimizerState& state);

    std::span<const autodiff::Var> params() const noexcept { return params_; }

protected:
    std::vector<autodiff::Var> params_;
};

/// Pre-clip gradient-norm threshold above which a training loop should
/// treat the step as divergent. Global-norm clipping puts the clip limit and
/// the norm on the same scale, so it is `explode_factor * limit`.
double grad_explode_limit(double limit, double explode_factor) noexcept;

/// Plain SGD with optional momentum.
class Sgd final : public Optimizer {
public:
    Sgd(std::vector<autodiff::Var> params, double lr, double momentum = 0.0);
    void step() override;

    OptimizerState export_state() const override;
    void import_state(const OptimizerState& state) override;

private:
    double lr_;
    double momentum_;
    std::vector<linalg::Matrix> velocity_;
};

/// Adam (Kingma & Ba) — the optimizer used for all flow and surrogate
/// training in this repo, mirroring the paper's PyTorch setup.
class Adam final : public Optimizer {
public:
    Adam(std::vector<autodiff::Var> params, double lr, double beta1 = 0.9,
         double beta2 = 0.999, double eps = 1e-8);
    void step() override;

    double learning_rate() const noexcept { return lr_; }
    void set_learning_rate(double lr) noexcept { lr_ = lr; }

    OptimizerState export_state() const override;
    void import_state(const OptimizerState& state) override;

private:
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    long t_ = 0;
    std::vector<linalg::Matrix> m_;
    std::vector<linalg::Matrix> v_;
};

}  // namespace nofis::nn
