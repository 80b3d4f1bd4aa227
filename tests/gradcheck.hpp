#pragma once

// Finite-difference oracle for the reverse-mode gradients, header-only: only
// the tests include it.

#include <algorithm>
#include <cmath>
#include <functional>

#include "autodiff/var.hpp"

namespace nofis::autodiff {

/// Result of a finite-difference gradient verification.
struct GradCheckResult {
    double max_abs_error = 0.0;   // max |analytic - numeric|
    double max_rel_error = 0.0;   // max scaled error
    bool passed = false;
};

/// Verifies the reverse-mode gradient of `f` with respect to `input` by
/// central differences.
///
/// `f` must build a fresh graph from the Var it is given and return a scalar
/// (1x1) Var. `input` supplies the evaluation point; every element is
/// perturbed by ±eps. Passing tolerance is on the *scaled* error
/// |a - n| / max(1, |a|, |n|) <= tol.
inline GradCheckResult grad_check(
    const std::function<Var(const Var&)>& f, const linalg::Matrix& input,
    double eps = 1e-5, double tol = 1e-6) {
    // Analytic gradient.
    Var x(input, /*requires_grad=*/true);
    Var out = f(x);
    out.backward();
    const linalg::Matrix analytic = x.grad();

    GradCheckResult res;
    linalg::Matrix probe = input;
    for (std::size_t i = 0; i < probe.size(); ++i) {
        const double orig = probe.flat()[i];
        probe.flat()[i] = orig + eps;
        const double fp = f(Var(probe)).value()(0, 0);
        probe.flat()[i] = orig - eps;
        const double fm = f(Var(probe)).value()(0, 0);
        probe.flat()[i] = orig;

        const double numeric = (fp - fm) / (2.0 * eps);
        const double a = analytic.flat()[i];
        const double abs_err = std::abs(a - numeric);
        const double rel_err =
            abs_err / std::max({1.0, std::abs(a), std::abs(numeric)});
        res.max_abs_error = std::max(res.max_abs_error, abs_err);
        res.max_rel_error = std::max(res.max_rel_error, rel_err);
    }
    res.passed = res.max_rel_error <= tol;
    return res;
}

}  // namespace nofis::autodiff
