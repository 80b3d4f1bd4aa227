#pragma once

#include <complex>
#include <mutex>
#include <span>
#include <vector>

namespace nofis::photonic {

/// Scalar coupled-mode transfer-matrix model of a photonic Y-branch splitter
/// under boundary (sidewall) deformation — the paper's test case #9.
///
/// The branch taper of length L is discretised into segments. The local
/// waveguide width is w(z) = w_nom(z) + Σ_k c_k x_k sin(kπz/L): a 26-mode
/// Fourier parameterisation of the line-edge deformation, driven by the
/// standard-normal vector x. Within each segment a two-mode amplitude
/// vector (fundamental, first higher-order/radiative) propagates with
///  - width-dependent propagation constants β₁(w), β₂(w),
///  - slope-driven inter-mode coupling θ ∝ dδw/dz (asymmetric walls scatter
///    power into the higher mode),
///  - width-dependent loss on the higher mode (it leaks into the slab) and
///    a small fundamental-mode scattering loss when the width deviates.
/// The figure of merit is the fundamental-mode power transmission
/// T = |a₁(L)|², and the failure event is T < 0.32.
class YBranchModel {
public:
    struct Params {
        std::size_t num_modes = 26;      ///< deformation dimensions
        std::size_t segments = 64;
        double length_um = 20.0;
        double w_in_um = 0.5;            ///< input width
        double w_out_um = 1.2;           ///< output width
        double lambda_um = 1.55;
        double n_eff1 = 2.44;            ///< fundamental effective index
        double n_eff2 = 2.31;            ///< higher-order effective index
        double dn_dw1 = 0.30;            ///< d n_eff1 / d w [1/µm]
        double dn_dw2 = 0.55;            ///< d n_eff2 / d w [1/µm]
        double deform_amp_um = 0.0272;    ///< per-mode deformation amplitude
        double couple_strength = 1.9;    ///< slope-to-coupling factor
        double loss2_per_um = 0.28;      ///< higher-mode leakage loss
        double loss1_scatter = 0.055;    ///< fundamental scattering factor
        double nominal_split = 0.70;     ///< amplitude kept in the arm
    };

    YBranchModel() : YBranchModel(Params()) {}
    explicit YBranchModel(Params p);

    /// Power transmission T(x) in [0, 1]; x.size() == num_modes. Safe for
    /// concurrent calls, including the first ones on a fresh model.
    double transmission(std::span<const double> x) const;

    /// T(x), with dT/dx written to `grad` (grad.size() == num_modes), from
    /// one forward pass and one reverse (adjoint) sweep through the
    /// transfer chain. The returned value equals transmission(x) bit for
    /// bit. Safe for concurrent calls, like transmission().
    double transmission_grad(std::span<const double> x,
                             std::span<double> grad) const;

    /// Deformed width profile at segment centres (for tests / plots).
    std::vector<double> width_profile(std::span<const double> x) const;

    std::size_t num_modes() const noexcept { return p_.num_modes; }

private:
    /// Everything an evaluation reads that does not depend on x. Built on
    /// the first evaluation, not in the constructor: callers often hold
    /// many models they never evaluate.
    struct Tables {
        std::vector<double> sin_basis;  ///< [k·segments+s] = sin(π(k+1)z_s/L)
        std::vector<double> mode_weight;  ///< c_k
        double leak2 = 0.0;  ///< exp(−loss2·dz), per segment
    };

    const Tables& tables() const;

    /// What the reverse sweep reads of segment s: the amplitudes after the
    /// mode rotation, the two propagators and the rotation itself.
    struct SegmentState {
        std::complex<double> b1, b2;  ///< post-rotation amplitudes
        std::complex<double> u1;      ///< e^{−loss1 + iβ₁dz}
        std::complex<double> u2;      ///< leak2·e^{iβ₂dz}
        double cos_theta = 0.0;
        double sin_theta = 0.0;
        double dwidth = 0.0;  ///< w[s] − w_nominal[s]
    };

    /// The transfer chain: propagates the launched amplitudes through every
    /// segment and returns T. Records each segment's state into `trace`
    /// when it is non-empty (trace.size() == segments).
    double propagate(std::span<const double> x,
                     std::span<SegmentState> trace) const;

    /// z_s / L for the centre of segment s.
    double taper_fraction(std::size_t s) const;

    /// dw[s] = Σ_k c_k x_k sin(π(k+1)z_s/L), summed in k order.
    void deformation(std::span<const double> x, std::span<double> dw) const;

    Params p_;
    std::vector<double> w_nominal_;  ///< nominal width at centres
    mutable std::once_flag tables_once_;
    mutable Tables tables_;
};

}  // namespace nofis::photonic
