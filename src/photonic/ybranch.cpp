#include "photonic/ybranch.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace nofis::photonic {

YBranchModel::YBranchModel(Params p) : p_(p) {
    if (p_.segments < 2)
        throw std::invalid_argument("YBranchModel: need >= 2 segments");
    if (p_.num_modes == 0)
        throw std::invalid_argument("YBranchModel: need >= 1 mode");
    if (!std::isfinite(p_.length_um) || p_.length_um <= 0.0)
        throw std::invalid_argument(
            "YBranchModel: length_um must be finite and > 0");
    if (!std::isfinite(p_.lambda_um) || p_.lambda_um <= 0.0)
        throw std::invalid_argument(
            "YBranchModel: lambda_um must be finite and > 0");
    w_nominal_.resize(p_.segments);
    for (std::size_t s = 0; s < p_.segments; ++s)
        w_nominal_[s] =
            p_.w_in_um + (p_.w_out_um - p_.w_in_um) * taper_fraction(s);
}

double YBranchModel::taper_fraction(std::size_t s) const {
    const double dz = p_.length_um / static_cast<double>(p_.segments);
    const double z = (static_cast<double>(s) + 0.5) * dz;
    return z / p_.length_um;
}

const YBranchModel::Tables& YBranchModel::tables() const {
    std::call_once(tables_once_, [this] {
        const std::size_t segs = p_.segments;
        const double pi = std::numbers::pi;
        tables_.sin_basis.resize(p_.num_modes * segs);
        tables_.mode_weight.resize(p_.num_modes);
        for (std::size_t k = 0; k < p_.num_modes; ++k) {
            tables_.mode_weight[k] =
                p_.deform_amp_um / (1.0 + 0.25 * static_cast<double>(k));
            for (std::size_t s = 0; s < segs; ++s)
                tables_.sin_basis[k * segs + s] = std::sin(
                    pi * static_cast<double>(k + 1) * taper_fraction(s));
        }
        const double dz = p_.length_um / static_cast<double>(segs);
        tables_.leak2 = std::exp(-(p_.loss2_per_um * dz));
    });
    return tables_;
}

void YBranchModel::deformation(std::span<const double> x,
                               std::span<double> dw) const {
    const Tables& tab = tables();
    const std::size_t segs = p_.segments;
    std::fill(dw.begin(), dw.end(), 0.0);
    // Mode-outer so the inner loop vectorises across segments; each dw[s]
    // still accumulates (c_k·x_k)·sin in k order from 0.0.
    for (std::size_t k = 0; k < p_.num_modes; ++k) {
        const double a = tab.mode_weight[k] * x[k];
        const double* basis = tab.sin_basis.data() + k * segs;
        for (std::size_t s = 0; s < segs; ++s) dw[s] += a * basis[s];
    }
}

std::vector<double> YBranchModel::width_profile(
    std::span<const double> x) const {
    if (x.size() != p_.num_modes)
        throw std::invalid_argument("YBranchModel: dimension mismatch");
    std::vector<double> w(p_.segments);
    deformation(x, w);
    for (std::size_t s = 0; s < w.size(); ++s) w[s] += w_nominal_[s];
    return w;
}

double YBranchModel::transmission(std::span<const double> x) const {
    const std::vector<double> w = width_profile(x);
    const double dz = p_.length_um / static_cast<double>(p_.segments);
    const double k0 = 2.0 * std::numbers::pi / p_.lambda_um;
    const double leak2 = tables().leak2;

    // Two-mode complex amplitudes; all power launched in the fundamental,
    // scaled by the nominal splitter ratio of the arm under study.
    std::complex<double> a1(p_.nominal_split, 0.0);
    std::complex<double> a2(0.0, 0.0);

    double w_prev = w.front();
    for (std::size_t s = 0; s < p_.segments; ++s) {
        const double dwidth = w[s] - w_nominal_[s];
        const double slope = (w[s] - w_prev) / dz;
        w_prev = w[s];

        // Width-dependent propagation constants.
        const double beta1 = k0 * (p_.n_eff1 + p_.dn_dw1 * dwidth);
        const double beta2 = k0 * (p_.n_eff2 + p_.dn_dw2 * dwidth);

        // Sidewall-slope-driven inter-mode rotation.
        const double theta = p_.couple_strength * slope * dz;
        const double c = std::cos(theta);
        const double sn = std::sin(theta);
        const std::complex<double> b1 = c * a1 - sn * a2;
        const std::complex<double> b2 = sn * a1 + c * a2;

        // Propagation phase + loss. The higher mode leaks continuously; the
        // fundamental sees weak scattering growing with |deformation|.
        const double loss1 = p_.loss1_scatter * dwidth * dwidth * dz;
        a1 = b1 * std::polar(std::exp(-loss1), beta1 * dz);
        a2 = b2 * std::polar(leak2, beta2 * dz);
    }
    return std::norm(a1) + 0.15 * std::norm(a2);
}

}  // namespace nofis::photonic
