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
    return propagate(x, {});
}

double YBranchModel::propagate(std::span<const double> x,
                               std::span<SegmentState> trace) const {
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
        const std::complex<double> u1 =
            std::polar(std::exp(-loss1), beta1 * dz);
        const std::complex<double> u2 = std::polar(leak2, beta2 * dz);
        a1 = b1 * u1;
        a2 = b2 * u2;
        if (!trace.empty()) trace[s] = {b1, b2, u1, u2, c, sn, dwidth};
    }
    return std::norm(a1) + 0.15 * std::norm(a2);
}

double YBranchModel::transmission_grad(std::span<const double> x,
                                       std::span<double> grad) const {
    if (grad.size() != p_.num_modes)
        throw std::invalid_argument("YBranchModel: gradient size mismatch");
    const std::size_t segs = p_.segments;
    std::vector<SegmentState> trace(segs);
    const double t = propagate(x, trace);

    const double dz = p_.length_um / static_cast<double>(segs);
    const double k0 = 2.0 * std::numbers::pi / p_.lambda_um;
    // ∂φ/∂dwidth of the two propagation phases φ = β·dz, and ∂θ/∂w[s]:
    // θ = couple_strength·(w[s] − w[s−1]), so w[s] and w[s−1] share it.
    const double dphi1 = k0 * p_.dn_dw1 * dz;
    const double dphi2 = k0 * p_.dn_dw2 * dz;
    const double dtheta_dw = p_.couple_strength;

    // Complex adjoints g = ∂T/∂Re a + i·∂T/∂Im a of the amplitudes leaving
    // the current segment, seeded from T = |a1|² + 0.15·|a2|². For a real
    // parameter p, ∂T/∂p = Re(conj(g)·∂a/∂p).
    const SegmentState& last = trace.back();
    std::complex<double> g1 = 2.0 * (last.b1 * last.u1);
    std::complex<double> g2 = 0.3 * (last.b2 * last.u2);
    std::vector<double> dt_dw(segs, 0.0);
    for (std::size_t s = segs; s-- > 0;) {
        const SegmentState& st = trace[s];
        // Propagation a = b·u: ∂a/∂φ = i·a, ∂a1/∂loss1 = −a1, g_b = g·conj(u).
        const std::complex<double> ga1 = std::conj(g1) * (st.b1 * st.u1);
        const std::complex<double> ga2 = std::conj(g2) * (st.b2 * st.u2);
        const double dt_dphi1 = -ga1.imag();
        const double dt_dloss1 = -ga1.real();
        const double dt_dphi2 = -ga2.imag();
        const std::complex<double> gb1 = g1 * std::conj(st.u1);
        const std::complex<double> gb2 = g2 * std::conj(st.u2);

        // Rotation b1 = c·a1 − s·a2, b2 = s·a1 + c·a2: ∂b1/∂θ = −b2,
        // ∂b2/∂θ = b1, and the adjoint goes back through the transpose.
        const double dt_dtheta = -(std::conj(gb1) * st.b2).real() +
                                 (std::conj(gb2) * st.b1).real();
        g1 = st.cos_theta * gb1 + st.sin_theta * gb2;
        g2 = st.cos_theta * gb2 - st.sin_theta * gb1;

        // loss1 = loss1_scatter·dwidth²·dz.
        dt_dw[s] += dt_dphi1 * dphi1 + dt_dphi2 * dphi2 +
                    dt_dloss1 * (2.0 * p_.loss1_scatter * st.dwidth * dz);
        // Segment 0's slope is w[0] − w[0], identically 0.
        if (s > 0) {
            dt_dw[s] += dt_dtheta * dtheta_dw;
            dt_dw[s - 1] -= dt_dtheta * dtheta_dw;
        }
    }

    // w[s] = w_nominal[s] + Σ_k c_k·x_k·sin_basis[k,s].
    const Tables& tab = tables();
    for (std::size_t k = 0; k < p_.num_modes; ++k) {
        const double* basis = tab.sin_basis.data() + k * segs;
        double acc = 0.0;
        for (std::size_t s = 0; s < segs; ++s) acc += basis[s] * dt_dw[s];
        grad[k] = tab.mode_weight[k] * acc;
    }
    return t;
}

}  // namespace nofis::photonic
