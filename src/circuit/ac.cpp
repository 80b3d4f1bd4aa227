#include "circuit/ac.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "linalg/lu.hpp"

namespace nofis::circuit {

AcSolution::AcSolution(const Netlist& netlist, double freq_hz)
    : nodes_(netlist.num_nodes()) {
    const MnaSystem sys(netlist);
    const double omega = 2.0 * std::numbers::pi * freq_hz;
    const std::size_t n = sys.dim();
    std::vector<std::complex<double>> a(n * n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a[r * n + c] = {sys.g_matrix()(r, c),
                            omega * sys.c_matrix()(r, c)};
    std::vector<std::complex<double>> b(n);
    for (std::size_t r = 0; r < n; ++r) b[r] = sys.rhs()[r];
    x_ = linalg::ComplexLu(std::move(a), n).solve(b);
}

std::complex<double> AcSolution::voltage(NodeId n) const {
    if (n == 0) return {0.0, 0.0};
    if (n > nodes_) throw std::out_of_range("AcSolution::voltage");
    return x_[n - 1];
}

double AcSolution::gain_db(NodeId out, NodeId in) const {
    const double num = std::abs(voltage(out));
    const double den = std::abs(voltage(in));
    if (den == 0.0) throw std::domain_error("AcSolution::gain_db: |v_in| = 0");
    return 20.0 * std::log10(num / den);
}

}  // namespace nofis::circuit
