#pragma once

#include <complex>

#include "circuit/mna.hpp"

namespace nofis::circuit {

/// Small-signal AC analysis: solves (G + jωC) x = b at one frequency with
/// the netlist's sources as the (real) excitation phasors.
class AcSolution {
public:
    AcSolution(const Netlist& netlist, double freq_hz);

    std::complex<double> voltage(NodeId n) const;

    /// |v(out)| / |v(in)| in dB.
    double gain_db(NodeId out, NodeId in) const;

private:
    std::size_t nodes_;
    std::vector<std::complex<double>> x_;
};

}  // namespace nofis::circuit
