#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "circuit/ac.hpp"
#include "circuit/charge_pump.hpp"
#include "circuit/mna.hpp"
#include "circuit/opamp.hpp"
#include "linalg/lu.hpp"

namespace {

using namespace nofis::circuit;

/// DC operating point of a linear netlist: solves G x = b on its MNA system,
/// x = [node voltages 1..N | voltage-source branch currents].
std::vector<double> dc_solve(const Netlist& net) {
    const MnaSystem sys(net);
    return nofis::linalg::solve(sys.g_matrix(), sys.rhs());
}

double dc_voltage(const Netlist& net, NodeId node) {
    return dc_solve(net)[node - 1];
}

// ---------------------------------------------------------------------------
// DC analysis against hand-solved circuits
// ---------------------------------------------------------------------------

TEST(Dc, VoltageDivider) {
    // 10V across R1=1k, R2=3k -> v(mid) = 7.5V.
    Netlist net(2);
    net.add(VoltageSource{1, 0, 10.0});
    net.add(Resistor{1, 2, 1000.0});
    net.add(Resistor{2, 0, 3000.0});
    const auto x = dc_solve(net);
    EXPECT_NEAR(x[1], 7.5, 1e-12);
    EXPECT_NEAR(x[0], 10.0, 1e-12);
    // Source current: 10V / 4k = 2.5 mA flowing out of the + terminal,
    // i.e. -2.5 mA into it under MNA sign convention.
    EXPECT_NEAR(x[MnaSystem(net).branch_index(0)], -2.5e-3, 1e-12);
}

TEST(Dc, CurrentSourceIntoResistor) {
    // 1 mA into 2k to ground -> 2 V.
    Netlist net(1);
    net.add(CurrentSource{0, 1, 1e-3});
    net.add(Resistor{1, 0, 2000.0});
    EXPECT_NEAR(dc_voltage(net, 1), 2.0, 1e-12);
}

TEST(Dc, VccsInvertingAmplifier) {
    // v1 = 1 V drives gm = 1 mS into 10k load: v2 = -gm*R*v1 = -10 V.
    Netlist net(2);
    net.add(VoltageSource{1, 0, 1.0});
    net.add(Vccs{2, 0, 1, 0, 1e-3});
    net.add(Resistor{2, 0, 10000.0});
    EXPECT_NEAR(dc_voltage(net, 2), -10.0, 1e-10);
}

TEST(Dc, WheatstoneBridgeBalanced) {
    // Balanced bridge: equal arms -> zero differential voltage.
    Netlist net(3);
    net.add(VoltageSource{1, 0, 5.0});
    net.add(Resistor{1, 2, 1000.0});
    net.add(Resistor{2, 0, 1000.0});
    net.add(Resistor{1, 3, 2000.0});
    net.add(Resistor{3, 0, 2000.0});
    EXPECT_NEAR(dc_voltage(net, 2) - dc_voltage(net, 3), 0.0, 1e-12);
}

TEST(Dc, SuperpositionOfTwoSources) {
    // Two current sources into a resistor network obey superposition.
    Netlist both(2);
    both.add(CurrentSource{0, 1, 1e-3});
    both.add(CurrentSource{0, 2, 2e-3});
    both.add(Resistor{1, 2, 1000.0});
    both.add(Resistor{2, 0, 1000.0});
    both.add(Resistor{1, 0, 1000.0});
    const double v_both = dc_voltage(both, 1);

    Netlist only1(2);
    only1.add(CurrentSource{0, 1, 1e-3});
    only1.add(Resistor{1, 2, 1000.0});
    only1.add(Resistor{2, 0, 1000.0});
    only1.add(Resistor{1, 0, 1000.0});
    Netlist only2(2);
    only2.add(CurrentSource{0, 2, 2e-3});
    only2.add(Resistor{1, 2, 1000.0});
    only2.add(Resistor{2, 0, 1000.0});
    only2.add(Resistor{1, 0, 1000.0});
    EXPECT_NEAR(v_both, dc_voltage(only1, 1) + dc_voltage(only2, 1), 1e-12);
}

TEST(Netlist, ValidatesElements) {
    Netlist net(2);
    EXPECT_THROW(net.add(Resistor{1, 5, 100.0}), std::invalid_argument);
    EXPECT_THROW(net.add(Resistor{1, 0, -5.0}), std::invalid_argument);
    EXPECT_THROW(net.add(Capacitor{1, 0, 0.0}), std::invalid_argument);
    EXPECT_NO_THROW(net.add(Resistor{1, 2, 100.0}));
}

// ---------------------------------------------------------------------------
// AC analysis
// ---------------------------------------------------------------------------

TEST(Ac, RcLowPassPole) {
    // R = 1k, C = 1uF -> f_3dB = 1/(2π RC) ≈ 159.15 Hz.
    Netlist net(2);
    net.add(VoltageSource{1, 0, 1.0});
    net.add(Resistor{1, 2, 1000.0});
    net.add(Capacitor{2, 0, 1e-6});
    const double f3db = 1.0 / (2.0 * std::numbers::pi * 1e-3);
    // At the pole the magnitude is 1/sqrt(2).
    AcSolution at_pole(net, f3db);
    EXPECT_NEAR(std::abs(at_pole.voltage(2)), 1.0 / std::sqrt(2.0), 1e-6);
    // Far below the pole it passes, far above it rolls off ~20 dB/decade.
    AcSolution low(net, f3db / 100.0);
    EXPECT_NEAR(std::abs(low.voltage(2)), 1.0, 1e-4);
    AcSolution high(net, f3db * 100.0);
    EXPECT_NEAR(std::abs(high.voltage(2)), 0.01, 1e-3);
}

TEST(Ac, PhaseOfRcAtPoleIsMinus45Degrees) {
    Netlist net(2);
    net.add(VoltageSource{1, 0, 1.0});
    net.add(Resistor{1, 2, 1000.0});
    net.add(Capacitor{2, 0, 1e-6});
    const double f3db = 1.0 / (2.0 * std::numbers::pi * 1e-3);
    const auto v = AcSolution(net, f3db).voltage(2);
    EXPECT_NEAR(std::arg(v) * 180.0 / std::numbers::pi, -45.0, 0.01);
}

TEST(Ac, DcLimitMatchesDcAnalysis) {
    Netlist net(2);
    net.add(VoltageSource{1, 0, 2.0});
    net.add(Resistor{1, 2, 1000.0});
    net.add(Resistor{2, 0, 1000.0});
    net.add(Capacitor{2, 0, 1e-9});
    AcSolution ac(net, 1e-3);  // essentially DC
    EXPECT_NEAR(std::abs(ac.voltage(2)), dc_voltage(net, 2), 1e-9);
}

TEST(Ac, MagnitudeSweepIsMonotoneForLowPass) {
    Netlist net(2);
    net.add(VoltageSource{1, 0, 1.0});
    net.add(Resistor{1, 2, 1000.0});
    net.add(Capacitor{2, 0, 1e-6});
    double prev = std::abs(AcSolution(net, 10.0).voltage(2));
    for (const double f : {100.0, 1000.0, 10000.0}) {
        const double mag = std::abs(AcSolution(net, f).voltage(2));
        EXPECT_LT(mag, prev);
        prev = mag;
    }
}

// ---------------------------------------------------------------------------
// Opamp macromodel
// ---------------------------------------------------------------------------

TEST(Opamp, NominalGainNearDesignTarget) {
    OpampModel amp;
    const std::vector<double> nominal(5, 0.0);
    const double gain = amp.gain_db(nominal);
    // Designed around 81.4 dB (feedforward perturbs it slightly).
    EXPECT_NEAR(gain, 81.4, 0.5);
}

TEST(Opamp, GainIncreasesWithGmWidths) {
    OpampModel amp;
    std::vector<double> up = {1.0, 1.0, 1.0, 0.0, 0.0};
    std::vector<double> down = {-1.0, -1.0, -1.0, 0.0, 0.0};
    EXPECT_GT(amp.gain_db(up), amp.gain_db(down));
}

TEST(Opamp, GainDecreasesWithLoadConductanceWidths) {
    OpampModel amp;
    std::vector<double> up = {0.0, 0.0, 0.0, 1.0, 1.0};
    std::vector<double> down = {0.0, 0.0, 0.0, -1.0, -1.0};
    EXPECT_LT(amp.gain_db(up), amp.gain_db(down));
}

TEST(Opamp, GainRollsOffAtHighFrequency) {
    OpampModel::Params p;
    p.freq_hz = 10.0;
    OpampModel low(p);
    p.freq_hz = 1e6;
    OpampModel high(p);
    const std::vector<double> nominal(5, 0.0);
    EXPECT_LT(high.gain_db(nominal), low.gain_db(nominal) - 20.0);
}

TEST(Opamp, RejectsWrongDimension) {
    OpampModel amp;
    EXPECT_THROW(amp.gain_db(std::vector<double>(4)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Charge pump behavioural model
// ---------------------------------------------------------------------------

TEST(ChargePump, NominalMismatchIsSmall) {
    ChargePumpModel cp;
    const std::vector<double> nominal(16, 0.0);
    // Only λ asymmetry remains at nominal; far below the 370 µA limit.
    EXPECT_LT(cp.mismatch_amps(nominal), 50e-6);
}

TEST(ChargePump, OutputVoltageNearMidRailNominally) {
    ChargePumpModel cp;
    const std::vector<double> nominal(16, 0.0);
    EXPECT_NEAR(cp.output_voltage(nominal), 0.9, 0.2);
}

TEST(ChargePump, KclHoldsAtSolvedPoint) {
    // Small perturbation keeps the output inside the rails, where the
    // bisection equilibrium makes |i_up - i_dn| equal the load current.
    // (Large imbalances clamp at a rail — the saturated failure mode — and
    // the identity intentionally no longer holds there.)
    ChargePumpModel cp;
    std::vector<double> x(16, 0.0);
    x[1] = 0.1;
    x[7] = -0.1;
    const double v = cp.output_voltage(x);
    ASSERT_GT(v, 0.05);
    ASSERT_LT(v, 1.75);
    const double mismatch = cp.mismatch_amps(x);
    const double load = std::abs(v - 0.9) / 200e3;
    EXPECT_NEAR(mismatch, load, 1e-8);
}

TEST(ChargePump, ThresholdShiftUnbalancesBranches) {
    ChargePumpModel cp;
    std::vector<double> vt_up_high(16, 0.0);
    vt_up_high[1] = 2.0;  // output mirror PMOS threshold up -> weaker UP
    std::vector<double> nominal(16, 0.0);
    EXPECT_GT(cp.mismatch_amps(vt_up_high), cp.mismatch_amps(nominal));
}

TEST(ChargePump, MismatchSymmetricUnderBranchSwap) {
    // Perturbing UP mirror up should mirror perturbing DN mirror up in
    // magnitude (approximately — device parameters differ slightly).
    ChargePumpModel cp;
    std::vector<double> up(16, 0.0), dn(16, 0.0);
    up[1] = 1.0;
    dn[7] = 1.0;
    const double mu = cp.mismatch_amps(up);
    const double md = cp.mismatch_amps(dn);
    EXPECT_GT(mu, 1e-6);
    EXPECT_GT(md, 1e-6);
    EXPECT_NEAR(mu / md, 1.0, 0.75);
}

TEST(ChargePump, RejectsWrongDimension) {
    ChargePumpModel cp;
    EXPECT_THROW(cp.mismatch_amps(std::vector<double>(5)),
                 std::invalid_argument);
}

}  // namespace
