#include <gtest/gtest.h>

#include <cmath>

#include "gradcheck.hpp"
#include "autodiff/ops.hpp"
#include "rng/normal.hpp"

namespace {

using namespace nofis::autodiff;
using nofis::linalg::Matrix;
using nofis::rng::Engine;

Matrix random_matrix(std::uint64_t seed, std::size_t r, std::size_t c) {
    Engine eng(seed);
    return nofis::rng::standard_normal_matrix(eng, r, c);
}

// ---------------------------------------------------------------------------
// Basic graph mechanics
// ---------------------------------------------------------------------------

TEST(Var, BackwardRequiresScalar) {
    Var x(Matrix(2, 2), true);
    EXPECT_THROW(x.backward(), std::logic_error);
}

TEST(Var, SimpleChainGradient) {
    // f = sum(3 * x) -> df/dx = 3.
    Var x(Matrix{{1.0, 2.0}}, true);
    Var f = sum(scale(x, 3.0));
    f.backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(x.grad()(0, 1), 3.0);
}

TEST(Var, GradientAccumulatesAcrossBackwardCalls) {
    Var x(Matrix{{1.0}}, true);
    sum(scale(x, 2.0)).backward();
    sum(scale(x, 2.0)).backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 4.0);
    x.zero_grad();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 0.0);
}

TEST(Var, DiamondGraphSumsBothPaths) {
    // f = sum(x + x) -> df/dx = 2 (the node is reused).
    Var x(Matrix{{1.0, 1.0}}, true);
    Var f = sum(add(x, x));
    f.backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 2.0);
}

TEST(Var, NoGradThroughConstLeaves) {
    Var x(Matrix{{1.0}}, false);
    Var y(Matrix{{2.0}}, true);
    Var f = sum(mul(x, y));
    f.backward();
    EXPECT_DOUBLE_EQ(y.grad()(0, 0), 1.0);
    EXPECT_TRUE(x.grad().empty());
}

TEST(Var, FrozenSubgraphIsPruned) {
    // Result of ops on non-grad leaves has requires_grad == false.
    Var x(Matrix{{1.0}}, false);
    Var h = tanh_v(scale(x, 2.0));
    EXPECT_FALSE(h.requires_grad());
}

// ---------------------------------------------------------------------------
// Finite-difference verification of every op (parameterized over shapes)
// ---------------------------------------------------------------------------

struct Shape {
    std::size_t rows;
    std::size_t cols;
};

class OpGradCheck : public ::testing::TestWithParam<Shape> {
protected:
    Matrix input() const {
        return random_matrix(17 + GetParam().rows * 31 + GetParam().cols,
                             GetParam().rows, GetParam().cols);
    }
};

TEST_P(OpGradCheck, Tanh) {
    const auto res = grad_check(
        [](const Var& x) { return sum(tanh_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Sigmoid) {
    const auto res = grad_check(
        [](const Var& x) { return sum(sigmoid_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Exp) {
    const auto res = grad_check([](const Var& x) { return sum(exp_v(x)); },
                                input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Softplus) {
    const auto res = grad_check(
        [](const Var& x) { return sum(softplus_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, Square) {
    const auto res = grad_check(
        [](const Var& x) { return sum(square_v(x)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, LogOfPositive) {
    Matrix in = input().map([](double v) { return std::abs(v) + 0.5; });
    const auto res = grad_check([](const Var& x) { return sum(log_v(x)); },
                                in);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, LeakyRelu) {
    // Keep inputs away from the kink where FD is invalid.
    Matrix in = input().map(
        [](double v) { return std::abs(v) < 0.05 ? v + 0.2 : v; });
    const auto res = grad_check(
        [](const Var& x) { return sum(leaky_relu_v(x)); }, in);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MeanAndScale) {
    const auto res = grad_check(
        [](const Var& x) { return mean(scale(x, -2.5)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, RowSumsComposition) {
    const auto res = grad_check(
        [](const Var& x) { return sum(square_v(row_sums(x))); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MatmulLeft) {
    const Matrix rhs = random_matrix(5, GetParam().cols, 3);
    const auto res = grad_check(
        [&rhs](const Var& x) { return sum(matmul(x, Var(rhs))); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MatmulRightThroughBoth) {
    // Gradient w.r.t. the right operand via a quadratic composition.
    const Matrix lhs = random_matrix(6, 3, GetParam().rows);
    const auto res = grad_check(
        [&lhs](const Var& x) {
            Var l(lhs, false);
            return sum(square_v(matmul(l, x)));
        },
        input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MulElementwise) {
    const Matrix other = random_matrix(7, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&other](const Var& x) { return sum(mul(x, Var(other))); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, MulBothOperandsSameLeaf) {
    const auto res = grad_check([](const Var& x) { return sum(mul(x, x)); },
                                input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, SubAndNeg) {
    const Matrix other = random_matrix(9, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&other](const Var& x) { return sum(sub(neg(x), Var(other))); },
        input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, HadamardConst) {
    const Matrix c = random_matrix(10, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&c](const Var& x) { return sum(hadamard_const(x, c)); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST_P(OpGradCheck, DotConstant) {
    const Matrix c = random_matrix(11, GetParam().rows, GetParam().cols);
    const auto res = grad_check(
        [&c](const Var& x) { return dot_constant(x, c); }, input());
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OpGradCheck,
    ::testing::Values(Shape{1, 1}, Shape{1, 4}, Shape{3, 1}, Shape{2, 3},
                      Shape{5, 5}));

// ---------------------------------------------------------------------------
// Structural ops
// ---------------------------------------------------------------------------

TEST(StructuralOps, AddBiasGradcheckBothOperands) {
    const Matrix x0 = random_matrix(21, 4, 3);
    const Matrix b0 = random_matrix(22, 1, 3);
    auto res = grad_check(
        [&b0](const Var& x) { return sum(square_v(add_bias(x, Var(b0, false)))); },
        x0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
    res = grad_check(
        [&x0](const Var& b) { return sum(square_v(add_bias(Var(x0), b))); },
        b0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(StructuralOps, SelectColsGradScattersBack) {
    Var x(Matrix{{1.0, 2.0, 3.0}}, true);
    const std::size_t idx[] = {2, 0};
    Var sel = select_cols(x, idx);
    EXPECT_DOUBLE_EQ(sel.value()(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(sel.value()(0, 1), 1.0);
    sum(mul(sel, sel)).backward();
    EXPECT_DOUBLE_EQ(x.grad()(0, 0), 2.0);   // 2*x0
    EXPECT_DOUBLE_EQ(x.grad()(0, 1), 0.0);   // unselected
    EXPECT_DOUBLE_EQ(x.grad()(0, 2), 6.0);   // 2*x2
}

TEST(StructuralOps, CombineColsRoundTrip) {
    Var a(Matrix{{1.0, 2.0}}, true);
    Var b(Matrix{{3.0}}, true);
    const std::size_t ia[] = {0, 2};
    const std::size_t ib[] = {1};
    Var y = combine_cols(a, ia, b, ib, 3);
    EXPECT_DOUBLE_EQ(y.value()(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(y.value()(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(y.value()(0, 2), 2.0);
    sum(scale(y, 2.0)).backward();
    EXPECT_DOUBLE_EQ(a.grad()(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(b.grad()(0, 0), 2.0);
}

TEST(StructuralOps, CombineColsValidatesPartition) {
    Var a(Matrix(1, 2), true);
    Var b(Matrix(1, 2), true);
    const std::size_t ia[] = {0, 1};
    const std::size_t ib[] = {2, 3};
    EXPECT_NO_THROW(combine_cols(a, ia, b, ib, 4));
    EXPECT_THROW(combine_cols(a, ia, b, ib, 5), std::invalid_argument);
}

TEST(StructuralOps, ShapeMismatchThrows) {
    Var a(Matrix(2, 3), true);
    Var b(Matrix(3, 2), true);
    EXPECT_THROW(add(a, b), std::invalid_argument);
    EXPECT_THROW(mul(a, b), std::invalid_argument);
    EXPECT_THROW(matmul(a, a), std::invalid_argument);
    EXPECT_THROW(add_bias(a, Var(Matrix(1, 2))), std::invalid_argument);
    EXPECT_THROW(dot_constant(a, Matrix(1, 1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rational-quadratic spline op
// ---------------------------------------------------------------------------

TEST(RqsForward, GradChecksInput) {
    // 3 transformed dims, 4 bins → 13 raw params per dim. Random raw params
    // exercise non-uniform bins and knot slopes; gradcheck covers both the
    // y and log-det outputs.
    const std::size_t bins = 4;
    const Matrix h0 = random_matrix(31, 5, 3 * (3 * bins + 1));
    Matrix xb0 = random_matrix(32, 5, 3);
    // Keep inputs away from ±tail_bound (derivative kink) and bin knots are
    // random so clashes are measure-zero.
    for (double& v : xb0.flat()) v *= 0.8;
    const auto res = grad_check(
        [&h0, bins](const Var& xb) {
            auto f = rqs_forward(xb, Var(h0, false), bins, 3.0);
            return add(sum(square_v(f.y)), sum(f.log_det));
        },
        xb0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(RqsForward, GradChecksParams) {
    // Perturbing h moves every raw-parameter group (widths, heights,
    // derivatives) through softmax/softplus into the spline.
    const std::size_t bins = 4;
    Matrix xb0 = random_matrix(33, 5, 2);
    for (double& v : xb0.flat()) v *= 0.8;
    const Matrix h0 = random_matrix(34, 5, 2 * (3 * bins + 1));
    const auto res = grad_check(
        [&xb0, bins](const Var& h) {
            auto f = rqs_forward(Var(xb0, false), h, bins, 3.0);
            return add(sum(square_v(f.y)), sum(f.log_det));
        },
        h0);
    EXPECT_TRUE(res.passed) << res.max_rel_error;
}

TEST(RqsForward, TailInputsHaveUnitGradientAndZeroParamGrad) {
    // Outside the interval the map is the identity: dy/dx = 1 and no
    // gradient flows into the spline parameters.
    const std::size_t bins = 4;
    Var xb(Matrix{{5.0, -7.0}}, true);
    Var h(random_matrix(35, 1, 2 * (3 * bins + 1)), true);
    auto f = rqs_forward(xb, h, bins, 3.0);
    EXPECT_DOUBLE_EQ(f.y.value()(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(f.y.value()(0, 1), -7.0);
    EXPECT_DOUBLE_EQ(f.log_det.value()(0, 0), 0.0);
    sum(f.y).backward();
    EXPECT_DOUBLE_EQ(xb.grad()(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(xb.grad()(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(h.grad().max_abs(), 0.0);
}

TEST(RqsForward, ValidatesShapes) {
    Var xb(Matrix(2, 3), true);
    Var h(Matrix(2, 3 * 13), true);
    EXPECT_NO_THROW(rqs_forward(xb, h, 4, 3.0));
    EXPECT_THROW(rqs_forward(xb, Var(Matrix(2, 5)), 4, 3.0),
                 std::invalid_argument);
    EXPECT_THROW(rqs_forward(Var(Matrix(3, 3)), h, 4, 3.0),
                 std::invalid_argument);
    EXPECT_THROW(rqs_forward(xb, h, 0, 3.0), std::invalid_argument);
}

TEST(GradCheckHarness, DetectsWrongGradient) {
    // A deliberately wrong "gradient" (treating d(x^2) as 1) must fail.
    const auto res = grad_check(
        [](const Var& x) {
            // sum(x ⊙ stop_grad(x)): gradient through one factor only,
            // giving x instead of 2x.
            return sum(hadamard_const(x, x.value()));
        },
        Matrix{{1.0, -2.0}});
    EXPECT_FALSE(res.passed);
}

}  // namespace
