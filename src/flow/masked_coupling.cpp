#include "flow/masked_coupling.hpp"

#include <stdexcept>
#include <string>

#include "autodiff/ops.hpp"
#include "parallel/thread_pool.hpp"

namespace nofis::flow {

MaskedCoupling::MaskedCoupling(const char* name, std::size_t dim,
                               bool pass_first_half,
                               std::vector<std::size_t> hidden,
                               std::size_t out_per_coord,
                               std::size_t fork_min_elems, rng::Engine& eng)
    : name_(name),
      dim_(dim),
      fork_min_elems_(fork_min_elems),
      net_([&] {
          // Validated before the MLP draws its initial weights from `eng`.
          if (dim < 2)
              throw std::invalid_argument(std::string(name) +
                                          ": dim must be >= 2");
          const std::size_t half = (dim + 1) / 2;
          const std::size_t na = pass_first_half ? half : dim - half;
          std::vector<std::size_t> layout{na};
          layout.insert(layout.end(), hidden.begin(), hidden.end());
          layout.push_back(out_per_coord * (dim - na));
          return nn::MLP(std::move(layout), nn::Activation::kTanh, eng,
                         /*out_gain=*/0.0);
      }()) {
    const std::size_t half = (dim + 1) / 2;
    for (std::size_t i = 0; i < dim; ++i)
        ((i < half) == pass_first_half ? idx_a_ : idx_b_).push_back(i);
}

FlowLayer::ForwardVar MaskedCoupling::forward(const autodiff::Var& x) const {
    using namespace autodiff;
    if (x.cols() != dim_)
        throw std::invalid_argument(std::string(name_) +
                                    "::forward: dim mismatch");
    Var xa = select_cols(x, idx_a_);
    Var xb = select_cols(x, idx_b_);
    Var h = net_.forward(xa);
    auto [yb, log_det] = transform(xb, h);
    Var y = combine_cols(xa, idx_a_, yb, idx_b_, dim_);
    return {y, log_det};
}

linalg::Matrix MaskedCoupling::forward_values(
    const linalg::Matrix& x, std::vector<double>& log_det) const {
    return apply_values(x, log_det, /*inverse=*/false, "::forward_values");
}

linalg::Matrix MaskedCoupling::inverse_values(
    const linalg::Matrix& y, std::vector<double>& log_det) const {
    return apply_values(y, log_det, /*inverse=*/true, "::inverse_values");
}

linalg::Matrix MaskedCoupling::apply_values(const linalg::Matrix& in,
                                            std::vector<double>& log_det,
                                            bool inverse,
                                            const char* op) const {
    if (in.cols() != dim_)
        throw std::invalid_argument(std::string(name_) + op +
                                    ": dim mismatch");
    if (log_det.size() != in.rows())
        throw std::invalid_argument(std::string(name_) + op +
                                    ": log_det size mismatch");
    const linalg::Matrix h = net_.predict(in.select_cols(idx_a_));
    linalg::Matrix out = in;
    auto row_range = [&](std::size_t r0, std::size_t r1) {
        transform_rows(inverse, in.data(), h.data(), out.data(),
                       log_det.data(), r0, r1);
    };
    // Rows are independent with disjoint writes, so tiling never changes a
    // bit (§8.2); the threshold only decides whether the fork pays off.
    if (in.rows() * idx_b_.size() >= fork_min_elems_)
        parallel::parallel_for(in.rows(), row_range);
    else
        row_range(0, in.rows());
    return out;
}

}  // namespace nofis::flow
