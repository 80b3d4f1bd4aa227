#include "nn/trainer.hpp"

#include <numeric>

#include "nn/loss.hpp"

namespace nofis::nn {

namespace {

using autodiff::Var;

/// Shared mini-batch loop; `make_loss` maps (batch_x, batch_y) -> scalar Var.
template <typename LossFn>
TrainHistory fit_impl(MLP& model, const linalg::Matrix& x,
                      const linalg::Matrix& y, const TrainConfig& cfg,
                      rng::Engine& eng, LossFn&& make_loss) {
    const std::size_t n = x.rows();
    Adam opt(model.params(), cfg.learning_rate);
    TrainHistory hist;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        // Fisher–Yates shuffle.
        for (std::size_t i = n; i-- > 1;)
            std::swap(order[i], order[eng.uniform_index(i + 1)]);

        double epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start < n; start += cfg.batch_size) {
            const std::size_t end = std::min(n, start + cfg.batch_size);
            linalg::Matrix bx(end - start, x.cols());
            linalg::Matrix by(end - start, y.cols());
            for (std::size_t i = start; i < end; ++i) {
                const std::size_t src = order[i];
                for (std::size_t c = 0; c < x.cols(); ++c)
                    bx(i - start, c) = x(src, c);
                for (std::size_t c = 0; c < y.cols(); ++c)
                    by(i - start, c) = y(src, c);
            }
            opt.zero_grad();
            Var loss = make_loss(model, bx, by);
            loss.backward();
            opt.clip_grad_norm(cfg.grad_clip);
            opt.step();
            epoch_loss += loss.value()(0, 0);
            ++batches;
        }
        hist.epoch_loss.push_back(epoch_loss /
                                  std::max<std::size_t>(batches, 1));
    }
    return hist;
}

}  // namespace

TrainHistory fit_regression(MLP& model, const linalg::Matrix& x,
                            const linalg::Matrix& y, const TrainConfig& cfg,
                            rng::Engine& eng) {
    return fit_impl(model, x, y, cfg, eng,
                    [](MLP& m, const linalg::Matrix& bx,
                       const linalg::Matrix& by) {
                        return mse_loss(m.forward(Var(bx)), by);
                    });
}

TrainHistory fit_classifier(MLP& model, const linalg::Matrix& x,
                            const linalg::Matrix& labels,
                            const TrainConfig& cfg, rng::Engine& eng) {
    return fit_impl(model, x, labels, cfg, eng,
                    [](MLP& m, const linalg::Matrix& bx,
                       const linalg::Matrix& by) {
                        return bce_with_logits_loss(m.forward(Var(bx)), by);
                    });
}

}  // namespace nofis::nn
