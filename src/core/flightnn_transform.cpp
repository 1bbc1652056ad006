#include "core/flightnn_transform.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/thread_pool.hpp"
#include "support/check.hpp"

namespace flightnn::core {

namespace {

// Filters are reduced in fixed-size blocks: each block's partial sum is
// computed entirely by whichever thread owns it, then the partials are
// combined serially in block order. The block size depends only on this
// constant -- never on the thread count -- so regularizer losses and
// threshold gradients are bit-identical at any thread count.
constexpr std::int64_t kFilterBlock = 16;

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// d/dx sigmoid(x / T) evaluated at x, including the 1/T factor.
double sigmoid_prime(double x, double temperature) {
  const double s = sigmoid(x / temperature);
  return s * (1.0 - s) / temperature;
}

std::int64_t filter_count(const tensor::Tensor& w, bool per_layer) {
  FLIGHTNN_CHECK(w.shape().rank() >= 1 && w.shape()[0] > 0,
                 "FLightNNTransform: weights must be filter-major, got ",
                 w.shape().to_string());
  return per_layer ? 1 : w.shape()[0];
}

}  // namespace

FLightNNTransform::FLightNNTransform(FLightNNConfig config)
    : config_(std::move(config)),
      thresholds_(static_cast<std::size_t>(config_.k_max), config_.threshold_init),
      threshold_grads_(static_cast<std::size_t>(config_.k_max), 0.0F),
      threshold_adam_(static_cast<std::size_t>(config_.k_max)) {
  FLIGHTNN_CHECK(config_.k_max >= 1, "FLightNNConfig: k_max must be >= 1, got ",
                 config_.k_max);
  FLIGHTNN_CHECK(config_.temperature > 0.0F,
                 "FLightNNConfig: temperature must be > 0, got ",
                 config_.temperature);
  quant::check_exponent_window(config_.pow2, "FLightNNConfig");
  quant::check_term_sum(config_.k_max, config_.pow2, "FLightNNConfig");
  if (config_.lambdas.empty()) config_.lambdas = {0.0F};
  // Extend lambdas to k_max levels by repeating the last coefficient.
  while (static_cast<int>(config_.lambdas.size()) < config_.k_max) {
    config_.lambdas.push_back(config_.lambdas.back());
  }
}

int FLightNNTransform::quantize_filter(const float* filter, std::int64_t count,
                                       float* out, FilterTrace* trace) const {
  // One learned threshold per quantization level (Sec. 4.1): if these fall
  // out of step, the early-exit comparison below reads garbage.
  FLIGHTNN_DCHECK(
      static_cast<int>(thresholds_.size()) == config_.k_max,
      "FLightNNTransform: ", thresholds_.size(), " thresholds for k_max ",
      config_.k_max);
  int k = 0;
  std::vector<float> residual(filter, filter + count);
  // Each level's terms add into `out`, or into a sink when only k (and the
  // trace) is wanted; a traced level peels into its own zeroed row, so the
  // row holds that level's terms.
  std::vector<float> sink;
  if (out != nullptr) {
    std::fill_n(out, count, 0.0F);
  } else if (trace == nullptr) {
    sink.resize(static_cast<std::size_t>(count));
  }
  for (int j = 0; j < config_.k_max; ++j) {
    double norm_sq = 0.0;
    for (std::int64_t e = 0; e < count; ++e) {
      norm_sq += static_cast<double>(residual[static_cast<std::size_t>(e)]) *
                 residual[static_cast<std::size_t>(e)];
    }
    const double norm = std::sqrt(norm_sq);
    if (norm <= thresholds_[static_cast<std::size_t>(j)]) break;  // Fig. 2 early exit

    if (trace == nullptr) {
      quant::peel_level(residual.data(), out != nullptr ? out : sink.data(),
                        count, config_.pow2);
    } else {
      // Backward needs the full per-level history: residual snapshot, the
      // rounded terms, and the residual norm.
      trace->residuals.push_back(residual);
      trace->norms.push_back(norm);
      std::vector<float> rounded(static_cast<std::size_t>(count));
      quant::peel_level(residual.data(), rounded.data(), count, config_.pow2);
      if (out != nullptr) {
        for (std::int64_t e = 0; e < count; ++e) {
          out[e] += rounded[static_cast<std::size_t>(e)];
        }
      }
      trace->rounded.push_back(std::move(rounded));
    }
    ++k;
  }
  if (trace != nullptr) trace->k = k;
  // A filter may fire at most k_max levels, and the per-level histories must
  // stay in lockstep with the fired-level count.
  FLIGHTNN_DCHECK(k <= config_.k_max, "FLightNNTransform: filter fired ", k,
                  " levels, k_max ", config_.k_max);
  FLIGHTNN_DCHECK(
      trace == nullptr ||
          (trace->residuals.size() == static_cast<std::size_t>(k) &&
           trace->norms.size() == static_cast<std::size_t>(k) &&
           trace->rounded.size() == static_cast<std::size_t>(k)),
      "FLightNNTransform: trace vectors out of step with k=", k);
  return k;
}

tensor::Tensor FLightNNTransform::forward(const tensor::Tensor& w) {
  const std::int64_t filters = filter_count(w, config_.per_layer);
  const std::int64_t per_filter = w.numel() / filters;
  tensor::Tensor out(w.shape());
  std::vector<double> level0_norms(static_cast<std::size_t>(filters));
  // Each filter owns its output slice and norm entry outright, so the
  // partition is irrelevant to the result.
  const double filter_ns = static_cast<double>(per_filter) *
                           static_cast<double>(config_.k_max) * 15.0;
  runtime::parallel_for(
      0, filters, 1, runtime::CostHint{filter_ns},
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const float* filter = w.data() + i * per_filter;
          double norm_sq = 0.0;
          for (std::int64_t e = 0; e < per_filter; ++e) {
            norm_sq += static_cast<double>(filter[e]) * filter[e];
          }
          level0_norms[static_cast<std::size_t>(i)] = std::sqrt(norm_sq);
          quantize_filter(filter, per_filter, out.data() + i * per_filter,
                          nullptr);
        }
      });
  // Refresh the keep-alive cap: t_0 may prune at most max_prune_fraction of
  // the filters, i.e. it must stay below that quantile of the norms.
  if (config_.max_prune_fraction < 1.0F && filters > 0) {
    std::sort(level0_norms.begin(), level0_norms.end());
    const auto index = static_cast<std::size_t>(
        static_cast<double>(filters - 1) * config_.max_prune_fraction);
    level0_cap_ = static_cast<float>(level0_norms[index]);
  }
  return out;
}

void FLightNNTransform::backward(const tensor::Tensor& w,
                                 const tensor::Tensor& grad_wq,
                                 tensor::Tensor& grad_w) {
  FLIGHTNN_CHECK_SHAPE(grad_wq.shape(), w.shape(), "FLightNNTransform::backward");
  // Straight-through for the weights themselves.
  grad_w += grad_wq;

  // Threshold gradients: for each filter and each threshold level j, run the
  // recursion of Sec. 4.2 with STE on R(.) and hard indicator values
  // (g_l = 1 on fired levels):
  //   dr_j     = 0
  //   dg_l     = sigma'(||r_l|| - t_l) * ((r_l / ||r_l||) . dr_l - [l == j])
  //   dQ/dt_j += dg_l * R(r_l) + dr_l          (accumulated over levels l)
  //   dr_{l+1} = -dg_l * R(r_l)                 (since g_l = 1)
  const std::int64_t filters = filter_count(w, config_.per_layer);
  const std::int64_t per_filter = w.numel() / filters;
  const double temperature = config_.temperature;
  const auto k_max = static_cast<std::size_t>(config_.k_max);

  // Per-block double partials for the threshold gradients (see kFilterBlock).
  const std::int64_t blocks = (filters + kFilterBlock - 1) / kFilterBlock;
  std::vector<double> partials(static_cast<std::size_t>(blocks) * k_max, 0.0);
  const double block_ns = static_cast<double>(kFilterBlock) *
                          static_cast<double>(per_filter) *
                          static_cast<double>(config_.k_max) *
                          static_cast<double>(config_.k_max) * 10.0;
  runtime::parallel_for(
      0, blocks, 1, runtime::CostHint{block_ns},
      [&](std::int64_t blk_begin, std::int64_t blk_end) {
        for (std::int64_t blk = blk_begin; blk < blk_end; ++blk) {
          double* block_grads = partials.data() +
                                static_cast<std::size_t>(blk) * k_max;
          const std::int64_t i_end =
              std::min(filters, (blk + 1) * kFilterBlock);
          for (std::int64_t i = blk * kFilterBlock; i < i_end; ++i) {
            FilterTrace trace;
            quantize_filter(w.data() + i * per_filter, per_filter, nullptr,
                            &trace);
            if (trace.k == 0) continue;
            const float* grad_filter = grad_wq.data() + i * per_filter;

            for (int j = 0; j < trace.k; ++j) {
              // dr: derivative of the level-l residual w.r.t. t_j; zero until
              // l = j.
              std::vector<double> dr(static_cast<std::size_t>(per_filter), 0.0);
              double grad_tj = 0.0;
              for (int l = j; l < trace.k; ++l) {
                const auto& r = trace.residuals[static_cast<std::size_t>(l)];
                const auto& rr = trace.rounded[static_cast<std::size_t>(l)];
                const double norm = trace.norms[static_cast<std::size_t>(l)];
                // (r_l / ||r_l||) . dr_l
                double dnorm = 0.0;
                if (norm > 0.0) {
                  for (std::int64_t e = 0; e < per_filter; ++e) {
                    dnorm += static_cast<double>(r[static_cast<std::size_t>(e)]) *
                             dr[static_cast<std::size_t>(e)];
                  }
                  dnorm /= norm;
                }
                const double sp = sigmoid_prime(
                    norm - thresholds_[static_cast<std::size_t>(l)], temperature);
                const double dg = sp * (dnorm - (l == j ? 1.0 : 0.0));
                // Accumulate (dL/dwq) . (dQ/dt_j) for this level and update dr.
                for (std::int64_t e = 0; e < per_filter; ++e) {
                  const double dq = dg * rr[static_cast<std::size_t>(e)] +
                                    dr[static_cast<std::size_t>(e)];
                  grad_tj += static_cast<double>(grad_filter[e]) * dq;
                  dr[static_cast<std::size_t>(e)] =
                      -dg * rr[static_cast<std::size_t>(e)];
                }
              }
              block_grads[j] += grad_tj;
            }
          }
        }
      });
  // Serial combine in block order: the only cross-thread reduction, and its
  // order is fixed by the block index.
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t j = 0; j < k_max; ++j) {
      threshold_grads_[j] += static_cast<float>(
          partials[static_cast<std::size_t>(blk) * k_max + j]);
    }
  }
}

double FLightNNTransform::regularization(const tensor::Tensor& w,
                                         tensor::Tensor* grad_w) {
  // L_reg = sum_j lambda_j sum_i ||r_{i,j}||_2 over the *defined* residual
  // levels (r_{i,0} = w_i always; deeper residuals only exist for levels the
  // filter actually reached). Gradient treats the quantized part of each
  // residual as locally constant (R(.) is piecewise constant), so
  // d||r_{i,j}||/dw_i = r_{i,j} / ||r_{i,j}||.
  const std::int64_t filters = filter_count(w, config_.per_layer);
  const std::int64_t per_filter = w.numel() / filters;
  // Gradient slices are filter-private; the loss reduces through per-block
  // double partials combined serially in block order (see kFilterBlock).
  const std::int64_t blocks = (filters + kFilterBlock - 1) / kFilterBlock;
  std::vector<double> partials(static_cast<std::size_t>(blocks), 0.0);
  const double block_ns = static_cast<double>(kFilterBlock) *
                          static_cast<double>(per_filter) *
                          static_cast<double>(config_.k_max) * 15.0;
  runtime::parallel_for(
      0, blocks, 1, runtime::CostHint{block_ns},
      [&](std::int64_t blk_begin, std::int64_t blk_end) {
        for (std::int64_t blk = blk_begin; blk < blk_end; ++blk) {
          double block_loss = 0.0;
          const std::int64_t i_end =
              std::min(filters, (blk + 1) * kFilterBlock);
          // The peel's sums are not needed: only the residuals shape the
          // loss.
          std::vector<float> residual(static_cast<std::size_t>(per_filter));
          std::vector<float> sink(static_cast<std::size_t>(per_filter));
          for (std::int64_t i = blk * kFilterBlock; i < i_end; ++i) {
            const float* filter = w.data() + i * per_filter;
            residual.assign(filter, filter + per_filter);
            for (int j = 0; j < config_.k_max; ++j) {
              double norm_sq = 0.0;
              for (float v : residual) norm_sq += static_cast<double>(v) * v;
              const double norm = std::sqrt(norm_sq);
              const double lambda =
                  config_.lambdas[static_cast<std::size_t>(j)];
              block_loss += lambda * norm;
              if (grad_w != nullptr && norm > 0.0) {
                float* g = grad_w->data() + i * per_filter;
                const double scale = lambda / norm;
                for (std::int64_t e = 0; e < per_filter; ++e) {
                  g[e] += static_cast<float>(
                      scale * residual[static_cast<std::size_t>(e)]);
                }
              }
              // Peel to the next residual level regardless of the threshold:
              // the regularizer shapes residuals even for levels that did not
              // fire, which is what pulls ||r_{i,j}|| below t_j over training.
              quant::peel_level(residual.data(), sink.data(), per_filter,
                                config_.pow2);
            }
          }
          partials[static_cast<std::size_t>(blk)] = block_loss;
        }
      });
  double loss = 0.0;
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    loss += partials[static_cast<std::size_t>(blk)];
  }
  return loss;
}

void FLightNNTransform::step_internal(float learning_rate) {
  threshold_adam_.step(thresholds_, threshold_grads_, learning_rate);
  // Negative thresholds are equivalent to 0 for the early-exit comparison
  // (norms are non-negative) but would make the sigmoid relaxation drift;
  // keep them in the meaningful range.
  for (float& t : thresholds_) {
    if (t < 0.0F) t = 0.0F;
  }
  // Keep-alive guard on whole-filter pruning (see FLightNNConfig).
  if (!thresholds_.empty() && thresholds_[0] > level0_cap_) {
    thresholds_[0] = level0_cap_;
  }
  zero_internal_grads();
}

void FLightNNTransform::zero_internal_grads() {
  std::fill(threshold_grads_.begin(), threshold_grads_.end(), 0.0F);
}

std::string FLightNNTransform::describe() const {
  return "flightnn[kmax=" + std::to_string(config_.k_max) + "]";
}

std::vector<int> FLightNNTransform::filter_k(const tensor::Tensor& w) const {
  const std::int64_t filters = filter_count(w, config_.per_layer);
  const std::int64_t per_filter = w.numel() / filters;
  std::vector<int> ks(static_cast<std::size_t>(filters));
  for (std::int64_t i = 0; i < filters; ++i) {
    ks[static_cast<std::size_t>(i)] =
        quantize_filter(w.data() + i * per_filter, per_filter, nullptr,
                        nullptr);
  }
  return ks;
}

double FLightNNTransform::mean_k(const tensor::Tensor& w) const {
  const auto ks = filter_k(w);
  double sum = 0.0;
  for (int k : ks) sum += k;
  return ks.empty() ? 0.0 : sum / static_cast<double>(ks.size());
}

void FLightNNTransform::set_thresholds(std::vector<float> thresholds) {
  FLIGHTNN_CHECK(static_cast<int>(thresholds.size()) == config_.k_max,
                 "set_thresholds: expected ", config_.k_max, " values, got ",
                 thresholds.size());
  thresholds_ = std::move(thresholds);
}

}  // namespace flightnn::core
