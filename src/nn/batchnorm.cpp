#include "nn/batchnorm.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/simd.hpp"

namespace flightnn::nn {

namespace {

// Per-plane reduction and normalization bodies, multiversioned so the
// autovectorizer can emit AVX2 code in the fast clone (no FMA: GCC's
// target("avx2") does not enable it).
//
// The channel statistics reduce through four fixed double lanes combined in
// a fixed order -- the algorithm depends only on the plane length, never on
// the thread count (the channel loop is serial anyway), so results are
// deterministic. Lanes are doubles: the compiler may not reassociate FP
// sums itself, but four independent accumulators vectorize as-is.
FLIGHTNN_SIMD_CLONES
double sum_plane(const float* p, std::int64_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += p[i];
    a1 += p[i + 1];
    a2 += p[i + 2];
    a3 += p[i + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) acc += p[i];
  return acc;
}

FLIGHTNN_SIMD_CLONES
double sum_sq_dev_plane(const float* p, std::int64_t n, double mean) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = p[i] - mean, d1 = p[i + 1] - mean;
    const double d2 = p[i + 2] - mean, d3 = p[i + 3] - mean;
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; i < n; ++i) {
    const double d = p[i] - mean;
    acc += d * d;
  }
  return acc;
}

// sum(dy) and sum(dy * x_hat) for the backward statistics, fused in one
// sweep over the two arrays.
FLIGHTNN_SIMD_CLONES
void dot_stats_plane(const float* dy, const float* x_hat, std::int64_t n,
                     double* sum_dy, double* sum_dy_xhat) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += dy[i];
    s1 += dy[i + 1];
    s2 += dy[i + 2];
    s3 += dy[i + 3];
    d0 += static_cast<double>(dy[i]) * x_hat[i];
    d1 += static_cast<double>(dy[i + 1]) * x_hat[i + 1];
    d2 += static_cast<double>(dy[i + 2]) * x_hat[i + 2];
    d3 += static_cast<double>(dy[i + 3]) * x_hat[i + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  double d = (d0 + d1) + (d2 + d3);
  for (; i < n; ++i) {
    s += dy[i];
    d += static_cast<double>(dy[i]) * x_hat[i];
  }
  *sum_dy += s;
  *sum_dy_xhat += d;
}

// Per-plane normalization bodies.
FLIGHTNN_SIMD_CLONES
void bn_normalize_train(const float* in, float* x_hat, float* out,
                        std::int64_t n, float mean, float inv_std, float g,
                        float b) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = in[i] - mean;
    x_hat[i] = d * inv_std;
    out[i] = g * d * inv_std + b;
  }
}

FLIGHTNN_SIMD_CLONES
void bn_normalize_eval(const float* in, float* out, std::int64_t n, float mean,
                       float inv_std, float g, float b) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = g * (in[i] - mean) * inv_std + b;
  }
}

FLIGHTNN_SIMD_CLONES
void bn_backward_dx(const float* dy, const float* x_hat, float* dx,
                    std::int64_t n, float scale, float count, float sum_dy,
                    float sum_dy_xhat) {
  for (std::int64_t i = 0; i < n; ++i) {
    dx[i] = scale * (count * dy[i] - sum_dy - x_hat[i] * sum_dy_xhat);
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_(tensor::Tensor(tensor::Shape{channels}, 1.0F), "bn.gamma",
             /*apply_decay=*/false),
      beta_(tensor::Tensor(tensor::Shape{channels}), "bn.beta",
            /*apply_decay=*/false),
      running_mean_(tensor::Shape{channels}),
      running_var_(tensor::Shape{channels}, 1.0F) {
  FLIGHTNN_CHECK(channels > 0, "BatchNorm2d: channels must be > 0, got ",
                 channels);
  FLIGHTNN_CHECK(epsilon > 0.0F, "BatchNorm2d: epsilon must be > 0, got ",
                 epsilon);
}

tensor::Tensor BatchNorm2d::forward(const tensor::Tensor& input, bool training) {
  const auto& s = input.shape();
  FLIGHTNN_CHECK(s.rank() == 4 && s[1] == channels_,
                 "BatchNorm2d::forward: expected [N, ", channels_,
                 ", H, W] input, got ", s.to_string());
  const std::int64_t batch = s[0], hw = s[2] * s[3];
  const std::int64_t plane = hw;
  const std::int64_t image = channels_ * hw;
  const double count = static_cast<double>(batch * hw);

  tensor::Tensor output = tensor::Tensor::uninitialized(s);
  batch_mean_.assign(static_cast<std::size_t>(channels_), 0.0F);
  batch_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0F);
  if (training) normalized_cache_ = tensor::Tensor::uninitialized(s);

  for (std::int64_t c = 0; c < channels_; ++c) {
    double mean = 0.0, var = 0.0;
    if (training) {
      for (std::int64_t n = 0; n < batch; ++n) {
        mean += sum_plane(input.data() + n * image + c * plane, hw);
      }
      mean /= count;
      for (std::int64_t n = 0; n < batch; ++n) {
        var += sum_sq_dev_plane(input.data() + n * image + c * plane, hw, mean);
      }
      var /= count;
      running_mean_[c] = (1.0F - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0F - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var);
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + epsilon_);
    batch_mean_[static_cast<std::size_t>(c)] = static_cast<float>(mean);
    batch_inv_std_[static_cast<std::size_t>(c)] = inv_std;
    const float g = gamma_.value[c], b = beta_.value[c];
    const float mean_f = static_cast<float>(mean);
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* in_p = input.data() + n * image + c * plane;
      float* out_p = output.data() + n * image + c * plane;
      if (training) {
        // One pass produces both the output and the normalized values the
        // backward pass needs (no separate x_hat sweep, no input copy).
        float* x_hat = normalized_cache_.data() + n * image + c * plane;
        bn_normalize_train(in_p, x_hat, out_p, hw, mean_f, inv_std, g, b);
      } else {
        bn_normalize_eval(in_p, out_p, hw, mean_f, inv_std, g, b);
      }
    }
  }
  return output;
}

tensor::Tensor BatchNorm2d::backward(const tensor::Tensor& grad_output) {
  FLIGHTNN_CHECK(!normalized_cache_.empty(),
                 "BatchNorm2d::backward before forward(training=true)");
  FLIGHTNN_CHECK_SHAPE(grad_output.shape(), normalized_cache_.shape(),
                       "BatchNorm2d::backward");
  const auto& s = normalized_cache_.shape();
  const std::int64_t batch = s[0], hw = s[2] * s[3];
  const std::int64_t plane = hw, image = channels_ * hw;
  const double count = static_cast<double>(batch * hw);

  tensor::Tensor grad_input = tensor::Tensor::uninitialized(s);
  for (std::int64_t c = 0; c < channels_; ++c) {
    // Standard batch-norm backward:
    // dx = (gamma * inv_std / m) * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t n = 0; n < batch; ++n) {
      dot_stats_plane(grad_output.data() + n * image + c * plane,
                      normalized_cache_.data() + n * image + c * plane, hw,
                      &sum_dy, &sum_dy_xhat);
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);

    const float g = gamma_.value[c];
    const float inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
    const float scale = g * inv_std / static_cast<float>(count);
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* dy = grad_output.data() + n * image + c * plane;
      const float* x_hat = normalized_cache_.data() + n * image + c * plane;
      float* dx = grad_input.data() + n * image + c * plane;
      bn_backward_dx(dy, x_hat, dx, hw, scale, static_cast<float>(count),
                     static_cast<float>(sum_dy),
                     static_cast<float>(sum_dy_xhat));
    }
  }
  return grad_input;
}

std::vector<Parameter*> BatchNorm2d::parameters() { return {&gamma_, &beta_}; }

}  // namespace flightnn::nn
