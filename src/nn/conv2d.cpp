#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/conv_lowering.hpp"
#include "core/gemm.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::nn {

namespace {
// He-normal initialization, the conventional choice for (leaky) ReLU nets.
tensor::Tensor he_init(tensor::Shape shape, std::int64_t fan_in,
                       support::Rng& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  return tensor::Tensor::randn(std::move(shape), rng, 0.0F, stddev);
}

// Memory budget for the lowered patch matrix of the batched GEMM path. The
// batch is processed in image groups sized so patch * group * out_hw floats
// stay under the budget; the group size is a pure function of the layer
// shapes -- never of the thread count -- so the (serial, ascending) group
// accumulation order of the weight gradient is fixed and the result is
// bit-identical at any thread count.
constexpr std::int64_t kGroupColsBudgetBytes = std::int64_t{32} << 20;

std::int64_t cols_group(std::int64_t batch, std::int64_t patch,
                        std::int64_t out_hw) {
  const std::int64_t fit =
      kGroupColsBudgetBytes /
      (patch * out_hw * static_cast<std::int64_t>(sizeof(float)));
  return std::clamp<std::int64_t>(fit, 1, batch);
}

// Cost hints (ns per image) for the memory-bound lowering loops around the
// batched GEMMs; order of magnitude only, they gate the pool for tiny
// layers (runtime::CostHint).
double lowering_ns(std::int64_t patch, std::int64_t out_hw) {
  return static_cast<double>(patch) * static_cast<double>(out_hw) * 0.3;
}
double copy_ns(std::int64_t numel) { return static_cast<double>(numel) * 0.2; }

// GEMM-output-to-NCHW scatter with fused bias add (multiversioned: the
// AVX2 clone moves eight floats per instruction).
FLIGHTNN_SIMD_CLONES
void scatter_bias(const float* src, float* dst, std::int64_t n, float b) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] + b;
}
}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool with_bias, support::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(with_bias),
      weight_(he_init(tensor::Shape{out_channels, in_channels, kernel, kernel},
                      in_channels * kernel * kernel, rng),
              "conv.weight"),
      bias_(tensor::Tensor(tensor::Shape{out_channels}), "conv.bias",
            /*apply_decay=*/false) {
  FLIGHTNN_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0 && padding >= 0,
                 "Conv2d: invalid geometry in=", in_channels,
                 " out=", out_channels, " kernel=", kernel, " stride=", stride,
                 " padding=", padding);
}

tensor::Tensor Conv2d::quantized_weight() {
  return transform_ ? transform_->forward(weight_.value) : weight_.value;
}

void Conv2d::prepare_forward(const tensor::Tensor& input, bool training) {
  const auto& s = input.shape();
  FLIGHTNN_CHECK(s.rank() == 4 && s[1] == in_channels_,
                 "Conv2d::forward: expected [N, ", in_channels_,
                 ", H, W] input, got ", s.to_string());
  FLIGHTNN_CHECK(s[2] + 2 * padding_ >= kernel_ && s[3] + 2 * padding_ >= kernel_,
                 "Conv2d::forward: padded input ", s.to_string(),
                 " smaller than kernel ", kernel_);
  geometry_ = tensor::ConvGeometry{in_channels_, s[2], s[3], kernel_, stride_,
                                   padding_};
  effective_weight_ = quantized_weight();
  if (training) input_cache_ = input;
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& input, bool training) {
  prepare_forward(input, training);
  return train_kernel_path() == TrainKernelPath::kGemm
             ? forward_gemm(input)
             : forward_naive(input);
}

tensor::Tensor Conv2d::forward_reference(const tensor::Tensor& input,
                                         bool training) {
  prepare_forward(input, training);
  return forward_naive(input);
}

tensor::Tensor Conv2d::forward_gemm(const tensor::Tensor& input) {
  const auto& s = input.shape();
  const std::int64_t batch = s[0];
  const std::int64_t out_h = geometry_.out_h();
  const std::int64_t out_w = geometry_.out_w();
  const std::int64_t out_hw = out_h * out_w;
  const std::int64_t patch = geometry_.patch_size();
  const std::int64_t in_image = in_channels_ * s[2] * s[3];
  const std::int64_t out_image = out_channels_ * out_hw;

  tensor::Tensor output =
      tensor::Tensor::uninitialized(tensor::Shape{batch, out_channels_, out_h,
                                                  out_w});
  // Batched lowering: a whole image group shares one [patch, group*out_hw]
  // patch matrix and one blocked GEMM -- per-image GEMMs of the Table-1
  // layers are too small to reach the core's peak. The lowering and scatter
  // loops are batch-parallel (disjoint per image); the GEMM parallelizes
  // internally over C tiles. All partitions leave per-element arithmetic
  // untouched, so the result is bit-identical to serial at any thread count.
  const std::int64_t group = cols_group(batch, patch, out_hw);
  std::vector<float> cols =
      tensor::pool::acquire(static_cast<std::size_t>(group * patch * out_hw));
  std::vector<float> gemm_out = tensor::pool::acquire(
      static_cast<std::size_t>(out_channels_ * group * out_hw));
  for (std::int64_t g0 = 0; g0 < batch; g0 += group) {
    const std::int64_t g_end = std::min(batch, g0 + group);
    const std::int64_t ld = (g_end - g0) * out_hw;
    runtime::parallel_for(
        g0, g_end, 1, runtime::CostHint{lowering_ns(patch, out_hw)},
        [&](std::int64_t n_begin, std::int64_t n_end) {
          for (std::int64_t n = n_begin; n < n_end; ++n) {
            core::im2col_strided(input.data() + n * in_image, geometry_,
                                 cols.data() + (n - g0) * out_hw, ld);
          }
        });
    // [out_ch, patch] x [patch, group*out_hw]
    core::gemm(effective_weight_.data(), cols.data(), gemm_out.data(),
               out_channels_, patch, ld);
    runtime::parallel_for(
        g0, g_end, 1, runtime::CostHint{copy_ns(out_image)},
        [&](std::int64_t n_begin, std::int64_t n_end) {
          for (std::int64_t n = n_begin; n < n_end; ++n) {
            for (std::int64_t o = 0; o < out_channels_; ++o) {
              const float* src = gemm_out.data() + o * ld + (n - g0) * out_hw;
              float* dst = output.data() + n * out_image + o * out_hw;
              const float b = has_bias_ ? bias_.value[o] : 0.0F;
              scatter_bias(src, dst, out_hw, b);
            }
          }
        });
  }
  tensor::pool::release(std::move(cols));
  tensor::pool::release(std::move(gemm_out));
  return output;
}

tensor::Tensor Conv2d::forward_naive(const tensor::Tensor& input) {
  const auto& s = input.shape();
  const std::int64_t batch = s[0];
  const std::int64_t out_h = geometry_.out_h();
  const std::int64_t out_w = geometry_.out_w();
  const std::int64_t out_hw = out_h * out_w;
  const std::int64_t patch = geometry_.patch_size();
  const std::int64_t in_image = in_channels_ * s[2] * s[3];
  const std::int64_t out_image = out_channels_ * out_hw;

  tensor::Tensor output(tensor::Shape{batch, out_channels_, out_h, out_w});
  runtime::parallel_for(0, batch, 1, [&](std::int64_t n_begin,
                                         std::int64_t n_end) {
    std::vector<float> columns(static_cast<std::size_t>(patch * out_hw));
    for (std::int64_t n = n_begin; n < n_end; ++n) {
      tensor::im2col(input.data() + n * in_image, geometry_, columns.data());
      tensor::gemm(effective_weight_.data(), columns.data(),
                   output.data() + n * out_image, out_channels_, patch, out_hw);
      if (has_bias_) {
        for (std::int64_t o = 0; o < out_channels_; ++o) {
          float* plane = output.data() + n * out_image + o * out_hw;
          const float b = bias_.value[o];
          for (std::int64_t i = 0; i < out_hw; ++i) plane[i] += b;
        }
      }
    }
  });
  return output;
}

void Conv2d::check_backward(const tensor::Tensor& grad_output) const {
  FLIGHTNN_CHECK(!input_cache_.empty(),
                 "Conv2d::backward before forward(training=true)");
  FLIGHTNN_CHECK_SHAPE(
      grad_output.shape(),
      (tensor::Shape{input_cache_.shape()[0], out_channels_, geometry_.out_h(),
                     geometry_.out_w()}),
      "Conv2d::backward");
}

void Conv2d::finish_backward(const tensor::Tensor& grad_output,
                             const tensor::Tensor& grad_wq) {
  if (has_bias_) {
    const std::int64_t batch = input_cache_.shape()[0];
    const std::int64_t out_hw = geometry_.out_h() * geometry_.out_w();
    const std::int64_t out_image = out_channels_ * out_hw;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t o = 0; o < out_channels_; ++o) {
        const float* gy = grad_output.data() + n * out_image + o * out_hw;
        double acc = 0.0;
        for (std::int64_t i = 0; i < out_hw; ++i) acc += gy[i];
        bias_.grad[o] += static_cast<float>(acc);
      }
    }
  }
  // Route dL/d(wq) to the full-precision weights (STE or transform-specific).
  if (transform_) {
    transform_->backward(weight_.value, grad_wq, weight_.grad);
  } else {
    weight_.grad += grad_wq;
  }
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_output) {
  check_backward(grad_output);
  return train_kernel_path() == TrainKernelPath::kGemm
             ? backward_gemm(grad_output)
             : backward_naive(grad_output);
}

tensor::Tensor Conv2d::backward_reference(const tensor::Tensor& grad_output) {
  check_backward(grad_output);
  return backward_naive(grad_output);
}

tensor::Tensor Conv2d::backward_gemm(const tensor::Tensor& grad_output) {
  const auto& in_shape = input_cache_.shape();
  const std::int64_t batch = in_shape[0];
  const std::int64_t out_hw = geometry_.out_h() * geometry_.out_w();
  const std::int64_t patch = geometry_.patch_size();
  const std::int64_t in_image = in_channels_ * in_shape[2] * in_shape[3];
  const std::int64_t out_image = out_channels_ * out_hw;
  const std::int64_t w_numel = out_channels_ * patch;

  tensor::Tensor grad_wq =
      tensor::Tensor::uninitialized(weight_.value.shape());
  tensor::Tensor grad_input(in_shape);  // zeroed: col2im accumulates

  // Same batched-lowering scheme as forward_gemm, with the gradient of the
  // output first transposed into [out_ch, group*out_hw] so both gradient
  // GEMMs run over one big matrix per group:
  //   dW^T[patch, out_ch]  += cols . dY^T   (accumulated across groups,
  //                                          serially in ascending order)
  //   dCols[patch, g*hw]    = W^T . dY      (folded back per image by
  //                                          col2im)
  // The weight gradient is accumulated transposed so the GEMM's M dimension
  // is patch (up to in_ch*k*k) instead of out_ch; the one-off transpose into
  // grad_wq at the end is w_numel elements.
  const std::int64_t group = cols_group(batch, patch, out_hw);
  std::vector<float> cols =
      tensor::pool::acquire(static_cast<std::size_t>(group * patch * out_hw));
  std::vector<float> grad_out_t = tensor::pool::acquire(
      static_cast<std::size_t>(out_channels_ * group * out_hw));
  std::vector<float> grad_cols =
      tensor::pool::acquire(static_cast<std::size_t>(group * patch * out_hw));
  std::vector<float> grad_wt =
      tensor::pool::acquire(static_cast<std::size_t>(w_numel));

  for (std::int64_t g0 = 0; g0 < batch; g0 += group) {
    const std::int64_t g_end = std::min(batch, g0 + group);
    const std::int64_t ld = (g_end - g0) * out_hw;
    runtime::parallel_for(
        g0, g_end, 1,
        runtime::CostHint{lowering_ns(patch, out_hw) + copy_ns(out_image)},
        [&](std::int64_t n_begin, std::int64_t n_end) {
          for (std::int64_t n = n_begin; n < n_end; ++n) {
            core::im2col_strided(input_cache_.data() + n * in_image, geometry_,
                                 cols.data() + (n - g0) * out_hw, ld);
            for (std::int64_t o = 0; o < out_channels_; ++o) {
              std::memcpy(grad_out_t.data() + o * ld + (n - g0) * out_hw,
                          grad_output.data() + n * out_image + o * out_hw,
                          static_cast<std::size_t>(out_hw) * sizeof(float));
            }
          }
        });
    core::gemm_nt(cols.data(), grad_out_t.data(), grad_wt.data(), patch, ld,
                  out_channels_, /*accumulate=*/g0 > 0);
    core::gemm_tn(effective_weight_.data(), grad_out_t.data(),
                  grad_cols.data(), patch, out_channels_, ld);
    runtime::parallel_for(
        g0, g_end, 1, runtime::CostHint{lowering_ns(patch, out_hw)},
        [&](std::int64_t n_begin, std::int64_t n_end) {
          for (std::int64_t n = n_begin; n < n_end; ++n) {
            core::col2im_strided(grad_cols.data() + (n - g0) * out_hw, ld,
                                 geometry_, grad_input.data() + n * in_image);
          }
        });
  }
  for (std::int64_t o = 0; o < out_channels_; ++o) {
    for (std::int64_t p = 0; p < patch; ++p) {
      grad_wq[o * patch + p] = grad_wt[p * out_channels_ + o];
    }
  }
  tensor::pool::release(std::move(cols));
  tensor::pool::release(std::move(grad_out_t));
  tensor::pool::release(std::move(grad_cols));
  tensor::pool::release(std::move(grad_wt));

  finish_backward(grad_output, grad_wq);
  return grad_input;
}

tensor::Tensor Conv2d::backward_naive(const tensor::Tensor& grad_output) {
  const auto& in_shape = input_cache_.shape();
  const std::int64_t batch = in_shape[0];
  const std::int64_t out_hw = geometry_.out_h() * geometry_.out_w();
  const std::int64_t patch = geometry_.patch_size();
  const std::int64_t in_image = in_channels_ * in_shape[2] * in_shape[3];
  const std::int64_t out_image = out_channels_ * out_hw;

  tensor::Tensor grad_wq(weight_.value.shape());
  tensor::Tensor grad_input(in_shape);
  std::vector<float> columns(static_cast<std::size_t>(patch * out_hw));
  std::vector<float> grad_columns(static_cast<std::size_t>(patch * out_hw));

  for (std::int64_t n = 0; n < batch; ++n) {
    const float* grad_out_n = grad_output.data() + n * out_image;
    // Weight gradient: dW[o, p] += dY[o, :] . cols[p, :]^T
    tensor::im2col(input_cache_.data() + n * in_image, geometry_, columns.data());
    for (std::int64_t o = 0; o < out_channels_; ++o) {
      const float* gy = grad_out_n + o * out_hw;
      float* gw = grad_wq.data() + o * patch;
      for (std::int64_t p = 0; p < patch; ++p) {
        const float* col = columns.data() + p * out_hw;
        double acc = 0.0;
        for (std::int64_t i = 0; i < out_hw; ++i) acc += static_cast<double>(gy[i]) * col[i];
        gw[p] += static_cast<float>(acc);
      }
    }
    // Input gradient: dCols[p, :] = W^T[p, o] dY[o, :], then col2im.
    std::fill(grad_columns.begin(), grad_columns.end(), 0.0F);
    for (std::int64_t o = 0; o < out_channels_; ++o) {
      const float* wrow = effective_weight_.data() + o * patch;
      const float* gy = grad_out_n + o * out_hw;
      for (std::int64_t p = 0; p < patch; ++p) {
        const float w = wrow[p];
        if (w == 0.0F) continue;
        float* gc = grad_columns.data() + p * out_hw;
        for (std::int64_t i = 0; i < out_hw; ++i) gc[i] += w * gy[i];
      }
    }
    tensor::col2im(grad_columns.data(), geometry_, grad_input.data() + n * in_image);
  }

  finish_backward(grad_output, grad_wq);
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace flightnn::nn
