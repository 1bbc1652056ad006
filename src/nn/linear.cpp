#include "nn/linear.hpp"

#include <cmath>

#include "core/gemm.hpp"
#include "runtime/thread_pool.hpp"
#include "support/check.hpp"

namespace flightnn::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               bool with_bias, support::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(with_bias),
      weight_(tensor::Tensor::randn(
                  tensor::Shape{out_features, in_features}, rng, 0.0F,
                  std::sqrt(2.0F / static_cast<float>(in_features))),
              "linear.weight"),
      bias_(tensor::Tensor(tensor::Shape{out_features}), "linear.bias",
            /*apply_decay=*/false) {
  FLIGHTNN_CHECK(in_features > 0 && out_features > 0,
                 "Linear: invalid dimensions in=", in_features,
                 " out=", out_features);
}

tensor::Tensor Linear::quantized_weight() {
  return transform_ ? transform_->forward(weight_.value) : weight_.value;
}

void Linear::prepare_forward(const tensor::Tensor& input, bool training) {
  const auto& s = input.shape();
  FLIGHTNN_CHECK(s.rank() == 2 && s[1] == in_features_,
                 "Linear::forward: expected [N, ", in_features_,
                 "] input, got ", s.to_string());
  effective_weight_ = quantized_weight();
  if (training) input_cache_ = input;
}

tensor::Tensor Linear::forward(const tensor::Tensor& input, bool training) {
  prepare_forward(input, training);
  return train_kernel_path() == TrainKernelPath::kGemm ? forward_gemm(input)
                                                       : forward_naive(input);
}

tensor::Tensor Linear::forward_reference(const tensor::Tensor& input,
                                         bool training) {
  prepare_forward(input, training);
  return forward_naive(input);
}

tensor::Tensor Linear::forward_gemm(const tensor::Tensor& input) {
  // y = x * W^T (+ b): one blocked GEMM over the whole batch. The GEMM
  // partitions C into private tiles, so results stay bit-identical to serial
  // execution at any thread count.
  const std::int64_t batch = input.shape()[0];
  tensor::Tensor output(tensor::Shape{batch, out_features_});
  core::gemm_nt(input.data(), effective_weight_.data(), output.data(), batch,
                in_features_, out_features_);
  if (has_bias_) {
    for (std::int64_t n = 0; n < batch; ++n) {
      float* out_row = output.data() + n * out_features_;
      for (std::int64_t o = 0; o < out_features_; ++o) {
        out_row[o] += bias_.value[o];
      }
    }
  }
  return output;
}

tensor::Tensor Linear::forward_naive(const tensor::Tensor& input) {
  // y = x * W^T (+ b). Range kernel over batch rows: every output element is
  // computed entirely by one thread with the same inner-loop order as
  // matmul_nt (double accumulation over in_features), so the result is
  // bit-identical at any thread count.
  const std::int64_t batch = input.shape()[0];
  tensor::Tensor output(tensor::Shape{batch, out_features_});
  const float* w = effective_weight_.data();
  const runtime::CostHint row_cost{
      static_cast<double>(out_features_ * in_features_) * 2.0};
  runtime::parallel_for(0, batch, 1, row_cost, [&](std::int64_t n_begin,
                                                   std::int64_t n_end) {
    for (std::int64_t n = n_begin; n < n_end; ++n) {
      const float* x_row = input.data() + n * in_features_;
      float* out_row = output.data() + n * out_features_;
      for (std::int64_t o = 0; o < out_features_; ++o) {
        const float* w_row = w + o * in_features_;
        double acc = 0.0;
        for (std::int64_t e = 0; e < in_features_; ++e) {
          acc += static_cast<double>(x_row[e]) * w_row[e];
        }
        float value = static_cast<float>(acc);
        if (has_bias_) value += bias_.value[o];
        out_row[o] = value;
      }
    }
  });
  return output;
}

void Linear::check_backward(const tensor::Tensor& grad_output) const {
  FLIGHTNN_CHECK(!input_cache_.empty(),
                 "Linear::backward before forward(training=true)");
  FLIGHTNN_CHECK_SHAPE(grad_output.shape(),
                       (tensor::Shape{input_cache_.shape()[0], out_features_}),
                       "Linear::backward");
}

void Linear::finish_backward(const tensor::Tensor& grad_output,
                             const tensor::Tensor& grad_wq) {
  if (has_bias_) {
    const std::int64_t batch = grad_output.shape()[0];
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* row = grad_output.data() + n * out_features_;
      for (std::int64_t o = 0; o < out_features_; ++o) bias_.grad[o] += row[o];
    }
  }
  if (transform_) {
    transform_->backward(weight_.value, grad_wq, weight_.grad);
  } else {
    weight_.grad += grad_wq;
  }
}

tensor::Tensor Linear::backward(const tensor::Tensor& grad_output) {
  check_backward(grad_output);
  return train_kernel_path() == TrainKernelPath::kGemm
             ? backward_gemm(grad_output)
             : backward_naive(grad_output);
}

tensor::Tensor Linear::backward_reference(const tensor::Tensor& grad_output) {
  check_backward(grad_output);
  return backward_naive(grad_output);
}

tensor::Tensor Linear::backward_gemm(const tensor::Tensor& grad_output) {
  // dW = dY^T * X; dX = dY * W; db = column sums of dY. Both products run on
  // the blocked GEMM core (deterministic tiling, see core/gemm.hpp).
  const std::int64_t batch = input_cache_.shape()[0];
  tensor::Tensor grad_wq(weight_.value.shape());
  tensor::Tensor grad_input(input_cache_.shape());
  core::gemm_tn(grad_output.data(), input_cache_.data(), grad_wq.data(),
                out_features_, batch, in_features_);
  core::gemm(grad_output.data(), effective_weight_.data(), grad_input.data(),
             batch, out_features_, in_features_);
  finish_backward(grad_output, grad_wq);
  return grad_input;
}

tensor::Tensor Linear::backward_naive(const tensor::Tensor& grad_output) {
  tensor::Tensor grad_wq = tensor::matmul_tn(grad_output, input_cache_);
  tensor::Tensor grad_input = tensor::matmul(grad_output, effective_weight_);
  finish_backward(grad_output, grad_wq);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace flightnn::nn
