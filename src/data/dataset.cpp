#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace flightnn::data {

namespace {

// Class prototype: per channel, a mixture of oriented sinusoidal gratings
// and Gaussian blobs whose parameters are drawn once per class. The
// prototype is what makes classes separable; per-sample noise and shifts are
// what makes the task non-trivial.
struct Prototype {
  // One template image per channel, [C * H * W], amplitude-normalized.
  std::vector<float> pattern;
};

Prototype make_prototype(const DatasetSpec& spec, support::Rng& rng) {
  const std::int64_t h = spec.height, w = spec.width, c = spec.channels;
  Prototype proto;
  proto.pattern.assign(static_cast<std::size_t>(c * h * w), 0.0F);

  const int gratings = 2 + static_cast<int>(rng.uniform_index(3));  // 2..4
  const int blobs = 1 + static_cast<int>(rng.uniform_index(3));     // 1..3

  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* plane = proto.pattern.data() + ch * h * w;
    for (int g = 0; g < gratings; ++g) {
      // Cap grating frequency at ~1.5 cycles per image so the +/- max_shift
      // translation augmentation perturbs rather than destroys the class
      // signature.
      const double freq = rng.uniform(0.4, 1.5) * 2.0 * M_PI /
                          static_cast<double>(std::min(h, w));
      const double theta = rng.uniform(0.0, M_PI);
      const double phase = rng.uniform(0.0, 2.0 * M_PI);
      const double amp = rng.uniform(0.3, 1.0);
      const double cx = std::cos(theta), sx = std::sin(theta);
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          const double proj = cx * static_cast<double>(x) + sx * static_cast<double>(y);
          plane[y * w + x] += static_cast<float>(amp * std::sin(freq * proj + phase));
        }
      }
    }
    for (int b = 0; b < blobs; ++b) {
      const double mu_y = rng.uniform(0.2, 0.8) * static_cast<double>(h);
      const double mu_x = rng.uniform(0.2, 0.8) * static_cast<double>(w);
      const double sigma = rng.uniform(0.08, 0.25) * static_cast<double>(std::min(h, w));
      const double amp = rng.uniform(-1.2, 1.2);
      for (std::int64_t y = 0; y < h; ++y) {
        for (std::int64_t x = 0; x < w; ++x) {
          const double dy = (static_cast<double>(y) - mu_y) / sigma;
          const double dx = (static_cast<double>(x) - mu_x) / sigma;
          plane[y * w + x] +=
              static_cast<float>(amp * std::exp(-0.5 * (dx * dx + dy * dy)));
        }
      }
    }
  }

  // Normalize to unit RMS so noise levels are comparable across classes.
  double ss = 0.0;
  for (float v : proto.pattern) ss += static_cast<double>(v) * v;
  const float inv_rms = static_cast<float>(
      1.0 / std::max(std::sqrt(ss / static_cast<double>(proto.pattern.size())), 1e-9));
  for (float& v : proto.pattern) v *= inv_rms;
  return proto;
}

// Render one sample: shifted, amplitude-jittered prototype plus noise.
void render_sample(const DatasetSpec& spec, const Prototype& proto,
                   support::Rng& rng, float* out) {
  const std::int64_t h = spec.height, w = spec.width, c = spec.channels;
  const int shift_range = 2 * spec.max_shift + 1;
  const int dy = spec.max_shift > 0
                     ? static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(
                           shift_range))) - spec.max_shift
                     : 0;
  const int dx = spec.max_shift > 0
                     ? static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(
                           shift_range))) - spec.max_shift
                     : 0;
  const float amp = static_cast<float>(rng.uniform(0.7, 1.3));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* plane = proto.pattern.data() + ch * h * w;
    float* out_plane = out + ch * h * w;
    for (std::int64_t y = 0; y < h; ++y) {
      const std::int64_t sy = std::clamp<std::int64_t>(y + dy, 0, h - 1);
      for (std::int64_t x = 0; x < w; ++x) {
        const std::int64_t sx = std::clamp<std::int64_t>(x + dx, 0, w - 1);
        out_plane[y * w + x] =
            amp * plane[sy * w + sx] +
            spec.noise * static_cast<float>(rng.normal());
      }
    }
  }
}

Dataset generate_split(const DatasetSpec& spec,
                       const std::vector<Prototype>& prototypes,
                       std::int64_t count, support::Rng& rng) {
  Dataset ds;
  ds.spec = spec;
  ds.images = tensor::Tensor(
      tensor::Shape{count, spec.channels, spec.height, spec.width});
  ds.labels.resize(static_cast<std::size_t>(count));
  const std::int64_t image_size = spec.channels * spec.height * spec.width;
  for (std::int64_t n = 0; n < count; ++n) {
    const int label = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(spec.classes)));
    ds.labels[static_cast<std::size_t>(n)] = label;
    render_sample(spec, prototypes[static_cast<std::size_t>(label)], rng,
                  ds.images.data() + n * image_size);
  }
  return ds;
}

std::int64_t scaled(std::int64_t base, float scale) {
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                       std::lround(static_cast<double>(base) * scale)));
}

}  // namespace

tensor::Tensor Dataset::image(std::int64_t index) const {
  if (index < 0 || index >= size()) {
    throw std::out_of_range("Dataset::image: index out of range");
  }
  const std::int64_t image_size = spec.channels * spec.height * spec.width;
  // Every element is written by the copy below.
  tensor::Tensor out = tensor::Tensor::uninitialized(
      tensor::Shape{1, spec.channels, spec.height, spec.width});
  const float* src = images.data() + index * image_size;
  std::copy(src, src + image_size, out.data());
  return out;
}

TrainTest make_synthetic(const DatasetSpec& spec) {
  if (spec.classes < 2 || spec.train_size < 1 || spec.test_size < 1) {
    throw std::invalid_argument("make_synthetic: invalid spec");
  }
  support::Rng rng(spec.seed);
  std::vector<Prototype> prototypes;
  prototypes.reserve(static_cast<std::size_t>(spec.classes));
  for (int c = 0; c < spec.classes; ++c) prototypes.push_back(make_prototype(spec, rng));

  support::Rng train_rng = rng.split();
  support::Rng test_rng = rng.split();
  TrainTest out;
  out.train = generate_split(spec, prototypes, spec.train_size, train_rng);
  out.test = generate_split(spec, prototypes, spec.test_size, test_rng);
  return out;
}

DatasetSpec cifar10_like(float scale, std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "cifar10-syn";
  spec.classes = 10;
  spec.train_size = scaled(2000, scale);
  spec.test_size = scaled(500, scale);
  spec.noise = 8.0F;
  spec.seed = seed;
  return spec;
}

DatasetSpec svhn_like(float scale, std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "svhn-syn";
  spec.classes = 10;
  spec.train_size = scaled(2000, scale);
  spec.test_size = scaled(500, scale);
  // SVHN digits are an easier task than CIFAR-10 (paper accuracies ~95%).
  spec.noise = 5.0F;
  spec.seed = seed;
  return spec;
}

DatasetSpec cifar100_like(float scale, std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "cifar100-syn";
  spec.classes = 100;
  spec.train_size = scaled(4000, scale);
  spec.test_size = scaled(1000, scale);
  // 100 classes with the same budget: hardest task (paper accuracies ~70%).
  spec.noise = 4.5F;
  spec.seed = seed;
  return spec;
}

DatasetSpec imagenet_like(float scale, std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "imagenet-syn";
  spec.classes = 50;
  spec.train_size = scaled(3000, scale);
  spec.test_size = scaled(750, scale);
  spec.noise = 5.0F;
  spec.seed = seed;
  return spec;
}

BatchIterator::BatchIterator(const Dataset& dataset, std::int64_t batch_size,
                             support::Rng& rng, bool shuffle)
    : dataset_(dataset), batch_size_(batch_size), rng_(rng), shuffle_(shuffle) {
  if (batch_size < 1) throw std::invalid_argument("BatchIterator: batch_size < 1");
  order_.resize(static_cast<std::size_t>(dataset.size()));
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  reset();
}

void BatchIterator::reset() {
  cursor_ = 0;
  if (shuffle_) rng_.shuffle(order_);
}

bool BatchIterator::next(tensor::Tensor& images, std::vector<int>& labels) {
  const std::int64_t total = dataset_.size();
  if (cursor_ >= total) return false;
  const std::int64_t count = std::min(batch_size_, total - cursor_);
  const auto& spec = dataset_.spec;
  const std::int64_t image_size = spec.channels * spec.height * spec.width;
  images = tensor::Tensor(
      tensor::Shape{count, spec.channels, spec.height, spec.width});
  labels.resize(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const std::size_t src = order_[static_cast<std::size_t>(cursor_ + i)];
    const float* src_ptr =
        dataset_.images.data() + static_cast<std::int64_t>(src) * image_size;
    std::copy(src_ptr, src_ptr + image_size, images.data() + i * image_size);
    labels[static_cast<std::size_t>(i)] = dataset_.labels[src];
  }
  cursor_ += count;
  return true;
}

std::int64_t BatchIterator::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

}  // namespace flightnn::data
