// perf_ledger: the repository's one performance ledger. Each process runs
// one fixed workload through the deployment path a user runs --
// compile_program -> build_artifact -> ArtifactModel::load (mmap) ->
// BatchRunner::warm -> BatchRunner::run or serving::Server -- and records
// the end-to-end metrics a user sees: set-up time, latency and peak RSS.
// Times are reported at a fixed host speed (see "Host speed"). With --trace
// it also records per-layer metrics, taken only from public calls into each
// module, and writes the spans around those calls as Chrome trace JSON.
//
//   perf_ledger --workload NAME --seed N [--seconds S] [--trace FILE]
//               [--smoke] --out FILE
//
// The seed generates the inputs: the images and where the malformed
// requests go. Model weights are fixed per workload (seed 1). The run checks
// its own outputs and exits 1 if any check fails: served logits must be
// memcmp-equal to a direct QuantizedNetwork::run of the in-process compiled
// program, every malformed request must fail, and a well-formed request may
// fail only when it shared its batch with a malformed one. README.md gives
// the reason for each workload and the metric each layer number should move.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sched.h>

#include "core/flightnn_transform.hpp"
#include "core/quantize_model.hpp"
#include "inference/memory_plan.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_kernels.hpp"
#include "ledger.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "serving/server.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::ledger {
namespace {

using inference::ProgramOp;
using inference::ProgramOpKind;
using tensor::Shape;
using tensor::Tensor;

constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kSide = 32;

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  int network_id;  // Table-1 id
  float width_scale;
  bool flightnn;  // mixed per-filter k, else LightNN-2
  bool serve;     // bursts through serving::Server, else one-image requests
};

// Every workload is one closed loop on one CPU, with the thread pool at one
// thread; serve's batcher thread shares the client's CPU. Times are scaled
// by a speed pass run on that CPU (see "Host speed"), and on a shared host a
// pool worker on another vCPU runs at that vCPU's speed, not the pass's.
// Thread scaling is measured by the traced run's runtime.speedup_*, on all
// CPUs.
constexpr Workload kWorkloads[] = {
    {"vgg7_single", 1, 1.0F, false, false},
    {"flightnn_tiny_single", 1, 0.25F, true, false},
    {"resnet18_single", 2, 0.5F, false, false},
    {"flightnn_tiny_serve", 1, 0.25F, true, true},
};

// Timed set-ups per run (compile -> build_artifact -> load -> warm), and
// the pause before each but the first.
constexpr int kSetUpRepetitions = 21;
constexpr double kSetUpGapS = 0.1;

// Serve: each burst is four requests of these sizes, max_batch images in
// all, so the batcher flushes a full fused batch. One burst in each block of
// kMalformedEvery, at a seeded position, carries a malformed request.
constexpr std::array<int, 4> kBurstImages = {1, 2, 3, 2};
constexpr std::size_t kMalformedEvery = 100;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool smoke = false;
  std::string trace_path;  // empty = untraced
  std::string out_path;
};

// --- Results ------------------------------------------------------------------

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] std::string json() const {
    JsonObject out;
    for (const auto& [name, entry] : values_) {
      out.raw(name,
              JsonObject().number("value", entry.first).string("unit", entry.second).str());
    }
    return out.str();
  }
  void print() const {
    for (const auto& [name, entry] : values_) {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), entry.first, entry.second.c_str());
    }
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

struct Checks {
  long long attempted = 0;  // requests issued in the measured loop
  long long logits_checked = 0;
  long long logits_mismatched = 0;
  long long malformed_sent = 0;
  long long malformed_served = 0;  // a malformed request got logits
  long long good_failed = 0;       // well-formed requests failed or refused
  // Well-formed failures outside a burst that carried a malformed request.
  long long good_failed_unexplained = 0;
  bool artifact_reproducible = true;
  bool probe_replay_matches = true;  // traced runs: per-op replay == run()

  [[nodiscard]] long long failed() const {
    return logits_mismatched + malformed_served + good_failed_unexplained +
           (artifact_reproducible ? 0 : 1) + (probe_replay_matches ? 0 : 1);
  }
};

// Hands freed heap memory back to the system and restarts the kernel's
// resident-set high-water mark (VmHWM) at the current resident set.
void reset_peak_rss() {
  malloc_trim(0);
  FILE* file = std::fopen("/proc/self/clear_refs", "w");
  const bool written = file != nullptr && std::fputs("5", file) >= 0;
  if (file == nullptr || std::fclose(file) != 0 || !written) {
    std::fprintf(stderr, "warning: cannot reset the peak RSS; peak_rss_mib includes set-up\n");
  }
}

// Resident-set high-water mark since reset_peak_rss, MiB.
double peak_rss_mib() {
  FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long long kib = -1;
  while (kib < 0 && std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) != 1) kib = -1;
  }
  std::fclose(file);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

bool same_bytes(const Tensor& logits, const std::vector<float>& reference) {
  return static_cast<std::size_t>(logits.numel()) == reference.size() &&
         std::memcmp(logits.data(), reference.data(), reference.size() * sizeof(float)) == 0;
}

template <typename Fn>
double time_call(const Fn& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

// Binds the calling thread, and the threads it starts later, to the last CPU
// it may run on; returns the previous set, for restore_cpus.
cpu_set_t pin_to_one_cpu() {
  cpu_set_t all{};
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return all;
  int last = CPU_SETSIZE - 1;
  while (last > 0 && !CPU_ISSET(last, &all)) --last;
  cpu_set_t one{};
  CPU_SET(last, &one);
  sched_setaffinity(0, sizeof(one), &one);
  return all;
}

void restore_cpus(const cpu_set_t& cpus) {
  if (CPU_COUNT(&cpus) > 0) sched_setaffinity(0, sizeof(cpus), &cpus);
}

// --- Host speed ---------------------------------------------------------------

// Other tenants of a shared host slow this process by 1.2-3x, in spells of
// 0.1 s to minutes, so a whole run can fall in one. The guest does not see
// it as steal time: the vCPU keeps running, only slower (lower turbo bins, a
// busy SMT sibling, shared caches). Raw latency medians then spread by
// 20-50% between runs of the same code. A pass of fixed integer work, which
// no library change can alter, slows with the host. The ledger times one
// pass before every request and around every set-up, on the same CPU, and
// reports each time scaled to the reference speed, at which a pass takes
// kReferenceUs (about the fastest pass seen on a 4-vCPU Xeon VM).
class SpeedPass {
 public:
  static constexpr double kReferenceUs = 12.0;

  SpeedPass() : a_(kLength), b_(kLength), c_(kLength) {
    support::Rng rng(7);
    for (std::size_t i = 0; i < kLength; ++i) {
      a_[i] = static_cast<std::uint32_t>(rng.uniform_index(1U << 30));
      b_[i] = static_cast<std::uint32_t>(rng.uniform_index(1U << 30));
    }
  }

  // One timed pass, in microseconds.
  double run_us() {
    const Span span("speed_pass");
    const auto t0 = Clock::now();
    run();
    return seconds_between(t0, Clock::now()) * 1e6;
  }

  // The fastest of `count` passes.
  double fastest_us(int count) {
    double fastest = run_us();
    for (int i = 1; i < count; ++i) fastest = std::min(fastest, run_us());
    return fastest;
  }

 private:
  // 3 KiB of data, so a pass leaves a request's L1 working set mostly alone.
  static constexpr std::size_t kLength = 256;
  static constexpr std::size_t kRounds = 64;

  // c_ outlives the call, so the compiler cannot drop the work.
  __attribute__((noinline)) void run() {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < kLength; ++i) {
        c_[i] += a_[i] * b_[(i + r) & (kLength - 1)];
      }
    }
  }

  std::vector<std::uint32_t> a_, b_, c_;
};

// The measured loop is cut into windows of this length. Traced runs record
// spans in every other window, so a window is wholly traced or untraced.
constexpr double kWindowS = 0.5;

bool traced_window(Clock::time_point start, Clock::time_point now) {
  if (active_tracer() == nullptr) return false;
  return static_cast<long long>(seconds_between(start, now) / kWindowS) % 2 == 1;
}

// Request latency at the reference speed. In each window, the fastest
// request over the fastest pass cancels the host's speed in that window; the
// lower quartile over windows favours the quiet ones. In sets of 10 runs of
// 15 s this spread by 0.3-6% between runs, where the raw median spread by
// 15-50% and the fastest 1% of requests over the fastest 1% of passes of the
// whole run by up to 7%. The pass is pure ALU work and a request is not:
// when other tenants slow the host 2x for a whole run, ResNet-18, whose
// plan streams come from L3, slows only 1.5x and reads up to 15% low.
class ScaledLatency {
 public:
  // Sizes and touches the buffers for `seconds` of requests, so filling
  // them during the measured loop does not move peak_rss_mib.
  void reserve(double seconds, double max_requests_per_s) {
    raw_ms_.assign(static_cast<std::size_t>(seconds * max_requests_per_s) + 1024, 0.0F);
    raw_ms_.clear();
    pass_us_.assign(raw_ms_.capacity(), 0.0F);
    pass_us_.clear();
    windows_.assign(static_cast<std::size_t>(seconds / kWindowS) + 16, Window{});
    windows_.clear();
  }

  // One request that started `since_start_s` into the loop, took
  // `latency_ms`, and followed a pass of `pass_us`.
  void add(double since_start_s, double latency_ms, double pass_us, bool traced) {
    raw_ms_.push_back(static_cast<float>(latency_ms));
    pass_us_.push_back(static_cast<float>(pass_us));
    const auto index = static_cast<long long>(since_start_s / kWindowS);
    if (windows_.empty() || windows_.back().index != index) {
      windows_.push_back({index, latency_ms, pass_us, traced});
      return;
    }
    Window& w = windows_.back();
    w.fastest_ms = std::min(w.fastest_ms, latency_ms);
    w.fastest_pass_us = std::min(w.fastest_pass_us, pass_us);
  }

  // The scaled latency over the traced or the untraced windows; 0 if none.
  [[nodiscard]] double ms(bool traced) const {
    std::vector<double> scaled;
    for (const Window& w : windows_) {
      if (w.traced == traced) {
        scaled.push_back(w.fastest_ms / w.fastest_pass_us * SpeedPass::kReferenceUs);
      }
    }
    return percentile(scaled, 0.25);
  }

  [[nodiscard]] double raw_median_ms() const { return median({raw_ms_.begin(), raw_ms_.end()}); }
  [[nodiscard]] double median_pass_us() const {
    return median({pass_us_.begin(), pass_us_.end()});
  }
  [[nodiscard]] std::size_t samples() const { return raw_ms_.size(); }

 private:
  struct Window {
    long long index = 0;
    double fastest_ms = 0.0;
    double fastest_pass_us = 0.0;
    bool traced = false;
  };
  std::vector<float> raw_ms_, pass_us_;
  std::vector<Window> windows_;
};

// Closed-loop buffers hold this many requests per second of run (the
// fastest workload completes ~2700).
constexpr double kMaxRequestsPerS = 5000.0;

// --- Model --------------------------------------------------------------------

// Smallest threshold for `level` at which at least `target` filters stop at
// k <= level, by bisection over set_thresholds/filter_k.
void bisect_threshold(core::FLightNNTransform& transform, const Tensor& weight,
                      std::size_t level, long long target) {
  float lo = 0.0F;
  auto hi = static_cast<float>(weight.l2_norm());
  std::vector<float> thresholds = transform.thresholds();
  for (int iteration = 0; iteration < 60; ++iteration) {
    const float mid = 0.5F * (lo + hi);
    thresholds[level] = mid;
    transform.set_thresholds(thresholds);
    const auto ks = transform.filter_k(weight);
    const auto stopped =
        std::count_if(ks.begin(), ks.end(), [&](int k) { return k <= static_cast<int>(level); });
    (stopped >= target ? hi : lo) = mid;
  }
  thresholds[level] = hi;
  transform.set_thresholds(thresholds);
}

// Table-1 weights (seed 1) with the workload's quantizer. The FLightNN model
// gets ~25% k=0, ~35% k=1 and ~40% k=2 filters on every conv; the achieved
// histogram over all conv filters lands in `k_histogram`.
std::unique_ptr<nn::Sequential> build_model(const Workload& workload,
                                            std::array<long long, 3>& k_histogram) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = workload.width_scale;
  build.seed = 1;
  auto model = models::build_network(models::table1_network(workload.network_id), build);
  k_histogram = {0, 0, 0};
  if (!workload.flightnn) {
    core::install_lightnn(*model, 2);
    return model;
  }
  core::install_flightnn(*model, core::FLightNNConfig{});
  for (const auto& layer : core::quantizable_layers(*model)) {
    auto* transform = dynamic_cast<core::FLightNNTransform*>(layer.transform);
    const Tensor& weight = layer.weight->value;
    if (transform == nullptr || weight.shape().rank() != 4) continue;
    const auto filters = static_cast<double>(weight.shape()[0]);
    bisect_threshold(*transform, weight, 0, std::llround(0.25 * filters));
    bisect_threshold(*transform, weight, 1, std::llround(0.60 * filters));
    for (const int k : transform->filter_k(weight)) {
      ++k_histogram[static_cast<std::size_t>(std::clamp(k, 0, 2))];
    }
  }
  return model;
}

// --- Set-up (compile -> build_artifact -> load -> warm) ---------------------------

struct Deployment {
  std::unique_ptr<serialize::ArtifactModel> model;
  std::unique_ptr<runtime::BatchRunner> runner;
};

// Times full set-ups, kSetUpGapS apart. Back to back, all of them fell into
// one spell of the host's other tenants. Each is scaled to the reference
// speed by the faster of the speed passes just before and just after it.
// The artifact file is written once, after the first build and outside the
// timed region; every later build must reproduce its bytes. The file is
// removed when the SetUps goes away.
class SetUps {
 public:
  SetUps(nn::Sequential& model, std::string artifact_path, std::size_t max_batch, Checks& checks)
      : model_(model), path_(std::move(artifact_path)), max_batch_(max_batch), checks_(checks) {}
  SetUps(const SetUps&) = delete;
  SetUps& operator=(const SetUps&) = delete;
  ~SetUps() { std::remove(path_.c_str()); }

  // Runs `count` set-ups and returns the last one's deployment.
  Deployment run(int count, SpeedPass& speed) {
    Deployment d;
    for (int rep = 0; rep < count; ++rep) {
      d.runner.reset();
      d.model.reset();
      if (rep > 0) std::this_thread::sleep_for(std::chrono::duration<double>(kSetUpGapS));
      const double pass_before_us = speed.fastest_us(3);
      std::optional<Span> setup_span;
      setup_span.emplace("setup");
      const auto t0 = Clock::now();
      inference::NetworkProgram program;
      {
        const Span span("compile_program");
        program = inference::compile_program(model_, Shape{1, kChannels, kSide, kSide});
      }
      const auto t1 = Clock::now();
      std::vector<std::uint8_t> blob;
      {
        const Span span("build_artifact");
        blob = serialize::build_artifact(program);
      }
      const auto t2 = Clock::now();
      if (first_blob_.empty()) {
        write_artifact(blob);
        first_blob_ = blob;
        program_ = std::move(program);
      } else if (blob != first_blob_) {
        checks_.artifact_reproducible = false;
      }
      const auto t3 = Clock::now();
      {
        const Span span("ArtifactModel::load");
        d.model = std::make_unique<serialize::ArtifactModel>(serialize::ArtifactModel::load(path_));
      }
      const auto t4 = Clock::now();
      {
        const Span span("BatchRunner::warm");
        d.runner = std::make_unique<runtime::BatchRunner>(d.model->network());
        d.runner->warm(max_batch_);
      }
      const auto t5 = Clock::now();
      setup_span.reset();
      const double scale =
          SpeedPass::kReferenceUs / std::min(pass_before_us, speed.fastest_us(3));
      compile_s.push_back(seconds_between(t0, t1) * scale);
      build_s.push_back(seconds_between(t1, t2) * scale);
      load_s.push_back(seconds_between(t3, t4) * scale);
      warm_s.push_back(seconds_between(t4, t5) * scale);
      setup_s.push_back((seconds_between(t0, t2) + seconds_between(t3, t5)) * scale);
    }
    return d;
  }

  // The first set-up's in-process compile: the reference for every check.
  [[nodiscard]] const inference::NetworkProgram& program() const { return program_; }
  [[nodiscard]] std::size_t artifact_bytes() const { return first_blob_.size(); }

  std::vector<double> setup_s, compile_s, build_s, load_s, warm_s;

 private:
  void write_artifact(const std::vector<std::uint8_t>& blob) const {
    FILE* file = std::fopen(path_.c_str(), "wb");
    const bool ok = file != nullptr &&
                    std::fwrite(blob.data(), 1, blob.size(), file) == blob.size();
    if (file == nullptr || std::fclose(file) != 0 || !ok) {
      throw std::runtime_error("cannot write " + path_);
    }
  }

  nn::Sequential& model_;
  std::string path_;
  std::size_t max_batch_;
  Checks& checks_;
  std::vector<std::uint8_t> first_blob_;
  inference::NetworkProgram program_;
};

// --- Inputs -------------------------------------------------------------------

struct Inputs {
  std::vector<Tensor> images;
  std::vector<std::vector<float>> reference;  // direct-run logits per image
};

Inputs make_inputs(std::uint64_t seed, int count, const inference::NetworkProgram& program) {
  Inputs inputs;
  support::Rng rng(seed);
  const auto reference_net = inference::QuantizedNetwork::from_program(program);
  for (int i = 0; i < count; ++i) {
    inputs.images.push_back(Tensor::randn(Shape{kChannels, kSide, kSide}, rng));
    const Tensor logits = reference_net.run(inputs.images.back());
    inputs.reference.emplace_back(logits.data(), logits.data() + logits.numel());
  }
  return inputs;
}

// --- Measured loops -------------------------------------------------------------

using Interval = std::pair<Clock::time_point, Clock::time_point>;

// Calls step(i) for i = 0, 1, ... until `seconds` have passed, each call
// after a speed pass. A step returns the interval to time, or nothing when
// the call is not timed.
template <typename Step>
void measured_loop(double seconds, SpeedPass& speed, ScaledLatency& latency, const Step& step) {
  Tracer* tracer = active_tracer();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (std::size_t i = 0;; ++i) {
    const auto now = Clock::now();
    if (now >= deadline) break;
    const bool traced = traced_window(start, now);
    if (tracer != nullptr) tracer->set_enabled(traced);
    const double pass_us = speed.run_us();
    if (const std::optional<Interval> timed = step(i)) {
      latency.add(seconds_between(start, now),
                  seconds_between(timed->first, timed->second) * 1e3, pass_us, traced);
    }
  }
  if (tracer != nullptr) tracer->set_enabled(true);
}

// One client sends the next one-image request when the previous one
// returns.
void closed_loop(const runtime::BatchRunner& runner, const Inputs& inputs, double seconds,
                 SpeedPass& speed, ScaledLatency& latency, Checks& checks) {
  std::vector<runtime::InferenceRequest> requests(inputs.images.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    requests[r].images.push_back(inputs.images[r]);
  }
  runtime::InferenceResult result;
  for (std::size_t r = 0; r < std::min<std::size_t>(requests.size(), 4); ++r) {
    runner.run(requests[r], result);  // warm-up, not recorded
  }
  measured_loop(seconds, speed, latency, [&](std::size_t r) -> std::optional<Interval> {
    const std::size_t which = r % requests.size();
    ++checks.attempted;
    const auto t0 = Clock::now();
    try {
      const Span span("BatchRunner::run", static_cast<std::int64_t>(r));
      runner.run(requests[which], result);
    } catch (const std::exception& error) {
      ++checks.good_failed;
      ++checks.good_failed_unexplained;
      std::fprintf(stderr, "request %zu failed: %s\n", r, error.what());
      return std::nullopt;
    }
    const auto t1 = Clock::now();
    ++checks.logits_checked;
    if (!same_bytes(result.logits[0], inputs.reference[which])) ++checks.logits_mismatched;
    return Interval{t0, t1};
  });
}

struct ServeTally {
  std::vector<float> submit_us, queue_ms, compute_ms;
  double mean_batch = 0.0;
  long long poisoned = 0;  // well-formed requests failed in malformed bursts
};

double mean_batch(const serving::ServerStats& stats) {
  double images = 0.0;
  double batches = 0.0;
  for (std::size_t k = 0; k < stats.batch_size_histogram.size(); ++k) {
    const auto count = static_cast<double>(stats.batch_size_histogram[k]);
    images += count * static_cast<double>(k);
    batches += count;
  }
  return batches > 0.0 ? images / batches : 0.0;
}

// One client submits a burst of four requests back to back and waits for
// all four futures; a burst's latency runs from its first submit until its
// last future resolves. The batcher fuses the burst into one batch, flushed
// as soon as max_batch images are pending. In a malformed burst, the second
// request's first image is [1, 32, 32]; the burst is not timed.
void serve_bursts(std::uint64_t seed, const runtime::BatchRunner& runner, const Inputs& inputs,
                  double seconds, SpeedPass& speed, ScaledLatency& latency, ServeTally& tally,
                  Checks& checks) {
  support::Rng rng(seed ^ 0xbadU);
  const Tensor malformed_image = Tensor::randn(Shape{1, kSide, kSide}, rng);
  std::size_t next_malformed = rng.uniform_index(kMalformedEvery);
  std::size_t cursor = 0;
  const std::size_t image_count = inputs.images.size();

  serving::Server server(runner);
  measured_loop(seconds, speed, latency, [&](std::size_t burst) -> std::optional<Interval> {
    const bool malformed = burst == next_malformed;
    if (malformed) {
      next_malformed = (burst / kMalformedEvery + 1) * kMalformedEvery +
                       rng.uniform_index(kMalformedEvery);
      ++checks.malformed_sent;
    }
    std::array<runtime::InferenceRequest, kBurstImages.size()> requests;
    std::array<std::size_t, kBurstImages.size()> first_image{};
    for (std::size_t q = 0; q < requests.size(); ++q) {
      requests[q].id = burst * requests.size() + q;
      first_image[q] = cursor;
      for (int k = 0; k < kBurstImages[q]; ++k) {
        requests[q].images.push_back(inputs.images[cursor++ % image_count]);
      }
    }
    if (malformed) requests[1].images[0] = malformed_image;

    std::array<serving::Server::Submission, kBurstImages.size()> submissions;
    const auto t0 = Clock::now();
    for (std::size_t q = 0; q < requests.size(); ++q) {
      const auto s0 = Clock::now();
      {
        const Span span("Server::submit", static_cast<std::int64_t>(requests[q].id));
        submissions[q] = server.submit(std::move(requests[q]));
      }
      tally.submit_us.push_back(static_cast<float>(seconds_between(s0, Clock::now()) * 1e6));
    }
    std::array<std::optional<runtime::InferenceResult>, kBurstImages.size()> results;
    for (std::size_t q = 0; q < submissions.size(); ++q) {
      if (submissions[q].status != serving::SubmitStatus::Ok) continue;
      try {
        const Span span("future::get", static_cast<std::int64_t>(burst * results.size() + q));
        results[q] = submissions[q].result.get();
      } catch (const std::exception&) {
        // Checked below: only a malformed burst may fail.
      }
    }
    const auto t1 = Clock::now();

    for (std::size_t q = 0; q < results.size(); ++q) {
      ++checks.attempted;
      if (malformed && q == 1) {
        if (results[q]) ++checks.malformed_served;
        continue;
      }
      if (!results[q]) {
        ++checks.good_failed;
        ++(malformed ? tally.poisoned : checks.good_failed_unexplained);
        continue;
      }
      tally.queue_ms.push_back(static_cast<float>(results[q]->timing.queue_seconds * 1e3));
      tally.compute_ms.push_back(static_cast<float>(results[q]->timing.compute_seconds * 1e3));
      for (int k = 0; k < kBurstImages[q]; ++k) {
        ++checks.logits_checked;
        if (!same_bytes(results[q]->logits[static_cast<std::size_t>(k)],
                        inputs.reference[(first_image[q] + static_cast<std::size_t>(k)) %
                                         image_count])) {
          ++checks.logits_mismatched;
        }
      }
    }
    if (malformed) return std::nullopt;
    return Interval{t0, t1};
  });
  tally.mean_batch = mean_batch(server.stats());
  server.shutdown();
}

// --- Per-layer probes (traced runs) ---------------------------------------------

// Network inputs must be [C, H, W]; the flat vectors after global pooling
// ride as [N, 1, 1] (the shift linear step quantizes shape-obliviously).
Tensor as_chw(const Tensor& x) {
  const Shape& s = x.shape();
  if (s.rank() == 3) return x;
  if (s.rank() == 4) return x.reshaped(Shape{s[1], s[2], s[3]});
  return x.reshaped(Shape{x.numel(), 1, 1});
}

// Ops [begin, end) of `ops` as a stand-alone network fed `chw`-shaped inputs.
inference::QuantizedNetwork segment_network(const std::vector<ProgramOp>& ops, std::size_t begin,
                                            std::size_t end, const Shape& chw) {
  inference::NetworkProgram program;
  program.ops.assign(ops.begin() + static_cast<std::ptrdiff_t>(begin),
                     ops.begin() + static_cast<std::ptrdiff_t>(end));
  program.input_c = chw[0];
  program.input_h = chw[1];
  program.input_w = chw[2];
  const Span span("from_program", -1, static_cast<std::int64_t>(begin));
  return inference::QuantizedNetwork::from_program(std::move(program));
}

// Replays ops [cursor, end) as one stand-alone network per op (residual
// blocks recurse into their segments), recording every op's real input. The
// replay output must equal run()'s logits byte for byte.
Tensor replay(const std::vector<ProgramOp>& ops, std::size_t& cursor, std::size_t end, Tensor x,
              std::vector<Tensor>& op_inputs) {
  while (cursor < end) {
    const std::size_t i = cursor;
    op_inputs[i] = x;
    const ProgramOp& op = ops[i];
    ++cursor;
    if (op.kind == ProgramOpKind::kResidual) {
      const std::size_t main_end = cursor + static_cast<std::size_t>(op.main_ops);
      Tensor main = replay(ops, cursor, main_end, x, op_inputs);
      const std::size_t shortcut_end = cursor + static_cast<std::size_t>(op.shortcut_ops);
      const Tensor skip = op.has_shortcut ? replay(ops, cursor, shortcut_end, x, op_inputs) : x;
      main += skip;
      const std::size_t post_end = cursor + static_cast<std::size_t>(op.post_ops);
      x = replay(ops, cursor, post_end, std::move(main), op_inputs);
    } else {
      const Tensor in = as_chw(x);
      x = segment_network(ops, i, i + 1, in.shape()).run(in);
    }
  }
  return x;
}

const char* kind_name(ProgramOpKind kind) {
  switch (kind) {
    case ProgramOpKind::kQuantAct: return "quant";
    case ProgramOpKind::kShiftConv: return "shift_conv";
    case ProgramOpKind::kShiftLinear: return "shift_linear";
    case ProgramOpKind::kAffine: return "affine";
    case ProgramOpKind::kLeakyRelu: return "leaky_relu";
    case ProgramOpKind::kMaxPool: return "maxpool";
    case ProgramOpKind::kGap: return "gap";
    default: return "other";
  }
}

struct KindSeconds {
  std::map<std::string, double> by_kind;
  double residual_glue = 0.0;
};

double profile_segment(const std::vector<ProgramOp>& ops, std::size_t begin, std::size_t end,
                       const std::vector<Tensor>& op_inputs, int repeats, KindSeconds& kinds);

// profile() rows are one per top-level op of [begin, end). Residual rows are
// split by profiling their main, shortcut and post segments as stand-alone
// networks on the captured inputs; the remainder is the block's glue.
double attribute_rows(const std::vector<inference::StepProfile>& rows,
                      const std::vector<ProgramOp>& ops, std::size_t begin, std::size_t end,
                      const std::vector<Tensor>& op_inputs, int repeats, KindSeconds& kinds) {
  double total = 0.0;
  std::size_t cursor = begin;
  for (const auto& row : rows) {
    if (cursor >= end) throw std::runtime_error("profile rows outnumber the ops");
    const ProgramOp& op = ops[cursor];
    total += row.seconds;
    ++cursor;
    if (op.kind != ProgramOpKind::kResidual) {
      kinds.by_kind[kind_name(op.kind)] += row.seconds;
      continue;
    }
    double segments = 0.0;
    for (const std::int64_t count : {op.main_ops, op.shortcut_ops, op.post_ops}) {
      const std::size_t segment_end = cursor + static_cast<std::size_t>(count);
      if (count > 0) {
        segments += profile_segment(ops, cursor, segment_end, op_inputs, repeats, kinds);
      }
      cursor = segment_end;
    }
    kinds.residual_glue += row.seconds - segments;
  }
  return total;
}

double profile_segment(const std::vector<ProgramOp>& ops, std::size_t begin, std::size_t end,
                       const std::vector<Tensor>& op_inputs, int repeats, KindSeconds& kinds) {
  const Tensor in = as_chw(op_inputs[begin]);
  const auto network = segment_network(ops, begin, end, in.shape());
  std::vector<inference::StepProfile> rows;
  {
    const Span span("QuantizedNetwork::profile", -1, static_cast<std::int64_t>(begin));
    rows = network.profile(in, repeats);
  }
  return attribute_rows(rows, ops, begin, end, op_inputs, repeats, kinds);
}

// Repetitions that fit `budget_s` at `per_call_s` each, within [lo, hi].
int reps_within(double budget_s, double per_call_s, int lo, int hi) {
  const double fit = budget_s / std::max(per_call_s, 1e-7);
  return static_cast<int>(std::clamp(fit, static_cast<double>(lo), static_cast<double>(hi)));
}

void run_probes(const Workload& workload, const Options& options, const Deployment& deployment,
                const Inputs& inputs, Metrics& metrics, Checks& checks) {
  const double budget_s = options.smoke ? 0.02 : std::max(0.3, 0.06 * options.seconds);
  const int min_reps = options.smoke ? 2 : 7;
  const inference::QuantizedNetwork& network = deployment.model->network();
  const runtime::BatchRunner& runner = *deployment.runner;
  const Tensor& image = inputs.images[0];
  runtime::set_num_threads(1);
  runner.warm(1);

  // Direct run, direct run with the op census, and a one-image BatchRunner
  // request, interleaved so drift hits all three alike.
  runtime::InferenceRequest single;
  single.images.push_back(image);
  runtime::InferenceResult result;
  inference::NetworkOpCounts counts;
  const double estimate = time_call([&] { (void)network.run(image); });
  const int reps = reps_within(budget_s, 3.0 * estimate, min_reps, 2000);
  std::vector<double> plain_s, census_s, runner_s;
  for (int r = 0; r < reps; ++r) {
    plain_s.push_back(time_call([&] {
      const Span span("QuantizedNetwork::run");
      (void)network.run(image);
    }));
    census_s.push_back(time_call([&] {
      const Span span("QuantizedNetwork::run+census");
      (void)network.run(image, &counts);
    }));
    runner_s.push_back(time_call([&] {
      const Span span("BatchRunner::run");
      runner.run(single, result);
    }));
  }
  const double run_ms = median(plain_s) * 1e3;
  metrics.set("inference.run_ms", run_ms, "ms");
  metrics.set("inference.census_ms", median(census_s) * 1e3 - run_ms, "ms");
  metrics.set("runtime.overhead_ms", (median(runner_s) - median(census_s)) * 1e3, "ms");

  // Every op's real input, replayed from the deployed (artifact) program.
  const inference::NetworkProgram program =
      serialize::parse_artifact(deployment.model->data(), deployment.model->size());
  const std::vector<ProgramOp>& ops = program.ops;
  std::vector<Tensor> op_inputs(ops.size());
  std::size_t cursor = 0;
  const Tensor replayed = replay(ops, cursor, ops.size(), image, op_inputs);
  checks.probe_replay_matches = same_bytes(replayed, inputs.reference[0]);

  // Per-kind step time from profile(), residual blocks split.
  const int profile_reps = reps_within(budget_s, estimate, min_reps, 500);
  KindSeconds kinds;
  std::vector<inference::StepProfile> rows;
  {
    const Span span("QuantizedNetwork::profile");
    rows = network.profile(image, profile_reps);
  }
  const double profiled = attribute_rows(rows, ops, 0, ops.size(), op_inputs, profile_reps, kinds);
  for (const char* kind :
       {"shift_conv", "shift_linear", "quant", "affine", "leaky_relu", "maxpool", "gap"}) {
    metrics.set(std::string("inference.") + kind + "_ms", kinds.by_kind[kind] * 1e3, "ms");
  }
  metrics.set("inference.residual_glue_ms", kinds.residual_glue * 1e3, "ms");
  metrics.set("inference.reconcile_ratio", profiled * 1e3 / run_ms, "ratio");

  // Shift-conv kernels and their input re-quantization: one engine per conv
  // op built from its plan, run on the op's real input at one thread.
  struct ConvProbe {
    std::size_t op;
    Tensor input;
    int bits;
    inference::ShiftConv2d engine;
    std::vector<double> requant_s, conv_s;
  };
  std::vector<ConvProbe> convs;
  double entry_pixels = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ProgramOp& op = ops[i];
    if (op.kind != ProgramOpKind::kShiftConv) continue;
    const Tensor in = as_chw(op_inputs[i]);
    const inference::ShiftConvSpec spec{op.out_channels, op.in_channels, op.kernel,
                                        op.stride,       op.padding,     op.term_count};
    convs.push_back({i, in, op.act_bits, inference::ShiftConv2d(op.plan, spec, op.pow2, op.bias),
                     {}, {}});
    const std::int64_t out_h = (in.shape()[1] + 2 * op.padding - op.kernel) / op.stride + 1;
    const std::int64_t out_w = (in.shape()[2] + 2 * op.padding - op.kernel) / op.stride + 1;
    entry_pixels += static_cast<double>(op.plan.entries()) * static_cast<double>(out_h * out_w);
  }
  inference::QuantizedActivations q;
  const int kernel_reps = reps_within(budget_s, 0.5 * estimate, min_reps, 1000);
  for (int r = 0; r <= kernel_reps; ++r) {
    for (ConvProbe& probe : convs) {
      const auto op = static_cast<std::int64_t>(probe.op);
      const double requant = time_call([&] {
        const Span span("quantize_image_into", -1, op);
        inference::quantize_image_into(probe.input, probe.bits, q);
      });
      const double conv = time_call([&] {
        const Span span("ShiftConv2d::run", -1, op);
        (void)probe.engine.run(q);
      });
      if (r == 0) continue;  // warm-up
      probe.requant_s.push_back(requant);
      probe.conv_s.push_back(conv);
    }
  }
  double requant_ms = 0.0;
  double conv_ms = 0.0;
  for (const ConvProbe& probe : convs) {
    requant_ms += median(probe.requant_s) * 1e3;
    conv_ms += median(probe.conv_s) * 1e3;
  }
  metrics.set("kernels.entry_pixels", entry_pixels, "count");
  metrics.set("kernels.shift_conv_ms", conv_ms, "ms");
  metrics.set("kernels.ns_per_entry_pixel", conv_ms * 1e6 / entry_pixels, "ns");
  metrics.set("kernels.requant_ms", requant_ms, "ms");

  // Thread scaling of the workload's request (a full fused batch on serve),
  // a block of each thread count per round, rounds repeated.
  runtime::InferenceRequest request;
  const std::size_t batch = workload.serve ? 8 : 1;
  for (std::size_t i = 0; i < batch; ++i) request.images.push_back(inputs.images[i]);
  const int rounds = options.smoke ? 1 : 5;
  const int per_block = reps_within(budget_s / rounds, 2.0 * estimate * static_cast<double>(batch),
                                    options.smoke ? 1 : 3, 200);
  std::map<int, std::vector<double>> by_threads;
  for (int round = 0; round < rounds; ++round) {
    for (const int threads : {1, 2, 4}) {
      runtime::set_num_threads(threads);
      runner.warm(batch);
      runner.run(request, result);
      for (int k = 0; k < per_block; ++k) {
        by_threads[threads].push_back(time_call([&] {
          const Span span("BatchRunner::run", -1, threads);
          runner.run(request, result);
        }));
        for (std::size_t i = 0; i < batch; ++i) {
          ++checks.logits_checked;
          if (!same_bytes(result.logits[i], inputs.reference[i])) ++checks.logits_mismatched;
        }
      }
    }
  }
  const double one = median(by_threads[1]);
  metrics.set("runtime.speedup_2t", one / median(by_threads[2]), "x");
  metrics.set("runtime.speedup_4t", one / median(by_threads[4]), "x");
  runtime::set_num_threads(1);
}

// --- Metrics from the measured loop ---------------------------------------------

void loop_metrics(const ScaledLatency& latency, const ServeTally& tally,
                  const Checks& checks, Metrics& metrics) {
  metrics.set("latency_ms", latency.ms(false), "ms");
  metrics.set("latency_raw_p50_ms", latency.raw_median_ms(), "ms");
  metrics.set("bench.pass_us", latency.median_pass_us(), "us");
  // Zero on the single-image loops, which bypass serving::Server.
  metrics.set("serving.submit_us_p50", median({tally.submit_us.begin(), tally.submit_us.end()}),
              "us");
  metrics.set("serving.queue_ms_p50", median({tally.queue_ms.begin(), tally.queue_ms.end()}),
              "ms");
  metrics.set("serving.compute_ms_p50",
              median({tally.compute_ms.begin(), tally.compute_ms.end()}), "ms");
  metrics.set("serving.mean_batch", tally.mean_batch, "images");
  metrics.set("serving.poisoned_per_malformed",
              checks.malformed_sent > 0 ? static_cast<double>(tally.poisoned) /
                                              static_cast<double>(checks.malformed_sent)
                                        : 0.0,
              "ratio");
}

// --- Command line and run ---------------------------------------------------

bool parse_options(int argc, char** argv, Options& options) {
  support::ArgParser parser("perf_ledger", "end-to-end + per-layer perf ledger");
  parser.add_flag("--workload",
                  "vgg7_single | flightnn_tiny_single | resnet18_single | flightnn_tiny_serve");
  parser.add_flag("--seed", "input seed (images, malformed bursts)", "1");
  parser.add_flag("--seconds", "measured duration of the workload", "15");
  parser.add_flag("--trace", "write spans here and record per-layer metrics", "");
  parser.add_flag("--out", "run record (JSON)");
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  options.smoke = smoke_it != args.end();
  if (options.smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr, "%s\n%s  --smoke: CI-sized run\n", parser.error().c_str(),
                 parser.usage().c_str());
    return false;
  }
  for (const Workload& w : kWorkloads) {
    if (parser.get("--workload") == w.name) options.workload = &w;
  }
  if (options.workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", parser.get("--workload").c_str());
    return false;
  }
  options.seed = std::stoull(parser.get("--seed"));
  options.seconds = parser.get_double("--seconds");
  if (options.smoke) options.seconds = std::min(options.seconds, 0.3);
  options.trace_path = parser.get("--trace");
  options.out_path = parser.get("--out");
  return options.seconds > 0.0;
}

int run(const Options& options) {
  const Workload& workload = *options.workload;
  // Before any thread starts, so the server's batcher shares the CPU.
  const cpu_set_t all_cpus = pin_to_one_cpu();
  runtime::set_num_threads(1);
  std::unique_ptr<Tracer> tracer;
  if (!options.trace_path.empty()) {
    tracer = std::make_unique<Tracer>(std::size_t{1} << 18);
    active_tracer() = tracer.get();
  }

  Checks checks;
  Metrics metrics;
  std::array<long long, 3> k_histogram{};
  auto model = build_model(workload, k_histogram);
  const std::size_t max_batch =
      workload.serve ? static_cast<std::size_t>(serving::ServerConfig{}.max_batch) : 1;

  SpeedPass speed;
  ScaledLatency latency;
  ServeTally tally;
  latency.reserve(options.seconds, kMaxRequestsPerS);
  if (workload.serve) {
    for (auto* buffer : {&tally.submit_us, &tally.queue_ms, &tally.compute_ms}) {
      buffer->assign(static_cast<std::size_t>(options.seconds * kMaxRequestsPerS) + 1024, 0.0F);
      buffer->clear();
    }
  }
  SetUps setups(*model, options.out_path + ".flnart", max_batch, checks);
  const Deployment deployment = setups.run(options.smoke ? 1 : kSetUpRepetitions, speed);
  const Inputs inputs = make_inputs(options.seed, options.smoke ? 16 : 64, setups.program());

  // peak_rss_mib covers the measured loop: the memory the repeated set-ups
  // freed goes back to the system and the high-water mark restarts here.
  reset_peak_rss();
  if (workload.serve) {
    serve_bursts(options.seed, *deployment.runner, inputs, options.seconds, speed, latency, tally,
                 checks);
  } else {
    closed_loop(*deployment.runner, inputs, options.seconds, speed, latency, checks);
  }
  metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
  loop_metrics(latency, tally, checks, metrics);

  metrics.set("setup_s", median(setups.setup_s), "s");
  metrics.set("compile.compile_ms", median(setups.compile_s) * 1e3, "ms");
  metrics.set("serialize.build_ms", median(setups.build_s) * 1e3, "ms");
  metrics.set("serialize.load_ms", median(setups.load_s) * 1e3, "ms");
  metrics.set("runtime.warm_ms", median(setups.warm_s) * 1e3, "ms");
  metrics.set("serialize.artifact_kib", static_cast<double>(setups.artifact_bytes()) / 1024.0,
              "KiB");
  const inference::MemoryPlan* plan = deployment.model->network().memory_plan();
  metrics.set("compile.arena_kib",
              plan != nullptr ? static_cast<double>(plan->arena_capacity_bytes()) / 1024.0 : 0.0,
              "KiB");
  double plan_entries = 0.0;
  for (const ProgramOp& op : setups.program().ops) {
    plan_entries += static_cast<double>(op.plan.entries());
  }
  metrics.set("compile.plan_entries", plan_entries, "count");

  if (tracer != nullptr) {
    const double traced = latency.ms(true);
    const double untraced = latency.ms(false);
    metrics.set("bench.trace_overhead_pct",
                traced > 0.0 && untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0, "%");
    restore_cpus(all_cpus);  // the probes time 2 and 4 threads
    run_probes(workload, options, deployment, inputs, metrics, checks);
  }

  JsonObject k_json;
  const auto filters = static_cast<double>(k_histogram[0] + k_histogram[1] + k_histogram[2]);
  const char* const k_names[] = {"k0_share", "k1_share", "k2_share"};
  for (std::size_t k = 0; k < 3 && filters > 0; ++k) {
    k_json.number(k_names[k], static_cast<double>(k_histogram[k]) / filters);
  }
  JsonObject check_json;
  check_json.integer("logits_checked", checks.logits_checked)
      .integer("logits_mismatched", checks.logits_mismatched)
      .integer("malformed_sent", checks.malformed_sent)
      .integer("malformed_served", checks.malformed_served)
      .integer("good_failed", checks.good_failed)
      .integer("good_failed_unexplained", checks.good_failed_unexplained)
      .boolean("artifact_reproducible", checks.artifact_reproducible)
      .boolean("probe_replay_matches", checks.probe_replay_matches);
  const bool correct = checks.failed() == 0 && checks.logits_checked > 0;
  JsonObject record;
  record.string("workload", workload.name)
      .integer("seed", static_cast<long long>(options.seed))
      .number("seconds", options.seconds)
      .boolean("smoke", options.smoke)
      .boolean("traced", tracer != nullptr)
      .boolean("correct", correct)
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed())
      .raw("checks", check_json.str())
      .integer("latency_samples", static_cast<long long>(latency.samples()))
      .integer("setup_repetitions", static_cast<long long>(setups.setup_s.size()))
      .integer("hardware_concurrency", std::thread::hardware_concurrency())
      .string("kernel_tier", inference::kernel_tier_name(inference::active_shift_kernels().tier))
      .raw("k_histogram", k_json.str())
      .raw("metrics", metrics.json());
  if (tracer != nullptr) {
    JsonObject spans;
    for (const auto& [name, totals] : tracer->totals()) {
      spans.raw(name, JsonObject()
                          .integer("count", totals.count)
                          .number("total_ms", totals.total_ms)
                          .number("self_ms", totals.self_ms)
                          .str());
    }
    record.raw("spans", spans.str())
        .integer("spans_dropped", static_cast<long long>(tracer->dropped()));
    if (!tracer->write_chrome_json(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
      return 2;
    }
  }
  FILE* out = std::fopen(options.out_path.c_str(), "w");
  const bool written = out != nullptr && std::fprintf(out, "%s\n", record.str().c_str()) > 0;
  if (out == nullptr || std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", options.out_path.c_str());
    return 2;
  }

  std::printf("perf_ledger %s seed %llu: %s, %lld requests, %lld failed checks\n",
              workload.name, static_cast<unsigned long long>(options.seed),
              correct ? "correct" : "INCORRECT", checks.attempted, checks.failed());
  metrics.print();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace flightnn::ledger

int main(int argc, char** argv) {
  try {
    flightnn::ledger::Options options;
    if (!flightnn::ledger::parse_options(argc, argv, options)) return 2;
    return flightnn::ledger::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perf_ledger: %s\n", error.what());
    return 2;
  }
}
