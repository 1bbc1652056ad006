#pragma once

// Support code for the perf ledger (perf_ledger.cpp): order
// statistics over latency samples, a JSON writer that keeps every digit of a
// measurement, and the span recorder behind `--trace`.
//
// Spans are recorded by the ledger around the public calls it makes into
// each module (BatchRunner::run, Server::submit, ArtifactModel::load, ...),
// never inside the library. They go into a buffer preallocated at start-up
// (an index claimed with one atomic add, no allocation while recording) and
// are written as Chrome trace-event JSON when the run ends, so Perfetto or
// chrome://tracing can open the file directly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace flightnn::ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile (p in (0, 1]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// --- JSON ---------------------------------------------------------------------

inline std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Shortest text that reads back as the same double (all measured digits).
// JSON has no infinities; non-finite values become null and the reader
// rejects the run.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

// One JSON object, fields in insertion order.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& number(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& integer(const std::string& key, long long value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& string(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Spans --------------------------------------------------------------------

class Tracer {
 public:
  struct Entry {
    const char* name = nullptr;  // string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    std::int32_t parent = -1;  // enclosing span on the same thread
    std::uint32_t thread = 0;
    std::int64_t request = -1;  // spans of one request share this id
    std::int64_t op = -1;       // flat program op index, for per-op spans
  };

  explicit Tracer(std::size_t capacity)
      : entries_(capacity), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans opened while disabled are not recorded; the ledger toggles this
  // in alternating blocks to measure the recorder's own overhead.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Returns the entry index, or -1 when disabled or the buffer is full.
  std::int32_t open(const char* name, std::int64_t request, std::int64_t op) {
    if (!enabled()) return -1;
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= entries_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
    Entry& e = entries_[index];
    e.name = name;
    e.parent = open_stack().empty() ? -1 : open_stack().back();
    e.thread = thread_index();
    e.request = request;
    e.op = op;
    e.start_ns = now_ns();
    const auto id = static_cast<std::int32_t>(index);
    open_stack().push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    entries_[static_cast<std::size_t>(id)].end_ns = now_ns();
    auto& stack = open_stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }

  [[nodiscard]] std::size_t recorded() const {
    return std::min(next_.load(), entries_.size());
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_.load(); }

  // Per-name totals: {count, total ms, self ms}. Self time is a span's
  // duration minus the durations of its direct children.
  struct NameTotals {
    long long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const {
    const std::vector<double> self = self_ns();
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < recorded(); ++i) {
      const Entry& e = entries_[i];
      if (e.end_ns < 0) continue;
      NameTotals& t = out[e.name];
      ++t.count;
      t.total_ms += static_cast<double>(e.end_ns - e.start_ns) * 1e-6;
      t.self_ms += self[i] * 1e-6;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  // Call only after every recording thread has been joined.
  bool write_chrome_json(const std::string& path) const {
    FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const std::vector<double> self = self_ns();
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
    bool first = true;
    for (std::size_t i = 0; i < recorded(); ++i) {
      const Entry& e = entries_[i];
      if (e.end_ns < 0) continue;
      JsonObject args;
      args.number("self_us", self[i] * 1e-3);
      if (e.request >= 0) args.integer("request", e.request);
      if (e.op >= 0) args.integer("op", e.op);
      JsonObject event;
      event.string("name", e.name)
          .string("ph", "X")
          .integer("pid", 1)
          .integer("tid", e.thread)
          .number("ts", static_cast<double>(e.start_ns) * 1e-3)
          .number("dur", static_cast<double>(e.end_ns - e.start_ns) * 1e-3)
          .raw("args", args.str());
      std::fprintf(file, "%s%s", first ? "" : ",\n", event.str().c_str());
      first = false;
    }
    std::fputs("\n]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  static std::vector<std::int32_t>& open_stack() {
    thread_local std::vector<std::int32_t> stack = [] {
      std::vector<std::int32_t> s;
      s.reserve(64);
      return s;
    }();
    return stack;
  }
  std::uint32_t thread_index() {
    thread_local std::uint32_t index = next_thread_.fetch_add(1);
    return index;
  }
  [[nodiscard]] std::vector<double> self_ns() const {
    std::vector<double> self(recorded(), 0.0);
    for (std::size_t i = 0; i < self.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.end_ns < 0) continue;
      const auto duration = static_cast<double>(e.end_ns - e.start_ns);
      self[i] += duration;
      if (e.parent >= 0) self[static_cast<std::size_t>(e.parent)] -= duration;
    }
    return self;
  }

  std::vector<Entry> entries_;
  Clock::time_point epoch_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint32_t> next_thread_{0};
};

// The process's recorder; null in untraced runs, so a span costs one branch.
inline Tracer*& active_tracer() {
  static Tracer* tracer = nullptr;
  return tracer;
}

// RAII span around one call into the library.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1,
                std::int64_t op = -1) {
    Tracer* tracer = active_tracer();
    if (tracer != nullptr) {
      tracer_ = tracer;
      id_ = tracer->open(name, request, op);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  std::int32_t id_ = -1;
};

}  // namespace flightnn::ledger
