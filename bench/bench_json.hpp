#pragma once

// Minimal JSON emission for benchmark result files (BENCH_*.json). The
// benches record their measured numbers together with the git revision so a
// result file is traceable to the code that produced it. No external JSON
// dependency: the writer only needs objects, arrays, strings and numbers.

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "runtime/scratch_arena.hpp"
#include "support/simd.hpp"

namespace flightnn::bench {

// Short git revision of the working tree, or "unknown" outside a checkout.
inline std::string git_sha() {
  FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[64] = {0};
  std::string sha;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
  ::pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

// The one escaping routine every BENCH_*.json writer goes through: strings
// reaching the result files (git SHAs, config names, host info) must not be
// able to break the document, so quotes, backslashes and control characters
// are escaped here and nowhere else.
inline std::string json_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Incremental writer producing one top-level object. Keys are emitted in
// call order; values are raw JSON fragments produced by the helpers below.
class JsonObject {
 public:
  // Built by appends: GCC 12 reports a false -Wrestrict on a string
  // literal + std::string chain once the operator+ calls are inlined.
  void add(const std::string& key, const std::string& raw_json) {
    std::string field = "\"";
    field += json_escape(key);
    field += "\": ";
    field += raw_json;
    fields_.push_back(std::move(field));
  }
  void add_string(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += json_escape(value);
    quoted += '"';
    add(key, quoted);
  }
  void add_number(const std::string& key, double value) {
    std::ostringstream out;
    out << value;
    add(key, out.str());
  }
  void add_int(const std::string& key, long long value) {
    add(key, std::to_string(value));
  }
  void add_bool(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
  }

  [[nodiscard]] std::string to_string(int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += pad + fields_[i];
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    out += std::string(static_cast<std::size_t>(indent), ' ') + "}";
    return out;
  }

 private:
  std::vector<std::string> fields_;
};

inline std::string json_array(const std::vector<std::string>& raw_items) {
  std::string out = "[";
  for (std::size_t i = 0; i < raw_items.size(); ++i) {
    out += raw_items[i];
    if (i + 1 < raw_items.size()) out += ", ";
  }
  return out + "]";
}

inline bool write_json_file(const std::string& path,
                            const JsonObject& object) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string text = object.to_string() + "\n";
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  std::fclose(file);
  return ok;
}

// Process peak resident set in KiB (getrusage ru_maxrss; Linux reports KiB,
// macOS bytes -- normalized here). 0 on platforms without getrusage. A
// memory-footprint claim (DESIGN.md §15) is only checkable against what the
// OS actually charged the process, so every BENCH_*.json carries this.
inline long long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<long long>(usage.ru_maxrss) / 1024;
#else
  return static_cast<long long>(usage.ru_maxrss);
#endif
#else
  return 0;
#endif
}

// Host provenance block every BENCH_*.json carries: a throughput or kernel
// number is only comparable to another run if the CPU topology and the ISA
// tier the dispatcher picked are known. `dispatch_tier` is the tier the
// bench actually ran with (active_shift_kernels().tier's name), which can
// differ from the detected ISA under FLIGHTNN_FORCE_SCALAR or the test
// override. The memory fields record what the run actually cost: the OS's
// peak-RSS charge and the calling thread's scratch-arena footprint at
// emission time (workers' arenas are per-thread and not visible here).
inline void add_host_info(JsonObject& object, const std::string& dispatch_tier) {
  JsonObject host;
  host.add_int("hardware_concurrency",
               static_cast<long long>(std::thread::hardware_concurrency()));
  host.add_bool("avx2", support::cpu_has_avx2());
  host.add_bool("avx512_vnni", support::cpu_has_avx512_vnni());
  host.add_bool("fma", support::cpu_has_fma());
  host.add_string("dispatch_tier", dispatch_tier);
  host.add_int("peak_rss_kib", peak_rss_kib());
  host.add_int("main_thread_arena_bytes",
               static_cast<long long>(
                   runtime::ScratchArena::current().footprint_bytes()));
  object.add("host", host.to_string(2));
}

// Splice `object` into an existing BENCH_*.json under `key`, so a second
// writer (e.g. kernels_microbench) can extend a file another bench produced
// without a JSON parser; a top-level `key` already there is replaced, so a
// rerun leaves one. Relies on write_json_file's output shape: the file is
// one top-level object ending "}\n", each of its fields starting on a line
// that begins `  "name": ` (nested lines are indented further). Fails
// (returns false) if the file is missing or does not end in '}', leaving it
// untouched.
inline bool merge_into_json_file(const std::string& path,
                                 const std::string& key,
                                 const JsonObject& object) {
  FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return false;
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(in);
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == '\r' || text.back() == ' ')) {
    text.pop_back();
  }
  if (text.size() < 2 || text.back() != '}') return false;
  text.pop_back();
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == '\r' || text.back() == ' ')) {
    text.pop_back();
  }
  // Drop every top-level field named `key`: from its line to the next
  // top-level field's, or to the end with the separator before it.
  std::string field = "\n  \"";
  field += json_escape(key);
  field += "\": ";
  for (std::size_t at = text.find(field); at != std::string::npos;
       at = text.find(field)) {
    const std::size_t next = text.find("\n  \"", at + 1);
    if (next != std::string::npos) {
      text.erase(at, next - at);
    } else {
      text.erase(at);
      if (text.back() == ',') text.pop_back();
    }
  }
  const bool empty_object = !text.empty() && text.back() == '{';
  text += std::string(empty_object ? "\n" : ",\n") + "  \"" +
          json_escape(key) + "\": " + object.to_string(2) + "\n}\n";
  FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  std::fclose(out);
  return ok;
}

}  // namespace flightnn::bench
