#pragma once
/// \file perfbench/src/harness.hpp
/// \brief Measurement plumbing for the repo benchmark: sample
///        statistics with the tail rule, in-memory span tracing, the
///        byte-exact CSR comparison the correctness gate uses, and the
///        metric sink the workloads fill.
///
/// Nothing here calls into the library's internals: the workloads drive
/// the public API and wrap each call they want measured in a `Span`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "sparse/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// Median and tail of one timing's samples. The tail is the highest
/// percentile that still has at least ten samples beyond it, so its
/// meaning is stated by `tail_pct` and `n` rather than fixed at p99.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.p50 = median(v);
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) {
    // No percentile has ten samples beyond it; the median is the most
    // the data supports.
    s.tail = s.p50;
    s.tail_pct = 50.0;
    return s;
  }
  const std::size_t rank = v.size() - 10;  // 1-based rank of the tail
  s.tail = v[rank - 1];
  s.tail_pct = 100.0 * static_cast<double>(rank) /
               static_cast<double>(v.size());
  return s;
}

/// One traced call: `name` is "<module>.<function>", `id` the batch or
/// query it belongs to, `parent` the index of the enclosing span on the
/// same lane (-1 at the root).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::int32_t lane;
  std::int64_t id;
  std::int32_t round;
};

/// Per-thread span buffer. Each thread owns one lane, so recording takes
/// no lock; lanes are merged only when the spans are written out.
class Lane {
 public:
  explicit Lane(std::int32_t id) : id_(id) { spans_.reserve(1 << 14); }

  std::int32_t open(const char* name, std::int64_t id, std::int32_t round) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), id_, id,
                          round});
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int32_t id_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null lane (untraced round) records nothing.
class Scope {
 public:
  Scope(Lane* lane, const char* name, std::int64_t id, std::int32_t round)
      : lane_(lane), idx_(lane ? lane->open(name, id, round) : -1) {}
  ~Scope() {
    if (lane_) lane_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Lane* lane_;
  std::int32_t idx_;
};

/// Durations in ms of every span called `name`, across lanes.
inline std::vector<double> span_ms(const std::vector<const Lane*>& lanes,
                                   const char* name) {
  std::vector<double> out;
  for (const Lane* lane : lanes) {
    for (const Span& s : lane->spans()) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(ms_between(s.start_ns, s.end_ns));
      }
    }
  }
  return out;
}

inline double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

/// Write every span once, as JSON lines, at the end of the run.
inline bool write_spans(const std::string& path,
                        const std::vector<const Lane*>& lanes,
                        const std::string& workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Lane* lane : lanes) {
    for (const Span& s : lane->spans()) {
      std::fprintf(f,
                   "{\"workload\":\"%s\",\"name\":\"%s\",\"lane\":%d,"
                   "\"index\":%td,\"parent\":%d,\"round\":%d,\"id\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   workload.c_str(), s.name, s.lane,
                   &s - lane->spans().data(), s.parent, s.round,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

/// Bitwise CSR equality: shape, pattern, and value bytes.
template <typename T>
bool same_bytes(const i2a::sparse::Csr<T>& a, const i2a::sparse::Csr<T>& b) {
  return a.nrows() == b.nrows() && a.ncols() == b.ncols() &&
         a.row_ptr() == b.row_ptr() && a.cols() == b.cols() &&
         a.vals().size() == b.vals().size() &&
         (a.vals().empty() ||
          std::memcmp(a.vals().data(), b.vals().data(),
                      a.vals().size() * sizeof(T)) == 0);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Named metric values with units, printed as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values()
      const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench
