// Spans recorded by the benchmark around its own calls into each layer.
// Every thread appends to a SpanLog it owns; the round merges them after
// joining, so recording takes no lock.  Written out as a Chrome trace
// (chrome://tracing, Perfetto) when the run ends.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace e2e {

struct Span {
  const char* name = "";
  int lane = 0;  // Chrome "tid": 0 main, 1.. publishers, 10.. subscribers
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t round = 0;
};

using SpanLog = std::vector<Span>;

// Records [construction, destruction) into `log` when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int lane, int64_t round)
      : log_(log), name_(name), lane_(lane), round_(round),
        start_ns_(log != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->push_back(Span{name_, lane_, start_ns_, NowNs(), round_});
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  int lane_;
  int64_t round_;
  int64_t start_ns_;
};

// Writes `spans` as Chrome trace-event JSON, times relative to
// `origin_ns`.  False when the file cannot be written.
bool WriteChromeTrace(const std::string& path, const SpanLog& spans,
                      int64_t origin_ns);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
