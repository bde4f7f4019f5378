#include "trace.h"

#include <cstdio>

namespace e2e {

bool WriteChromeTrace(const std::string& path, const SpanLog& spans,
                      int64_t origin_ns) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%lld}}\n",
                 i == 0 ? "" : ",", span.name, span.lane,
                 static_cast<double>(span.start_ns - origin_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<long long>(span.round));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace e2e
