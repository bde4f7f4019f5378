// End-to-end benchmark of the merge service.
//
//   lmerge_e2ebench --workload <divergent|inorder-wire|paced-lag>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <chrome-trace.json>]
//
// Builds the workload's tapes from the seed, self-tests the output checker,
// then runs whole rounds (round.h) until --seconds have passed, checking
// every round's merged output.  The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 rounds alternate untraced
// and traced, and the metrics are the per-layer ones from the traced rounds
// plus the tracing overhead measured against the untraced ones.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ballast.h"
#include "bench.h"
#include "checker.h"
#include "layers.h"
#include "round.h"
#include "trace.h"

namespace e2e {
namespace {

constexpr size_t kMaxTraceSpans = 400000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// The requested percentile, or the highest one with at least ten samples
// beyond it when the run holds too few.
double Percentile(std::vector<int64_t>* samples, double q, double* used) {
  if (samples->empty()) return 0;
  const double n = static_cast<double>(samples->size());
  *used = std::min(q, std::max(0.5, 1.0 - 10.0 / n));
  std::sort(samples->begin(), samples->end());
  const size_t index = std::min(
      samples->size() - 1, static_cast<size_t>(std::floor(*used * n)));
  return static_cast<double>((*samples)[index]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (!std::isfinite(metrics[i].value)) std::snprintf(value, 2, "0");
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Ratio(int64_t numerator, int64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

// Latency of delivery, from the benchmark's own clocks.  Printed on stderr
// only: it is not steady enough on every workload to gate (README.md).
void PrintLatency(const char* what, std::vector<int64_t>* samples) {
  double q50 = 0;
  double q99 = 0;
  const double p50 = Percentile(samples, 0.5, &q50) / 1e3;
  const double p99 = Percentile(samples, 0.99, &q99) / 1e3;
  std::fprintf(stderr, "  %s: p50 %.1f us, p%.2f %.1f us (%zu samples)\n",
               what, p50, q99 * 100, p99, samples->size());
}

std::vector<Metric> EndToEnd(const Tapes& tapes,
                             std::vector<RoundResult>& rounds, double setup_s,
                             int64_t rss_base) {
  std::vector<double> rate, cpu, rss;
  std::vector<int64_t> insert_lat, stable_lat, late;
  for (RoundResult& r : rounds) {
    rate.push_back(static_cast<double>(tapes.input_elements) /
                   (static_cast<double>(r.wall_ns) / 1e9));
    cpu.push_back(static_cast<double>(r.cpu_ns) / 1e3 /
                  static_cast<double>(tapes.input_elements));
    rss.push_back(static_cast<double>(r.peak_rss - rss_base) / (1 << 20));
    insert_lat.insert(insert_lat.end(), r.insert_lat_ns.begin(),
                      r.insert_lat_ns.end());
    stable_lat.insert(stable_lat.end(), r.stable_lat_ns.begin(),
                      r.stable_lat_ns.end());
    late.insert(late.end(), r.gen_late_ns.begin(), r.gen_late_ns.end());
  }
  PrintLatency("insert latency", &insert_lat);
  PrintLatency("stable latency", &stable_lat);
  if (!late.empty()) PrintLatency("generator lateness", &late);
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", setup_s, "s"});
  metrics.push_back({"elements_per_s", Median(rate), "elem/s"});
  metrics.push_back({"cpu_us_per_elem", Median(cpu), "us"});
  metrics.push_back({"peak_rss_mb", Median(rss), "MB"});
  return metrics;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Tapes& tapes,
                             std::vector<RoundResult>& rounds,
                             const LayerReplay& replay) {
  const double elements = static_cast<double>(tapes.input_elements);
  std::vector<double> on_bytes, busy, rx_bytes, hit, store, per_batch,
      merge_busy, stalls, flush, probes, out_per_in, dropped, encoded_bytes,
      per_frame, wakeups, feedback, client_decode;
  std::vector<double> cpu_traced, cpu_untraced;
  std::vector<int64_t> late;
  for (RoundResult& r : rounds) {
    const double cpu = static_cast<double>(r.cpu_ns) / elements;
    if (!r.traced) {
      cpu_untraced.push_back(cpu);
      continue;
    }
    cpu_traced.push_back(cpu);
    const int64_t on_bytes_ns = spec.paced ? replay.on_bytes_ns : r.on_bytes_ns;
    on_bytes.push_back(static_cast<double>(on_bytes_ns) / elements);
    busy.push_back(Ratio(on_bytes_ns, r.wall_ns));
    rx_bytes.push_back(static_cast<double>(r.delta["net.rx.bytes"]) /
                       elements);
    hit.push_back(Ratio(r.intern_hits, r.intern_calls));
    store.push_back(static_cast<double>(r.payload_peak));
    const int64_t merged =
        r.stats.inserts_in + r.stats.adjusts_in + r.stats.stables_in;
    per_batch.push_back(Ratio(merged, r.delta["engine.batches"]));
    merge_busy.push_back(Ratio(
        r.delta["engine.busy_us"],
        r.delta["engine.busy_us"] + r.delta["engine.idle_us"]));
    stalls.push_back(
        static_cast<double>(r.delta["engine.backpressure_stalls"]));
    flush.push_back(static_cast<double>(r.flush_ns) / 1e6);
    probes.push_back(Ratio(r.index_probes, merged));
    out_per_in.push_back(Ratio(
        r.stats.inserts_out + r.stats.adjusts_out + r.stats.stables_out,
        merged));
    dropped.push_back(Ratio(r.stats.dropped, merged));
    encoded_bytes.push_back(
        Ratio(r.delta["net.fanout.encoded_bytes"], r.output_elements));
    per_frame.push_back(
        Ratio(r.output_elements, r.delta["net.fanout.encoded_frames"]));
    wakeups.push_back(static_cast<double>(r.delta["net.loop.wakeups"]) /
                      elements);
    feedback.push_back(
        static_cast<double>(r.delta["net.tx.feedback.frames"]));
    client_decode.push_back(Ratio(r.client_decode_ns, r.client_elements));
    late.insert(late.end(), r.gen_late_ns.begin(), r.gen_late_ns.end());
  }
  double q = 0;
  const double late_p99 =
      late.empty() ? 0.0 : Percentile(&late, 0.99, &q) / 1e3;
  std::vector<Metric> m;
  m.push_back({"net.on_bytes.ns_per_elem", Median(on_bytes), "ns"});
  m.push_back({"net.on_bytes.busy_frac", Median(busy), "frac"});
  m.push_back({"net.decode.ns_per_elem", replay.decode_ns_per_elem, "ns"});
  m.push_back({"net.rx.bytes_per_elem", Median(rx_bytes), "bytes"});
  m.push_back({"payload.intern_hit_ratio", Median(hit), "frac"});
  m.push_back({"payload.store_bytes_peak", Median(store), "bytes"});
  m.push_back({"engine.elems_per_batch", Median(per_batch), "elem"});
  m.push_back({"engine.merge_busy_frac", Median(merge_busy), "frac"});
  m.push_back({"engine.backpressure_stalls", Median(stalls), "count"});
  m.push_back({"engine.flush_wait_ms", Median(flush), "ms"});
  m.push_back({"core.ns_per_elem", replay.core_ns_per_elem, "ns"});
  m.push_back({"core.index_probes_per_elem", Median(probes), "count"});
  m.push_back({"core.state_bytes_peak",
               static_cast<double>(replay.core_state_bytes_peak), "bytes"});
  m.push_back({"core.output_per_input", Median(out_per_in), "frac"});
  m.push_back({"core.dropped_frac", Median(dropped), "frac"});
  m.push_back({"fanout.encode_ns_per_elem", replay.fanout_encode_ns_per_elem,
               "ns"});
  m.push_back({"fanout.encoded_bytes_per_elem", Median(encoded_bytes),
               "bytes"});
  m.push_back({"fanout.elems_per_frame", Median(per_frame), "elem"});
  m.push_back({"net.loop.wakeups_per_elem", Median(wakeups), "count"});
  m.push_back({"net.tx.feedback", Median(feedback), "count"});
  m.push_back({"client.decode_ns_per_elem", Median(client_decode), "ns"});
  m.push_back({"gen.late_p99_us", late_p99, "us"});
  m.push_back({"trace.overhead_frac",
               Median(cpu_traced) / Median(cpu_untraced) - 1.0, "frac"});
  return m;
}

int Main(int argc, char** argv) {
  const int64_t main_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lmerge_e2ebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Tape generation and the checker self-test are the benchmark's own work
  // and stay out of setup_s.
  const int64_t prepare_start = NowNs();
  const Ballast ballast;
  bool correct = CheckerSelfTest();
  const Tapes tapes = BuildTapes(*spec, args.seed);
  // Tape building frees many small blocks; hand them back to the allocator
  // now, so the first set-up does not pay for consolidating them.
  malloc_trim(0);
  const int64_t rss_base = ResidentBytes();
  std::fprintf(stderr,
               "%s seed %llu: %zu events, %lld input elements in %lld "
               "chunks, tapes built in %.3f s\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               tapes.events.size(),
               static_cast<long long>(tapes.input_elements),
               static_cast<long long>(tapes.element_chunks),
               static_cast<double>(NowNs() - prepare_start) / 1e9);

  std::vector<RoundResult> rounds;
  int64_t attempted = 0;
  int64_t failed = 0;
  SpanLog spans;
  const int64_t measure_start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds) * 1000000000LL;
  for (int64_t round = 0;; ++round) {
    const bool need_more = args.trace ? round < 2 : round < 1;
    if (!need_more && NowNs() - measure_start >= budget_ns) break;
    const bool traced = args.trace && round % 2 == 1;
    RoundResult result = RunRound(*spec, tapes, round, traced, ballast);
    attempted += result.attempted;
    failed += result.failed;
    if (!result.ok) {
      std::fprintf(stderr, "round %lld failed: %s\n",
                   static_cast<long long>(round), result.error.c_str());
      correct = false;
      break;
    }
    std::fprintf(stderr, "round %lld%s: wall %.1f ms, cpu %.1f ms\n",
                 static_cast<long long>(round), traced ? " (traced)" : "",
                 static_cast<double>(result.wall_ns) / 1e6,
                 static_cast<double>(result.cpu_ns) / 1e6);
    if (traced) {
      if (spans.size() < kMaxTraceSpans) {
        spans.insert(spans.end(), result.spans.begin(), result.spans.end());
      }
      result.spans.clear();
      // Only the last traced round's output feeds the fan-out replay.
      for (RoundResult& r : rounds) r.output_bytes.clear();
    }
    rounds.push_back(std::move(result));
  }
  std::fprintf(stderr, "%zu rounds in %.2f s\n", rounds.size(),
               static_cast<double>(NowNs() - measure_start) / 1e9);

  std::vector<Metric> metrics;
  if (correct && !args.trace) {
    const double setup_s =
        static_cast<double>(prepare_start - main_start + rounds[0].setup_ns) /
        1e9;
    metrics = EndToEnd(tapes, rounds, setup_s, rss_base);
  } else if (correct) {
    // The replays use the last traced round's bytes and interleaving.
    const RoundResult* last = nullptr;
    for (const RoundResult& r : rounds) {
      if (r.traced) last = &r;
    }
    const LayerReplay replay = ReplayLayers(*spec, tapes, *last, &spans);
    correct = replay.ok;
    metrics = PerLayer(*spec, tapes, rounds, replay);
    if (!args.trace_out.empty() &&
        !WriteChromeTrace(args.trace_out, spans, measure_start)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
