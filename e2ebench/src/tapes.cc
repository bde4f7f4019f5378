// Workload definitions and tape generation.  Everything here runs before
// the server exists; the tapes are built once per process from --seed.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/check.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "properties/runtime_stats.h"
#include "stream/element_serde.h"
#include "workload/generator.h"

namespace e2e {
namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;
  {
    // Sec. VI-B replicas: 20% disorder, revisions via insert+adjust splits,
    // unique 1000-byte payloads.  Merge core and payload interning bound.
    WorkloadSpec s;
    s.name = "divergent";
    s.replicas = 3;
    s.subscribers = 1;
    s.events = 20000;
    s.payload_bytes = 1000;
    s.disorder = 0.2;
    s.split = 0.3;
    s.batch = 64;
    specs.push_back(s);
  }
  {
    // In-order insert-only replicas with a small payload pool: the factory
    // picks a watermark merge, so decode, enqueue and fan-out dominate.
    WorkloadSpec s;
    s.name = "inorder-wire";
    s.replicas = 2;
    s.subscribers = 2;
    s.events = 150000;
    s.payload_bytes = 16;
    s.payload_pool = 512;
    s.batch = 64;
    specs.push_back(s);
  }
  {
    // Open loop well below saturation, replica 1 a fixed wall-time lag
    // behind replica 0 (Fig. 5): latency, drops and FEEDBACK.
    WorkloadSpec s;
    s.name = "paced-lag";
    s.paced = true;
    s.replicas = 2;
    s.subscribers = 1;
    s.events = 30000;
    s.payload_bytes = 64;
    // About 18k events per wall second, so app time runs near wall time
    // and 20 ms lifetimes end well inside the 50 ms lag: most of the
    // lagging replica arrives behind the output stable point.
    s.max_gap = 110;
    s.event_duration = 20'000;
    s.disorder = 0.2;
    s.split = 0.1;
    s.batch = 16;
    s.rate_per_replica = 20000.0;
    s.lag_us = 50000;
    specs.push_back(s);
  }
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int64_t EventIndex(const Tapes& tapes, Timestamp vs) {
  const auto it = std::lower_bound(
      tapes.events.begin(), tapes.events.end(), vs,
      [](const ExpectedEvent& e, Timestamp t) { return e.vs < t; });
  if (it == tapes.events.end() || it->vs != vs) return -1;
  return it - tapes.events.begin();
}

Tapes BuildTapes(const WorkloadSpec& spec, uint64_t seed) {
  using namespace lmerge;
  workload::GeneratorConfig config;
  config.num_inserts = spec.events;
  config.payload_string_bytes = spec.payload_bytes;
  config.payload_pool_size = spec.payload_pool;
  config.max_gap = spec.max_gap;
  config.event_duration = spec.event_duration;
  config.duration_jitter = spec.event_duration / 4;
  config.seed = seed;
  workload::LogicalHistory history = workload::GenerateHistory(config);
  // The lmerge_gen --finalize rule: one stable past every event, so the
  // lazy merge converges to the whole history.
  Timestamp max_ve = kMinTimestamp;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);

  Tapes tapes;
  tapes.events.reserve(history.events.size());
  for (const Event& e : history.events) {
    tapes.events.push_back(ExpectedEvent{e.vs, e.ve, e.payload.hash()});
  }
  for (size_t i = 1; i < tapes.events.size(); ++i) {
    LM_CHECK(tapes.events[i - 1].vs < tapes.events[i].vs);
  }
  tapes.stable_times = history.stable_times;
  tapes.final_stable = history.stable_times.back();

  for (int r = 0; r < spec.replicas; ++r) {
    ElementSequence elements;
    if (spec.disorder == 0.0 && spec.split == 0.0) {
      elements = workload::RenderInOrder(history);
    } else {
      workload::VariantOptions options;
      options.disorder_fraction = spec.disorder;
      options.split_probability = spec.split;
      options.seed = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(r) + 1;
      elements = workload::GeneratePhysicalVariant(history, options);
    }
    ReplicaTape tape;
    StreamStatsCollector collector;
    for (const StreamElement& element : elements) collector.Observe(element);
    tape.properties = collector.ObservedProperties();
    net::HelloMessage hello;
    hello.role = net::PeerRole::kPublisher;
    hello.properties = tape.properties;
    hello.peer_name = "replica-" + std::to_string(r);
    tape.hello = net::EncodeHelloFrame(hello);
    tape.insert_chunk.assign(tapes.events.size(), -1);
    tape.stable_chunk.assign(tapes.stable_times.size(), -1);
    // The replica's own outbound dictionary, as PublisherClient keeps one:
    // PAYLOAD_DEF frames ride in the chunk of the first reference.  The
    // origin stamp is 0 (unknown); the benchmark keeps its own clocks.
    PayloadDictEncoder dict;
    for (size_t begin = 0; begin < elements.size(); begin += spec.batch) {
      const size_t end = std::min(elements.size(), begin + spec.batch);
      const int32_t chunk = static_cast<int32_t>(tape.chunks.size());
      ElementSequence batch(elements.begin() + static_cast<long>(begin),
                            elements.begin() + static_cast<long>(end));
      Timestamp max_stable = kMinTimestamp;
      for (const StreamElement& element : batch) {
        if (element.is_stable()) {
          max_stable = std::max(max_stable, element.stable_time());
          const auto it =
              std::lower_bound(tapes.stable_times.begin(),
                               tapes.stable_times.end(), element.stable_time());
          LM_CHECK(it != tapes.stable_times.end() &&
                   *it == element.stable_time());
          int32_t& slot = tape.stable_chunk[it - tapes.stable_times.begin()];
          if (slot < 0) slot = chunk;
        } else if (element.is_insert()) {
          const int64_t index = EventIndex(tapes, element.vs());
          LM_CHECK(index >= 0);
          int32_t& slot = tape.insert_chunk[static_cast<size_t>(index)];
          if (slot < 0) slot = chunk;
        }
      }
      std::string bytes = net::EncodeElementsDictFrame(batch, &dict, 0);
      net::FrameAssembler assembler;
      LM_CHECK(assembler.Feed(bytes).ok());
      net::Frame frame;
      int32_t frames = 0;
      while (assembler.Next(&frame)) ++frames;
      tape.chunk_frames.push_back(frames);
      tape.chunk_max_stable.push_back(max_stable);
      tape.bytes += static_cast<int64_t>(bytes.size());
      tape.chunks.push_back(std::move(bytes));
    }
    for (int32_t chunk : tape.insert_chunk) LM_CHECK(chunk >= 0);
    for (int32_t chunk : tape.stable_chunk) LM_CHECK(chunk >= 0);
    tape.elements = static_cast<int64_t>(elements.size());
    tapes.input_elements += tape.elements;
    tapes.element_chunks += static_cast<int64_t>(tape.chunks.size());
    tapes.replicas.push_back(std::move(tape));
  }
  net::HelloMessage sub_hello;
  sub_hello.role = net::PeerRole::kSubscriber;
  sub_hello.peer_name = "subscriber";
  tapes.subscriber_hello = net::EncodeHelloFrame(sub_hello);
  return tapes;
}

int64_t ResidentBytes() {
  FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int read = std::fscanf(file, "%lld %lld", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace e2e
