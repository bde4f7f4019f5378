// Shared declarations of the end-to-end benchmark: workload specs, the
// pre-encoded tapes each workload publishes, and the clocks every latency is
// taken from.  The program under test only ever sees the encoded tapes.

#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/timestamp.h"
#include "properties/properties.h"

namespace e2e {

using lmerge::Timestamp;

// Steady-clock nanoseconds: the one clock for send, receipt and span times.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkloadSpec {
  std::string name;
  bool paced = false;  // open loop over TCP/ServeLoop, else closed loopback
  int replicas = 2;
  int subscribers = 1;
  // Logical history (workload::GeneratorConfig knobs).
  int64_t events = 0;
  int64_t payload_bytes = 0;
  int64_t payload_pool = 0;  // 0 = every payload unique
  Timestamp max_gap = 1'000;  // app-time ticks (µs) between event starts
  Timestamp event_duration = 2'000'000;
  // Physical divergence of each replica (workload::VariantOptions); zero
  // disorder and split render the in-order, insert-only presentation.
  double disorder = 0.0;
  double split = 0.0;
  size_t batch = 64;  // elements per ELEMENTS_DICT frame
  // Open loop only: elements per second per replica, and the wall-time lag
  // of replica 1 behind replica 0.
  double rate_per_replica = 0.0;
  int64_t lag_us = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

// One history event as the checker sees it: the payload is reduced to its
// interned content hash so the tapes hold no payload rows while measuring.
struct ExpectedEvent {
  Timestamp vs = 0;
  Timestamp ve = 0;
  uint64_t fp = 0;
};

// One replica, pre-encoded into the exact byte chunks handed to the server
// (one OnBytes call or one socket send each).
struct ReplicaTape {
  std::string hello;
  std::vector<std::string> chunks;
  std::vector<int32_t> chunk_frames;           // wire frames per chunk
  std::vector<Timestamp> chunk_max_stable;     // kMinTimestamp when none
  std::vector<int32_t> insert_chunk;   // per event: chunk of its insert
  std::vector<int32_t> stable_chunk;   // per stable time: chunk carrying it
  int64_t elements = 0;
  int64_t bytes = 0;
  lmerge::StreamProperties properties;
};

struct Tapes {
  std::vector<ExpectedEvent> events;    // ascending Vs (unique)
  std::vector<Timestamp> stable_times;  // ascending, final stable last
  Timestamp final_stable = 0;
  std::vector<ReplicaTape> replicas;
  int64_t input_elements = 0;
  int64_t element_chunks = 0;
  std::string subscriber_hello;
};

Tapes BuildTapes(const WorkloadSpec& spec, uint64_t seed);

// Index of the event with start time `vs`, or -1.
int64_t EventIndex(const Tapes& tapes, Timestamp vs);

// Resident set size of this process in bytes (/proc/self/statm).
int64_t ResidentBytes();

// Process user+sys CPU in nanoseconds.
int64_t ProcessCpuNs();

}  // namespace e2e

#endif  // E2EBENCH_BENCH_H_
