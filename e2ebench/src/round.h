// One round of a workload: a fresh MergeServer, every session handshaken,
// the whole tapes published, the merged output drained and checked.  A run
// repeats rounds until its time is up, so every run attempts whole rounds
// of the same operations.

#ifndef E2EBENCH_ROUND_H_
#define E2EBENCH_ROUND_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ballast.h"
#include "bench.h"
#include "core/merge_algorithm.h"
#include "trace.h"

namespace e2e {

struct RoundResult {
  bool ok = true;
  bool traced = false;
  std::string error;  // first failed check
  // Operations: element chunks published plus history events expected at
  // each subscriber.
  int64_t attempted = 0;
  int64_t failed = 0;

  int64_t setup_ns = 0;  // server construction -> every WELCOME
  int64_t wall_ns = 0;   // first publish -> final stable / last publish
  int64_t cpu_ns = 0;    // process CPU over the same window, no ballast
  int64_t peak_rss = 0;  // highest sampled RSS, bytes
  std::vector<int64_t> insert_lat_ns;
  std::vector<int64_t> stable_lat_ns;
  std::vector<int64_t> gen_late_ns;  // open loop: send time - due time

  // Layer figures, recorded only when the round is traced.
  int64_t on_bytes_ns = 0;       // summed over publisher threads
  int64_t flush_ns = 0;          // MergeServer::Flush after the last publish
  int64_t client_decode_ns = 0;  // summed over subscribers
  int64_t client_elements = 0;
  int64_t output_elements = 0;  // subscriber 0
  int64_t payload_peak = 0;     // payload-store bytes above the round start
  std::map<std::string, int64_t> delta;  // registry counter deltas
  int64_t intern_calls = 0;
  int64_t intern_hits = 0;
  int64_t index_probes = 0;
  lmerge::MergeOutputStats stats;
  // Element chunks in the order the server took them: (replica, chunk).
  std::vector<std::pair<int, int>> arrival;
  std::string output_bytes;  // subscriber 0's fan-out bytes
  SpanLog spans;
};

RoundResult RunRound(const WorkloadSpec& spec, const Tapes& tapes,
                     int64_t round, bool traced, const Ballast& ballast);

}  // namespace e2e

#endif  // E2EBENCH_ROUND_H_
