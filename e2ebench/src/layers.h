// Standalone single-threaded replays of one traced round, one layer each,
// on the same bytes and in the same interleaving the live round used:
// decode, the merge core's ProcessBatch, fan-out encode, and (open loop,
// where ServeLoop makes the OnBytes calls) the ingest entry point.

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <cstdint>

#include "bench.h"
#include "round.h"
#include "trace.h"

namespace e2e {

struct LayerReplay {
  bool ok = true;
  double decode_ns_per_elem = 0;
  double core_ns_per_elem = 0;
  int64_t core_state_bytes_peak = 0;
  double fanout_encode_ns_per_elem = 0;
  int64_t on_bytes_ns = 0;  // OnBytes over the whole tape, open loop only
};

LayerReplay ReplayLayers(const WorkloadSpec& spec, const Tapes& tapes,
                         const RoundResult& round, SpanLog* spans);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
