#include "layers.h"

#include <cstdio>
#include <memory>
#include <span>

#include "core/factory.h"
#include "net/frame.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "stream/sink.h"

namespace e2e {
namespace {

using lmerge::ElementSequence;
using lmerge::Status;
using lmerge::net::Frame;
using lmerge::net::FrameType;

constexpr int kReplayLane = 30;

// Decodes every ELEMENTS_DICT frame in `bytes` (PAYLOAD_DEFs feed the
// dictionary) and appends the sequences to `out`.
Status DecodeChunk(const std::string& bytes,
                   lmerge::PayloadDictDecoder* dict,
                   std::vector<ElementSequence>* out) {
  lmerge::net::FrameAssembler assembler;
  Status status = assembler.Feed(bytes);
  Frame frame;
  while (status.ok() && assembler.Next(&frame)) {
    if (frame.type == FrameType::kPayloadDef) {
      lmerge::net::PayloadDefMessage def;
      status = lmerge::net::DecodePayloadDefPayload(frame.payload, &def);
      if (status.ok()) status = dict->Define(def.id, std::move(def.payload));
    } else if (frame.type == FrameType::kElementsDict) {
      ElementSequence elements;
      int64_t origin_us = 0;
      status = lmerge::net::DecodeElementsDictPayload(frame.payload, *dict,
                                                      &elements, &origin_us);
      out->push_back(std::move(elements));
    }
  }
  return status;
}

}  // namespace

LayerReplay ReplayLayers(const WorkloadSpec& spec, const Tapes& tapes,
                         const RoundResult& round, SpanLog* spans) {
  LayerReplay replay;
  const auto fail = [&](const char* layer, const Status& status) {
    std::fprintf(stderr, "%s replay failed: %s\n", layer,
                 status.ToString().c_str());
    replay.ok = false;
  };

  // Decode: every replica's chunks through a fresh session dictionary,
  // exactly as the server's ingest decodes them.  Keeps the batches for
  // the core replay.
  std::vector<std::vector<ElementSequence>> decoded(tapes.replicas.size());
  {
    int64_t decode_ns = 0;
    for (size_t r = 0; r < tapes.replicas.size(); ++r) {
      lmerge::PayloadDictDecoder dict;
      ScopedSpan span(spans, "replay.decode", kReplayLane, -1);
      const int64_t start = NowNs();
      for (const std::string& chunk : tapes.replicas[r].chunks) {
        std::vector<ElementSequence> batches;
        const Status status = DecodeChunk(chunk, &dict, &batches);
        if (!status.ok()) fail("decode", status);
        decoded[r].push_back(
            batches.empty() ? ElementSequence() : std::move(batches[0]));
      }
      decode_ns += NowNs() - start;
    }
    replay.decode_ns_per_elem = static_cast<double>(decode_ns) /
                                static_cast<double>(tapes.input_elements);
  }

  // Core: the algorithm the server's factory picks, fed the round's chunks
  // as ProcessBatch calls in the order the server took them.
  {
    lmerge::NullSink sink;
    std::unique_ptr<lmerge::MergeAlgorithm> algorithm =
        lmerge::CreateMergeAlgorithm(
            lmerge::VariantForCase(
                lmerge::ChooseAlgorithm(tapes.replicas[0].properties)),
            static_cast<int>(tapes.replicas.size()), &sink);
    int64_t core_ns = 0;
    int64_t elements = 0;
    ScopedSpan span(spans, "replay.core", kReplayLane, -1);
    for (const auto& [r, k] : round.arrival) {
      const ElementSequence& batch =
          decoded[static_cast<size_t>(r)][static_cast<size_t>(k)];
      const int64_t start = NowNs();
      const Status status = algorithm->ProcessBatch(
          r, std::span<const lmerge::StreamElement>(batch));
      core_ns += NowNs() - start;
      elements += static_cast<int64_t>(batch.size());
      if (!status.ok()) {
        fail("core", status);
        break;
      }
      replay.core_state_bytes_peak =
          std::max(replay.core_state_bytes_peak, algorithm->StateBytes());
    }
    replay.core_ns_per_elem =
        static_cast<double>(core_ns) / static_cast<double>(elements);
  }

  // Fan-out encode: subscriber 0's output batches re-encoded once against a
  // fresh broadcast dictionary, as the serialize-once fan-out does.
  {
    lmerge::PayloadDictDecoder dict;
    std::vector<ElementSequence> batches;
    const Status status = DecodeChunk(round.output_bytes, &dict, &batches);
    if (!status.ok()) fail("fan-out decode", status);
    lmerge::PayloadDictEncoder encoder;
    int64_t elements = 0;
    size_t encoded_bytes = 0;
    ScopedSpan span(spans, "replay.fanout_encode", kReplayLane, -1);
    const int64_t start = NowNs();
    for (const ElementSequence& batch : batches) {
      lmerge::net::DictBatchParts parts =
          lmerge::net::EncodeDictBatchParts(batch, &encoder);
      parts.body.append(8, '\0');  // the v5 origin stamp
      std::string frame = std::move(parts.defs);
      lmerge::net::AppendFrame(FrameType::kElementsDict, parts.body, &frame);
      encoded_bytes += frame.size();
      elements += static_cast<int64_t>(batch.size());
    }
    const int64_t encode_ns = NowNs() - start;
    replay.fanout_encode_ns_per_elem =
        static_cast<double>(encode_ns) / static_cast<double>(elements);
    if (encoded_bytes == 0) replay.ok = false;
  }

  // Ingest entry point, open loop only: there ServeLoop makes the OnBytes
  // calls, so they are replayed here through loopback sessions in the
  // round's send order.
  if (spec.paced) {
    std::vector<std::unique_ptr<lmerge::net::Connection>> ends;
    lmerge::net::MergeServer server;
    std::vector<int> sessions;
    for (const ReplicaTape& tape : tapes.replicas) {
      auto [client, server_end] = lmerge::net::CreateLoopbackPair();
      sessions.push_back(server.OnConnect(server_end.get()));
      const Status status = server.OnBytes(sessions.back(), tape.hello);
      if (!status.ok()) fail("on_bytes", status);
      ends.push_back(std::move(client));
      ends.push_back(std::move(server_end));
    }
    ScopedSpan span(spans, "replay.on_bytes", kReplayLane, -1);
    for (const auto& [r, k] : round.arrival) {
      const int64_t start = NowNs();
      const Status status = server.OnBytes(
          sessions[static_cast<size_t>(r)],
          tapes.replicas[static_cast<size_t>(r)]
              .chunks[static_cast<size_t>(k)]);
      replay.on_bytes_ns += NowNs() - start;
      if (!status.ok()) {
        fail("on_bytes", status);
        break;
      }
    }
    server.Flush();
    for (int session : sessions) server.OnDisconnect(session);
  }
  return replay;
}

}  // namespace e2e
