#include "round.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>

#include "checker.h"
#include "common/payload_store.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/tcp.h"
#include "obs/metrics.h"

namespace e2e {
namespace {

using lmerge::Status;
using lmerge::net::Connection;
using lmerge::net::Frame;
using lmerge::net::FrameAssembler;
using lmerge::net::FrameType;

// A round that has not finished by then is reported failed.
constexpr int64_t kRoundDeadlineNs = 60'000'000'000LL;
constexpr int64_t kSampleIntervalNs = 2'000'000;
// PayloadStore::GetStats walks every live entry under the shard locks, so
// traced rounds read it only this often.
constexpr int64_t kPayloadSampleIntervalNs = 25'000'000;

// Counters whose per-round change the layer figures and checks use.
const char* const kDeltaCounters[] = {
    "net.rx.bytes",           "net.rx.frames",
    "net.tx.fanout.bytes",    "net.tx.feedback.frames",
    "net.fanout.encoded_bytes", "net.fanout.encoded_frames",
    "engine.backpressure_stalls", "engine.batches",
    "engine.busy_us",         "engine.idle_us",
    "net.loop.wakeups",
};

void RaiseTo(std::atomic<int64_t>* target, int64_t value) {
  int64_t current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_acq_rel)) {
  }
}

int64_t FrameBytes(const Frame& frame) {
  return static_cast<int64_t>(lmerge::net::kFrameHeaderBytes +
                              frame.payload.size());
}

// Drains a subscriber connection: decodes every fan-out frame with the
// program's public decoders and records each output element until the
// final stable arrives.
class Receiver {
 public:
  Receiver(Connection* connection, int lane, Timestamp final_stable,
           const std::atomic<int64_t>* max_sent, size_t expected_outputs)
      : connection_(connection),
        lane_(lane),
        final_stable_(final_stable),
        max_sent_(max_sent) {
    records.reserve(expected_outputs);
  }

  Status ReadWelcome() {
    Frame frame;
    Status status =
        lmerge::net::ReceiveFrame(connection_, &assembler_, &frame);
    if (status.ok() && frame.type != FrameType::kWelcome) {
      status = Status::FailedPrecondition("subscriber got no WELCOME");
    }
    return status;
  }

  void Run(bool traced, int64_t round, bool keep_bytes) {
    SpanLog* log = traced ? &spans : nullptr;
    std::vector<char> buffer(1 << 18);
    while (final_recv_ns == 0 && error.empty()) {
      size_t received = 0;
      const Status status =
          connection_->Receive(buffer.data(), buffer.size(), &received);
      if (!status.ok() || received == 0) {
        error = "subscriber stream ended before the final stable";
        break;
      }
      const int64_t now = NowNs();
      if (keep_bytes) output_bytes.append(buffer.data(), received);
      if (!assembler_.Feed(buffer.data(), received).ok()) {
        error = "subscriber received a malformed frame";
        break;
      }
      Frame frame;
      while (error.empty() && assembler_.Next(&frame)) {
        HandleFrame(frame, now, log, round);
      }
    }
    done.store(true, std::memory_order_release);
  }

  std::vector<OutRec> records;
  int64_t fanout_bytes = 0;
  int64_t decode_ns = 0;
  int64_t elements = 0;
  int64_t final_recv_ns = 0;
  std::string output_bytes;
  std::string error;
  SpanLog spans;
  std::atomic<bool> done{false};

 private:
  void HandleFrame(const Frame& frame, int64_t now, SpanLog* spans,
                   int64_t round) {
    const int64_t start = spans != nullptr ? NowNs() : 0;
    lmerge::ElementSequence elements_in_frame;
    Status status;
    switch (frame.type) {
      case FrameType::kPayloadDef: {
        lmerge::net::PayloadDefMessage def;
        status = lmerge::net::DecodePayloadDefPayload(frame.payload, &def);
        if (status.ok()) status = dict_.Define(def.id, std::move(def.payload));
        break;
      }
      case FrameType::kElementsDict: {
        int64_t origin_us = 0;
        status = lmerge::net::DecodeElementsDictPayload(
            frame.payload, dict_, &elements_in_frame, &origin_us);
        break;
      }
      case FrameType::kElements: {
        int64_t origin_us = 0;
        status = lmerge::net::DecodeElementsPayload(
            frame.payload, &elements_in_frame, &origin_us);
        break;
      }
      case FrameType::kElement:
        elements_in_frame.emplace_back();
        status = lmerge::net::DecodeElementPayload(frame.payload,
                                                   &elements_in_frame[0]);
        break;
      case FrameType::kBye:
        error = "subscriber got BYE before the final stable";
        return;
      default:
        error = "unexpected frame on the subscriber stream";
        return;
    }
    if (!status.ok()) {
      error = "subscriber decode failed: " + status.ToString();
      return;
    }
    if (spans != nullptr) {
      const int64_t end = NowNs();
      decode_ns += end - start;
      spans->push_back(Span{"client.decode", lane_, start, end, round});
    }
    fanout_bytes += FrameBytes(frame);
    for (const lmerge::StreamElement& element : elements_in_frame) {
      ++elements;
      const Timestamp bound =
          element.is_stable() ? max_sent_->load(std::memory_order_acquire)
                              : 0;
      records.push_back(MakeOutRec(element, bound, now));
      if (element.is_stable() && element.stable_time() >= final_stable_) {
        final_recv_ns = now;
      }
    }
  }

  Connection* connection_;
  int lane_;
  Timestamp final_stable_;
  const std::atomic<int64_t>* max_sent_;
  FrameAssembler assembler_;
  lmerge::PayloadDictDecoder dict_;
};

// Counts FEEDBACK frames in whatever the publisher end can read now.
int64_t DrainFeedback(Connection* connection, FrameAssembler* assembler) {
  std::string bytes;
  if (!connection->TryReceive(&bytes).ok() || bytes.empty()) return 0;
  if (!assembler->Feed(bytes).ok()) return 0;
  int64_t feedback = 0;
  Frame frame;
  while (assembler->Next(&frame)) {
    feedback += frame.type == FrameType::kFeedback ? 1 : 0;
  }
  return feedback;
}

class Round {
 public:
  Round(const WorkloadSpec& spec, const Tapes& tapes, int64_t round,
        bool traced, const Ballast& ballast)
      : spec_(spec),
        tapes_(tapes),
        round_(round),
        traced_(traced),
        ballast_(ballast) {
    result_.traced = traced;
  }

  RoundResult Run() {
    before_ = lmerge::obs::MetricsRegistry::Global().Snapshot();
    payload_before_ = lmerge::PayloadStore::Global().GetStats();
    const int64_t setup_start = NowNs();
    const Status setup = spec_.paced ? SetupTcp() : SetupLoopback();
    result_.setup_ns = NowNs() - setup_start;
    if (!setup.ok()) {
      Fail("setup: " + setup.ToString());
    } else {
      Drive();
    }
    Teardown();
    result_.attempted =
        tapes_.element_chunks +
        static_cast<int64_t>(tapes_.events.size()) * spec_.subscribers;
    if (result_.ok) {
      Analyze();
    } else {
      result_.failed = result_.attempted;
    }
    return std::move(result_);
  }

 private:
  struct Publisher {
    std::unique_ptr<Connection> client;  // the replica's end
    std::unique_ptr<Connection> server;  // loopback only: the server's end
    FrameAssembler assembler;
    int session = 0;
    std::vector<int64_t> due_ns;  // per chunk
    std::vector<int64_t> end_ns;  // per chunk, traced closed loop only
    int64_t on_bytes_ns = 0;
    int64_t feedback = 0;
    std::string error;
    SpanLog spans;
  };

  void Fail(const std::string& message) {
    if (result_.ok) result_.error = message;
    result_.ok = false;
  }

  Receiver* AddReceiver(Connection* connection) {
    const int lane = 10 + static_cast<int>(receivers_.size());
    // The merged output is smaller than the inputs; reserving that much
    // keeps reallocation out of the receive loop.
    receivers_.push_back(std::make_unique<Receiver>(
        connection, lane, tapes_.final_stable, &max_sent_,
        static_cast<size_t>(tapes_.input_elements)));
    return receivers_.back().get();
  }

  void NoteSent(const std::string& bytes, int64_t frames) {
    rx_bytes_expected_ += static_cast<int64_t>(bytes.size());
    rx_frames_expected_ += frames;
  }

  Status SetupLoopback() {
    server_ = std::make_unique<lmerge::net::MergeServer>();
    for (int s = 0; s < spec_.subscribers; ++s) {
      auto [client, server_end] = lmerge::net::CreateLoopbackPair();
      const int session = server_->OnConnect(server_end.get());
      sub_sessions_.push_back(session);
      Status status = server_->OnBytes(session, tapes_.subscriber_hello);
      NoteSent(tapes_.subscriber_hello, 1);
      if (!status.ok()) return status;
      Receiver* receiver = AddReceiver(client.get());
      sub_clients_.push_back(std::move(client));
      sub_servers_.push_back(std::move(server_end));
      status = receiver->ReadWelcome();
      if (!status.ok()) return status;
    }
    for (int r = 0; r < spec_.replicas; ++r) {
      const ReplicaTape& tape = tapes_.replicas[static_cast<size_t>(r)];
      auto publisher = std::make_unique<Publisher>();
      auto [client, server_end] = lmerge::net::CreateLoopbackPair();
      publisher->client = std::move(client);
      publisher->server = std::move(server_end);
      publisher->session = server_->OnConnect(publisher->server.get());
      Status status = server_->OnBytes(publisher->session, tape.hello);
      NoteSent(tape.hello, 1);
      if (!status.ok()) return status;
      Frame welcome;
      status = lmerge::net::ReceiveFrame(publisher->client.get(),
                                         &publisher->assembler, &welcome);
      if (!status.ok()) return status;
      publishers_.push_back(std::move(publisher));
    }
    return Status::Ok();
  }

  Status SetupTcp() {
    server_ = std::make_unique<lmerge::net::MergeServer>();
    Status status = lmerge::net::TcpListen(0, &listener_);
    if (!status.ok()) return status;
    lmerge::net::ServeLoopOptions options;
    options.drain_publishers = spec_.replicas;
    options.io_threads = 1;
    serve_thread_ = std::thread([this, options] {
      lmerge::net::ServeLoop(listener_.get(), server_.get(), options);
      serve_done_.store(true, std::memory_order_release);
    });
    const int port = listener_->port();
    for (int s = 0; s < spec_.subscribers; ++s) {
      std::unique_ptr<Connection> connection;
      status = lmerge::net::TcpConnect("127.0.0.1", port, &connection);
      if (!status.ok()) return status;
      status = connection->Send(tapes_.subscriber_hello);
      NoteSent(tapes_.subscriber_hello, 1);
      if (!status.ok()) return status;
      Receiver* receiver = AddReceiver(connection.get());
      sub_clients_.push_back(std::move(connection));
      status = receiver->ReadWelcome();
      if (!status.ok()) return status;
    }
    for (int r = 0; r < spec_.replicas; ++r) {
      const ReplicaTape& tape = tapes_.replicas[static_cast<size_t>(r)];
      auto publisher = std::make_unique<Publisher>();
      status = lmerge::net::TcpConnect("127.0.0.1", port, &publisher->client);
      if (!status.ok()) return status;
      status = publisher->client->Send(tape.hello);
      NoteSent(tape.hello, 1);
      if (!status.ok()) return status;
      Frame welcome;
      status = lmerge::net::ReceiveFrame(publisher->client.get(),
                                         &publisher->assembler, &welcome);
      if (!status.ok()) return status;
      publishers_.push_back(std::move(publisher));
    }
    return Status::Ok();
  }

  // Closed loop: each replica's thread hands its chunks to OnBytes as fast
  // as the server takes them.
  void PublishClosed(int r) {
    Publisher& pub = *publishers_[static_cast<size_t>(r)];
    const ReplicaTape& tape = tapes_.replicas[static_cast<size_t>(r)];
    for (size_t k = 0; k < tape.chunks.size(); ++k) {
      RaiseTo(&max_sent_, tape.chunk_max_stable[k]);
      // A closed loop has no schedule: a chunk is due when its publisher
      // hands it over, so its latency includes the wait for the server lock.
      const int64_t start = NowNs();
      pub.due_ns[k] = start;
      const Status status = server_->OnBytes(pub.session, tape.chunks[k]);
      if (traced_) {
        const int64_t end = NowNs();
        pub.end_ns[k] = end;
        pub.on_bytes_ns += end - start;
        pub.spans.push_back(Span{"net.on_bytes", 1 + r, start, end, round_});
      }
      if (!status.ok()) {
        pub.error = "OnBytes failed: " + status.ToString();
        publish_failures_.fetch_add(
            static_cast<int64_t>(tape.chunks.size() - k),
            std::memory_order_relaxed);
        break;
      }
    }
    if (publishers_done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        spec_.replicas) {
      FlushAfterLastPublish();
    }
  }

  // Open loop: one thread sends both replicas' chunks on a fixed schedule,
  // replica r lagging r * lag_us behind replica 0.  Due times never move
  // when the server is slow, so a stall shows as latency.
  void PublishPaced(int64_t origin_ns) {
    struct Item {
      int64_t due_ns;
      int replica;
      int chunk;
    };
    std::vector<Item> schedule;
    const double period_ns =
        static_cast<double>(spec_.batch) / spec_.rate_per_replica * 1e9;
    for (int r = 0; r < spec_.replicas; ++r) {
      const ReplicaTape& tape = tapes_.replicas[static_cast<size_t>(r)];
      for (size_t k = 0; k < tape.chunks.size(); ++k) {
        schedule.push_back(Item{
            origin_ns + r * spec_.lag_us * 1000 +
                static_cast<int64_t>(static_cast<double>(k) * period_ns),
            r, static_cast<int>(k)});
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Item& a, const Item& b) {
                       return a.due_ns < b.due_ns;
                     });
    result_.gen_late_ns.reserve(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Item& item = schedule[i];
      Publisher& pub = *publishers_[static_cast<size_t>(item.replica)];
      const ReplicaTape& tape =
          tapes_.replicas[static_cast<size_t>(item.replica)];
      const int64_t wait = item.due_ns - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const int64_t start = NowNs();
      result_.gen_late_ns.push_back(start - item.due_ns);
      RaiseTo(&max_sent_, tape.chunk_max_stable[item.chunk]);
      pub.due_ns[item.chunk] = item.due_ns;
      const Status status = pub.client->Send(tape.chunks[item.chunk]);
      if (traced_) {
        pub.spans.push_back(
            Span{"net.send", 1 + item.replica, start, NowNs(), round_});
      }
      if (!status.ok()) {
        pub.error = "send failed: " + status.ToString();
        publish_failures_.fetch_add(
            static_cast<int64_t>(schedule.size() - i),
            std::memory_order_relaxed);
        break;
      }
      if (traced_) result_.arrival.emplace_back(item.replica, item.chunk);
      if (i % 32 == 31) {
        for (auto& p : publishers_) {
          p->feedback += DrainFeedback(p->client.get(), &p->assembler);
        }
      }
    }
    publishers_done_.store(spec_.replicas, std::memory_order_release);
    FlushAfterLastPublish();
  }

  void FlushAfterLastPublish() {
    const int64_t start = NowNs();
    {
      ScopedSpan span(traced_ ? &flush_spans_ : nullptr, "engine.flush", 0,
                      round_);
      server_->Flush();
    }
    flush_end_ns_ = NowNs();
    result_.flush_ns = flush_end_ns_ - start;
    flushed_.store(true, std::memory_order_release);
  }

  void Drive() {
    for (size_t r = 0; r < publishers_.size(); ++r) {
      const size_t chunks = tapes_.replicas[r].chunks.size();
      publishers_[r]->due_ns.assign(chunks, 0);
      if (traced_) publishers_[r]->end_ns.assign(chunks, 0);
    }
    const int64_t rss_start = ResidentBytes();
    int64_t peak_rss = rss_start;
    int64_t payload_peak = payload_before_.payload_bytes;
    const int64_t cpu_start = ProcessCpuNs() - ballast_.CpuNs();
    // The open-loop schedule starts 1 ms out so the first due time is not
    // already late when the sender thread starts.
    const int64_t start = NowNs() + (spec_.paced ? 1'000'000 : 0);
    std::vector<std::thread> threads;
    for (auto& receiver : receivers_) {
      threads.emplace_back([this, r = receiver.get(),
                            keep = traced_ && receiver == receivers_[0]] {
        r->Run(traced_, round_, keep);
      });
    }
    if (spec_.paced) {
      threads.emplace_back([this, start] { PublishPaced(start); });
    } else {
      for (int r = 0; r < spec_.replicas; ++r) {
        threads.emplace_back([this, r] { PublishClosed(r); });
      }
    }
    const int64_t deadline = start + kRoundDeadlineNs;
    bool timed_out = false;
    int64_t next_payload_sample = start;
    while (true) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSampleIntervalNs));
      peak_rss = std::max(peak_rss, ResidentBytes());
      if (traced_ && NowNs() >= next_payload_sample) {
        payload_peak = std::max(
            payload_peak,
            lmerge::PayloadStore::Global().GetStats().payload_bytes);
        next_payload_sample = NowNs() + kPayloadSampleIntervalNs;
      }
      bool receivers_done = true;
      for (auto& receiver : receivers_) {
        receivers_done =
            receivers_done && receiver->done.load(std::memory_order_acquire);
      }
      if (receivers_done && flushed_.load(std::memory_order_acquire)) break;
      if (NowNs() > deadline) {
        timed_out = true;
        break;
      }
    }
    const int64_t cpu_end = ProcessCpuNs() - ballast_.CpuNs();
    if (timed_out) {
      Fail("round did not finish within the deadline");
      // Wakes receivers blocked on a stream that will never finish.
      for (auto& client : sub_clients_) client->Close();
    }
    for (auto& thread : threads) thread.join();
    for (auto& receiver : receivers_) {
      if (!receiver->error.empty()) Fail(receiver->error);
    }
    for (auto& pub : publishers_) {
      if (!pub->error.empty()) Fail(pub->error);
    }
    if (publish_failures_.load(std::memory_order_relaxed) == 0) {
      for (const ReplicaTape& tape : tapes_.replicas) {
        rx_bytes_expected_ += tape.bytes;
        for (int32_t frames : tape.chunk_frames) rx_frames_expected_ += frames;
      }
    }
    int64_t end = flush_end_ns_;
    for (auto& receiver : receivers_) {
      end = std::max(end, receiver->final_recv_ns);
    }
    result_.wall_ns = end - start;
    result_.cpu_ns = cpu_end - cpu_start;
    result_.peak_rss = peak_rss;
    result_.payload_peak = payload_peak - payload_before_.payload_bytes;
  }

  void Teardown() {
    if (spec_.paced) {
      // Orderly close: BYE, then read to EOF so no unread FEEDBACK turns
      // the close into a reset.
      const std::string bye = lmerge::net::EncodeByeFrame({"done"});
      for (auto& pub : publishers_) {
        if (pub->client == nullptr) continue;
        if (pub->client->Send(bye).ok()) NoteSent(bye, 1);
      }
      if (listener_ != nullptr) {
        const int64_t deadline = NowNs() + 30'000'000'000LL;
        while (!serve_done_.load(std::memory_order_acquire)) {
          if (NowNs() > deadline) {
            Fail("serve loop did not drain");
            listener_->Close();
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        serve_thread_.join();
      }
      for (auto& pub : publishers_) {
        if (pub->client == nullptr) continue;
        Frame frame;
        while (lmerge::net::ReceiveFrame(pub->client.get(), &pub->assembler,
                                         &frame)
                   .ok()) {
          pub->feedback += frame.type == FrameType::kFeedback ? 1 : 0;
        }
      }
    } else {
      for (auto& pub : publishers_) {
        pub->feedback += DrainFeedback(pub->client.get(), &pub->assembler);
      }
    }
    if (result_.ok) {
      const lmerge::net::StatsResponseMessage stats = server_->StatsSnapshot();
      Reconcile(stats);
    }
    if (!spec_.paced) {
      for (auto& pub : publishers_) server_->OnDisconnect(pub->session);
      for (int session : sub_sessions_) server_->OnDisconnect(session);
    }
    for (auto& client : sub_clients_) client->Close();
    server_.reset();
  }

  // Independent totals: what the benchmark handed over and received
  // against the program's own counters.
  void Reconcile(const lmerge::net::StatsResponseMessage& stats) {
    const lmerge::obs::MetricsSnapshot& after = stats.metrics;
    for (const char* name : kDeltaCounters) {
      result_.delta[name] = after.Value(name) - before_.Value(name);
    }
    const lmerge::PayloadStore::Stats payload_after =
        lmerge::PayloadStore::Global().GetStats();
    result_.intern_calls =
        payload_after.intern_calls - payload_before_.intern_calls;
    result_.intern_hits = payload_after.hits - payload_before_.hits;
    result_.index_probes = after.Value("merge.index_probes");
    lmerge::MergeOutputStats& totals = result_.stats;
    int64_t contributed = 0;
    for (const auto& row : stats.inputs) {
      totals.inserts_in += row.inserts_in;
      totals.adjusts_in += row.adjusts_in;
      totals.stables_in += row.stables_in;
      totals.dropped += row.dropped;
      contributed += row.contributed;
    }
    totals.inserts_out = stats.output_inserts;
    totals.adjusts_out = stats.output_adjusts;
    totals.stables_out = after.Value("merge.out.stables");

    std::vector<int64_t> for_each_receiver;
    for (auto& receiver : receivers_) {
      int64_t inserts = 0;
      for (const OutRec& rec : receiver->records) {
        inserts += static_cast<lmerge::ElementKind>(rec.kind) ==
                           lmerge::ElementKind::kInsert
                       ? 1
                       : 0;
      }
      if (inserts != stats.output_inserts || inserts != contributed) {
        Fail("output inserts disagree: subscriber " +
             std::to_string(inserts) + ", inserts_out " +
             std::to_string(stats.output_inserts) + ", sum of contributed " +
             std::to_string(contributed));
      }
    }
    if (rx_bytes_expected_ != result_.delta["net.rx.bytes"] ||
        rx_frames_expected_ != result_.delta["net.rx.frames"]) {
      Fail("rx totals disagree: handed over " +
           std::to_string(rx_bytes_expected_) + " bytes / " +
           std::to_string(rx_frames_expected_) + " frames, net.rx " +
           std::to_string(result_.delta["net.rx.bytes"]) + " / " +
           std::to_string(result_.delta["net.rx.frames"]));
    }
    const int64_t fanout_bytes = result_.delta["net.tx.fanout.bytes"];
    for (auto& receiver : receivers_) {
      if (receiver->fanout_bytes * spec_.subscribers != fanout_bytes) {
        Fail("subscriber received " + std::to_string(receiver->fanout_bytes) +
             " fan-out bytes, its share of net.tx.fanout.bytes is " +
             std::to_string(fanout_bytes / spec_.subscribers));
      }
    }
    int64_t feedback = 0;
    for (auto& pub : publishers_) feedback += pub->feedback;
    if (feedback != result_.delta["net.tx.feedback.frames"]) {
      Fail("publishers read " + std::to_string(feedback) +
           " FEEDBACK frames, net.tx.feedback.frames says " +
           std::to_string(result_.delta["net.tx.feedback.frames"]));
    }
  }

  void Analyze() {
    const size_t events = tapes_.events.size();
    result_.failed = publish_failures_.load(std::memory_order_relaxed);
    OutputChecker checker(&tapes_.events, tapes_.final_stable);
    for (auto& receiver : receivers_) {
      if (!checker.Check(receiver->records)) Fail(checker.error());
      result_.failed += static_cast<int64_t>(events) - checker.matched();
    }
    // Due time of each event's earliest insert and each stable's earliest
    // send, over all replicas.
    std::vector<int64_t> insert_due(events, std::numeric_limits<int64_t>::max());
    std::vector<int64_t> stable_due(tapes_.stable_times.size(), std::numeric_limits<int64_t>::max());
    for (size_t r = 0; r < publishers_.size(); ++r) {
      const ReplicaTape& tape = tapes_.replicas[r];
      const std::vector<int64_t>& due = publishers_[r]->due_ns;
      for (size_t e = 0; e < events; ++e) {
        insert_due[e] = std::min(
            insert_due[e], due[static_cast<size_t>(tape.insert_chunk[e])]);
      }
      for (size_t s = 0; s < stable_due.size(); ++s) {
        stable_due[s] = std::min(
            stable_due[s], due[static_cast<size_t>(tape.stable_chunk[s])]);
      }
    }
    for (auto& receiver : receivers_) {
      std::vector<int64_t> first_insert(events, 0);
      size_t next_stable = 0;
      for (const OutRec& rec : receiver->records) {
        const auto kind = static_cast<lmerge::ElementKind>(rec.kind);
        if (kind == lmerge::ElementKind::kInsert) {
          const int64_t e = EventIndex(tapes_, rec.vs);
          if (e >= 0 && first_insert[static_cast<size_t>(e)] == 0) {
            first_insert[static_cast<size_t>(e)] = rec.recv_ns;
          }
        } else if (kind == lmerge::ElementKind::kStable) {
          while (next_stable < stable_due.size() &&
                 tapes_.stable_times[next_stable] <= rec.vs) {
            result_.stable_lat_ns.push_back(rec.recv_ns -
                                            stable_due[next_stable]);
            ++next_stable;
          }
        }
      }
      for (size_t e = 0; e < events; ++e) {
        if (first_insert[e] != 0) {
          result_.insert_lat_ns.push_back(first_insert[e] - insert_due[e]);
        }
      }
      result_.client_decode_ns += receiver->decode_ns;
      result_.client_elements += receiver->elements;
    }
    result_.output_elements = receivers_[0]->elements;
    if (traced_) {
      result_.output_bytes = std::move(receivers_[0]->output_bytes);
      if (!spec_.paced) {
        std::vector<std::tuple<int64_t, int, int>> order;
        for (size_t r = 0; r < publishers_.size(); ++r) {
          const auto& ends = publishers_[r]->end_ns;
          for (size_t k = 0; k < ends.size(); ++k) {
            order.emplace_back(ends[k], static_cast<int>(r),
                               static_cast<int>(k));
          }
        }
        std::sort(order.begin(), order.end());
        for (const auto& [end, r, k] : order) result_.arrival.emplace_back(r, k);
      }
      for (auto& pub : publishers_) {
        result_.on_bytes_ns += pub->on_bytes_ns;
        result_.spans.insert(result_.spans.end(), pub->spans.begin(),
                             pub->spans.end());
      }
      for (auto& receiver : receivers_) {
        result_.spans.insert(result_.spans.end(), receiver->spans.begin(),
                             receiver->spans.end());
      }
      result_.spans.insert(result_.spans.end(), flush_spans_.begin(),
                           flush_spans_.end());
    }
  }

  const WorkloadSpec& spec_;
  const Tapes& tapes_;
  const int64_t round_;
  const bool traced_;
  const Ballast& ballast_;
  RoundResult result_;

  lmerge::obs::MetricsSnapshot before_;
  lmerge::PayloadStore::Stats payload_before_;
  std::unique_ptr<lmerge::net::MergeServer> server_;
  std::unique_ptr<lmerge::net::Listener> listener_;
  std::thread serve_thread_;
  std::atomic<bool> serve_done_{false};
  std::vector<std::unique_ptr<Publisher>> publishers_;
  std::vector<std::unique_ptr<Receiver>> receivers_;
  std::vector<std::unique_ptr<Connection>> sub_clients_;
  std::vector<std::unique_ptr<Connection>> sub_servers_;
  std::vector<int> sub_sessions_;
  SpanLog flush_spans_;

  // Highest stable any replica has handed over: the causal bound.
  std::atomic<int64_t> max_sent_{lmerge::kMinTimestamp};
  std::atomic<int> publishers_done_{0};
  std::atomic<int64_t> publish_failures_{0};
  std::atomic<bool> flushed_{false};
  int64_t flush_end_ns_ = 0;
  int64_t rx_bytes_expected_ = 0;
  int64_t rx_frames_expected_ = 0;
};

}  // namespace

RoundResult RunRound(const WorkloadSpec& spec, const Tapes& tapes,
                     int64_t round, bool traced, const Ballast& ballast) {
  Round r(spec, tapes, round, traced, ballast);
  return r.Run();
}

}  // namespace e2e
