#include "checker.h"

#include <algorithm>
#include <cstdio>

#include "workload/generator.h"

namespace e2e {

using lmerge::ElementKind;
using lmerge::TimestampToString;

OutRec MakeOutRec(const lmerge::StreamElement& element, Timestamp bound,
                  int64_t recv_ns) {
  OutRec rec;
  rec.kind = static_cast<uint8_t>(element.kind());
  rec.vs = element.vs();
  rec.recv_ns = recv_ns;
  if (element.is_stable()) {
    rec.bound = bound;
  } else {
    rec.ve = element.ve();
    rec.fp = element.payload().hash();
    if (element.is_adjust()) rec.v_old = element.v_old();
  }
  return rec;
}

OutputChecker::OutputChecker(const std::vector<ExpectedEvent>* expected,
                             Timestamp final_stable)
    : expected_(expected), final_stable_(final_stable) {}

bool OutputChecker::Fail(const std::string& message) {
  if (error_.empty()) error_ = message;
  return false;
}

bool OutputChecker::Check(const std::vector<OutRec>& records) {
  error_.clear();
  inserts_ = 0;
  matched_ = 0;
  const std::vector<ExpectedEvent>& expected = *expected_;
  // Folded output: one slot per history event (history Vs are unique, so
  // an output event at any other Vs is already a violation).
  struct Slot {
    int32_t count = 0;
    Timestamp ve = 0;
    uint64_t fp = 0;
  };
  std::vector<Slot> slots(expected.size());
  const auto index_of = [&](Timestamp vs) -> int64_t {
    const auto it = std::lower_bound(
        expected.begin(), expected.end(), vs,
        [](const ExpectedEvent& e, Timestamp t) { return e.vs < t; });
    if (it == expected.end() || it->vs != vs) return -1;
    return it - expected.begin();
  };
  Timestamp stable = lmerge::kMinTimestamp;
  for (const OutRec& rec : records) {
    switch (static_cast<ElementKind>(rec.kind)) {
      case ElementKind::kStable:
        if (rec.vs < stable) {
          return Fail("output stable decreased from " +
                      TimestampToString(stable) + " to " +
                      TimestampToString(rec.vs));
        }
        if (rec.vs > rec.bound) {
          return Fail("output stable " + TimestampToString(rec.vs) +
                      " beyond the highest replica stable sent (" +
                      TimestampToString(rec.bound) + ")");
        }
        stable = rec.vs;
        break;
      case ElementKind::kInsert: {
        ++inserts_;
        if (rec.vs < stable) {
          return Fail("insert at Vs=" + TimestampToString(rec.vs) +
                      " before stable " + TimestampToString(stable));
        }
        if (rec.ve < rec.vs) return Fail("insert with Ve < Vs");
        if (rec.ve == rec.vs) break;  // zero-length: no event
        const int64_t i = index_of(rec.vs);
        if (i < 0) {
          return Fail("insert of an event not in the history, Vs=" +
                      TimestampToString(rec.vs));
        }
        Slot& slot = slots[static_cast<size_t>(i)];
        if (slot.count > 0) {
          return Fail("duplicate insert at Vs=" + TimestampToString(rec.vs));
        }
        slot = Slot{1, rec.ve, rec.fp};
        break;
      }
      case ElementKind::kAdjust: {
        if (rec.v_old < stable ||
            (rec.ve < stable && rec.ve != rec.vs) ||
            (rec.ve == rec.vs && rec.vs < stable)) {
          return Fail("adjust at Vs=" + TimestampToString(rec.vs) +
                      " touches time before stable " +
                      TimestampToString(stable));
        }
        if (rec.ve < rec.vs) return Fail("adjust with Ve < Vs");
        const int64_t i = index_of(rec.vs);
        Slot* slot = i < 0 ? nullptr : &slots[static_cast<size_t>(i)];
        if (slot == nullptr || slot->count == 0 || slot->fp != rec.fp ||
            slot->ve != rec.v_old) {
          return Fail("adjust target absent at Vs=" +
                      TimestampToString(rec.vs) + " Vold=" +
                      TimestampToString(rec.v_old));
        }
        if (rec.ve > rec.vs) {
          slot->ve = rec.ve;
        } else {
          slot->count = 0;
        }
        break;
      }
    }
  }
  if (stable != final_stable_) {
    return Fail("final output stable " + TimestampToString(stable) +
                " != tapes' final stable " + TimestampToString(final_stable_));
  }
  int64_t first_bad = -1;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Slot& slot = slots[i];
    if (slot.count == 1 && slot.ve == expected[i].ve &&
        slot.fp == expected[i].fp) {
      ++matched_;
    } else if (first_bad < 0) {
      first_bad = static_cast<int64_t>(i);
    }
  }
  if (first_bad >= 0) {
    return Fail(std::to_string(static_cast<int64_t>(expected.size()) -
                               matched_) +
                " history events missing or wrong, first at Vs=" +
                TimestampToString(expected[static_cast<size_t>(first_bad)].vs));
  }
  return true;
}

bool CheckerSelfTest() {
  using namespace lmerge;
  workload::GeneratorConfig config;
  config.num_inserts = 400;
  config.payload_string_bytes = 8;
  config.stable_freq = 0.05;
  config.seed = 11;
  workload::LogicalHistory history = workload::GenerateHistory(config);
  Timestamp max_ve = kMinTimestamp;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);
  std::vector<ExpectedEvent> expected;
  for (const Event& e : history.events) {
    expected.push_back(ExpectedEvent{e.vs, e.ve, e.payload.hash()});
  }
  // A disordered presentation with revisions is itself a valid merged
  // output of the history; each stable arrives exactly at its causal bound.
  workload::VariantOptions options;
  options.split_probability = 0.5;
  options.seed = 5;
  std::vector<OutRec> clean;
  for (const StreamElement& element :
       workload::GeneratePhysicalVariant(history, options)) {
    clean.push_back(MakeOutRec(
        element, element.is_stable() ? element.stable_time() : 0, 0));
  }
  OutputChecker checker(&expected, history.stable_times.back());
  bool ok = true;
  if (!checker.Check(clean)) {
    std::fprintf(stderr, "checker self-test: clean output rejected: %s\n",
                 checker.error().c_str());
    ok = false;
  }
  const auto find = [&](ElementKind kind, size_t from) {
    for (size_t i = from; i < clean.size(); ++i) {
      if (static_cast<ElementKind>(clean[i].kind) == kind) return i;
    }
    return clean.size();
  };
  const auto expect_rejected = [&](const char* what,
                                   const std::vector<OutRec>& records) {
    if (checker.Check(records)) {
      std::fprintf(stderr, "checker self-test: %s accepted\n", what);
      ok = false;
    } else {
      std::fprintf(stderr, "checker self-test: %s rejected (%s)\n", what,
                   checker.error().c_str());
    }
  };
  {
    std::vector<OutRec> records = clean;
    records.erase(records.begin() +
                  static_cast<long>(find(ElementKind::kInsert, 0)));
    expect_rejected("dropped insert", records);
  }
  {
    std::vector<OutRec> records = clean;
    const size_t i = find(ElementKind::kStable, clean.size() / 2);
    if (i == clean.size()) return false;
    records[i].vs = records[i].bound + 1;
    expect_rejected("stable past its causal bound", records);
  }
  {
    std::vector<OutRec> records = clean;
    const size_t i = find(ElementKind::kAdjust, 0);
    if (i == clean.size()) return false;
    records.insert(records.begin() + static_cast<long>(i) + 1, clean[i]);
    expect_rejected("adjust applied twice", records);
  }
  return ok;
}

}  // namespace e2e
