// Correctness checker for one subscriber's merged output.
//
// The subscriber records every decoded output element as an OutRec; after
// the round the checker folds them into events with the benchmark's own
// code (no program TDB) and checks:
//   * the folded events equal the generator's history, event for event
//     (Vs, Ve and payload hash) — nothing lost, nothing extra;
//   * output stable points never decrease;
//   * no insert or adjust touches time before the current stable point;
//   * every output stable is <= the highest stable any replica had sent
//     when it was received (the causal bound);
//   * the last output stable equals the tapes' final stable.

#ifndef E2EBENCH_CHECKER_H_
#define E2EBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "stream/element.h"

namespace e2e {

struct OutRec {
  uint8_t kind = 0;  // lmerge::ElementKind
  Timestamp vs = 0;  // stable time for stables
  Timestamp ve = 0;
  Timestamp v_old = 0;
  uint64_t fp = 0;
  // Stables: the highest stable any replica had sent at receipt.
  Timestamp bound = 0;
  int64_t recv_ns = 0;
};

OutRec MakeOutRec(const lmerge::StreamElement& element, Timestamp bound,
                  int64_t recv_ns);

class OutputChecker {
 public:
  OutputChecker(const std::vector<ExpectedEvent>* expected,
                Timestamp final_stable);

  // Folds `records`; true when every check holds.  error() names the first
  // violation.
  bool Check(const std::vector<OutRec>& records);

  const std::string& error() const { return error_; }
  int64_t inserts() const { return inserts_; }
  // History events the output reproduced exactly.
  int64_t matched() const { return matched_; }

 private:
  bool Fail(const std::string& message);

  const std::vector<ExpectedEvent>* expected_;
  Timestamp final_stable_;
  std::string error_;
  int64_t inserts_ = 0;
  int64_t matched_ = 0;
};

// Feeds the checker outputs corrupted in known ways (one insert dropped, one
// stable moved past its causal bound, one adjust applied twice) next to the
// uncorrupted output.  True when the clean output passes and every
// corruption is rejected; reasons go to stderr.
bool CheckerSelfTest();

}  // namespace e2e

#endif  // E2EBENCH_CHECKER_H_
