// Keeps every CPU busy at the lowest scheduling class while a run measures.
//
// On a virtual machine an idle vCPU halts, and waking it again can take the
// hypervisor milliseconds (the guest books it as steal time).  A program
// that sleeps and wakes per message, like the open-loop workload, then
// measures the hypervisor rather than itself, and the figures swing from
// run to run.  One SCHED_IDLE spinner per CPU keeps the vCPUs from halting;
// the kernel preempts a SCHED_IDLE thread for any ordinary one at once, so
// the program's threads do not wait behind it.  Its CPU time is reported so
// the CPU metric can leave it out.

#ifndef E2EBENCH_BALLAST_H_
#define E2EBENCH_BALLAST_H_

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2e {

class Ballast {
 public:
  // Starts one spinner per online CPU.
  Ballast();
  // Stops and joins the spinners.
  ~Ballast();
  Ballast(const Ballast&) = delete;
  Ballast& operator=(const Ballast&) = delete;

  // CPU time the spinners have used so far, in nanoseconds.
  int64_t CpuNs() const;

 private:
  void Spin(size_t index);

  std::atomic<bool> stop_{false};
  std::atomic<size_t> started_{0};
  std::vector<clockid_t> clocks_;
  std::vector<std::thread> threads_;
};

}  // namespace e2e

#endif  // E2EBENCH_BALLAST_H_
