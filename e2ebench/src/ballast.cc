#include "ballast.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

namespace e2e {

Ballast::Ballast() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t count = cpus > 0 ? static_cast<size_t>(cpus) : 1;
  clocks_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { Spin(i); });
  }
  // CpuNs reads every spinner's clock, so wait until each has published it.
  while (started_.load(std::memory_order_acquire) < count) {
    std::this_thread::yield();
  }
}

Ballast::~Ballast() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& thread : threads_) thread.join();
}

void Ballast::Spin(size_t index) {
  sched_param param{};
  // Best effort: without SCHED_IDLE the spinner would compete with the
  // program, so it stops instead.
  const bool idle_class =
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
  pthread_getcpuclockid(pthread_self(), &clocks_[index]);
  started_.fetch_add(1, std::memory_order_acq_rel);
  if (!idle_class) return;
  while (!stop_.load(std::memory_order_relaxed)) sched_yield();
}

int64_t Ballast::CpuNs() const {
  int64_t total = 0;
  for (const clockid_t clock : clocks_) {
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {
      total += static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
    }
  }
  return total;
}

}  // namespace e2e
