#include "src/common/timing.h"

#include <algorithm>
#include <ctime>

namespace lt {
namespace {

struct ThreadClock {
  uint64_t vnow_ns = 0;
  uint64_t cpu_ns = 0;
};

thread_local ThreadClock t_clock;

}  // namespace

uint64_t NowNs() { return t_clock.vnow_ns; }

uint64_t ThreadCpuNs() { return t_clock.cpu_ns; }

void SpinFor(uint64_t ns) {
  t_clock.vnow_ns += ns;
  t_clock.cpu_ns += ns;
}

void IdleFor(uint64_t ns) { t_clock.vnow_ns += ns; }

void ChargeCpu(uint64_t ns) { t_clock.cpu_ns += ns; }

void SyncToBusy(uint64_t t) {
  if (t > t_clock.vnow_ns) {
    t_clock.cpu_ns += t - t_clock.vnow_ns;
    t_clock.vnow_ns = t;
  }
}

void SyncToAdaptive(uint64_t t, uint64_t spin_budget_ns) {
  if (t > t_clock.vnow_ns) {
    t_clock.cpu_ns += std::min(t - t_clock.vnow_ns, spin_budget_ns);
    t_clock.vnow_ns = t;
  }
}

void SyncClockTo(uint64_t t) {
  if (t > t_clock.vnow_ns) {
    t_clock.vnow_ns = t;
  }
}

void SetServiceClock(uint64_t t) { t_clock.vnow_ns = t; }

uint64_t RealNowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

uint64_t RealThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

ComputeScope::ComputeScope() : start_real_cpu_ns_(RealThreadCpuNs()) {}

ComputeScope::~ComputeScope() { SpinFor(RealThreadCpuNs() - start_real_cpu_ns_); }

}  // namespace lt
