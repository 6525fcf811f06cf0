#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

CpuSample CpuSample::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  CpuSample s;
  s.user_ms = ms(ru.ru_utime);
  s.sys_ms = ms(ru.ru_stime);
  s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return s;
}

double Window::elapsed_s() const { return seconds_between(start.at, end.at); }

CpuSample Window::cpu() const { return end.cpu - start.cpu; }

void measure_window(srpc::TimePoint from, srpc::TimePoint until,
                    const std::function<void()>& on_start, Window& w) {
  std::this_thread::sleep_until(from);
  on_start();
  w.start = {srpc::Clock::now(), CpuSample::now()};
  std::this_thread::sleep_until(until);
  w.end = {srpc::Clock::now(), CpuSample::now()};
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams stay uncorrelated.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double seconds_between(srpc::TimePoint a, srpc::TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

int thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int threads = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::atoi(line + 8);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool wait_until(const std::function<bool()>& pred, srpc::Duration timeout) {
  const auto deadline = srpc::Clock::now() + timeout;
  while (!pred()) {
    if (srpc::Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

Sampler::Sampler(std::function<std::size_t()> depth)
    : depth_(std::move(depth)) {
  thread_ = std::thread([this] {
    int tick = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      depth_sum_ += static_cast<double>(depth_());
      samples_++;
      if (tick++ % 100 == 0) threads_ = std::max(threads_, thread_count());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

Sampler::~Sampler() { stop(); }

std::pair<double, double> Sampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  const double mean = samples_ > 0 ? depth_sum_ / static_cast<double>(samples_)
                                   : 0;
  return {mean, static_cast<double>(threads_)};
}

void add_spec_layer(Window& w, const srpc::spec::SpecStats& before,
                    const srpc::spec::SpecStats& after) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, w.committed));
  auto per_op = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / ops;
  };
  w.layer["specrpc.calls_per_op"] =
      per_op(before.calls_issued, after.calls_issued);
  w.layer["specrpc.callbacks_per_op"] =
      per_op(before.callbacks_spawned, after.callbacks_spawned);
  w.layer["specrpc.reexecutions_per_op"] =
      per_op(before.reexecutions, after.reexecutions);
  w.layer["specrpc.abandoned_per_op"] =
      per_op(before.branches_abandoned, after.branches_abandoned);
  w.layer["specrpc.spec_blocks_per_op"] =
      per_op(before.spec_blocks, after.spec_blocks);
  w.layer["specrpc.state_msgs_per_op"] =
      per_op(before.state_msgs_sent, after.state_msgs_sent);
  const auto made = after.predictions_made - before.predictions_made;
  const auto correct = after.predictions_correct - before.predictions_correct;
  w.layer["specrpc.prediction_accuracy"] =
      made > 0 ? static_cast<double>(correct) / static_cast<double>(made) : 0;
}

void add_transport_layer(Window& w, const srpc::TrafficStats& before,
                         const srpc::TrafficStats& after) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, w.committed));
  w.layer["transport.msgs_per_op"] =
      static_cast<double>(after.msgs_sent - before.msgs_sent) / ops;
  w.layer["transport.bytes_per_op"] =
      static_cast<double>(after.bytes_sent - before.bytes_sent) / ops;
}

}  // namespace perfbench
