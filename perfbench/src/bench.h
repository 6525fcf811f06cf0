// Shared harness types for the SpecRPC benchmark: options, what one measured
// window produced, and the small measurement helpers every workload uses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.h"
#include "specrpc/engine.h"
#include "transport/transport.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// "none", or the corruption this workload's check must catch:
  /// "replica" (ycsbt-wan, qstream-batch) or "result" (chain-lan).
  std::string fault = "none";
  /// Where the traced run writes its spans (CSV); empty = keep in memory.
  std::string trace_out;
  double warmup_s = 1.0;
  /// The fixture is constructed at least min_setups times, and again until
  /// setup_budget_s has passed; setup_s is the median construction time.
  int min_setups = 5;
  double setup_budget_s = 2.0;
};

/// Process CPU and context switches (getrusage) at one instant.
struct CpuSample {
  double user_ms = 0;
  double sys_ms = 0;
  std::uint64_t ctx_switches = 0;

  static CpuSample now();
  CpuSample operator-(const CpuSample& o) const {
    return {user_ms - o.user_ms, sys_ms - o.sys_ms,
            ctx_switches - o.ctx_switches};
  }
  double total_ms() const { return user_ms + sys_ms; }
};

/// Process CPU at one instant of the measured window.
struct Mark {
  srpc::TimePoint at;
  CpuSample cpu;
};

/// Everything one measured window of a workload produced. "Ops" are what
/// the workload completes: committed transactions (ycsbt-wan,
/// qstream-batch) or completed chains (chain-lan).
struct Window {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  /// Latency of every op that started in the window (chain-lan: that was
  /// due in it), in ms.
  std::vector<double> latency_ms;
  Mark start;  // CPU and time when the window opened
  Mark end;    // and when it closed
  double setup_s = 0;  // median fixture construction time
  std::vector<double> setup_samples_s;
  /// Per-layer metrics this workload measures (name -> value); main fills
  /// the layers a workload does not run with 0.
  std::map<std::string, double> layer;
  /// Mean executor queue depth and thread count sampled during the window
  /// (traced runs only).
  double queue_depth_mean = 0;
  double threads = 0;
  /// Empty when the workload's correctness check passed.
  std::string check_error;
  /// Workload parameters, for the result stamp.
  std::map<std::string, std::string> params;

  double elapsed_s() const;
  CpuSample cpu() const;
};

/// Sleeps through [from, until) on the calling thread. At `from` it calls
/// `on_start` and marks the window start; at `until` it marks the end.
void measure_window(srpc::TimePoint from, srpc::TimePoint until,
                    const std::function<void()>& on_start, Window& w);

/// Derives an independent 64-bit seed for stream `stream` of run `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> v, double p);

double seconds_between(srpc::TimePoint a, srpc::TimePoint b);

/// Current number of threads in this process.
int thread_count();

/// Peak resident set size of this process, MiB.
double max_rss_mb();

/// Polls `pred` every few ms until it holds or `timeout` passes.
bool wait_until(const std::function<bool()>& pred, srpc::Duration timeout);

/// Samples `depth()` every couple of milliseconds on a background thread
/// from construction until stop(); also records the process thread count.
class Sampler {
 public:
  explicit Sampler(std::function<std::size_t()> depth);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stops sampling; returns {mean depth, max thread count}.
  std::pair<double, double> stop();

 private:
  std::function<std::size_t()> depth_;
  std::atomic<bool> stop_{false};
  double depth_sum_ = 0;
  std::uint64_t samples_ = 0;
  int threads_ = 0;
  std::thread thread_;
};

/// Constructs the workload's fixture opts.min_setups times, and then again
/// until opts.setup_budget_s has passed. Keeps the last one and records the
/// median construction time in `w`. Each construction after the first waits
/// kSetupPause after the previous fixture is destroyed, so that its threads
/// have exited. Back-to-back constructions of the sub-millisecond chain
/// fixture overlap those exits; without the pause its median ranged over
/// 0.47-1.92 ms from run to run, with it over 0.52-0.73 ms.
inline constexpr std::chrono::milliseconds kSetupPause{5};

template <typename Fixture, typename... Args>
std::unique_ptr<Fixture> build_fixture(const Options& opts, Window& w,
                                       const Args&... args) {
  std::unique_ptr<Fixture> fixture;
  const srpc::TimePoint begin = srpc::Clock::now();
  for (int i = 0; i < opts.min_setups ||
                  seconds_between(begin, srpc::Clock::now()) <
                      opts.setup_budget_s;
       ++i) {
    if (fixture) {
      fixture.reset();
      std::this_thread::sleep_for(kSetupPause);
    }
    const srpc::TimePoint t0 = srpc::Clock::now();
    fixture = std::make_unique<Fixture>(args...);
    w.setup_samples_s.push_back(seconds_between(t0, srpc::Clock::now()));
  }
  w.setup_s = percentile(w.setup_samples_s, 50);
  return fixture;
}

/// Per-layer counters every SpecRPC workload reports, from the delta of
/// two SpecStats snapshots, per committed op.
void add_spec_layer(Window& w, const srpc::spec::SpecStats& before,
                    const srpc::spec::SpecStats& after);

/// transport.msgs_per_op / bytes_per_op from two traffic snapshots.
void add_transport_layer(Window& w, const srpc::TrafficStats& before,
                         const srpc::TrafficStats& after);

/// The workloads. Each builds its fixture (see build_fixture), warms up,
/// measures one window of opts.seconds, drains, checks its outputs and
/// tears down. run_chain_lan runs chain-lan, or chain-lan-nopredict when
/// `predict` is false.
Window run_ycsbt_wan(const Options& opts, bool traced);
Window run_chain_lan(const Options& opts, bool traced, bool predict);
Window run_qstream_batch(const Options& opts, bool traced);

}  // namespace perfbench
