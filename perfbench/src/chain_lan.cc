// chain-lan: the paper's §5.1 / Figure 8b microbenchmark, open loop. One
// generator thread sends 200 chains/s on a fixed schedule. A chain is 4
// dependent steps against 4 SpecEngine servers on a SimNetwork with 100 us
// one-way LAN delay; every step takes 10 ms of timer-driven service time (the
// paper's value) and carries a 64-byte payload. The client predicts each
// step's result inline, correctly with probability 0.9. Chain time runs from
// the intended send time, so a stalled generator shows up as latency.
//
// The benchmark builds this fixture itself, so the traced run can put a
// timing wrapper around every Transport and the engines' codec.
//
// chain-lan-nopredict runs the same chains with no client predictions, so
// each step waits for the previous one and the engine takes its
// non-speculative call path. It is the chain workload the current program
// passes (see perfbench/README.md, "Known defects").
//
// Check: every chain returns the exact 4-step result, every engine keeps
// predictions_correct + predictions_incorrect <= predictions_made, and the
// engines' call-tracking tables drain after the run.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/executor.h"
#include "common/rng.h"
#include "specrpc/engine.h"
#include "trace.h"
#include "transport/sim_network.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using namespace srpc;  // NOLINT

constexpr int kServers = 4;
constexpr int kSteps = 4;
constexpr double kChainsPerSecond = 200;
constexpr double kCorrectRate = 0.9;
constexpr std::size_t kPayload = 64;
constexpr std::size_t kHeader = 20;  // "s<step>:<16 hex op id>:"
// With 2 ms, scheduling hiccups of a few ms on a shared host pushed
// one-miss chains past the two-miss plateau that p99 sits on, and p99 read
// 7.6 or 10-18 ms from run to run. 10 ms keeps those bands apart.
const Duration kService = std::chrono::milliseconds(10);
const Duration kLanDelay = std::chrono::microseconds(100);

// ---------------------------------------------------------------- payloads
// A step's argument is a header naming the step and the chain, then 44
// letters carried over from the previous step's result. The server maps the
// letters through a step-dependent permutation, so a result depends on every
// earlier step and a wrong prediction never validates by accident.

std::string header(int step, std::uint64_t op) {
  char head[48];
  std::snprintf(head, sizeof(head), "s%d:%016llx:", step,
                static_cast<unsigned long long>(op));
  return head;
}

std::uint64_t op_of(const std::string& arg) {
  return arg.size() >= kHeader ? std::strtoull(arg.c_str() + 3, nullptr, 16)
                               : 0;
}

std::string step_fn(const std::string& arg) {
  std::string out = arg;
  const int step = arg[1] - '0';
  out[0] = 'r';
  for (std::size_t j = kHeader; j < out.size(); ++j) {
    out[j] = static_cast<char>(
        'a' + ((arg[j] - 'a') * 7 + static_cast<int>(j) + step) % 26);
  }
  return out;
}

std::string next_arg(const std::string& result, int step, std::uint64_t op) {
  std::string arg = header(step, op);
  arg.append(result, std::min(kHeader, result.size()));
  return arg;
}

std::string wrong(const std::string& correct) {
  std::string out = correct;
  out.back() = out.back() == 'z' ? 'a' : static_cast<char>(out.back() + 1);
  return out;
}

/// One chain's inputs: the first argument and which steps predict right.
struct ChainInput {
  std::uint64_t op = 0;
  std::string arg0;
  std::array<bool, kSteps> correct{};
};

std::string expected_result(const ChainInput& in) {
  std::string v = step_fn(in.arg0);
  for (int s = 1; s < kSteps; ++s) v = step_fn(next_arg(v, s, in.op));
  return v;
}

// ---------------------------------------------------------------- fixture

class ChainFixture {
 public:
  ChainFixture(std::uint64_t seed, bool wrap, bool predict)
      : predict_(predict) {
    SimConfig sim;
    sim.executor_threads = 4;
    sim.default_delay = kLanDelay;
    sim.seed = derive_seed(seed, 0);
    net_ = std::make_unique<SimNetwork>(sim);
    // Callbacks park in spec_block; keep them off the delivery executor.
    work_ = std::make_unique<Executor>(16, "chain-work");
    spec::SpecConfig config;
    if (wrap) config.codec = &codec_;
    for (int s = 0; s < kServers; ++s) {
      servers_.push_back(std::make_unique<spec::SpecEngine>(
          endpoint("server" + std::to_string(s), wrap), *work_, net_->wheel(),
          config));
      servers_.back()->register_method(
          "work", spec::Handler([](const spec::ServerCallPtr& call) {
            const std::string& arg = call->args().at(0).as_string();
            trace::Scope span(trace::kAppHandler, op_of(arg), trace::kOpRoot);
            call->finish_after(kService, Value(step_fn(arg)));
          }));
    }
    client_ = std::make_unique<spec::SpecEngine>(endpoint("client", wrap),
                                                 *work_, net_->wheel(), config);
  }

  ~ChainFixture() {
    // Stop engines (wakes spec_block waiters), drain their executor, then
    // destroy them before the transports and the network they use.
    for (auto& e : servers_) e->begin_shutdown();
    client_->begin_shutdown();
    work_->shutdown();
    servers_.clear();
    client_.reset();
    wrapped_.clear();
    net_.reset();
  }

  ChainFixture(const ChainFixture&) = delete;
  ChainFixture& operator=(const ChainFixture&) = delete;

  SimNetwork& net() { return *net_; }
  Executor& work() { return *work_; }

  std::vector<spec::SpecEngine*> engines() {
    std::vector<spec::SpecEngine*> out{client_.get()};
    for (auto& s : servers_) out.push_back(s.get());
    return out;
  }

  spec::SpecStats stats() {
    spec::SpecStats sum;
    for (auto* e : engines()) {
      const spec::SpecStats s = e->stats();
      sum.calls_issued += s.calls_issued;
      sum.callbacks_spawned += s.callbacks_spawned;
      sum.reexecutions += s.reexecutions;
      sum.predictions_made += s.predictions_made;
      sum.predictions_correct += s.predictions_correct;
      sum.predictions_incorrect += s.predictions_incorrect;
      sum.branches_abandoned += s.branches_abandoned;
      sum.state_msgs_sent += s.state_msgs_sent;
      sum.spec_blocks += s.spec_blocks;
    }
    return sum;
  }

  /// Calls one chain step; the callback chains the next.
  spec::CallbackFactory step(std::shared_ptr<const ChainInput> in, int idx) {
    return [this, in, idx]() -> spec::CallbackFn {
      return [this, in, idx](spec::SpecContext& ctx,
                             const Value& v) -> spec::CallbackResult {
        trace::Scope span(trace::kAppCallback, in->op, trace::kOpRoot);
        const int next = idx + 1;
        if (next >= kSteps) return v;
        const std::string arg = next_arg(v.as_string(), next, in->op);
        const std::string correct = step_fn(arg);
        ValueList predictions;
        if (predict_) {
          predictions.emplace_back(in->correct[static_cast<std::size_t>(next)]
                                       ? correct
                                       : wrong(correct));
        }
        ValueList args;
        args.emplace_back(arg);
        trace::Scope issue(trace::kSpecIssue, in->op);
        return ctx.call(server_for(next), "work", std::move(args),
                        std::move(predictions), step(in, next));
      };
    };
  }

  spec::SpecFuturePtr start(std::shared_ptr<const ChainInput> in) {
    const std::string correct = step_fn(in->arg0);
    ValueList predictions;
    if (predict_) {
      predictions.emplace_back(in->correct[0] ? correct : wrong(correct));
    }
    ValueList args;
    args.emplace_back(in->arg0);
    trace::Scope issue(trace::kSpecIssue, in->op, trace::kOpRoot);
    return client_->call(server_for(0), "work", std::move(args),
                         std::move(predictions), step(in, 0));
  }

 private:
  Transport& endpoint(const Address& addr, bool wrap) {
    Transport& raw = net_->add_node(addr);
    if (!wrap) return raw;
    wrapped_.push_back(std::make_unique<TracingTransport>(raw));
    return *wrapped_.back();
  }

  static Address server_for(int step) {
    return "server" + std::to_string(step % kServers);
  }

  const bool predict_;
  TimingCodec codec_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<Executor> work_;
  std::vector<std::unique_ptr<TracingTransport>> wrapped_;
  std::vector<std::unique_ptr<spec::SpecEngine>> servers_;
  std::unique_ptr<spec::SpecEngine> client_;
};

/// One chain's fate, written by its completion continuation.
struct ChainRecord {
  std::shared_ptr<const ChainInput> input;
  TimePoint intended{};
  double lag_ms = 0;
  bool in_window = false;
  std::string expected;
  // Written once by the continuation before `done` is released.
  bool ok = false;
  std::string result;
  std::string error;
  TimePoint finished{};
  std::atomic<bool> done{false};
};

}  // namespace

Window run_chain_lan(const Options& opts, bool traced, bool predict) {
  Window w;
  w.params = {{"generator", "open loop, fixed schedule"},
              {"chains_per_s", "200"},
              {"steps", std::to_string(kSteps)},
              {"servers", std::to_string(kServers)},
              {"service_ms", "10 (timer)"},
              {"lan_one_way_us", "100"},
              {"payload_bytes", std::to_string(kPayload)},
              {"prediction_correct_rate", predict ? "0.9" : "no predictions"}};

  auto fx = build_fixture<ChainFixture>(opts, w, opts.seed, traced, predict);

  // Inputs for the whole run, drawn from the seed before anything is sent.
  const Duration interval = from_ms(1000.0 / kChainsPerSecond);
  const TimePoint first = Clock::now() + std::chrono::milliseconds(5);
  const TimePoint measure_from = first + from_ms(opts.warmup_s * 1000.0);
  const TimePoint until = measure_from + from_ms(opts.seconds * 1000.0);
  const auto total = static_cast<std::size_t>((until - first) / interval);
  std::vector<ChainRecord> chains(total);
  Rng rng(derive_seed(opts.seed, 300));
  for (std::size_t k = 0; k < total; ++k) {
    auto in = std::make_shared<ChainInput>();
    in->op = k + 1;
    in->arg0 = header(0, in->op);
    while (in->arg0.size() < kPayload) {
      in->arg0.push_back(static_cast<char>('a' + rng.uniform(26)));
    }
    for (auto& c : in->correct) c = rng.flip(kCorrectRate);
    ChainRecord& rec = chains[k];
    rec.intended = first + interval * static_cast<long>(k);
    rec.in_window = rec.intended >= measure_from;
    rec.expected = expected_result(*in);
    rec.input = std::move(in);
  }

  std::thread generator([&] {
    for (auto& rec : chains) {
      std::this_thread::sleep_until(rec.intended);
      rec.lag_ms = to_ms(Clock::now() - rec.intended);
      spec::SpecFuturePtr future = fx->start(rec.input);
      future->then([&rec](const rpc::Outcome& outcome) {
        rec.finished = Clock::now();
        rec.ok = outcome.ok;
        if (outcome.ok) {
          rec.result = outcome.value.as_string();
        } else {
          rec.error = outcome.error;
        }
        trace::record(trace::kWorkloadOp, rec.input->op, 0,
                      trace::to_ns(rec.intended), trace::to_ns(rec.finished));
        rec.done.store(true, std::memory_order_release);
      });
    }
  });

  spec::SpecStats spec_before;
  TrafficStats net_before;
  std::optional<Sampler> sampler;
  measure_window(measure_from, until, [&] {
    spec_before = fx->stats();
    net_before = fx->net().total_stats();
    if (traced) {
      sampler.emplace([&] {
        return fx->work().queue_depth() + fx->net().executor().queue_depth();
      });
      trace::set_enabled(true);
    }
  }, w);
  generator.join();
  trace::set_enabled(false);
  const spec::SpecStats spec_after = fx->stats();
  const TrafficStats net_after = fx->net().total_stats();
  if (sampler) std::tie(w.queue_depth_mean, w.threads) = sampler->stop();

  // Chains still in flight get a bounded time to finish; any that do not
  // count as failed.
  wait_until(
      [&] {
        for (const auto& rec : chains) {
          if (!rec.done.load(std::memory_order_acquire)) return false;
        }
        return true;
      },
      std::chrono::seconds(10));

  std::vector<double> lag_ms;
  std::string error;
  bool corrupted = false;
  for (ChainRecord& rec : chains) {
    const bool done = rec.done.load(std::memory_order_acquire);
    if (done && rec.ok && opts.fault == "result" && rec.in_window &&
        !corrupted) {
      rec.result += "-corrupted-by-fault-switch";
      corrupted = true;
    }
    if (done && rec.ok && rec.result != rec.expected && error.empty()) {
      error = "chain " + std::to_string(rec.input->op) + " returned '" +
              rec.result + "', expected '" + rec.expected + "'";
    }
    if (!rec.in_window) continue;
    w.attempted++;
    lag_ms.push_back(rec.lag_ms);
    if (!done || !rec.ok) {
      w.failed++;
      std::fprintf(stderr, "chain-lan: chain %llu failed: %s\n",
                   static_cast<unsigned long long>(rec.input->op),
                   done ? rec.error.c_str() : "no result within 10 s");
      continue;
    }
    w.committed++;
    w.latency_ms.push_back(to_ms(rec.finished - rec.intended));
  }

  for (auto* e : fx->engines()) {
    const spec::SpecStats s = e->stats();
    if (s.predictions_correct + s.predictions_incorrect > s.predictions_made &&
        error.empty()) {
      error = "engine " + e->address() + ": predictions correct " +
              std::to_string(s.predictions_correct) + " + incorrect " +
              std::to_string(s.predictions_incorrect) + " > made " +
              std::to_string(s.predictions_made);
    }
  }
  const bool drained = wait_until(
      [&] {
        for (auto* e : fx->engines()) {
          const auto d = e->debug_sizes();
          if (d.outgoing + d.incoming + d.wire_routes + d.early_state != 0) {
            return false;
          }
        }
        return true;
      },
      std::chrono::seconds(5));
  if (!drained && error.empty()) {
    error = "engine call-tracking tables did not drain within 5 s:";
    for (auto* e : fx->engines()) {
      const auto d = e->debug_sizes();
      error += " " + e->address() + " {outgoing " +
               std::to_string(d.outgoing) + ", incoming " +
               std::to_string(d.incoming) + ", wire_routes " +
               std::to_string(d.wire_routes) + ", early_state " +
               std::to_string(d.early_state) + "}";
    }
  }
  w.check_error = error;

  w.layer["workload.generator_lag_p99_ms"] = percentile(lag_ms, 99);
  add_spec_layer(w, spec_before, spec_after);
  add_transport_layer(w, net_before, net_after);
  fx.reset();
  return w;
}

}  // namespace perfbench
