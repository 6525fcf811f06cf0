// qstream-batch: queue-oriented speculative batch transactions. A SpecRPC
// Replicated Commit cluster with batch clients in static speculative mode
// (adaptive batching off), uniform 4 ms RTT and 0.2 ms LAN, one closed-loop
// batch client per datacentre. QStream: 32 txns/epoch, 4 ops/txn, 4 hot
// keys, hot fraction 0.5, cross-partition 0.3, over 20k keys.
//
// Check: the replicated state on every datacentre equals a serial replay of
// the committed transactions. To make that replay well defined without
// knowing the commit order across clients, the generated streams are
// post-processed so that clients share only the hot counters, which they
// only ever increment (increments commute): every other key is remapped,
// within its shard, onto a key range private to the client. A lost update
// on a hot counter, a torn batch or a replica that missed a decide all show
// as a mismatch.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "batch/client.h"
#include "bench.h"
#include "rc/cluster.h"
#include "trace.h"
#include "workload/qstream.h"

namespace perfbench {
namespace {

using namespace srpc;  // NOLINT

constexpr std::size_t kNumKeys = 20'000;
constexpr std::size_t kHotKeys = 4;
constexpr std::size_t kValueSize = 16;

rc::ClusterConfig cluster_config(std::uint64_t seed) {
  rc::ClusterConfig config;
  config.flavor = Flavor::kSpec;
  config.geo = uniform_geo(4.0);
  config.geo.lan_rtt_ms = 0.2;
  config.clients_per_dc = 1;
  config.num_keys = kNumKeys;
  config.value_size = kValueSize;
  config.batch_clients = true;
  config.batch_mode = batch::BatchMode::kSpeculative;
  config.batch_txns_per_epoch = 32;
  config.adaptive_batch = false;
  config.seed = derive_seed(seed, 0);
  return config;
}

wl::QStreamConfig stream_config() {
  wl::QStreamConfig config;
  config.txns_per_epoch = 32;
  config.ops_per_txn = 4;
  config.num_keys = kNumKeys;
  config.value_size = kValueSize;
  config.hot_keys = kHotKeys;
  config.hot_fraction = 0.5;
  config.cross_partition_fraction = 0.3;
  return config;
}

std::string key_at(std::size_t i) {
  char key[32];
  std::snprintf(key, sizeof(key), "k%08zu", i);
  return key;
}

/// Moves a client's non-hot keys onto the client's private slice of the
/// same shard: position p of a shard's key list maps to the nearest
/// position congruent to the client index modulo the client count.
class PrivateKeys {
 public:
  PrivateKeys(int clients, const rc::ClusterView& view) : clients_(clients) {
    by_shard_.resize(static_cast<std::size_t>(view.num_shards));
    for (std::size_t i = 0; i < kNumKeys; ++i) {
      std::string key = key_at(i);
      auto& list = by_shard_[static_cast<std::size_t>(view.shard_of(key))];
      where_[key] = {view.shard_of(key), list.size()};
      list.push_back(i);
    }
  }

  void apply(std::vector<batch::BatchTxn>& txns, int client) const {
    for (auto& txn : txns) {
      for (auto& op : txn.ops) {
        // Hot-run counters stay shared; they are only ever incremented.
        if (op.transform == batch::Transform::kIncrement) continue;
        op.key = remap(op.key, client);
      }
    }
  }

 private:
  std::string remap(const std::string& key, int client) const {
    const auto [shard, pos] = where_.at(key);
    const auto& list = by_shard_[static_cast<std::size_t>(shard)];
    const auto c = static_cast<std::size_t>(clients_);
    std::size_t q = pos - pos % c + static_cast<std::size_t>(client);
    while (q >= list.size() || list[q] < kHotKeys) {
      q = q >= list.size() || q + c >= list.size() ? q % c : q + c;
    }
    return key_at(list[q]);
  }

  int clients_;
  std::vector<std::vector<std::size_t>> by_shard_;
  std::unordered_map<std::string, std::pair<int, std::size_t>> where_;
};

/// Committed transactions applied one after another with write-buffer
/// semantics (reads see the transaction's own earlier writes).
class SerialReplay {
 public:
  void apply(const batch::BatchTxn& txn) {
    std::map<std::string, std::string> buffer;
    for (const auto& op : txn.ops) {
      if (op.kind == batch::OpKind::kWrite) {
        buffer[op.key] = op.value;
      } else if (op.kind == batch::OpKind::kRmw) {
        buffer[op.key] =
            batch::apply_transform(op.transform, read(buffer, op.key), op.value);
      }
    }
    for (auto& [key, value] : buffer) state_[key] = std::move(value);
  }

  const std::map<std::string, std::string>& state() const { return state_; }

 private:
  std::string read(const std::map<std::string, std::string>& buffer,
                   const std::string& key) const {
    if (auto it = buffer.find(key); it != buffer.end()) return it->second;
    if (auto it = state_.find(key); it != state_.end()) return it->second;
    return std::string(kValueSize, 'v');  // the preloaded value
  }

  std::map<std::string, std::string> state_;
};

struct ClientLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::vector<double> epoch_ms;
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  std::vector<batch::BatchTxn> committed_txns;  // in commit order, any time
  std::set<std::string> tainted;  // keys an epoch that failed may have written
};

void client_loop(batch::BatchClient& client, int index, std::uint64_t seed,
                 const PrivateKeys& keys, TimePoint measure_from,
                 TimePoint until, ClientLog& log) {
  wl::QStreamWorkload generator(stream_config(),
                                derive_seed(seed, 200 + index));
  std::uint64_t seq = 0;
  while (Clock::now() < until) {
    const TimePoint t0 = Clock::now();
    const bool in_window = t0 >= measure_from;
    const std::uint64_t op = (static_cast<std::uint64_t>(index) << 48) | seq++;
    std::optional<trace::Scope> op_span;
    if (in_window) op_span.emplace(trace::kWorkloadOp, op);
    std::vector<batch::BatchTxn> txns = generator.next_epoch();
    keys.apply(txns, index);
    const std::vector<batch::BatchTxn> reference = txns;
    batch::EpochResult result;
    try {
      std::optional<trace::Scope> epoch_span;
      if (in_window) epoch_span.emplace(trace::kBatchEpoch, op);
      const std::int64_t start = trace::now_ns();
      result = client.run_epoch(std::move(txns));
      const std::int64_t end = trace::now_ns();
      if (epoch_span && epoch_span->id() != 0) {
        // The program reports both phases as durations; the read phase
        // follows planning, the commit phase ends the epoch.
        auto ns = [](Duration d) {
          return std::chrono::duration_cast<std::chrono::nanoseconds>(d)
              .count();
        };
        const std::int64_t commit = ns(result.commit_phase);
        const std::int64_t read_end =
            std::min(end - commit, start + ns(result.read_phase));
        trace::record(trace::kBatchReadPhase, op, epoch_span->id(),
                      read_end - ns(result.read_phase), read_end);
        trace::record(trace::kBatchCommitPhase, op, epoch_span->id(),
                      end - commit, end);
      }
    } catch (const std::exception& e) {
      if (in_window) {
        log.attempted += reference.size();
        log.failed += reference.size();
      }
      for (const auto& txn : reference) {
        for (const auto& o : txn.ops) log.tainted.insert(o.key);
      }
      std::fprintf(stderr, "qstream-batch client %d: epoch failed: %s\n",
                   index, e.what());
      continue;
    }
    const TimePoint t1 = Clock::now();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (i < result.decisions.size() && result.decisions[i]) {
        log.committed_txns.push_back(reference[i]);
      }
    }
    if (!in_window) continue;
    log.attempted += reference.size();
    log.committed += result.committed;
    log.aborted += result.aborted;
    log.epoch_ms.push_back(to_ms(t1 - t0));
    log.read_ms.push_back(to_ms(result.read_phase));
    log.commit_ms.push_back(to_ms(result.commit_phase));
  }
}

/// Empty when every replica of every replayed key holds the replayed value.
std::string mismatch(rc::RcCluster& cluster,
                     const std::map<std::string, std::string>& expected,
                     const std::set<std::string>& tainted) {
  const auto view = cluster.view();
  for (const auto& [key, value] : expected) {
    if (tainted.count(key) != 0) continue;
    const int shard = view->shard_of(key);
    bool equal = true;
    std::string replicas;
    for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
      const auto got = cluster.store(dc, shard).get(key);
      equal = equal && got && got->value == value;
      replicas += " dc" + std::to_string(dc) + "='" +
                  (got ? got->value + "' v" + std::to_string(got->version)
                       : "<missing>'");
    }
    if (!equal) return key + ": serial replay '" + value + "', replicas" + replicas;
  }
  return "";
}

struct BatchCounters {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t dep_aborts = 0;
  std::uint64_t wire_reads = 0;
  std::uint64_t overlay_reads = 0;
};

BatchCounters batch_counters(rc::RcCluster& cluster) {
  BatchCounters c;
  for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
    const auto& s = cluster.batch_client(dc, 0).stats();
    c.committed += s.committed.load();
    c.aborted += s.aborted.load();
    c.dep_aborts += s.dep_aborts.load();
    c.wire_reads += s.wire_reads.load();
    c.overlay_reads += s.overlay_reads.load();
  }
  return c;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

}  // namespace

Window run_qstream_batch(const Options& opts, bool traced) {
  Window w;
  const rc::ClusterConfig config = cluster_config(opts.seed);
  w.params = {{"clients", "3 batch clients (1 per DC, closed loop)"},
              {"mode", "speculative (static)"},
              {"txns_per_epoch", "32"},
              {"ops_per_txn", "4"},
              {"hot_keys", std::to_string(kHotKeys)},
              {"hot_fraction", "0.5"},
              {"cross_partition", "0.3"},
              {"num_keys", std::to_string(kNumKeys)},
              {"rtt_ms", "4 uniform, 0.2 LAN"}};

  auto cluster = build_fixture<rc::RcCluster>(opts, w, config);

  const int clients = cluster->num_dcs();
  const PrivateKeys keys(clients, *cluster->view());
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  const TimePoint measure_from =
      Clock::now() + from_ms(opts.warmup_s * 1000.0);
  const TimePoint until = measure_from + from_ms(opts.seconds * 1000.0);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      client_loop(cluster->batch_client(c, 0), c, opts.seed, keys,
                  measure_from, until, logs[static_cast<std::size_t>(c)]);
    });
  }

  spec::SpecStats spec_before;
  TrafficStats net_before;
  predict::ManagerStats predict_before;
  BatchCounters batch_before;
  std::optional<Sampler> sampler;
  measure_window(measure_from, until, [&] {
    spec_before = cluster->spec_stats();
    net_before = cluster->net().total_stats();
    predict_before = cluster->predict_stats();
    batch_before = batch_counters(*cluster);
    if (traced) {
      sampler.emplace([&] { return cluster->net().executor().queue_depth(); });
      trace::set_enabled(true);
    }
  }, w);
  trace::set_enabled(false);
  const spec::SpecStats spec_after = cluster->spec_stats();
  const TrafficStats net_after = cluster->net().total_stats();
  const predict::ManagerStats predict_after = cluster->predict_stats();
  const BatchCounters batch_after = batch_counters(*cluster);
  if (sampler) std::tie(w.queue_depth_mean, w.threads) = sampler->stop();
  for (auto& t : threads) t.join();

  SerialReplay replay;
  std::set<std::string> tainted;
  std::vector<double> read_ms;
  std::vector<double> commit_ms;
  for (auto& log : logs) {
    w.attempted += log.attempted;
    w.failed += log.failed;
    w.committed += log.committed;
    w.aborted += log.aborted;
    w.latency_ms.insert(w.latency_ms.end(), log.epoch_ms.begin(),
                        log.epoch_ms.end());
    read_ms.insert(read_ms.end(), log.read_ms.begin(), log.read_ms.end());
    commit_ms.insert(commit_ms.end(), log.commit_ms.begin(),
                     log.commit_ms.end());
    for (const auto& txn : log.committed_txns) replay.apply(txn);
    tainted.insert(log.tainted.begin(), log.tainted.end());
  }

  w.layer["batch.read_phase_p50_ms"] = percentile(read_ms, 50);
  w.layer["batch.commit_phase_p50_ms"] = percentile(commit_ms, 50);
  const std::uint64_t txns = (batch_after.committed - batch_before.committed) +
                             (batch_after.aborted - batch_before.aborted);
  const std::uint64_t wire = batch_after.wire_reads - batch_before.wire_reads;
  const std::uint64_t overlay =
      batch_after.overlay_reads - batch_before.overlay_reads;
  w.layer["batch.wire_reads_per_txn"] = ratio(wire, txns);
  w.layer["batch.overlay_read_frac"] = ratio(overlay, wire + overlay);
  w.layer["batch.dep_abort_frac"] =
      ratio(batch_after.dep_aborts - batch_before.dep_aborts,
            batch_after.aborted - batch_before.aborted);
  const std::uint64_t supplier_calls =
      predict_after.supplier_calls - predict_before.supplier_calls;
  w.layer["predict.supplied_frac"] =
      ratio(predict_after.predictions_supplied -
                predict_before.predictions_supplied,
            supplier_calls);
  w.layer["predict.empty_frac"] =
      ratio(predict_after.predictor_empty - predict_before.predictor_empty,
            supplier_calls);
  add_spec_layer(w, spec_before, spec_after);
  add_transport_layer(w, net_before, net_after);

  std::string error;
  wait_until(
      [&] { return (error = mismatch(*cluster, replay.state(), tainted)).empty(); },
      std::chrono::seconds(10));
  // The fault overwrites the first key the check visits, so the check
  // reports that key whatever else it finds.
  if (opts.fault == "replica") {
    for (const auto& [key, value] : replay.state()) {
      if (tainted.count(key) != 0) continue;
      auto& store = cluster->store(2, cluster->view()->shard_of(key));
      const auto current = store.get(key);
      store.load(key, value + "-corrupted-by-fault-switch",
                 current ? current->version : 1);
      break;
    }
    error = mismatch(*cluster, replay.state(), tainted);
  }
  w.check_error = error;
  if (replay.state().empty()) w.check_error = "no committed transactions";
  cluster.reset();
  return w;
}

}  // namespace perfbench
