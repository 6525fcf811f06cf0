// The one Replicated Commit path (DESIGN.md §12.4), end to end:
//
//   * commit versions sit above every version the transaction validated,
//     even a version another client process committed with its own stamp
//     counter — otherwise a read-modify-write reports committed while every
//     replica drops its write as "not newer";
//   * speculative read chains never park executor workers, so a poisoned
//     queue's branch fan-out cannot starve the shared pool and stall the
//     very replica handlers the chain waits on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "batch/client.h"
#include "rc/cluster.h"

namespace srpc {
namespace {

using batch::BatchMode;

rc::ClusterConfig cluster_config(BatchMode mode) {
  rc::ClusterConfig config;
  config.flavor = Flavor::kSpec;
  config.geo = uniform_geo(/*rtt_ms=*/4.0);
  config.geo.lan_rtt_ms = 0.2;
  config.clients_per_dc = 1;
  config.num_keys = 1000;
  config.executor_threads = 8;
  config.batch_clients = true;
  config.batch_mode = mode;
  return config;
}

void load_everywhere(rc::RcCluster& cluster, const std::string& key,
                     const std::string& value, std::int64_t version) {
  const int shard = cluster.view()->shard_of(key);
  for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
    cluster.store(dc, shard).load(key, value, version);
  }
}

/// Decides are asynchronous: waits until every replica holds `value`.
void expect_everywhere(rc::RcCluster& cluster, const std::string& key,
                       const std::string& value) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  const int shard = cluster.view()->shard_of(key);
  for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
    for (;;) {
      auto got = cluster.store(dc, shard).get(key);
      if (got.has_value() && got->value == value) break;
      if (Clock::now() > deadline) {
        FAIL() << "dc" << dc << " " << key << " = '"
               << (got ? got->value : "<missing>") << "', expected '"
               << value << "'";
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

batch::BatchOp incr_op(std::string key) {
  batch::BatchOp op;
  op.kind = batch::OpKind::kRmw;
  op.key = std::move(key);
  op.value = "1";
  op.transform = batch::Transform::kIncrement;
  return op;
}

class CommitVersionTest : public ::testing::TestWithParam<BatchMode> {};

TEST_P(CommitVersionTest, IncrementAboveAForeignVersionApplies) {
  // Each key holds a version committed by a client process whose stamp
  // counter ran far ahead of this one. Escalating per mode, so every case
  // needs its own advance even when the modes share one process.
  const auto mode_index = static_cast<std::int64_t>(GetParam());
  const std::int64_t rc_version =
      rc::kVersionBase + (2 * mode_index + 1) * 1'000'000;
  const std::int64_t batch_version = rc_version + 1'000'000;
  rc::RcCluster cluster(cluster_config(GetParam()));
  load_everywhere(cluster, "k00000001", "5", rc_version);
  load_everywhere(cluster, "k00000002", "7", batch_version);

  const rc::TxnResult r = cluster.client(0, 0).run_transform(
      "k00000001",
      [](const std::string& v) { return std::to_string(std::stoll(v) + 1); });
  ASSERT_TRUE(r.committed);
  expect_everywhere(cluster, "k00000001", "6");

  std::vector<batch::BatchTxn> txns(1);
  txns[0].ops = {incr_op("k00000002")};
  const batch::EpochResult e =
      cluster.batch_client(0, 0).run_epoch(std::move(txns));
  ASSERT_EQ(e.committed, 1u);
  expect_everywhere(cluster, "k00000002", "8");
}

INSTANTIATE_TEST_SUITE_P(AllModes, CommitVersionTest,
                         ::testing::Values(BatchMode::kPerTxn2pc,
                                           BatchMode::kGroupCommit,
                                           BatchMode::kSpeculative));

TEST(SpeculativeChains, PoisonedFanOutLargerThanThePoolCompletes) {
  // Every client runs one shard queue of wire reads per shard, all seeded
  // wrong: every link runs a poisoned branch and a first-responder branch,
  // and each branch chains the next link, so live chain tails multiply far
  // past the shared work pool (32 workers here). A tail that parked its
  // worker until its branch resolved starved the replicas' read handlers
  // on that same pool — the branch then never resolved, and the epoch hung
  // to the call timeout. The 60 ms WAN lets the fan-out fill the pool
  // before the first remote read request arrives.
  constexpr int kReadsPerShard = 12;
  rc::ClusterConfig config = cluster_config(BatchMode::kSpeculative);
  config.geo = uniform_geo(/*rtt_ms=*/60.0);
  config.geo.lan_rtt_ms = 0.2;
  config.call_timeout = std::chrono::seconds(3);
  rc::RcCluster cluster(config);
  const auto view = cluster.view();
  // Disjoint keys per client: the epochs never contend for locks.
  std::vector<std::vector<std::string>> keys(
      static_cast<std::size_t>(cluster.num_dcs()));
  std::vector<int> taken(static_cast<std::size_t>(view->num_shards), 0);
  for (int i = 0; taken != std::vector<int>(taken.size(), 3 * kReadsPerShard);
       ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", i);
    int& n = taken[static_cast<std::size_t>(view->shard_of(key))];
    if (n == 3 * kReadsPerShard) continue;
    keys[static_cast<std::size_t>(n++ / kReadsPerShard)].push_back(key);
  }
  std::atomic<int> failed{0};
  std::atomic<std::size_t> committed{0};
  std::vector<std::thread> clients;
  for (int dc = 0; dc < cluster.num_dcs(); ++dc) {
    clients.emplace_back([&, dc] {
      auto& client = cluster.batch_client(dc, 0);
      const auto& mine = keys[static_cast<std::size_t>(dc)];
      for (int epoch = 0; epoch < 2; ++epoch) {
        std::vector<batch::BatchTxn> txns(1);
        for (const auto& key : mine) {
          client.seeds()->put(key, "poisoned", 9'000'000'000'000'000LL);
          batch::BatchOp op;
          op.kind = batch::OpKind::kRead;
          op.key = key;
          txns[0].ops.push_back(op);
        }
        txns[0].ops.push_back(incr_op(mine.front()));
        try {
          committed += client.run_epoch(std::move(txns)).committed;
        } catch (const std::exception&) {
          failed++;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(committed.load(),
            2u * static_cast<std::size_t>(cluster.num_dcs()));
  EXPECT_GT(cluster.spec_stats().predictions_incorrect, 0u);
}

}  // namespace
}  // namespace srpc
