// Versioned in-memory key-value store with 2PC-style write locks.
//
// One VersionedStore instance backs one shard replica of the Replicated
// Commit evaluation (§5.2: "transactional key-value store ... sharded into
// three partitions, with each partition having a replica at every
// datacentre"). Reads return (value, version); prepare acquires per-key
// write locks and validates read versions (OCC-flavoured 2PL, matching RC's
// buffered writes + quorum reads).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace srpc::kv {

using TxnId = std::uint64_t;

struct VersionedValue {
  std::string value;
  std::int64_t version = 0;
};

struct ReadValidation {
  std::string key;
  std::int64_t version = 0;
};

struct WriteOp {
  std::string key;
  std::string value;
};

/// One transaction's footprint on one shard inside a commit batch (a
/// per-transaction commit is a batch of one, DESIGN.md §12.4). `index` is
/// the transaction's position in the batch (queue order); `txn` is its
/// commit stamp, from which every replica derives the same commit version
/// (version_base + txn) without coordination.
struct BatchEntry {
  TxnId txn = 0;
  std::size_t index = 0;
  std::vector<ReadValidation> reads;
  std::vector<WriteOp> writes;
};

class VersionedStore {
 public:
  /// Committed read (ignores uncommitted/locked state; RC buffers writes
  /// until commit, so there is nothing uncommitted to see).
  std::optional<VersionedValue> get(const std::string& key) const;

  /// Direct load used to populate the dataset before a run.
  void load(const std::string& key, std::string value, std::int64_t version);

  /// Version-monotone load: applies only if `version` is newer than the
  /// stored one. State-transfer entries (view.pull) and forwarded applies
  /// land through this, so a racing newer commit is never clobbered.
  void load_if_newer(const std::string& key, std::string value,
                     std::int64_t version);

  /// Snapshot of every (key, value, version) whose key satisfies `pred`,
  /// taken under one lock hold — the export side of shard state transfer.
  std::vector<std::tuple<std::string, std::string, std::int64_t>> export_if(
      const std::function<bool(const std::string&)>& pred) const;

  /// True if any currently write-locked key satisfies `pred`. The transfer
  /// source refuses to export migrating slots until this drains (in-flight
  /// 2PC resolves in the epoch that prepared it).
  bool any_locked_if(const std::function<bool(const std::string&)>& pred) const;

  std::size_t size() const;

  /// One-transaction forms of the batch calls below (a transaction is a
  /// batch of one): prepare locks `writes` and validates `reads` under owner
  /// `txn`; commit applies `writes` at `commit_version` (versions only move
  /// forward, so a replica that voted no may still apply) and releases
  /// txn's locks; abort releases them without applying.
  bool prepare(TxnId txn, const std::vector<ReadValidation>& reads,
               const std::vector<WriteOp>& writes);
  void commit(TxnId txn, const std::vector<WriteOp>& writes,
              std::int64_t commit_version);
  void abort(TxnId txn);

  /// Prepare: validates every entry in queue order under ONE lock hold and
  /// returns a per-entry vote. An entry votes yes when every read version
  /// is still current and no read or write key is locked by another owner.
  /// All write locks of yes-voting entries are acquired with `batch_id` as
  /// the owner,
  /// so intra-batch write-write overlap on a key is not a conflict (queue
  /// order serialises it) and release is a single abort/commit of the batch.
  /// A read whose key was written by an earlier yes-voting entry of the same
  /// batch is satisfied by the queue overlay and skips store validation (the
  /// client resolves such reads from the queue without an RPC; the entry
  /// here is defensive). On a no vote nothing of that entry stays locked.
  std::vector<bool> prepare_batch(TxnId batch_id,
                                  const std::vector<BatchEntry>& entries);

  /// Applies the writes of entries whose `decisions[i]` is true, each at
  /// commit_version = version_base + entry.txn (stamps are allocated in
  /// queue order, so versions strictly increase along the batch), then
  /// releases every lock owned by `batch_id`. Entries with a false decision
  /// are skipped but their locks (shared under batch_id) are still released.
  void commit_batch(TxnId batch_id, const std::vector<BatchEntry>& entries,
                    const std::vector<bool>& decisions,
                    std::int64_t version_base);

  /// Releases every lock owned by `batch_id` without applying anything.
  void abort_batch(TxnId batch_id);

  /// True if `key` currently carries a write lock (reads wait on these —
  /// an in-flight commit may be about to apply).
  bool is_locked(const std::string& key) const;

  /// Owner of `key`'s write lock, if any. Recovery hook: fail-fast locks
  /// have no expiry, so an operator (or test) that knows a transaction's
  /// global decision can release a lock whose decide message was lost —
  /// the role RC's per-DC Paxos log plays in the paper's deployment.
  std::optional<TxnId> lock_holder(const std::string& key) const;

  /// Diagnostics.
  std::size_t locked_keys() const;

 private:
  /// Drops every lock `owner` holds; mu_ must be held.
  void release_locked(TxnId owner);

  mutable std::mutex mu_;
  std::unordered_map<std::string, VersionedValue> data_;
  std::unordered_map<std::string, TxnId> locks_;            // key -> owner
  std::unordered_map<TxnId, std::vector<std::string>> txn_locks_;
};

}  // namespace srpc::kv
