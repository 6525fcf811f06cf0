// Replicated Commit protocol: shared types, wire encodings.
//
// Replicated Commit (Mahmoud et al., VLDB'13 [26]) commits a transaction in
// one wide-area round trip by replicating the commit operation itself: the
// client sends the commit to a coordinator in every datacentre; each
// coordinator runs 2PC locally across the shards of its own DC and acts as
// an acceptor; the transaction commits once a majority of DCs accept.
// Reads are majority quorum reads across DCs; writes are buffered at the
// client until commit (§4.1 of the SpecRPC paper).
//
// Faithfulness note (also in DESIGN.md): we let the *client* tally the
// per-DC accept votes and broadcast the decision, instead of coordinators
// exchanging Paxos accepts. The client-observed commit latency is identical
// (one WAN round trip to the majority-closest DCs); only the apply path at
// non-majority DCs differs, off the measured path.
//
// Routing lives in rc::ClusterView (rc/view.h): every key hashes to a slot,
// every view assigns slots to shards, and views are epoch-versioned so the
// map can change while traffic flows (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/store.h"
#include "rc/view.h"
#include "serde/value.h"
#include "transport/transport.h"

namespace srpc::rc {

/// Method names. There is one commit path (DESIGN.md §12.4): a
/// per-transaction commit is a batch of one entry.
///   rc.read    (key, ..., vepoch)             -> (value, version)   shard
///   rc.commit  (owner, entries, vepoch)       -> (votes)   coordinator
///   rc.prepare (owner, entries, vepoch)       -> (votes)   shard
///   rc.decide  (owner, entries, decisions, vepoch)         coordinator
///   rc.apply   (owner, entries, decisions[, sender_vepoch]) shard
/// `owner` is the round's lock owner (next_lock_owner); `entries` are
/// encode_batch_entries, one per transaction in queue order; votes and
/// decisions are encode_batch_flags, one per entry. rc.read args past the
/// key only give every read position a distinct predictor key (the batch
/// executor sends (key, batch-epoch, shard, pos, vepoch)).
///
/// rc.read, rc.commit and rc.prepare carry the caller's view epoch as their
/// LAST argument and are NACKed with kWrongEpoch on mismatch. rc.decide and
/// rc.apply are not epoch-checked: an in-flight commit resolves in the epoch
/// that prepared it.
inline constexpr const char* kRead = "rc.read";
inline constexpr const char* kCommit = "rc.commit";
inline constexpr const char* kPrepare = "rc.prepare";
inline constexpr const char* kDecide = "rc.decide";
inline constexpr const char* kApply = "rc.apply";

/// View-change protocol (DESIGN.md §13).
///   view.install (view_wire)        -> (epoch)       servers/coords adopt
///   view.pull    (epoch, slots_csv) -> (entries)     state transfer source
///   view.status  ()                 -> (epoch, warming_slots)
///   view.get     ()                 -> (view_wire)   client refresh
inline constexpr const char* kViewInstall = "view.install";
inline constexpr const char* kViewPull = "view.pull";
inline constexpr const char* kViewStatus = "view.status";
inline constexpr const char* kViewGet = "view.get";

/// One workload operation inside a transaction.
struct Op {
  bool is_read = true;
  std::string key;
  std::string value;  // writes only
};

/// A completed read inside a transaction.
struct ReadResult {
  std::string key;
  std::string value;
  std::int64_t version = 0;
};

struct TxnResult {
  bool committed = false;
  bool read_only = false;
  Duration total{};        // begin -> decision
  Duration commit_phase{}; // commit issue -> decision (paper's "commit latency")
  std::vector<ReadResult> reads;
  /// Number of wrong-epoch NACKs that forced a view refresh + re-issue of
  /// this transaction (0 in steady state).
  int view_refreshes = 0;
};

// ------------------------------------------------------------ wire helpers
// RC payloads ride inside framework Values.

Value encode_read_result(const ReadResult& r);
ReadResult decode_read_result(const std::string& key, const Value& v);

Value encode_reads(const std::vector<kv::ReadValidation>& reads);
std::vector<kv::ReadValidation> decode_reads(const Value& v);

Value encode_writes(const std::vector<kv::WriteOp>& writes);
std::vector<kv::WriteOp> decode_writes(const Value& v);

/// Commit wire format: a list of per-transaction entries, each
/// vlist(txn, index, reads, writes) with reads/writes encoded as above.
Value encode_batch_entries(const std::vector<kv::BatchEntry>& entries);
std::vector<kv::BatchEntry> decode_batch_entries(const Value& v);

/// Per-entry booleans (prepare votes / decide decisions) as a Value list.
Value encode_batch_flags(const std::vector<bool>& flags);
std::vector<bool> decode_batch_flags(const Value& v);

/// view.pull payload: vlist of vlist(key, value, version).
Value encode_store_entries(
    const std::vector<std::tuple<std::string, std::string, std::int64_t>>&
        entries);
std::vector<std::tuple<std::string, std::string, std::int64_t>>
decode_store_entries(const Value& v);

/// Commit versions are kVersionBase + the entry's stamp, above every
/// preloaded version.
inline constexpr std::int64_t kVersionBase = 1'000'000'000;

/// Stamps every entry's `txn` at commit time, in queue order, from this
/// process's stamp counter, first advanced past every read version the
/// entries validate (a Lamport clock). Each commit version is therefore
/// above every version its transaction read — even when another process
/// committed that version — and versions increase along the batch.
void stamp_entries(std::vector<kv::BatchEntry>& entries);

/// A fresh lock owner for one commit round: unique within the process and,
/// through a random per-process prefix, across client processes. Never 0.
kv::TxnId next_lock_owner();

}  // namespace srpc::rc
