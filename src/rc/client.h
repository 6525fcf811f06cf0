// Replicated Commit client: transaction execution over quorum reads and the
// single-roundtrip commit.
//
// Two execution strategies share the commit protocol (the paper's SpecRPC
// port "does not modify the commit protocol"):
//
//   * run_sequential — dependent quorum reads execute one after another,
//     each waiting for its majority; this is the gRPC/TradRPC behaviour the
//     paper shows growing linearly with the number of reads (Figure 9).
//
//   * run_speculative — reads form a SpecRPC callback chain: the first
//     (local-DC) response predicts each quorum result, so all dependent
//     reads overlap. The commit is issued only after the chain's future
//     resolves, and that future resolves only from branches that are
//     correct at every link — the application thread's future->get() is
//     the §4.1 specBlock ("Before calling commit ... an RC client will
//     issue a specBlock to wait until all quorum reads become
//     non-speculative"), so no callback parks an executor worker for it.
//
// Both commit through commit_round, the single Replicated Commit round
// that the batch client (src/batch) also uses: a transaction is a batch of
// one.
//
// Routing comes from a ViewProvider: every transaction snapshots the current
// ClusterView, stamps its RPCs with the view's epoch, and on a wrong-epoch
// NACK installs the server's newer view and re-runs the whole transaction
// under it (speculative branches opened under the old epoch roll back
// through the ordinary branch machinery — they are never validated across
// epochs). TxnResult::view_refreshes counts those re-runs.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "rc/common.h"
#include "rc/kit.h"

namespace srpc::rc {

struct RcClientConfig {
  int my_dc = 0;
  int read_quorum = 2;
  int vote_quorum = 2;  // majority of 3 DCs
};

class RcClient {
 public:
  RcClient(RpcKit& kit, std::shared_ptr<ViewProvider> views,
           RcClientConfig config);

  /// Executes ops with sequential quorum reads, then commits.
  TxnResult run_sequential(const std::vector<Op>& ops);

  /// Executes ops with a speculative read chain, then commits.
  /// Requires the kit to wrap a SpecRPC engine.
  TxnResult run_speculative(const std::vector<Op>& ops);

  /// Dispatches on the kit's capability (SpecRPC -> speculative).
  TxnResult run(const std::vector<Op>& ops);

  /// Read-modify-write transaction: quorum-reads `key`, writes
  /// transform(value) — the commit validates the very read the transform
  /// consumed, so concurrent increments are lost-update-free.
  TxnResult run_transform(
      const std::string& key,
      const std::function<std::string(const std::string&)>& transform);

  const std::shared_ptr<ViewProvider>& views() const { return views_; }

 private:
  struct Plan {
    std::vector<std::string> quorum_reads;    // keys needing quorum reads
    std::vector<ReadResult> local_reads;      // satisfied from write buffer
    std::vector<kv::WriteOp> writes;          // buffered writes (last wins)
  };
  using View = std::shared_ptr<const ClusterView>;

  Plan plan_ops(const std::vector<Op>& ops) const;

  /// Runs `attempt` under the current view, re-running under the refreshed
  /// view (bounded times) whenever it throws WrongEpochError; fills
  /// total/view_refreshes.
  TxnResult run_with_view(
      const std::function<void(const View&, TxnResult&)>& attempt);

  void run_sequential_once(const View& view, const std::vector<Op>& ops,
                           TxnResult& result);
  void run_speculative_once(const View& view, const std::vector<Op>& ops,
                            TxnResult& result);

  /// Replica fan-out for a key, local datacentre first (its response is the
  /// speculation-friendly first responder, §4.1).
  std::vector<Address> replicas_for(const ClusterView& view,
                                    const std::string& key) const;

  /// Throws WrongEpochError when the quorum failed on wrong-epoch NACKs,
  /// plain RpcError on any other quorum failure.
  ReadResult quorum_read(const ClusterView& view, const std::string& key);
  spec::CallbackFactory chain_factory(
      View view, std::shared_ptr<const std::vector<std::string>> keys,
      std::size_t idx, std::vector<ReadResult> acc) const;

  /// Commit phase shared by both strategies: a commit_round of one entry;
  /// fills committed/commit_phase. Throws WrongEpochError as commit_round
  /// does.
  void commit_txn(const ClusterView& view,
                  const std::vector<ReadResult>& reads,
                  const std::vector<kv::WriteOp>& writes, TxnResult& result);

  RpcKit& kit_;
  std::shared_ptr<ViewProvider> views_;
  RcClientConfig config_;
};

/// Quorum-read combiner: the value with the highest version among the
/// responses (RC's read rule).
Value max_version_combiner(const std::vector<Value>& responses);

/// The Replicated Commit round, for a batch of transaction entries in queue
/// order (a per-transaction commit is a batch of one). Stamps the entries
/// at commit time (stamp_entries: every commit version is above every
/// version its entry validated), sends rc.commit to every DC coordinator,
/// and blocks until each entry has `quorum` yes votes or can no longer get
/// them. `close` (optional) may then veto entries — the batch client's
/// dependency closure. The final decisions go out as rc.decide to every DC
/// (asynchronously) and are returned.
///
/// A coordinator's wrong-epoch NACK: if no entry committed, throws
/// WrongEpochError after the decide broadcast released every lock, so the
/// caller may re-run the batch under the NACK's view; otherwise installs
/// that view into `views` and returns the decisions.
std::vector<bool> commit_round(
    RpcKit& kit, ViewProvider& views, const ClusterView& view, int quorum,
    std::vector<kv::BatchEntry>& entries,
    const std::function<void(std::vector<bool>&)>& close = nullptr);

}  // namespace srpc::rc
