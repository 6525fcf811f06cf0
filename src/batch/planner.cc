#include "batch/planner.h"

#include <set>
#include <unordered_map>

namespace srpc::batch {

BatchPlan TxnPlanner::plan(const rc::ClusterView& view,
                           std::vector<BatchTxn> txns) {
  BatchPlan plan;
  plan.epoch = ++epoch_;
  plan.view_epoch = view.epoch;
  plan.num_shards = view.num_shards;
  plan.queues.resize(static_cast<std::size_t>(view.num_shards));
  plan.wire_reads.resize(static_cast<std::size_t>(view.num_shards));
  plan.txns.reserve(txns.size());

  // key -> batch position of the latest queued writer so far.
  std::unordered_map<std::string, std::size_t> overlay;

  for (std::size_t i = 0; i < txns.size(); ++i) {
    PlannedTxn planned;
    planned.txn = std::move(txns[i]);
    std::set<int> shards;
    std::set<std::size_t> deps;

    for (std::size_t j = 0; j < planned.txn.ops.size(); ++j) {
      const BatchOp& op = planned.txn.ops[j];
      const int shard = view.shard_of(op.key);
      shards.insert(shard);

      QueueEntry entry;
      entry.txn_pos = i;
      entry.op_pos = j;
      if (op.kind == OpKind::kRead || op.kind == OpKind::kRmw) {
        auto it = overlay.find(op.key);
        if (it != overlay.end()) {
          // Overlay read: resolved from the queued write ahead of us. A
          // read of our own earlier write is not a dependency.
          if (it->second != i) deps.insert(it->second);
        } else {
          entry.wire_read = true;
          WireRead wr;
          wr.key = op.key;
          wr.shard = shard;
          wr.pos = plan.wire_reads[static_cast<std::size_t>(shard)].size();
          wr.txn_pos = i;
          wr.op_pos = j;
          plan.wire_reads[static_cast<std::size_t>(shard)].push_back(
              std::move(wr));
        }
      }
      plan.queues[static_cast<std::size_t>(shard)].push_back(entry);
      if (op.kind == OpKind::kWrite || op.kind == OpKind::kRmw) {
        overlay[op.key] = i;
      }
    }

    planned.deps.assign(deps.begin(), deps.end());
    planned.num_shards = static_cast<int>(shards.size());
    planned.cross_partition = shards.size() > 1;
    plan.txns.push_back(std::move(planned));
  }
  return plan;
}

}  // namespace srpc::batch
