// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded only by benchmark code, around its calls into each
// layer of the program. Two kinds:
//
//   * Recorded spans (workload, rc, batch, specrpc.issue, app.*) are kept
//     one by one: name, start, end, parent, and the id of the operation
//     (transaction, chain or epoch) they belong to. They are written out
//     when the run ends.
//   * Wrapper spans (transport.*, serde.*) fire far more often and cannot
//     see which operation they serve, so they are aggregated per name:
//     count, total and self time, bytes, and a duration sample for the p50.
//
// Synchronous spans (Scope) nest on a per-thread stack. A span's self time
// is its duration minus the part its children cover: physically nested
// wrapper spans are subtracted as they close, and recorded children are
// subtracted as the union of their intervals (they may run on other
// threads and overlap, like the steps of a speculative chain).
//
// Nothing is recorded unless set_enabled(true); disabled scopes cost one
// relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench::trace {

enum Span : std::uint8_t {
  kWorkloadOp,
  kRcTxn,
  kRcReadPhase,
  kRcCommitPhase,
  kBatchEpoch,
  kBatchReadPhase,
  kBatchCommitPhase,
  kSpecIssue,
  kTransportSend,
  kTransportDeliver,
  kSerdeEncode,
  kSerdeDecode,
  kAppHandler,
  kAppCallback,
  kNumSpans,
};

const char* span_name(Span span);

/// Parent id meaning "the workload.op span of the same operation", for
/// children whose root span is recorded only when the operation ends.
inline constexpr std::uint64_t kOpRoot = ~std::uint64_t{0};

void set_enabled(bool on);
bool enabled();

std::int64_t now_ns();
std::int64_t to_ns(srpc::TimePoint t);

/// A synchronous span on the calling thread. `parent` 0 takes the
/// enclosing recorded span of this thread (if any) as the parent.
class Scope {
 public:
  Scope(Span span, std::uint64_t op, std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Id of this span (0 when tracing is off).
  std::uint64_t id() const { return id_; }
  /// Bytes handled inside the span (wrapper spans).
  void set_bytes(std::uint64_t n) { bytes_ = n; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t bytes_ = 0;
  bool active_ = false;
};

/// Records a finished span whose interval the caller measured itself
/// (asynchronous operations, phases reported by the program). Returns its
/// id, or 0 when tracing is off.
std::uint64_t record(Span span, std::uint64_t op, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns);

/// Per-span totals over everything recorded since reset().
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::uint64_t bytes = 0;
  std::vector<double> durations_us;  // one per instance
};

struct Summary {
  std::array<SpanTotals, kNumSpans> spans;
  std::size_t recorded = 0;  // individually kept spans
};

/// Merges every thread's buffer and computes self times. Call with tracing
/// disabled and the traced work drained. When `out_path` is non-empty the
/// recorded spans are written there as CSV.
Summary collect(const std::string& out_path);

/// Drops everything recorded so far.
void reset();

}  // namespace perfbench::trace
