#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

bool is_wrapper(Span span) {
  return span == kTransportSend || span == kTransportDeliver ||
         span == kSerdeEncode || span == kSerdeDecode;
}

struct Record {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t nested = 0;  // time of physically nested foreign children
  Span span = kWorkloadOp;
};

struct WrapAgg {
  std::uint64_t count = 0;
  std::int64_t total = 0;
  std::int64_t self = 0;
  std::uint64_t bytes = 0;
  std::vector<float> samples_us;
};

/// One thread's spans. The owning thread appends under `mu` (uncontended);
/// collect() and reset() take it from the main thread.
struct ThreadBuf {
  std::mutex mu;
  std::vector<Record> records;
  std::array<WrapAgg, kNumSpans> wraps;
};

struct Frame {
  std::uint64_t id = 0;  // 0 for wrapper spans
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start = 0;
  std::int64_t nested = 0;
  Span span = kWorkloadOp;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
};

// Leaked on purpose: worker threads of a fixture may still touch their
// buffer while static destructors run.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
thread_local ThreadBuf* tl_buf = nullptr;
thread_local std::vector<Frame> tl_stack;

ThreadBuf& buf() {
  if (tl_buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    tl_buf = owned.get();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.bufs.push_back(std::move(owned));
  }
  return *tl_buf;
}

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>>& v,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(v.begin(), v.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = 0;
  bool open = false;
  for (auto [a, b] : v) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

const char* span_name(Span span) {
  static constexpr const char* kNames[kNumSpans] = {
      "workload.op",     "rc.txn",          "rc.read_phase",
      "rc.commit_phase", "batch.epoch",     "batch.read_phase",
      "batch.commit_phase", "specrpc.issue", "transport.send",
      "transport.deliver", "serde.encode",  "serde.decode",
      "app.handler",     "app.callback",
  };
  return kNames[span];
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t to_ns(srpc::TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::int64_t now_ns() { return to_ns(srpc::Clock::now()); }

Scope::Scope(Span span, std::uint64_t op, std::uint64_t parent) {
  if (!enabled()) return;
  active_ = true;
  Frame frame;
  frame.span = span;
  frame.op = op;
  if (!is_wrapper(span)) {
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    frame.id = id_;
    frame.parent = parent;
    if (parent == 0) {
      for (auto it = tl_stack.rbegin(); it != tl_stack.rend(); ++it) {
        if (it->id != 0) {
          frame.parent = it->id;
          break;
        }
      }
    }
  }
  tl_stack.push_back(frame);
  tl_stack.back().start = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  const Frame frame = tl_stack.back();
  tl_stack.pop_back();
  const std::int64_t dur = end - frame.start;
  if (!tl_stack.empty()) {
    Frame& up = tl_stack.back();
    // A recorded child of the enclosing recorded span is subtracted from it
    // through the interval union in collect(); everything else physically
    // nested is subtracted here.
    if (up.id == 0 || frame.parent != up.id) up.nested += dur;
  }
  ThreadBuf& b = buf();
  std::lock_guard<std::mutex> lock(b.mu);
  if (is_wrapper(frame.span)) {
    WrapAgg& agg = b.wraps[frame.span];
    agg.count++;
    agg.total += dur;
    agg.self += dur - frame.nested;
    agg.bytes += bytes_;
    agg.samples_us.push_back(static_cast<float>(dur / 1000.0));
    return;
  }
  b.records.push_back(Record{frame.id, frame.parent, frame.op, frame.start, end,
                             frame.nested, frame.span});
}

std::uint64_t record(Span span, std::uint64_t op, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) return 0;
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  ThreadBuf& b = buf();
  std::lock_guard<std::mutex> lock(b.mu);
  b.records.push_back(Record{id, parent, op, start_ns, end_ns, 0, span});
  return id;
}

Summary collect(const std::string& out_path) {
  std::vector<Record> records;
  std::array<WrapAgg, kNumSpans> wraps;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& b : r.bufs) {
      std::lock_guard<std::mutex> block(b->mu);
      records.insert(records.end(), b->records.begin(), b->records.end());
      for (int s = 0; s < kNumSpans; ++s) {
        WrapAgg& from = b->wraps[static_cast<std::size_t>(s)];
        WrapAgg& to = wraps[static_cast<std::size_t>(s)];
        to.count += from.count;
        to.total += from.total;
        to.self += from.self;
        to.bytes += from.bytes;
        to.samples_us.insert(to.samples_us.end(), from.samples_us.begin(),
                             from.samples_us.end());
      }
    }
  }

  std::unordered_map<std::uint64_t, std::uint64_t> op_root;
  for (const Record& rec : records) {
    if (rec.span == kWorkloadOp) op_root[rec.op] = rec.id;
  }
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (Record& rec : records) {
    if (rec.parent == kOpRoot) {
      auto it = op_root.find(rec.op);
      rec.parent = it != op_root.end() ? it->second : 0;
    }
    if (rec.parent != 0) children[rec.parent].emplace_back(rec.start, rec.end);
  }

  Summary summary;
  summary.recorded = records.size();
  std::FILE* out = out_path.empty() ? nullptr : std::fopen(out_path.c_str(), "w");
  if (out != nullptr) std::fprintf(out, "id,parent,op,span,start_ns,end_ns,self_ns\n");
  for (const Record& rec : records) {
    const std::int64_t dur = rec.end - rec.start;
    std::int64_t self = dur - rec.nested;
    auto it = children.find(rec.id);
    if (it != children.end()) self -= covered(it->second, rec.start, rec.end);
    self = std::max<std::int64_t>(self, 0);
    SpanTotals& t = summary.spans[rec.span];
    t.count++;
    t.total_us += dur / 1000.0;
    t.self_us += self / 1000.0;
    t.durations_us.push_back(dur / 1000.0);
    if (out != nullptr) {
      std::fprintf(out, "%llu,%llu,%llu,%s,%lld,%lld,%lld\n",
                   static_cast<unsigned long long>(rec.id),
                   static_cast<unsigned long long>(rec.parent),
                   static_cast<unsigned long long>(rec.op),
                   span_name(rec.span), static_cast<long long>(rec.start),
                   static_cast<long long>(rec.end),
                   static_cast<long long>(self));
    }
  }
  if (out != nullptr) std::fclose(out);

  for (int s = 0; s < kNumSpans; ++s) {
    const WrapAgg& agg = wraps[static_cast<std::size_t>(s)];
    if (agg.count == 0) continue;
    SpanTotals& t = summary.spans[static_cast<std::size_t>(s)];
    t.count += agg.count;
    t.total_us += agg.total / 1000.0;
    t.self_us += agg.self / 1000.0;
    t.bytes += agg.bytes;
    t.durations_us.insert(t.durations_us.end(), agg.samples_us.begin(),
                          agg.samples_us.end());
  }
  return summary;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.bufs) {
    std::lock_guard<std::mutex> block(b->mu);
    b->records.clear();
    b->wraps = {};
  }
}

}  // namespace perfbench::trace
