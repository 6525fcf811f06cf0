// specrpc_perfbench — one benchmark for the SpecRPC reproduction.
//
//   specrpc_perfbench --workload
//                     <ycsbt-wan|chain-lan-nopredict|chain-lan|qstream-batch>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--fault <none|replica|result>] [--trace-out <csv>]
//                     [--result-out <json>]
//
// --trace 0 measures one untraced window and prints the end-to-end metrics.
// --trace 1 measures an untraced baseline window and then a traced window,
// each half as long and on a fresh fixture, and prints the per-layer
// metrics, including the tracing overhead between the two. Every metric is printed on its own line
// with its unit and the samples behind it; the last line of standard output
// is one JSON object {correct, attempted, failed, metrics}. A failed
// correctness check prints the reason to standard error and exits 1 without
// a result. See perfbench/README.md for the workloads and the metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string samples;  // what the value rests on
};

struct LayerDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in the order BENCHMARK.json lists them. Layers a
// workload does not run report 0, except the batch-only ones below.
constexpr LayerDef kLayers[] = {
    {"abort_rate", "ratio"},
    {"rc.read_phase_p50_ms", "ms"},
    {"rc.commit_phase_p50_ms", "ms"},
    {"rc.view_refreshes_per_op", "count"},
    {"batch.read_phase_p50_ms", "ms"},
    {"batch.commit_phase_p50_ms", "ms"},
    {"batch.wire_reads_per_txn", "count"},
    {"batch.overlay_read_frac", "ratio"},
    {"batch.dep_abort_frac", "ratio"},
    {"specrpc.calls_per_op", "count"},
    {"specrpc.callbacks_per_op", "count"},
    {"specrpc.reexecutions_per_op", "count"},
    {"specrpc.abandoned_per_op", "count"},
    {"specrpc.spec_blocks_per_op", "count"},
    {"specrpc.state_msgs_per_op", "count"},
    {"specrpc.prediction_accuracy", "ratio"},
    {"specrpc.issue_us_p50", "us"},
    {"serde.encode_us_per_op", "us"},
    {"serde.decode_us_per_op", "us"},
    {"serde.bytes_per_op", "B"},
    {"transport.msgs_per_op", "count"},
    {"transport.bytes_per_op", "B"},
    {"transport.send_us_p50", "us"},
    {"transport.deliver_us_p50", "us"},
    {"common.executor_queue_depth_mean", "count"},
    {"common.ctx_switches_per_op", "count"},
    {"common.sys_cpu_frac", "ratio"},
    {"common.threads", "count"},
    {"predict.supplied_frac", "ratio"},
    {"predict.empty_frac", "ratio"},
    {"workload.generator_lag_p99_ms", "ms"},
};

// The batch and predict layers run only on qstream-batch. BENCHMARK.json
// does not list that workload while its check fails on the program (see
// perfbench/README.md), so the other workloads leave these metrics out
// rather than print a 0 that could never move.
bool batch_only(const std::string& name) {
  return name.rfind("batch.", 0) == 0 || name.rfind("predict.", 0) == 0 ||
         name.rfind("trace.batch.", 0) == 0;
}

double ops_of(const Window& w) {
  return static_cast<double>(std::max<std::uint64_t>(1, w.committed));
}

std::string count_str(std::size_t n) { return std::to_string(n); }

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::vector<Metric> end_to_end(const Window& w) {
  const std::vector<double>& latency = w.latency_ms;
  const std::string latency_note =
      count_str(latency.size()) + " samples over the window";
  const std::string ops_note = count_str(w.committed) + " ops in " +
                               fmt(w.elapsed_s()) + " s";
  return {
      {"goodput_per_s", "1/s",
       static_cast<double>(w.committed) / w.elapsed_s(), ops_note},
      {"latency_p50_ms", "ms", percentile(latency, 50), latency_note},
      {"latency_p99_ms", "ms", percentile(latency, 99), latency_note},
      {"cpu_ms_per_op", "ms", w.cpu().total_ms() / ops_of(w), ops_note},
      {"max_rss_mb", "MiB", max_rss_mb(), "getrusage ru_maxrss"},
      {"setup_s", "s", w.setup_s,
       "median of " + count_str(w.setup_samples_s.size()) +
           " constructions; p10 " + fmt(percentile(w.setup_samples_s, 10)) +
           ", p90 " + fmt(percentile(w.setup_samples_s, 90))},
  };
}

double ratio_change(double traced, double base) {
  return base > 0 ? traced / base - 1.0 : 0;
}

std::vector<Metric> per_layer(const Window& w, const Window& base,
                              const trace::Summary& summary, bool batch_run) {
  const double ops = ops_of(w);
  std::map<std::string, std::pair<double, std::string>> values;
  for (const auto& [name, value] : w.layer) values[name] = {value, ""};
  const auto& spans = summary.spans;
  auto p50 = [&](trace::Span s) {
    const auto& d = spans[s].durations_us;
    return std::make_pair(percentile(d, 50), count_str(d.size()) + " spans");
  };
  values["specrpc.issue_us_p50"] = p50(trace::kSpecIssue);
  values["transport.send_us_p50"] = p50(trace::kTransportSend);
  values["transport.deliver_us_p50"] = p50(trace::kTransportDeliver);
  values["serde.encode_us_per_op"] = {
      spans[trace::kSerdeEncode].total_us / ops,
      count_str(spans[trace::kSerdeEncode].count) + " spans"};
  values["serde.decode_us_per_op"] = {
      spans[trace::kSerdeDecode].total_us / ops,
      count_str(spans[trace::kSerdeDecode].count) + " spans"};
  values["serde.bytes_per_op"] = {
      static_cast<double>(spans[trace::kSerdeEncode].bytes) / ops, ""};
  values["common.executor_queue_depth_mean"] = {w.queue_depth_mean,
                                                "sampled every 2 ms"};
  const CpuSample cpu = w.cpu();
  values["common.ctx_switches_per_op"] = {
      static_cast<double>(cpu.ctx_switches) / ops, ""};
  values["common.sys_cpu_frac"] = {
      cpu.total_ms() > 0 ? cpu.sys_ms / cpu.total_ms() : 0, ""};
  values["common.threads"] = {w.threads, ""};
  const std::uint64_t decided = w.committed + w.aborted;
  values["abort_rate"] = {
      static_cast<double>(w.aborted) /
          static_cast<double>(std::max<std::uint64_t>(1, decided)),
      count_str(w.aborted) + " of " + count_str(decided)};

  std::vector<Metric> out;
  const std::string ops_note = count_str(w.committed) + " ops";
  for (const LayerDef& def : kLayers) {
    auto it = values.find(def.name);
    Metric m{def.name, def.unit, 0, "layer not run by this workload"};
    if (it != values.end()) {
      m.value = it->second.first;
      m.samples = it->second.second.empty() ? ops_note : it->second.second;
    }
    out.push_back(m);
  }
  for (int s = 0; s < trace::kNumSpans; ++s) {
    const auto& t = spans[static_cast<std::size_t>(s)];
    out.push_back({std::string("trace.") +
                       trace::span_name(static_cast<trace::Span>(s)) +
                       ".self_us_per_op",
                   "us", t.self_us / ops,
                   count_str(t.count) + " spans over " + ops_note});
  }
  out.push_back({"trace.overhead_cpu_frac", "ratio",
                 ratio_change(w.cpu().total_ms() / ops,
                              base.cpu().total_ms() / ops_of(base)),
                 "traced vs untraced window, CPU-ms per op"});
  out.push_back({"trace.overhead_latency_p50_frac", "ratio",
                 ratio_change(percentile(w.latency_ms, 50),
                              percentile(base.latency_ms, 50)),
                 "traced vs untraced window, latency p50"});
  if (!batch_run) {
    std::erase_if(out, [](const Metric& m) { return batch_only(m.name); });
  }
  return out;
}

Window run(const Options& opts, bool traced) {
  if (opts.workload == "ycsbt-wan") return run_ycsbt_wan(opts, traced);
  if (opts.workload == "chain-lan") return run_chain_lan(opts, traced, true);
  if (opts.workload == "chain-lan-nopredict") {
    return run_chain_lan(opts, traced, false);
  }
  return run_qstream_batch(opts, traced);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "specrpc_perfbench: %s\nusage: specrpc_perfbench --workload "
               "<ycsbt-wan|chain-lan-nopredict|chain-lan|qstream-batch> "
               "--seed <n> --seconds <s> "
               "--trace <0|1> [--fault <none|replica|result>] "
               "[--trace-out <csv>] [--result-out <json>]\n",
               why);
  return 2;
}

int main_impl(int argc, char** argv) {
  Options opts;
  std::string result_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--fault") {
      opts.fault = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--result-out") {
      result_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const bool chain = opts.workload == "chain-lan" ||
                     opts.workload == "chain-lan-nopredict";
  if (!chain && opts.workload != "ycsbt-wan" &&
      opts.workload != "qstream-batch") {
    return usage("unknown workload");
  }
  const std::string natural_fault =
      chain ? "result" : "replica";
  if (opts.fault != "none" && opts.fault != natural_fault) {
    return usage(("fault for " + opts.workload + " must be none or " +
                  natural_fault).c_str());
  }
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  Window window;
  Window base;
  trace::Summary summary;
  if (!opts.trace) {
    window = run(opts, false);
  } else {
    // The untraced baseline and the traced window share the run's time.
    Options half = opts;
    half.seconds = opts.seconds / 2;
    half.min_setups = 1;
    half.setup_budget_s = 0;
    base = run(half, false);
    if (base.check_error.empty()) {
      trace::reset();
      window = run(half, true);
      summary = trace::collect(opts.trace_out);
    } else {
      window.check_error = base.check_error;
    }
  }
  if (!window.check_error.empty()) {
    std::fprintf(stderr, "CHECK FAILED (%s, seed %llu): %s\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed),
                 window.check_error.c_str());
    return 1;
  }

  const std::vector<Metric> metrics =
      opts.trace ? per_layer(window, base, summary,
                            opts.workload == "qstream-batch")
                 : end_to_end(window);
  const std::uint64_t attempted = window.attempted + base.attempted;
  const std::uint64_t failed = window.failed + base.failed;

  std::string stamp = "{\"workload\": \"" + opts.workload + "\"";
  stamp += ", \"seed\": " + std::to_string(opts.seed);
  stamp += ", \"seconds\": " + fmt(opts.seconds);
  stamp += ", \"warmup_s\": " + fmt(opts.warmup_s);
  stamp += ", \"trace\": " + std::to_string(opts.trace ? 1 : 0);
  stamp += ", \"git_sha\": \"" + json_escape(env_or("PERFBENCH_GIT_SHA", "unknown")) + "\"";
  stamp += ", \"src_hash\": \"" + json_escape(env_or("PERFBENCH_SRC_HASH", "unknown")) + "\"";
  stamp += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  stamp += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  stamp += ", \"SPECRPC_LAT_SCALE\": \"" +
           json_escape(env_or("SPECRPC_LAT_SCALE", "unset")) + "\"";
  stamp += ", \"params\": {";
  bool first = true;
  for (const auto& [k, v] : window.params) {
    stamp += std::string(first ? "" : ", ") + "\"" + k + "\": \"" +
             json_escape(v) + "\"";
    first = false;
  }
  stamp += "}}";

  std::printf("stamp %s\n", stamp.c_str());
  std::printf("ops: attempted %llu, failed %llu, committed %llu, aborted %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(window.committed),
              static_cast<unsigned long long>(window.aborted));
  for (const Metric& m : metrics) {
    std::printf("metric %-44s %14s %-6s (%s)\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(), m.samples.c_str());
  }

  std::string body = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  std::string detailed = body;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const std::string sep = i == 0 ? "" : ", ";
    body += sep + "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    detailed += sep + "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
                ", \"unit\": \"" + m.unit + "\", \"samples\": \"" +
                json_escape(m.samples) + "\"}";
  }
  body += "}}";
  detailed += "}, \"stamp\": " + stamp + "}";

  if (!result_out.empty()) {
    if (std::FILE* f = std::fopen(result_out.c_str(), "w")) {
      std::fprintf(f, "%s\n", detailed.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", body.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
