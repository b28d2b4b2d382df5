// perfbench — the repo benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-out PATH]
//
// Closed loop from one client: one process, one benchmark-owned ThreadPool of
// nproc threads passed explicitly to every call; each op starts when the
// previous one returns. The client thread moves to the next CPU before every
// op and set-up (and may migrate freely after): on a shared host each vCPU's
// speed varies on its own (a co-tenant loading the core), and a client that
// stays on one slow vCPU would make a whole run slow. Set-up runs several times and reports its median;
// warm-up ops are discarded. With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it prints the per-layer metrics of a separate
// traced pass. The last stdout line is the JSON result; "# " lines before it
// are notes (sample counts, host-noise probes).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Median;
using perfbench::NowUs;
using perfbench::RunResult;
using perfbench::Samples;

constexpr size_t kSetupReps = 9;
constexpr int kWarmupOps = 3;
constexpr size_t kMinOps = 100;  ///< >= 10 samples below p10 and beyond p90.
constexpr size_t kMinSmokeOps = 12;
constexpr size_t kMinTraceIterations = 5;
constexpr double kMaxMeasureSeconds = 120;  ///< Hard cap: exit well within 180 s.

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;     ///< Tiny sizes, for checking names and oracles.
  std::string trace_out;  ///< Where the traced run writes its spans.
};

bool ParseArgs(int argc, char** argv, RunOptions* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      o->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
/// not exercise reads 0.
void FillPerLayer(const Samples& s, RunResult* r) {
  auto m = [&](const char* name) { return s.MedianOf(name); };
  auto ratio = [&](const char* num, const char* den) {
    return m(den) > 0 ? m(num) / m(den) : 0.0;
  };
  const double fit = m("pipeline.fit_ms");
  const double staged = m("relational.stats_ms") + m("relational.exec_ms") +
                        m("ml.assemble_ms") + m("factorized.build_ms") +
                        m("ml.train_ms");
  const double glue = fit > 0 ? fit - staged : 0;
  const double other = m("pipeline.other_route_ms");
  const double regret =
      fit > 0 ? fit / (other > 0 ? std::min(fit, other) : fit) : 0;

  r->Add("relational.stats_ms", m("relational.stats_ms"), "ms");
  r->Add("relational.exec_ms", m("relational.exec_ms"), "ms");
  r->Add("relational.join_rows_probed", m("relational.join_rows_probed"), "count");
  r->Add("ml.assemble_ms", m("ml.assemble_ms"), "ms");
  r->Add("factorized.build_ms", m("factorized.build_ms"), "ms");
  r->Add("ml.train_ms", m("ml.train_ms"), "ms");
  r->Add("laopt.kernel_ms", m("laopt.kernel_ms"), "ms");
  r->Add("la.dense_ms", m("la.dense_ms"), "ms");
  r->Add("la.sparse_ms", m("la.sparse_ms"), "ms");
  r->Add("factorized.kernel_ms", m("factorized.kernel_ms"), "ms");
  r->Add("laopt.run_overhead_ms", m("laopt.run_overhead_ms"), "ms");
  r->Add("laopt.runs", m("laopt.runs"), "count");
  r->Add("pipeline.fit_ms", fit, "ms");
  r->Add("pipeline.glue_ms", glue, "ms");
  r->Add("pipeline.glue_pct", fit > 0 ? 100 * glue / fit : 0, "%");
  r->Add("pipeline.route_regret", regret, "ratio");
  r->Add("cla.compress_ms", m("cla.compress_ms"), "ms");
  r->Add("cla.compression_ratio", m("cla.compression_ratio"), "ratio");
  r->Add("modelsel.rung_ms", m("modelsel.rung_ms"), "ms");
  r->Add("modelsel.score_ms", m("modelsel.score_ms"), "ms");
  r->Add("modelsel.epochs_saved", m("modelsel.epochs_saved"), "count");
  r->Add("proc.minflt_per_op", m("proc.minflt_per_op"), "count");
  r->Add("la.inplace_allocs", m("la.inplace_allocs"), "count");
  r->Add("cla.decompress_fallback", m("cla.decompress_fallback"), "count");
  r->Add("laopt.repr.densify_fallbacks", m("laopt.repr.densify_fallbacks"), "count");
  r->Add("relational.stats.scaling",
         ratio("relational.stats_ms.1thread", "relational.stats_ms"), "ratio");
  r->Add("ml.train.scaling", ratio("ml.train_ms.1thread", "ml.train_ms"), "ratio");
  r->Add("modelsel.rung.scaling",
         ratio("modelsel.rung_ms.1thread", "modelsel.rung_ms"), "ratio");
  r->Add("trace.overhead_pct",
         m("op.plain_ms") > 0 ? 100 * (m("op.traced_ms") / m("op.plain_ms") - 1) : 0,
         "%");
}

void PrintResult(const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

std::string Fmt(const char* fmt, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--trace-out PATH]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> w =
      perfbench::MakeWorkload(opt.workload, opt.seed, opt.smoke);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  dmml::ThreadPool pool(threads);
  dmml::ThreadPool pool1(1);
  RunResult result;
  Samples samples;

  const double cpu_probe0 = perfbench::CpuProbeMs();
  const double mem_probe0 = perfbench::MemProbeMs();

  // Set-up runs kSetupReps times: once here, the rest spread evenly over the
  // measured window (each rebuilds identical inputs from the seed), so the
  // reported median samples the host over the whole run, not one instant.
  std::vector<double> setup_s;
  size_t client_moves = 0;
  auto setup_once = [&]() -> bool {
    perfbench::MoveClientToCpu(client_moves++);
    const double t0 = NowUs();
    dmml::Status st = w->Setup(&pool);
    setup_s.push_back((NowUs() - t0) / 1e6);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", st.ToString().c_str());
      return false;
    }
    w->AddSetupSamples(&samples);
    return true;
  };
  if (!setup_once()) return 1;
  if (dmml::Status st = w->Prepare(&pool, &pool1); !st.ok()) {
    std::fprintf(stderr, "perfbench: reference failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const double start = NowUs();
  auto elapsed_s = [&] { return (NowUs() - start) / 1e6; };
  // True while measuring should go on: until the window is over, the minimum
  // sample count is reached and every scheduled set-up (one due every
  // seconds / kSetupReps) has run. False at once if a set-up fails.
  bool setup_failed = false;
  auto keep_going = [&](size_t samples_taken, size_t min_samples) {
    const double t = elapsed_s();
    if (setup_s.size() < kSetupReps &&
        t >= opt.seconds * static_cast<double>(setup_s.size()) / kSetupReps) {
      setup_failed = setup_failed || !setup_once();
    }
    return !setup_failed && t < kMaxMeasureSeconds &&
           (t < opt.seconds || samples_taken < min_samples ||
            setup_s.size() < kSetupReps);
  };
  if (!opt.trace) {
    for (int i = 0; i < kWarmupOps; ++i) w->RunOp(&pool);
    const size_t min_ops = opt.smoke ? kMinSmokeOps : kMinOps;
    std::vector<double> op_ms;
    const uint64_t faults0 = perfbench::MinorFaults();
    while (keep_going(op_ms.size(), min_ops)) {
      perfbench::MoveClientToCpu(client_moves++);
      const double t0 = NowUs();
      const bool ok = w->RunOp(&pool);
      op_ms.push_back((NowUs() - t0) / 1e3);
      result.Check(ok);
    }
    if (setup_failed) return 1;
    const double p10_ms = perfbench::Percentile(op_ms, 10);
    result.Add("op_ms_p10", p10_ms, "ms");
    result.Add("cell_epochs_per_s", w->CellEpochsPerOp() / (p10_ms / 1e3), "1/s");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
    result.Add("ok_frac",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "ratio");
    double sum_ms = 0;
    for (double ms : op_ms) sum_ms += ms;
    const double n = static_cast<double>(op_ms.size());
    result.notes.push_back(
        opt.workload + ": " + std::to_string(op_ms.size()) + " ops after " +
        std::to_string(kWarmupOps) + " warm-up, " + std::to_string(threads) +
        " threads, " + std::to_string(kSetupReps) + " set-ups");
    // Ungated: the median and tail move with host contention (see README).
    result.notes.push_back(Fmt("op_ms_p50=%.3f op_ms_p90=%.3f (the tail: >= 10 samples "
                               "beyond it when n >= 100)",
                               Median(op_ms), perfbench::Percentile(op_ms, 90)));
    result.notes.push_back(Fmt("op_ms_mean=%.3f proc.minflt_per_op=%.1f", sum_ms / n,
                               (perfbench::MinorFaults() - faults0) / n));
  } else {
    perfbench::SpanRecorder rec;
    uint64_t op_id = 0;
    {
      // Warm-up iteration, discarded.
      perfbench::SpanRecorder warm_rec;
      Samples warm;
      RunResult warm_result;
      w->TraceIteration(&pool, &pool1, &warm_rec, &op_id, &warm, &warm_result);
    }
    size_t iterations = 0;
    while (keep_going(iterations, kMinTraceIterations)) {
      perfbench::MoveClientToCpu(client_moves++);
      w->TraceIteration(&pool, &pool1, &rec, &op_id, &samples, &result);
      ++iterations;
    }
    if (setup_failed) return 1;
    FillPerLayer(samples, &result);
    result.notes.push_back(opt.workload + ": " + std::to_string(iterations) +
                           " traced iterations, " + std::to_string(rec.spans().size()) +
                           " spans");
    if (!opt.trace_out.empty()) {
      if (dmml::Status st = rec.WriteChromeTrace(opt.trace_out); !st.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
        return 1;
      }
      result.notes.push_back("spans written to " + opt.trace_out);
    }
  }
  // Host-noise probes bracket every run, traced or not.
  const double cpu_probe1 = perfbench::CpuProbeMs();
  const double mem_probe1 = perfbench::MemProbeMs();
  result.notes.push_back(
      Fmt("host.cpu_probe_ms=%.3f (start) %.3f (end)", cpu_probe0, cpu_probe1));
  result.notes.push_back(
      Fmt("host.mem_probe_ms=%.3f (start) %.3f (end)", mem_probe0, mem_probe1));
  if (opt.trace) {
    result.Add("host.cpu_probe_ms", Median({cpu_probe0, cpu_probe1}), "ms");
    result.Add("host.mem_probe_ms", Median({mem_probe0, mem_probe1}), "ms");
  }
  PrintResult(result);
  return 0;
}
