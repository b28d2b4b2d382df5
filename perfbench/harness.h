// Shared machinery of the repo benchmark: the run result, sample statistics,
// the benchmark-side span recorder, obs counter deltas, process probes and
// the workload interface every workload implements.
//
// Nothing here instruments the program: spans are opened by the benchmark
// around its own calls into each module's public functions, and per-layer
// counters are deltas of the existing obs::MetricsRegistry.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the run prints as its final JSON line (plus "# " note lines).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit);
  /// Counts one checked operation; `ok` false marks it failed.
  void Check(bool ok);
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

/// Per-name sample lists; one entry per op for each layer name.
class Samples {
 public:
  void Add(const std::string& name, double v) { s_[name].push_back(v); }
  /// Median of the named samples, 0 when the name never received one (the
  /// layer is not exercised by this workload).
  double MedianOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> s_;
};

/// Benchmark-side spans: name, start, end, parent span and op id, kept in
/// memory and written as Chrome trace JSON when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t op = 0;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
  };

  /// Opens a span; returns its id.
  int Begin(const std::string& name, uint64_t op, int parent);
  /// Closes span `id`; returns its duration in ms.
  double End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  dmml::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-op staging context: when `rec` is null the staged op runs with no
/// spans at all (the untraced baseline for the overhead figure).
struct StageContext {
  SpanRecorder* rec = nullptr;
  uint64_t op = 0;
  int parent = -1;
  /// Accumulates the duration of every span by name, for this op.
  std::map<std::string, double> layer_ms;
};

/// RAII span around one layer call. Works with a null recorder (no-op).
class ScopedStage {
 public:
  ScopedStage(StageContext* ctx, const char* name);
  ~ScopedStage();
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  StageContext* ctx_;
  const char* name_;
  int id_ = -1;
};

/// Per-op deltas of obs registry counters, each reported under a per-layer
/// metric name. Construction snapshots the counters.
class CounterDeltas {
 public:
  /// (registry counter, per-layer metric name) pairs.
  using Names = std::vector<std::pair<std::string, std::string>>;
  explicit CounterDeltas(const Names& names);
  /// Adds each counter's change since construction under its metric name.
  void AddTo(Samples* samples) const;

 private:
  const Names& names_;
  std::vector<uint64_t> base_;
};

/// Moves the calling (client) thread to the `k`-th CPU it was allowed to run
/// on at start-up, modulo their count, without pinning it there. The pool's
/// worker threads are left where the scheduler puts them.
void MoveClientToCpu(size_t k);

/// Minor page faults of this process so far.
uint64_t MinorFaults();
/// Peak resident set size of this process so far, in MB.
double PeakRssMb();
/// Fixed compute loop (no memory traffic); median of a few runs, in ms.
double CpuProbeMs();
/// Fixed 200k-element unordered_set<double> build; median of a few runs, ms.
double MemProbeMs();
/// Wall-clock now, in microseconds on the steady clock.
double NowUs();

/// One workload: set-up, a closed-loop op with its correctness oracle, and a
/// traced pass that fills the per-layer metrics.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs the program receives (timed as setup_s). Called
  /// several times; each call replaces the previous inputs.
  virtual dmml::Status Setup(dmml::ThreadPool* pool) = 0;
  /// Computes the oracle's references (excluded from setup_s). `pool1` is
  /// the one-thread pool of the traced run's scaling pass.
  virtual dmml::Status Prepare(dmml::ThreadPool* pool,
                               dmml::ThreadPool* pool1) = 0;
  /// One end-to-end op; returns whether it passed the oracle.
  virtual bool RunOp(dmml::ThreadPool* pool) = 0;
  /// Logical cells × epochs × configs × folds one op processes.
  virtual double CellEpochsPerOp() const = 0;
  /// Adds the layer figures the last Setup measured (e.g. CLA compression)
  /// to the traced run's samples.
  virtual void AddSetupSamples(Samples* /*samples*/) const {}
  /// One traced iteration: every op it runs is counted in `result` and its
  /// per-layer figures are added to `samples`.
  virtual void TraceIteration(dmml::ThreadPool* pool, dmml::ThreadPool* pool1,
                              SpanRecorder* rec, uint64_t* op_id,
                              Samples* samples, RunResult* result) = 0;
};

/// Workload factory; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke);
std::unique_ptr<Workload> MakeStarWorkload(const std::string& name,
                                           uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeGridWorkload(uint64_t seed, bool smoke);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
