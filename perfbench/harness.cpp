#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace perfbench {

void RunResult::Add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::Check(bool ok) {
  ++attempted;
  if (!ok) ++failed;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Samples::MedianOf(const std::string& name) const {
  auto it = s_.find(name);
  return it == s_.end() ? 0 : Median(it->second);
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name, uint64_t op, int parent) {
  spans_.push_back({name, op, parent, NowUs(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_us = NowUs();
  return (s.end_us - s.start_us) / 1e3;
}

dmml::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return dmml::Status::IOError("cannot write trace to " + path);
  const double t0 = spans_.empty() ? 0 : spans_.front().start_us;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",\n";
    out << "{\"name\":\"" << dmml::obs::JsonEscape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << (s.start_us - t0)
        << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"op\":"
        << s.op << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return out ? dmml::Status::OK()
             : dmml::Status::IOError("short write to " + path);
}

ScopedStage::ScopedStage(StageContext* ctx, const char* name)
    : ctx_(ctx), name_(name) {
  if (ctx_->rec != nullptr) id_ = ctx_->rec->Begin(name_, ctx_->op, ctx_->parent);
}

ScopedStage::~ScopedStage() {
  if (ctx_->rec != nullptr) ctx_->layer_ms[name_] += ctx_->rec->End(id_);
}

CounterDeltas::CounterDeltas(const Names& names) : names_(names) {
  auto& reg = dmml::obs::MetricsRegistry::Global();
  for (const auto& n : names_) base_.push_back(reg.GetCounter(n.first)->Value());
}

void CounterDeltas::AddTo(Samples* samples) const {
  auto& reg = dmml::obs::MetricsRegistry::Global();
  for (size_t i = 0; i < names_.size(); ++i) {
    const uint64_t now = reg.GetCounter(names_[i].first)->Value();
    samples->Add(names_[i].second, static_cast<double>(now - base_[i]));
  }
}

void MoveClientToCpu(size_t k) {
  // The CPUs this process may use (its cgroup cpuset), read once.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  const int count = CPU_COUNT(&allowed);
  if (count == 0) return;
  int target = static_cast<int>(k % static_cast<size_t>(count));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && target-- == 0) {
      CPU_SET(c, &one);
      break;
    }
  }
  // Setting a one-CPU mask migrates the thread there before returning;
  // restoring the full mask leaves the scheduler free to move it again.
  // Best effort: on error the thread just stays where it is.
  sched_setaffinity(0, sizeof(one), &one);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

namespace {

template <typename F>
double MedianMs(int reps, F&& body) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowUs();
    body();
    ms.push_back((NowUs() - t0) / 1e3);
  }
  return Median(std::move(ms));
}

}  // namespace

double CpuProbeMs() {
  volatile double sink = 0;
  return MedianMs(5, [&] {
    double a = 1.0, b = 0.5;
    for (int i = 0; i < 4'000'000; ++i) {
      a = a * 1.0000001 + b;
      b = b * 0.9999999 - 1e-9;
    }
    sink = sink + a + b;
  });
}

double MemProbeMs() {
  volatile size_t sink = 0;
  return MedianMs(3, [&] {
    std::unordered_set<double> set;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 200'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      set.insert(static_cast<double>(x >> 11));
    }
    sink = sink + set.size();
  });
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "grid_cla") return MakeGridWorkload(seed, smoke);
  return MakeStarWorkload(name, seed, smoke);
}

}  // namespace perfbench
