//===- perfbench/src/Bench.h - Workload interface and bookkeeping ---------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three benchmark workloads share: the operation/check
/// accounting, the per-pass work-unit ledger, and the interface main.cpp
/// drives (set-up, timed passes, metrics).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Tracer.h"

#include "predict/PredictionContext.h"
#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Attempted/failed operation counts for the whole run.
struct OpCounts {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Reported{0}; ///< failure messages printed so far
};
OpCounts &opCounts();

/// One operation of a pass (one job, one trace, one program). Every
/// check made through it that fails marks the operation failed; the
/// destructor counts it as attempted, and as failed when any check did.
class Op {
public:
  explicit Op(std::string Label) : Label(std::move(Label)) {}
  ~Op();
  Op(const Op &) = delete;
  Op &operator=(const Op &) = delete;

  /// Records a failed check unless \p Ok. \returns \p Ok.
  bool expect(bool Ok, const std::string &What);

  /// Unwraps an Expected from the program, failing the operation (and
  /// returning false) on a Diag.
  template <class T>
  bool take(bpfree::Expected<T> &&E, T &Out, const char *What) {
    if (!E)
      return expect(false, std::string(What) + ": " + E.error().render());
    Out = E.takeValue();
    return true;
  }

  bool ok() const { return !Failed; }

private:
  std::string Label;
  bool Failed = false;
};

/// Work units counted in one pass ("vm.instrs", "frontend.src_bytes",
/// ...). Units depend only on the inputs, so every pass of a run must
/// count the same; the per-unit metrics divide span time by them.
class Ledger {
public:
  void add(const std::string &Name, uint64_t N) {
    std::lock_guard<std::mutex> Lock(Mu);
    Units[Name] += N;
  }
  std::map<std::string, uint64_t> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Units;
  }
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    Units.clear();
  }

private:
  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Units; // guarded by Mu
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What the traced run hands a workload to derive its per-layer
/// metrics from: span totals summed over the timed passes, the work
/// units of one pass, the number of passes, and the registry build.
struct LayerInputs {
  std::map<std::string, SpanTotals> Spans;
  std::map<std::string, uint64_t> Units;
  uint32_t Passes = 0;
  double RegistryS = 0.0; ///< one-time registry build, seconds

  /// Wall seconds of spans named \p Name, per pass.
  double wallPerPass(const std::string &Name) const;
  /// Self seconds of every span of \p Layer ("vm" covers "vm.*"), per
  /// pass.
  double layerSelfPerPass(const std::string &Layer) const;
  uint64_t units(const std::string &Name) const;
  /// Nanoseconds of \p Span per unit of \p Unit (0 when no units).
  double nsPer(const std::string &Span, const std::string &Unit) const;
};

/// A benchmark workload.
class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// One-time set-up that cannot be repeated within a process (the
  /// workload registry is built once per process). \returns seconds.
  virtual double buildOnce() = 0;

  /// The repeatable part of set-up: draws the seeded inputs and warms
  /// every layer on a small part of them. Called several times; set-up
  /// time is the one-time part plus the median of these.
  virtual void plan(uint64_t Seed) = 0;

  /// One full pass over the inputs. Counts its work into \p L and its
  /// operations and checks through Op.
  virtual void pass(Ledger &L) = 0;
};

std::unique_ptr<BenchWorkload> makePaperEval();
std::unique_ptr<BenchWorkload> makeTraceLab();
std::unique_ptr<BenchWorkload> makeStaticPredict();

/// Direction arrays of the 13-predictor static panel, in bench_perf's
/// order: Loop+Rand, Heuristic, Perfect (left empty: it comes from the
/// trace), Taken, Fallthru, Random, then each heuristic alone in the
/// paper's order. \p Seed drives the default-prediction coin.
std::vector<std::vector<uint8_t>>
staticPanelDirections(const bpfree::PredictionContext &Ctx, uint64_t Seed);

/// Worker threads for every parallel call: the host's cores, at most 4.
unsigned benchJobs();

/// Directory for files the benchmark writes (trace stores, spans).
const std::string &scratchDir();

/// Named per-layer metrics, in the order BENCHMARK.json lists them.
/// \p TracedPassS is the traced run's median pass wall time and
/// \p CalibrationS its median calibration leg.
void layerMetrics(const LayerInputs &In, double TracedPassS,
                  double CalibrationS, std::vector<Metric> &Out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
