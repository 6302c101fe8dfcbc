//===- perfbench/src/PaperEval.cpp - The paper-eval workload --------------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's evaluation in one process: every dataset of
/// every suite workload is compiled, analyzed, decoded and interpreted
/// once with the edge profiler and the trace capture attached, then
/// reduced to per-branch statistics. The reference datasets feed the
/// combined-predictor tables and the 5040-order sweep, and the Graphs
/// 4-11 trace set is replayed resident against the 13-predictor static
/// panel.
///
/// runWorkload does compile → analyze → decode → run → stats in one
/// call, which hides where its time goes; each job here makes the same
/// public calls in the same order, so every step is timed on its own.
/// The job span ("workloads.job") is the runWorkload-equivalent parent;
/// its self time is the observer set-up and bookkeeping between steps.
///
/// The seed drives the deterministic default-prediction coin (the
/// Random predictor and the combined predictor's Default) and the
/// sample of orders the order-sweep oracle recomputes; the interpreted
/// work is the same for every seed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracles.h"

#include "frontend/Compiler.h"
#include "ir/Function.h"
#include "ipbc/TraceReplay.h"
#include "predict/Ordering.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "vm/EdgeProfile.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>

using namespace bpfree;
using namespace perfbench;

namespace {

/// The trace set of bench_ipbc_graphs: analogs of the paper's gcc, lcc,
/// qpt, xlisp, doduc, fpppp and spice2g6.
const char *const GraphPanel[] = {"treesort",    "lisp",  "qsortbench",
                                  "basicinterp", "nbody", "fpkernels",
                                  "circuit"};

/// Orders per reference workload whose miss rate the oracle recomputes.
constexpr unsigned SampledOrders = 24;

/// Known N-queens solution counts, an outside check on queens' output.
uint64_t queensSolutions(int64_t N) {
  switch (N) {
  case 8:
    return 92;
  case 9:
    return 352;
  case 10:
    return 724;
  default:
    return 0;
  }
}

struct Job {
  const Workload *W = nullptr;
  size_t Dataset = 0;
  bool Graph = false;
};

struct JobResult {
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<PredictionContext> Ctx;
  std::unique_ptr<BranchTrace> Trace; ///< kept for the graph panel only
  TraceWalk Walk;                     ///< kept for the graph panel only
  std::vector<BranchStats> Stats;
  bool Ok = false;
};

class PaperEval final : public BenchWorkload {
public:
  double buildOnce() override {
    const Clock::time_point T0 = Clock::now();
    const std::vector<Workload> &Suite = workloadSuite();
    const double S = secondsSince(T0);
    for (const Workload &W : Suite)
      for (size_t D = 0; D < W.Datasets.size(); ++D) {
        Job J;
        J.W = &W;
        J.Dataset = D;
        J.Graph = D == 0 && std::find_if(std::begin(GraphPanel),
                                         std::end(GraphPanel),
                                         [&](const char *N) {
                                           return W.Name == N;
                                         }) != std::end(GraphPanel);
        Jobs.push_back(J);
      }
    Cost.assign(Jobs.size(), 0);
    return S;
  }

  void plan(uint64_t S) override {
    Seed = S;
    Rng R(Seed);
    Orders.clear();
    for (unsigned I = 0; I < SampledOrders; ++I)
      Orders.push_back(static_cast<size_t>(R.below(NumOrders)));
    // Longest jobs first once their instruction counts are known (after
    // the warm-up pass); source size is the cold estimate.
    Order.resize(Jobs.size());
    for (size_t I = 0; I < Jobs.size(); ++I) {
      Order[I] = I;
      if (Cost[I] == 0)
        Cost[I] = Jobs[I].W->Source.size();
    }
    std::stable_sort(Order.begin(), Order.end(),
                     [&](size_t A, size_t B) { return Cost[A] > Cost[B]; });
  }

  void pass(Ledger &L) override {
    std::vector<JobResult> Results(Jobs.size());
    {
      LayerScope Fan("bench.jobs");
      const uint64_t Parent = Fan.id();
      parallelFor(benchJobs(), Order.size(), [&](size_t K) {
        const size_t I = Order[K];
        runJob(Jobs[I], Results[I], L, Parent, Cost[I]);
      });
    }
    for (size_t I = 0; I < Jobs.size(); ++I)
      if (Results[I].Ok && Jobs[I].Dataset == 0)
        tables(Jobs[I], Results[I], L);
    for (size_t I = 0; I < Jobs.size(); ++I)
      if (Results[I].Ok && Jobs[I].Graph)
        graphReplay(Jobs[I], Results[I], L);
    // Re-sort for the next pass now that the costs are measured.
    std::stable_sort(Order.begin(), Order.end(),
                     [&](size_t A, size_t B) { return Cost[A] > Cost[B]; });
  }

private:
  void runJob(const Job &J, JobResult &Res, Ledger &L, uint64_t Parent,
              uint64_t &JobCost) {
    const Workload &W = *J.W;
    const Dataset &Data = W.Datasets[J.Dataset];
    Op O("paper-eval " + W.Name + "/" + Data.Name);
    LayerScope JobSpan("workloads.job", Parent);

    {
      LayerScope S("frontend.compile");
      if (!O.take(minic::compile(W.Source), Res.M, "compile"))
        return;
    }
    const ir::Module &M = *Res.M;
    uint64_t Blocks = 0, Branches = 0, Instrs = 0;
    for (const auto &F : M) {
      Blocks += F->numBlocks();
      Branches += F->countCondBranches();
      Instrs += F->countInstructions();
    }
    L.add("frontend.src_bytes", W.Source.size());
    L.add("analysis.blocks", Blocks);
    L.add("predict.branches", Branches);
    L.add("ir.instrs", Instrs);
    {
      LayerScope S("analysis.ctx");
      Res.Ctx = std::make_unique<PredictionContext>(M);
    }

    EdgeProfile Profile(M);
    auto Trace = std::make_unique<BranchTrace>(M);
    std::unique_ptr<Interpreter> Interp;
    {
      LayerScope S("vm.decode");
      Interp = std::make_unique<Interpreter>(M, RunLimits());
    }
    RunResult R;
    {
      LayerScope S("vm.profile");
      R = Interp->run(Data, {&Profile, Trace.get()});
    }
    if (!O.expect(R.ok(), "run failed: " + R.TrapMessage))
      return;
    Trace->finalize(R.InstrCount);
    if (!O.expect(!Trace->overflowed(), "trace overflowed"))
      return;
    L.add("vm.instrs", R.InstrCount);
    L.add("vm.events", Trace->numEvents());
    JobCost = R.InstrCount;
    {
      LayerScope S("predict.stats");
      Res.Stats = collectBranchStats(*Res.Ctx, Profile, {}, Seed);
    }

    {
      // Every executed branch is in the statistics exactly as often as
      // the capture recorded it. On the graph-panel traces, which are
      // kept for replay, the benchmark's own decode must also reproduce
      // each branch's profile counts.
      LayerScope S("bench.oracle");
      uint64_t StatExecs = 0;
      for (const BranchStats &B : Res.Stats)
        StatExecs += B.total();
      O.expect(StatExecs == Trace->numEvents(),
               "branch statistics and the capture count different events");
      if (W.Name == "queens") {
        const int64_t N = Data.scalar(0);
        const std::string Want = "n=" + std::to_string(N) + " solutions=" +
                                 std::to_string(queensSolutions(N));
        O.expect(queensSolutions(N) != 0 &&
                     R.Output.find(Want) != std::string::npos,
                 "queens output lacks '" + Want + "'");
      }
      if (J.Graph) {
        const std::vector<uint32_t> Offsets = flatBlockOffsets(M);
        Res.Walk = walkTrace(*Trace, Offsets.back());
        O.expect(Res.Walk.Events == Trace->numEvents() &&
                     Res.Walk.Instrs <= R.InstrCount,
                 "walk event and instruction counts");
        for (const BranchStats &B : Res.Stats) {
          const SiteTally &T =
              Res.Walk.Sites[Offsets[B.BB->getParent()->getIndex()] +
                             B.BB->getId()];
          if (!O.expect(T.Taken == B.Taken && T.Fallthru == B.Fallthru,
                        "profile counts differ from the trace at " +
                            B.BB->getName()))
            break;
        }
        Res.Trace = std::move(Trace);
      }
    }
    Res.Ok = O.ok();
  }

  /// Tables 5-6 and the order sweep for one reference dataset.
  void tables(const Job &J, const JobResult &Res, Ledger &L) {
    Op O("paper-eval tables " + J.W->Name);
    CombinedResult C;
    {
      LayerScope S("predict.combined");
      C = computeCombined(Res.Stats);
    }
    std::vector<double> Rates;
    {
      LayerScope S("predict.order_sweep");
      OrderEvaluator E(Res.Stats);
      Rates = E.allMissRates();
    }
    L.add("predict.orders", NumOrders);

    LayerScope S("bench.oracle");
    uint64_t Execs = 0;
    const uint64_t PaperMisses = orderMisses(Res.Stats, paperOrder(), Execs);
    O.expect(C.NonLoopMiss.Num == PaperMisses && C.NonLoopMiss.Den == Execs,
             "combined non-loop misses differ from the per-branch recount");
    O.expect(C.AllMiss.Num >= C.AllPerfectMiss.Num,
             "combined predictor beats perfect");
    O.expect(Rates.size() == NumOrders, "order sweep size");
    for (size_t Id : Orders) {
      const uint64_t Misses = orderMisses(Res.Stats, allOrders()[Id], Execs);
      const double Want =
          Execs == 0 ? 0.0
                     : static_cast<double>(Misses) / static_cast<double>(Execs);
      if (!O.expect(Id < Rates.size() &&
                        std::fabs(Rates[Id] - Want) <=
                            1e-12 * std::max(1.0, Want),
                    "order " + orderToString(allOrders()[Id]) +
                        " miss rate differs from the per-branch recount"))
        break;
    }
  }

  /// Resident replay of the static panel over one graph-set trace.
  void graphReplay(const Job &J, JobResult &Res, Ledger &L) {
    Op O("paper-eval graph " + J.W->Name);
    const BranchTrace &Trace = *Res.Trace;
    std::vector<uint8_t> Perfect;
    {
      LayerScope S("ipbc.perfect_dirs");
      if (!O.take(perfectDirectionsFromTrace(Trace), Perfect,
                  "perfect directions"))
        return;
    }
    std::vector<std::vector<uint8_t>> Dirs;
    {
      LayerScope S("predict.directions");
      Dirs = staticPanelDirections(*Res.Ctx, Seed);
    }
    Dirs[2] = Perfect;
    std::vector<SequenceHistogram> Hists;
    {
      LayerScope S("ipbc.static_resident");
      if (!O.take(replayTraceAll(Trace, Dirs, benchJobs()), Hists,
                  "resident replay"))
        return;
    }
    L.add("ipbc.resident_event_preds", Trace.numEvents() * Dirs.size());

    LayerScope S("bench.oracle");
    checkStaticPanel(O, Res.Walk, Dirs, Hists, Trace.numEvents());
  }

private:
  std::vector<Job> Jobs;
  std::vector<uint64_t> Cost;
  std::vector<size_t> Order;
  std::vector<size_t> Orders;
  uint64_t Seed = 0;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makePaperEval() {
  return std::make_unique<PaperEval>();
}

/// The 13-predictor static panel, in bench_perf's order: Loop+Rand,
/// Heuristic, Perfect, Taken, Fallthru, Random, then each heuristic
/// alone in the paper's order. Perfect's slot comes from the trace.
std::vector<std::vector<uint8_t>>
perfbench::staticPanelDirections(const PredictionContext &Ctx,
                                 uint64_t Seed) {
  const ir::Module &M = Ctx.getModule();
  std::vector<std::vector<uint8_t>> Dirs(3);
  Dirs[0] = predictorDirections(M, LoopRandPredictor(Ctx, Seed));
  Dirs[1] = predictorDirections(
      M, BallLarusPredictor(Ctx, paperOrder(), {}, DefaultPolicy::Random,
                            Seed));
  Dirs.push_back(predictorDirections(M, AlwaysTakenPredictor()));
  Dirs.push_back(predictorDirections(M, AlwaysFallthruPredictor()));
  Dirs.push_back(predictorDirections(M, RandomPredictor(Seed)));
  for (HeuristicKind K : paperOrder())
    Dirs.push_back(
        predictorDirections(M, SingleHeuristicPredictor(Ctx, K, {}, Seed)));
  return Dirs;
}
