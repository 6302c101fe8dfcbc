//===- perfbench/src/TraceLab.cpp - The trace-lab workload ----------------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Capture once, replay many, through the durable store. Each pass
/// captures a seeded set of traces (runWorkload with only the trace sink
/// attached), writes each to a bpfree-trace-v1 store, reopens it through
/// TraceStoreReader::open (which verifies every checksum), and replays it
/// from disk: the 13-predictor static panel, the 7-member dynamic panel,
/// characterization, and the two per-site joins characterization makes
/// internally (called here directly, so their cost can be billed on its
/// own).
///
/// The trace set always holds the three adversarial hard-to-predict
/// workloads (hashbits, fsmdispatch, ptrchase) on their reference inputs.
/// The seed shuffles every other (workload, dataset) pair of the suite,
/// and the set takes pairs in that order while they fit a fixed cost
/// budget, so every seed draws a different mix of regular code at about
/// the same cost per pass.
///
/// The store is written by writeTraceFile after a resident capture
/// rather than spilled during it. The file is byte-identical to a spilled
/// capture's (TraceStoreTest checks this), and writing it as its own call
/// is what lets the store write be timed apart from interpretation.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Oracles.h"

#include "ipbc/Characterize.h"
#include "ipbc/DynamicReplay.h"
#include "ipbc/TraceReplay.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "vm/TraceStore.h"
#include "workloads/Driver.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

using namespace bpfree;
using namespace perfbench;

namespace {

/// Interpreted instructions and branch events of every suite dataset,
/// measured once on the reference build. Only the draw's cost balance
/// uses them; every check runs on the counts a pass actually sees.
struct PairCost {
  const char *Workload;
  size_t Dataset;
  uint64_t Instrs;
  uint64_t Events;
};
const PairCost SuiteCosts[] = {
    {"lisp", 0, 13157545, 1857506},
    {"lisp", 1, 1465150, 208183},
    {"lisp", 2, 20626079, 2767737},
    {"lisp", 3, 6655348, 966747},
    {"treesort", 0, 12098653, 2868279},
    {"treesort", 1, 8834261, 2096729},
    {"treesort", 2, 1120926, 260989},
    {"treesort", 3, 12111734, 3023473},
    {"basicinterp", 0, 32968588, 7262574},
    {"basicinterp", 1, 6289296, 1383278},
    {"basicinterp", 2, 140372492, 30713526},
    {"hashwords", 0, 15004891, 2685382},
    {"hashwords", 1, 2999950, 534026},
    {"hashwords", 2, 34975911, 6264820},
    {"qsortbench", 0, 35981685, 4623547},
    {"qsortbench", 1, 4071355, 541686},
    {"qsortbench", 2, 69608135, 9982015},
    {"intsolve", 0, 681060, 54554},
    {"intsolve", 1, 194390, 15943},
    {"intsolve", 2, 261089, 20644},
    {"queens", 0, 42766210, 5479203},
    {"queens", 1, 14927249, 2016813},
    {"queens", 2, 133449126, 16964026},
    {"dijkstra", 0, 58254793, 10929629},
    {"dijkstra", 1, 16798416, 2901365},
    {"dijkstra", 2, 6594903, 1180985},
    {"eqn", 0, 75480777, 12816860},
    {"eqn", 1, 85966383, 14701117},
    {"eqn", 2, 68766309, 11535443},
    {"espresso", 0, 95833936, 16063907},
    {"espresso", 1, 13980032, 2406354},
    {"espresso", 2, 178996582, 28722377},
    {"grep", 0, 21190190, 4432187},
    {"grep", 1, 4232307, 886281},
    {"grep", 2, 47004599, 9806959},
    {"compress", 0, 85400638, 10696093},
    {"compress", 1, 13933436, 1730266},
    {"compress", 2, 9194444, 1117886},
    {"wordcount", 0, 16820178, 3346090},
    {"wordcount", 1, 3367007, 670071},
    {"wordcount", 2, 10085486, 2048192},
    {"markgc", 0, 3300738, 399362},
    {"markgc", 1, 860959, 104207},
    {"markgc", 2, 2828046, 341388},
    {"huffman", 0, 43527750, 4266170},
    {"huffman", 1, 51814550, 5195154},
    {"huffman", 2, 8892232, 888489},
    {"hashbits", 0, 2724937, 300033},
    {"hashbits", 1, 545009, 59992},
    {"hashbits", 2, 2727155, 300103},
    {"fsmdispatch", 0, 2056068, 270417},
    {"fsmdispatch", 1, 411454, 54131},
    {"fsmdispatch", 2, 1980031, 270093},
    {"ptrchase", 0, 3174069, 380485},
    {"ptrchase", 1, 607274, 74565},
    {"ptrchase", 2, 2816758, 360645},
    {"matmul300", 0, 49293883, 2783822},
    {"matmul300", 1, 8409885, 481937},
    {"matmul300", 2, 77719559, 4375051},
    {"relax", 0, 74973437, 3735571},
    {"relax", 1, 35660789, 1788891},
    {"relax", 2, 68978941, 3455771},
    {"gauss", 0, 64093105, 2928054},
    {"gauss", 1, 13440936, 675975},
    {"gauss", 2, 73846719, 3303827},
    {"conjgrad", 0, 53548134, 3372965},
    {"conjgrad", 1, 17831494, 1124285},
    {"conjgrad", 2, 74053924, 4656445},
    {"nbody", 0, 55673432, 6818889},
    {"nbody", 1, 43356554, 5313351},
    {"nbody", 2, 68505437, 8345467},
    {"fpkernels", 0, 43600614, 3480076},
    {"fpkernels", 1, 14224896, 1144124},
    {"fpkernels", 2, 48890329, 3866676},
    {"circuit", 0, 58910187, 4677223},
    {"circuit", 1, 21797377, 1732751},
    {"circuit", 2, 68666352, 5486804},
};

const char *const Adversarial[] = {"hashbits", "fsmdispatch", "ptrchase"};

/// Modelled wall cost of one trace in a pass, in nanoseconds:
/// interpretation (spread over the workers) plus the disk replays,
/// which cost a few hundred nanoseconds per event in all.
double modelCost(const PairCost &C) {
  return 1.0 * static_cast<double>(C.Instrs) +
         350.0 * static_cast<double>(C.Events);
}

/// Modelled cost per pass of the whole trace set.
constexpr double BudgetNs = 3.2e9;

/// Largest trace the draw takes. Keeping out the few very long captures
/// keeps the draw fine-grained (its cost lands close to the budget) and
/// the peak memory of four concurrent resident captures about the same
/// for every seed.
constexpr uint64_t MaxDrawnEvents = 4'000'000;

struct TraceJob {
  const Workload *W = nullptr;
  size_t Dataset = 0;
  std::string Path;
  std::unique_ptr<WorkloadRun> Run; ///< module and context, trace dropped
  uint64_t Events = 0;
  bool Captured = false;
};

class TraceLab final : public BenchWorkload {
public:
  double buildOnce() override {
    const Clock::time_point T0 = Clock::now();
    workloadSuite();
    return secondsSince(T0);
  }

  void plan(uint64_t S) override {
    Seed = S;
    Set.clear();
    double Spent = 0.0;
    std::vector<const PairCost *> Pool;
    for (const PairCost &C : SuiteCosts) {
      const bool Fixed =
          std::find_if(std::begin(Adversarial), std::end(Adversarial),
                       [&](const char *N) {
                         return std::string(N) == C.Workload;
                       }) != std::end(Adversarial);
      if (Fixed && C.Dataset == 0) {
        Set.push_back(&C);
        Spent += modelCost(C);
      } else if (!Fixed && C.Events <= MaxDrawnEvents) {
        Pool.push_back(&C);
      }
    }
    Rng R(Seed);
    for (size_t I = Pool.size(); I > 1; --I)
      std::swap(Pool[I - 1], Pool[R.below(I)]);
    for (const PairCost *C : Pool)
      if (Spent + modelCost(*C) <= BudgetNs) {
        Set.push_back(C);
        Spent += modelCost(*C);
      }
    // Longest captures first.
    std::stable_sort(Set.begin(), Set.end(),
                     [](const PairCost *A, const PairCost *B) {
                       return A->Instrs > B->Instrs;
                     });
  }

  void pass(Ledger &L) override {
    std::vector<TraceJob> Jobs(Set.size());
    for (size_t I = 0; I < Set.size(); ++I) {
      Jobs[I].W = findWorkload(Set[I]->Workload);
      Jobs[I].Dataset = Set[I]->Dataset;
      Jobs[I].Path = scratchDir() + "/" + Set[I]->Workload + "-" +
                     std::to_string(Set[I]->Dataset) + ".bpft";
    }
    {
      LayerScope Fan("bench.captures");
      const uint64_t Parent = Fan.id();
      parallelFor(benchJobs(), Jobs.size(),
                  [&](size_t I) { capture(Jobs[I], L, Parent); });
    }
    for (TraceJob &J : Jobs) {
      if (J.Captured)
        replay(J, L);
      std::error_code EC;
      std::filesystem::remove(J.Path, EC);
    }
  }

private:
  void capture(TraceJob &J, Ledger &L, uint64_t Parent) {
    Op O("trace-lab capture " + (J.W ? J.W->Name : std::string("?")) + "/" +
         std::to_string(J.Dataset));
    if (!O.expect(J.W != nullptr, "workload missing from the suite"))
      return;
    RunOptions RO;
    RO.CaptureTrace = true;
    RO.Profile = false;
    {
      LayerScope S("vm.capture", Parent);
      if (!O.take(runWorkload(*J.W, J.Dataset, {}, RO), J.Run, "capture"))
        return;
    }
    const BranchTrace &T = *J.Run->Trace;
    if (!O.expect(T.finalized() && !T.overflowed(), "trace incomplete"))
      return;
    J.Events = T.numEvents();
    L.add("vm.instrs", J.Run->Result.InstrCount);
    L.add("vm.events", J.Events);
    {
      LayerScope S("vm.store_write", Parent);
      if (std::optional<Diag> D = writeTraceFile(T, J.Path)) {
        O.expect(false, "store write: " + D->render());
        return;
      }
    }
    std::error_code EC;
    L.add("vm.store_bytes", std::filesystem::file_size(J.Path, EC));
    J.Run->Trace.reset();
    J.Captured = O.ok();
  }

  void replay(TraceJob &J, Ledger &L) {
    Op O("trace-lab replay " + J.W->Name + "/" + std::to_string(J.Dataset));
    const ir::Module &M = *J.Run->M;
    const PredictionContext &Ctx = *J.Run->Ctx;
    const unsigned Jobs = benchJobs();
    const uint64_t Events = J.Events;
    uint64_t Branches = 0;
    for (const auto &F : M)
      Branches += F->countCondBranches();
    L.add("predict.branches", Branches);

    TraceStoreReader Store;
    {
      LayerScope S("vm.store_open");
      if (std::optional<Diag> D = Store.open(J.Path)) {
        O.expect(false, "store open: " + D->render());
        return;
      }
    }
    L.add("vm.store_open_bytes", Store.stats().RecoveredWords * 4);
    if (!O.expect(Store.complete() && Store.numEvents() == Events,
                  "reopened store is incomplete") ||
        !O.expect(!Store.requireModule(M), "store belongs to another module"))
      return;

    std::vector<uint8_t> Perfect;
    {
      LayerScope S("ipbc.perfect_dirs");
      if (!O.take(perfectDirectionsFromStore(Store, M), Perfect,
                  "perfect directions"))
        return;
    }
    std::vector<std::vector<uint8_t>> Dirs;
    {
      LayerScope S("predict.directions");
      Dirs = staticPanelDirections(Ctx, Seed);
    }
    Dirs[2] = Perfect;
    std::vector<SequenceHistogram> Static;
    {
      LayerScope S("ipbc.static_disk");
      if (!O.take(replayStoreAll(Store, Dirs, Jobs), Static, "disk replay"))
        return;
    }
    L.add("ipbc.disk_event_preds", Events * Dirs.size());
    const std::vector<DynPredictorConfig> Panel = standardDynamicPanel();
    std::vector<SequenceHistogram> Dynamic;
    {
      LayerScope S("ipbc.dynamic");
      if (!O.take(replayStoreDynamic(Store, Panel, Jobs), Dynamic,
                  "dynamic replay"))
        return;
    }
    L.add("ipbc.dynamic_event_members", Events * Panel.size());
    CharReport Char;
    {
      LayerScope S("ipbc.char");
      CharOptions CO;
      CO.Jobs = Jobs;
      if (!O.take(characterizeStore(Ctx, Store, CO), Char, "characterize"))
        return;
    }
    L.add("ipbc.char_events", Events);
    std::vector<SiteCounts> PerfectSites;
    {
      LayerScope S("ipbc.char_site_join");
      if (!O.take(replayStoreSiteCounts(Store, Dirs[2]), PerfectSites,
                  "site counts"))
        return;
    }
    std::vector<std::vector<SiteCounts>> DynSites;
    {
      LayerScope S("ipbc.char_dynamic_join");
      if (!O.take(replayStoreDynamicSites(Store, Panel, Jobs), DynSites,
                  "dynamic site counts"))
        return;
    }

    LayerScope S("bench.oracle");
    TraceWalk Walk;
    if (!O.take(walkStore(Store), Walk, "store walk"))
      return;
    O.expect(Walk.Events == Events, "walk event count");
    checkStaticPanel(O, Walk, Dirs, Static, Events);
    checkSites(O, Walk, Dirs[2], PerfectSites);
    checkDynamic(O, Walk, Panel, Dynamic, DynSites, Events);
    checkCharacter(O, Walk, Char, Static[2].Breaks, Dynamic, Events);
  }

  static void checkSites(Op &O, const TraceWalk &Walk,
                         const std::vector<uint8_t> &Dirs,
                         const std::vector<SiteCounts> &Sites) {
    for (size_t I = 0; I < Walk.Sites.size(); ++I) {
      const SiteTally &T = Walk.Sites[I];
      const SiteCounts C = I < Sites.size() ? Sites[I] : SiteCounts();
      const uint64_t Miss = Dirs[I] == DirTaken ? T.Fallthru : T.Taken;
      if (!O.expect(C.Taken == T.Taken && C.Fallthru == T.Fallthru &&
                        C.Mispredicts == (T.execs() ? Miss : 0),
                    "site counts differ from the walk at site " +
                        std::to_string(I)))
        return;
    }
  }

  static void checkDynamic(Op &O, const TraceWalk &Walk,
                           const std::vector<DynPredictorConfig> &Panel,
                           const std::vector<SequenceHistogram> &Hists,
                           const std::vector<std::vector<SiteCounts>> &Sites,
                           uint64_t Events) {
    if (!O.expect(Hists.size() == Panel.size() &&
                      Sites.size() == Panel.size(),
                  "dynamic panel size"))
      return;
    for (size_t P = 0; P < Panel.size(); ++P) {
      uint64_t Miss = 0, Execs = 0;
      for (const SiteCounts &C : Sites[P]) {
        Miss += C.Mispredicts;
        Execs += C.execs();
      }
      O.expect(Miss == Hists[P].Breaks && Execs == Events &&
                   Hists[P].BranchExecs == Events,
               Panel[P].name() + ": per-site counts do not add up to the "
                                 "histogram");
      if (Panel[P].name() != "bimodal[site]")
        continue;
      // The plain 2-bit counter per site must agree exactly, site by
      // site, with the panel's per-site bimodal member.
      uint64_t Own = 0;
      for (size_t I = 0; I < Walk.CounterMisses.size(); ++I) {
        Own += Walk.CounterMisses[I];
        const uint64_t Theirs =
            I < Sites[P].size() ? Sites[P][I].Mispredicts : 0;
        if (!O.expect(Theirs == Walk.CounterMisses[I],
                      "bimodal[site] misses differ from a plain 2-bit "
                      "counter at site " +
                          std::to_string(I)))
          break;
      }
      O.expect(Own == Hists[P].Breaks,
               "bimodal[site] breaks differ from a plain 2-bit counter");
    }
  }

  static void checkCharacter(Op &O, const TraceWalk &Walk,
                             const CharReport &R, uint64_t PerfectMisses,
                             const std::vector<SequenceHistogram> &Dynamic,
                             uint64_t Events) {
    O.expect(R.BranchExecs == Events, "characterized branch executions");
    uint64_t Executed = 0;
    for (const SiteTally &T : Walk.Sites)
      Executed += T.execs() != 0;
    O.expect(R.NumSites == Executed && R.Sites.size() == Executed,
             "characterized site count");
    uint64_t ClassSites = 0, ClassExecs = 0;
    for (unsigned C = 0; C < NumBranchClasses; ++C) {
      ClassSites += R.ClassSites[C];
      ClassExecs += R.ClassExecs[C];
    }
    O.expect(ClassSites == Executed && ClassExecs == Events,
             "class sites and executions do not sum to the trace totals");
    for (const SiteCharacter &S : R.Sites) {
      const SiteTally T =
          S.FlatIndex < Walk.Sites.size() ? Walk.Sites[S.FlatIndex]
                                          : SiteTally();
      const double H = entropyBits(T.Taken, T.execs());
      if (!O.expect(S.Execs == T.execs() && S.Taken == T.Taken &&
                        std::fabs(S.Entropy - H) <= 1e-9,
                    "site " + std::to_string(S.FlatIndex) +
                        " statistics differ from the walk"))
        break;
    }
    size_t Dyn = 0;
    for (const ClassPredictorRow &Row : R.Predictors) {
      uint64_t Execs = 0, Miss = 0;
      for (unsigned C = 0; C < NumBranchClasses; ++C) {
        Execs += Row.Classes[C].Execs;
        Miss += Row.Classes[C].Mispredicts;
      }
      O.expect(Execs == Events && Miss == Row.Mispredicts,
               Row.Name + ": class rows do not partition the executions");
      if (Row.Kind == "perfect")
        O.expect(Row.Mispredicts == PerfectMisses,
                 "characterized perfect misses differ from replay");
      if (Row.Kind == "dynamic" &&
          O.expect(Dyn < Dynamic.size(), "extra dynamic row"))
        O.expect(Row.Mispredicts == Dynamic[Dyn++].Breaks,
                 Row.Name + ": characterized misses differ from replay");
    }
    O.expect(Dyn == Dynamic.size(), "dynamic rows missing");
  }

  std::vector<const PairCost *> Set;
  uint64_t Seed = 0;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeTraceLab() {
  return std::make_unique<TraceLab>();
}
