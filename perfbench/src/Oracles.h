//===- perfbench/src/Oracles.h - Independent checks of the program --------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own reference computations. Each recomputes a result
/// of the program from first principles — a walk over the raw trace
/// words, a textbook 2-bit counter, an iterative dominator computation —
/// so a pass is checked against an independent oracle rather than a
/// stored copy of an earlier output.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include "ipbc/SequenceAnalysis.h"
#include "predict/Evaluation.h"
#include "predict/Predictors.h"
#include "support/Error.h"
#include "vm/BranchTrace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bpfree {
class TraceStoreReader;
} // namespace bpfree

namespace perfbench {

class Op;

/// Per-site outcome counts from the benchmark's own decode of a trace.
struct SiteTally {
  uint64_t Taken = 0;
  uint64_t Fallthru = 0;
  uint64_t execs() const { return Taken + Fallthru; }
};

/// Everything one walk over a trace's events yields.
struct TraceWalk {
  std::vector<SiteTally> Sites; ///< indexed by flat block index
  /// Per-site misses of a plain 2-bit saturating counter per site,
  /// started weakly not-taken at even sites and weakly taken at odd
  /// ones (SimpleScalar's initialisation). Filled by walkStore only.
  std::vector<uint64_t> CounterMisses;
  uint64_t Events = 0;
  uint64_t Instrs = 0; ///< sum of the events' instruction deltas
};

/// Walks a resident trace through BranchTrace::forEach (tally only).
TraceWalk walkTrace(const bpfree::BranchTrace &Trace, uint32_t NumBlocks);

/// Walks a store through its own TraceStream cursor, tallying and
/// running the 2-bit counters.
bpfree::Expected<TraceWalk> walkStore(const bpfree::TraceStoreReader &Store);

/// Executions that disagree with \p Dirs, summed over sites. A site that
/// executed but has no direction (0xFF) counts every execution as a
/// miss, so a missing prediction cannot hide.
uint64_t staticMisses(const TraceWalk &W, const std::vector<uint8_t> &Dirs);

/// Per-branch majority directions (ties and unexecuted branches predict
/// taken) over the branch blocks of \p Template (entries != 0xFF).
std::vector<uint8_t> majorityDirections(const TraceWalk &W,
                                        const std::vector<uint8_t> &Template);

/// The first site where the perfect directions miss more often than
/// \p Dirs, or -1 when perfect is no worse anywhere.
int64_t perfectBeatenAt(const TraceWalk &W,
                        const std::vector<uint8_t> &Perfect,
                        const std::vector<uint8_t> &Dirs);

/// Marginal direction entropy in bits of \p Taken out of \p Execs.
double entropyBits(uint64_t Taken, uint64_t Execs);

/// Non-loop combined-predictor misses under \p Order, recomputed per
/// branch: the first applicable heuristic decides, else the branch's
/// default coin. \p Execs receives the non-loop executions.
uint64_t orderMisses(const std::vector<bpfree::BranchStats> &Stats,
                     const bpfree::HeuristicOrder &Order, uint64_t &Execs);

/// Checks every conditional branch of \p F against the loop rule with
/// dominators and natural loops computed here: a branch with a backedge
/// must be predicted along a backedge, otherwise a branch with an exit
/// edge must be predicted along the edge that leaves fewer loops. Also
/// checks that the branch's loop/non-loop class agrees with
/// \p LibraryLoopBranch (LoopInfo's verdict, by block id). \p FuncDirs
/// holds each block's predicted direction by block id (0 taken, 1
/// fall-through, 0xFF for a block without a conditional branch).
/// \returns "" or a description of the first violation; \p LoopBranches
/// counts the loop branches checked.
std::string checkLoopPredictions(
    const bpfree::ir::Function &F,
    const std::vector<uint8_t> &FuncDirs,
    const std::vector<bool> &LibraryLoopBranch, uint64_t &LoopBranches);

/// The static-panel oracle, for resident and disk replay alike: every
/// predictor's Breaks equal the per-site recount of executions that
/// disagree with its directions; perfect (slot 2) is the per-site
/// majority and never misses more than any predictor at any branch; and
/// always-taken (slot 3) plus always-fallthru (slot 4) misses add up to
/// the branch executions.
void checkStaticPanel(Op &O, const TraceWalk &Walk,
                      const std::vector<std::vector<uint8_t>> &Dirs,
                      const std::vector<bpfree::SequenceHistogram> &Hists,
                      uint64_t Events);

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H
