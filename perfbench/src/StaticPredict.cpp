//===- perfbench/src/StaticPredict.cpp - The static-predict workload ------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "for free" path: compile a seeded MiniC corpus, analyze
/// it, predict every conditional branch, and round-trip the IR text.
/// Nothing is executed, so the vm and ipbc layers are bypassed and the
/// frontend, ir, analysis and predict layers — a few milliseconds of the
/// suite's whole evaluation — carry the pass.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"
#include "Oracles.h"

#include "frontend/Compiler.h"
#include "ir/Function.h"
#include "ir/Printer.h"
#include "ir/TextParser.h"
#include "predict/Predictors.h"
#include "support/ThreadPool.h"

#include <atomic>

using namespace bpfree;
using namespace perfbench;

namespace {

class StaticPredict final : public BenchWorkload {
public:
  double buildOnce() override { return 0.0; }

  void plan(uint64_t Seed) override {
    Sources.assign(corpusSize(), std::string());
    for (unsigned I = 0; I < corpusSize(); ++I)
      Sources[I] = generateProgram(Seed, I);
  }

  void pass(Ledger &L) override {
    std::atomic<unsigned> Applies{0};
    {
      LayerScope Fan("bench.programs");
      const uint64_t Parent = Fan.id();
      parallelFor(benchJobs(), Sources.size(), [&](size_t I) {
        Applies.fetch_or(program(Sources[I], I, L, Parent));
      });
    }
    Op O("static-predict heuristic coverage");
    O.expect(Applies.load() == (1u << NumHeuristics) - 1,
             "some heuristic applies nowhere in the corpus");
  }

private:
  /// Compiles, analyzes, predicts and round-trips one program.
  /// \returns the union of the heuristics that applied to its branches.
  unsigned program(const std::string &Src, size_t Index, Ledger &L,
                   uint64_t Parent) {
    Op O("static-predict program " + std::to_string(Index));
    LayerScope Prog("bench.program", Parent);
    std::unique_ptr<ir::Module> M;
    {
      LayerScope S("frontend.compile");
      if (!O.take(minic::compile(Src), M, "compile"))
        return 0;
    }
    uint64_t Blocks = 0, Branches = 0, Instrs = 0;
    for (const auto &F : *M) {
      Blocks += F->numBlocks();
      Branches += F->countCondBranches();
      Instrs += F->countInstructions();
    }
    L.add("frontend.src_bytes", Src.size());
    L.add("analysis.blocks", Blocks);
    L.add("predict.branches", Branches);
    L.add("ir.instrs", Instrs);

    std::unique_ptr<PredictionContext> Ctx;
    {
      LayerScope S("analysis.ctx");
      Ctx = std::make_unique<PredictionContext>(*M);
    }

    // Direction and heuristic masks per block id, per function.
    std::vector<std::vector<uint8_t>> Dirs(M->numFunctions());
    std::vector<std::vector<std::pair<uint8_t, uint8_t>>> Masks(
        M->numFunctions());
    {
      LayerScope S("predict.predict");
      const BallLarusPredictor BL(*Ctx);
      for (const auto &F : *M) {
        const FunctionContext &FC = Ctx->get(*F);
        std::vector<uint8_t> &D = Dirs[F->getIndex()];
        std::vector<std::pair<uint8_t, uint8_t>> &Mk = Masks[F->getIndex()];
        D.assign(F->numBlocks(), 0xFF);
        Mk.assign(F->numBlocks(), {0, 0});
        for (const auto &BB : *F) {
          if (!BB->isCondBranch())
            continue;
          D[BB->getId()] = static_cast<uint8_t>(BL.predict(*BB));
          Mk[BB->getId()] = applyAllHeuristics(*BB, FC);
        }
      }
    }
    L.add("predict.predicted", Branches);

    std::string Text, Again;
    {
      LayerScope S("ir.round_trip");
      Text = ir::printModule(*M);
      std::unique_ptr<ir::Module> Parsed;
      if (O.take(ir::parseModuleText(Text), Parsed, "parse printed IR"))
        Again = ir::printModule(*Parsed);
    }
    L.add("ir.text_bytes", Text.size());

    LayerScope S("bench.oracle");
    O.expect(Text == Again, "IR print -> parse -> print is not a fixed point");
    unsigned Applies = 0;
    uint64_t LoopBranches = 0, Predicted = 0;
    for (const auto &F : *M) {
      const FunctionContext &FC = Ctx->get(*F);
      const std::vector<uint8_t> &D = Dirs[F->getIndex()];
      std::vector<bool> LibraryLoop(F->numBlocks(), false);
      for (const auto &BB : *F) {
        if (!BB->isCondBranch())
          continue;
        const unsigned Id = BB->getId();
        Predicted += D[Id] <= 1;
        LibraryLoop[Id] = FC.Loops.isLoopBranch(BB.get());
        const auto [AppliesMask, DirMask] = Masks[F->getIndex()][Id];
        Applies |= AppliesMask;
        if (LibraryLoop[Id])
          continue;
        // Non-loop branches: the first heuristic of the paper's order
        // that applies decides, else the per-branch coin.
        Direction Want = RandomPredictor::flip(*BB, 0);
        for (HeuristicKind K : paperOrder()) {
          const unsigned Bit = 1u << static_cast<unsigned>(K);
          if (AppliesMask & Bit) {
            Want = (DirMask & Bit) ? DirFallthru : DirTaken;
            break;
          }
        }
        if (!O.expect(D[Id] == Want, F->getName() + ":" + BB->getName() +
                                         ": combined prediction differs "
                                         "from the first applicable "
                                         "heuristic"))
          break;
      }
      const std::string Bad =
          checkLoopPredictions(*F, D, LibraryLoop, LoopBranches);
      O.expect(Bad.empty(), Bad);
    }
    O.expect(Predicted == Branches, "a conditional branch has no direction");
    L.add("predict.loop_branches", LoopBranches);
    return Applies;
  }

  std::vector<std::string> Sources;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeStaticPredict() {
  return std::make_unique<StaticPredict>();
}
