//===- perfbench/src/Oracles.cpp - Independent checks of the program ------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include "Bench.h"

#include "ir/Function.h"
#include "vm/TraceStore.h"

#include <algorithm>
#include <cmath>

using namespace bpfree;
using namespace perfbench;

namespace {

/// Accumulates one event into \p W; with \p Counters it also runs the
/// plain 2-bit counter per site.
template <bool Counters> struct Walker {
  TraceWalk &W;
  std::vector<uint8_t> State; ///< 2-bit counter per site

  Walker(TraceWalk &W, uint32_t NumBlocks) : W(W) {
    W.Sites.assign(NumBlocks, SiteTally());
    if (!Counters)
      return;
    W.CounterMisses.assign(NumBlocks, 0);
    State.resize(NumBlocks);
    for (uint32_t I = 0; I < NumBlocks; ++I)
      State[I] = (I & 1) ? 2 : 1;
  }

  void operator()(uint32_t Site, bool Taken, uint64_t Delta) {
    if (Site >= W.Sites.size()) {
      // Out-of-range site: grow so the mismatch shows in every check.
      W.Sites.resize(Site + 1);
      if (Counters) {
        W.CounterMisses.resize(Site + 1);
        State.resize(Site + 1, (Site & 1) ? 2 : 1);
      }
    }
    ++W.Events;
    W.Instrs += Delta;
    SiteTally &T = W.Sites[Site];
    (Taken ? T.Taken : T.Fallthru) += 1;
    if (!Counters)
      return;
    uint8_t &C = State[Site];
    if ((C >= 2) != Taken)
      ++W.CounterMisses[Site];
    if (Taken && C < 3)
      ++C;
    else if (!Taken && C > 0)
      --C;
  }
};

} // namespace

TraceWalk perfbench::walkTrace(const BranchTrace &Trace, uint32_t NumBlocks) {
  TraceWalk W;
  Walker<false> Walk(W, NumBlocks);
  Trace.forEach(Walk);
  return W;
}

Expected<TraceWalk> perfbench::walkStore(const TraceStoreReader &Store) {
  TraceWalk W;
  Walker<true> Walk(W, Store.numBlocks());
  TraceStream S;
  if (std::optional<Diag> D = Store.openStream(S))
    return *D;
  TraceDecoder Dec;
  for (;;) {
    const uint32_t *Words = nullptr;
    Expected<uint64_t> N = S.next(Words);
    if (!N)
      return N.takeError();
    if (*N == 0)
      break;
    Dec.feed(Words, *N, Walk);
  }
  if (Dec.midRecord())
    return Diag(ErrorKind::CorruptData, "store ends inside an escape record");
  return W;
}

uint64_t perfbench::staticMisses(const TraceWalk &W,
                                 const std::vector<uint8_t> &Dirs) {
  uint64_t Misses = 0;
  for (size_t I = 0; I < W.Sites.size(); ++I) {
    const SiteTally &T = W.Sites[I];
    const uint8_t D = I < Dirs.size() ? Dirs[I] : 0xFF;
    if (D == DirTaken)
      Misses += T.Fallthru;
    else if (D == DirFallthru)
      Misses += T.Taken;
    else
      Misses += T.execs();
  }
  return Misses;
}

std::vector<uint8_t>
perfbench::majorityDirections(const TraceWalk &W,
                              const std::vector<uint8_t> &Template) {
  std::vector<uint8_t> Dirs(Template.size(), 0xFF);
  for (size_t I = 0; I < Template.size(); ++I) {
    if (Template[I] == 0xFF)
      continue;
    const SiteTally T = I < W.Sites.size() ? W.Sites[I] : SiteTally();
    Dirs[I] = T.Taken >= T.Fallthru ? DirTaken : DirFallthru;
  }
  return Dirs;
}

int64_t perfbench::perfectBeatenAt(const TraceWalk &W,
                                   const std::vector<uint8_t> &Perfect,
                                   const std::vector<uint8_t> &Dirs) {
  auto MissesAt = [&](size_t I, uint8_t D) {
    const SiteTally &T = W.Sites[I];
    return D == DirTaken ? T.Fallthru : D == DirFallthru ? T.Taken : T.execs();
  };
  for (size_t I = 0; I < W.Sites.size(); ++I) {
    if (W.Sites[I].execs() == 0)
      continue;
    const uint8_t P = I < Perfect.size() ? Perfect[I] : 0xFF;
    const uint8_t D = I < Dirs.size() ? Dirs[I] : 0xFF;
    if (MissesAt(I, P) > MissesAt(I, D))
      return static_cast<int64_t>(I);
  }
  return -1;
}

double perfbench::entropyBits(uint64_t Taken, uint64_t Execs) {
  if (Execs == 0 || Taken == 0 || Taken == Execs)
    return 0.0;
  const double P = static_cast<double>(Taken) / static_cast<double>(Execs);
  return -(P * std::log2(P) + (1.0 - P) * std::log2(1.0 - P));
}

uint64_t perfbench::orderMisses(const std::vector<BranchStats> &Stats,
                                const HeuristicOrder &Order,
                                uint64_t &Execs) {
  uint64_t Misses = 0;
  Execs = 0;
  for (const BranchStats &S : Stats) {
    if (S.IsLoopBranch || S.total() == 0)
      continue;
    Direction D = S.RandomDir;
    for (HeuristicKind K : Order) {
      if (S.heuristicApplies(K)) {
        D = S.heuristicDir(K);
        break;
      }
    }
    Misses += S.missesFor(D);
    Execs += S.total();
  }
  return Misses;
}

namespace {

/// Dominators and natural loops of one function, computed with the
/// iterative algorithm of Cooper, Harvey and Kennedy over a reverse
/// postorder from the entry block.
class OwnLoops {
public:
  explicit OwnLoops(const ir::Function &F) : N(F.numBlocks()) {
    Succs.resize(N);
    for (const auto &BB : F)
      for (unsigned S = 0; S < BB->numSuccessors(); ++S)
        Succs[BB->getId()].push_back(BB->getSuccessor(S)->getId());
    computeOrder();
    computeIdoms();
    computeLoops();
  }

  bool reachable(unsigned B) const { return RpoIndex[B] >= 0; }

  bool dominates(unsigned A, unsigned B) const {
    if (!reachable(A) || !reachable(B))
      return false;
    for (;;) {
      if (A == B)
        return true;
      if (B == Entry)
        return false;
      B = static_cast<unsigned>(Idom[B]);
    }
  }

  /// Loops (one per header, backedges merged) that contain \p From but
  /// not \p To.
  unsigned loopsExited(unsigned From, unsigned To) const {
    unsigned Count = 0;
    for (const std::vector<bool> &L : Loops)
      if (L[From] && !L[To])
        ++Count;
    return Count;
  }

private:
  void computeOrder() {
    RpoIndex.assign(N, -1);
    std::vector<bool> Seen(N, false);
    std::vector<std::pair<unsigned, size_t>> Stack;
    std::vector<unsigned> Post;
    Stack.push_back({Entry, 0});
    Seen[Entry] = true;
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      if (Next < Succs[B].size()) {
        const unsigned S = Succs[B][Next++];
        if (!Seen[S]) {
          Seen[S] = true;
          Stack.push_back({S, 0});
        }
        continue;
      }
      Post.push_back(B);
      Stack.pop_back();
    }
    Rpo.assign(Post.rbegin(), Post.rend());
    for (size_t I = 0; I < Rpo.size(); ++I)
      RpoIndex[Rpo[I]] = static_cast<int>(I);
  }

  void computeIdoms() {
    std::vector<std::vector<unsigned>> Preds(N);
    for (unsigned B = 0; B < N; ++B)
      if (reachable(B))
        for (unsigned S : Succs[B])
          Preds[S].push_back(B);
    Idom.assign(N, -1);
    Idom[Entry] = static_cast<int>(Entry);
    auto Intersect = [&](unsigned A, unsigned B) {
      while (A != B) {
        while (RpoIndex[A] > RpoIndex[B])
          A = static_cast<unsigned>(Idom[A]);
        while (RpoIndex[B] > RpoIndex[A])
          B = static_cast<unsigned>(Idom[B]);
      }
      return A;
    };
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (size_t I = 1; I < Rpo.size(); ++I) {
        const unsigned B = Rpo[I];
        int NewIdom = -1;
        for (unsigned P : Preds[B]) {
          if (Idom[P] < 0)
            continue;
          NewIdom = NewIdom < 0 ? static_cast<int>(P)
                                : static_cast<int>(Intersect(
                                      P, static_cast<unsigned>(NewIdom)));
        }
        if (NewIdom != Idom[B]) {
          Idom[B] = NewIdom;
          Changed = true;
        }
      }
    }
  }

  void computeLoops() {
    std::vector<std::vector<unsigned>> Preds(N);
    for (unsigned B = 0; B < N; ++B)
      for (unsigned S : Succs[B])
        Preds[S].push_back(B);
    std::vector<int> LoopOfHead(N, -1);
    for (unsigned B = 0; B < N; ++B) {
      if (!reachable(B))
        continue;
      for (unsigned H : Succs[B]) {
        if (!dominates(H, B))
          continue;
        if (LoopOfHead[H] < 0) {
          LoopOfHead[H] = static_cast<int>(Loops.size());
          Loops.emplace_back(N, false);
          Loops.back()[H] = true;
        }
        std::vector<bool> &L = Loops[LoopOfHead[H]];
        std::vector<unsigned> Work;
        if (!L[B]) {
          L[B] = true;
          Work.push_back(B);
        }
        while (!Work.empty()) {
          const unsigned X = Work.back();
          Work.pop_back();
          for (unsigned P : Preds[X])
            if (reachable(P) && !L[P]) {
              L[P] = true;
              Work.push_back(P);
            }
        }
      }
    }
  }

  const unsigned Entry = 0;
  unsigned N;
  std::vector<std::vector<unsigned>> Succs;
  std::vector<unsigned> Rpo;
  std::vector<int> RpoIndex;
  std::vector<int> Idom;
  std::vector<std::vector<bool>> Loops;
};

} // namespace

std::string perfbench::checkLoopPredictions(
    const ir::Function &F, const std::vector<uint8_t> &FuncDirs,
    const std::vector<bool> &LibraryLoopBranch, uint64_t &LoopBranches) {
  const OwnLoops L(F);
  for (const auto &BB : F) {
    if (!BB->isCondBranch())
      continue;
    const unsigned B = BB->getId();
    const std::string Where = F.getName() + ":" + BB->getName();
    if (!L.reachable(B))
      continue;
    const unsigned S[2] = {BB->getSuccessor(0)->getId(),
                           BB->getSuccessor(1)->getId()};
    const bool Back[2] = {L.dominates(S[0], B), L.dominates(S[1], B)};
    const unsigned Exits[2] = {L.loopsExited(B, S[0]),
                               L.loopsExited(B, S[1])};
    const bool IsLoopBranch = Back[0] || Back[1] || Exits[0] || Exits[1];
    if (IsLoopBranch != LibraryLoopBranch[B])
      return Where + ": loop-branch class disagrees with LoopInfo";
    if (!IsLoopBranch)
      continue;
    ++LoopBranches;
    const uint8_t D = FuncDirs[B];
    if (D > 1)
      return Where + ": loop branch has no direction";
    if (S[0] == S[1])
      continue;
    if (Back[0] || Back[1]) {
      if (!Back[D])
        return Where + ": predicted off the backedge";
    } else if (Exits[D] > Exits[1 - D]) {
      return Where + ": predicted along the edge leaving more loops";
    }
  }
  return "";
}

void perfbench::checkStaticPanel(Op &O, const TraceWalk &Walk,
                                 const std::vector<std::vector<uint8_t>> &Dirs,
                                 const std::vector<SequenceHistogram> &Hists,
                                 uint64_t Events) {
  if (!O.expect(Hists.size() == Dirs.size() && Dirs.size() > 4,
                "panel size"))
    return;
  for (size_t P = 0; P < Dirs.size(); ++P) {
    O.expect(Hists[P].BranchExecs == Events, "replayed branch count");
    O.expect(Hists[P].Breaks == staticMisses(Walk, Dirs[P]),
             "predictor " + std::to_string(P) +
                 " breaks differ from the per-site recount");
    O.expect(perfectBeatenAt(Walk, Dirs[2], Dirs[P]) < 0,
             "perfect mispredicts more than predictor " + std::to_string(P) +
                 " at a branch");
  }
  O.expect(Hists[3].Breaks + Hists[4].Breaks == Events,
           "always-taken plus always-fallthru misses != executions");
  const std::vector<uint8_t> Majority = majorityDirections(Walk, Dirs[2]);
  for (size_t I = 0; I < Walk.Sites.size(); ++I)
    if (Walk.Sites[I].execs() != 0 &&
        !O.expect(I < Dirs[2].size() && Dirs[2][I] == Majority[I],
                  "perfect direction is not the majority at site " +
                      std::to_string(I)))
      break;
}
