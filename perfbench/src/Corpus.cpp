//===- perfbench/src/Corpus.cpp - Seeded MiniC corpus generator -----------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "support/Rng.h"

#include <sstream>

using namespace perfbench;

namespace {

constexpr unsigned FunctionGrid[] = {4, 8, 16, 32};
constexpr unsigned StmtGrid[] = {16, 32, 64};
constexpr unsigned DepthGrid[] = {1, 2, 3, 4};
constexpr unsigned GridPoints = 4 * 3 * 4;
/// Sweeps of the shape grid per corpus.
constexpr unsigned Sweeps = 16;

/// The CFG shape of one generated program.
struct ProgramShape {
  unsigned Functions = 0;        ///< helper functions besides main
  unsigned StmtsPerFunction = 0; ///< statements per helper, nested included
  unsigned MaxLoopDepth = 0;     ///< deepest loop nesting
};

/// The grid point program \p Index of a corpus uses.
ProgramShape shapeFor(unsigned Index) {
  const unsigned G = Index % GridPoints;
  ProgramShape S;
  S.Functions = FunctionGrid[G % 4];
  S.StmtsPerFunction = StmtGrid[(G / 4) % 3];
  S.MaxLoopDepth = DepthGrid[G / 12];
  return S;
}

/// The branch idioms, each aimed at one heuristic (or at loop
/// branches); the seed draws a weight for each per program.
enum Idiom : unsigned {
  Opcode,  ///< sign test against zero (bltz/bgez/...)
  Pointer, ///< null test of a loaded pointer
  Call,    ///< one successor calls a helper
  Return,  ///< one successor returns
  Guard,   ///< one successor uses the compared value
  Store,   ///< one successor stores
  LoopIn,  ///< one successor enters a loop
  ForLoop, ///< a counted loop
  Walk,    ///< a pointer-chasing while loop
  DoWhile, ///< a bottom-tested loop
  Assign,  ///< straight-line arithmetic
  NumIdioms
};

const char *const IntVars[] = {"x", "y", "z", "w", "a", "b"};

class Generator {
public:
  Generator(uint64_t Seed, unsigned Index)
      : R(bpfree::Rng::splitmix64(Seed) ^ (0x9E37ull * (Index + 1))),
        Shape(shapeFor(Index)) {
    for (unsigned I = 0; I < NumIdioms; ++I) {
      Weights[I] = 1 + static_cast<unsigned>(R.below(8));
      TotalWeight += Weights[I];
    }
  }

  std::string program() {
    OS << "struct node { int val; struct node *next; };\n"
          "int g_sum = 0;\nint g_arr[64];\n\n";
    for (unsigned F = 0; F < Shape.Functions; ++F)
      function(F);
    OS << "int main() {\n"
          "  struct node *h = (struct node *)malloc(sizeof(struct node));\n"
          "  h->val = arg(0);\n  h->next = 0;\n  int r = 0;\n";
    for (unsigned F = 0; F < Shape.Functions; ++F)
      OS << "  r = r + f" << F << "(h, arg(" << F % 3 << "), " << F
         << ");\n";
    OS << "  print_int(r + g_sum);\n  return 0;\n}\n";
    return OS.str();
  }

private:
  void function(unsigned F) {
    OS << "int f" << F << "(struct node *p, int a, int b) {\n"
       << "  int x = a;\n  int y = b;\n  int z = " << lit() << ";\n"
       << "  int w = " << lit() << ";\n  struct node *q = p;\n";
    for (unsigned D = 0; D < Shape.MaxLoopDepth; ++D)
      OS << "  int i" << D << " = 0;\n";
    Budget = static_cast<int>(Shape.StmtsPerFunction);
    while (Budget > 0)
      stmt(1, 0, 0);
    OS << "  return x + y + z + w;\n}\n\n";
  }

  unsigned lit() { return static_cast<unsigned>(R.below(17)); }
  const char *var() { return IntVars[R.below(6)]; }

  std::string expr(unsigned Depth) {
    if (Depth == 0 || R.below(3) == 0)
      return R.below(3) == 0 ? std::to_string(lit()) : var();
    static const char *const Ops[] = {"+", "-", "*", "&", "|", "^"};
    return "(" + expr(Depth - 1) + " " + Ops[R.below(6)] + " " +
           expr(Depth - 1) + ")";
  }

  Idiom pick() {
    uint64_t X = R.below(TotalWeight);
    for (unsigned I = 0; I < NumIdioms; ++I) {
      if (X < Weights[I])
        return static_cast<Idiom>(I);
      X -= Weights[I];
    }
    return Assign;
  }

  void indent(unsigned Level) {
    for (unsigned I = 0; I < Level; ++I)
      OS << "  ";
  }

  /// A short body: one to three statements one level deeper.
  void body(unsigned Level, unsigned LoopDepth, unsigned IfDepth) {
    const unsigned N = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I < N; ++I)
      stmt(Level + 1, LoopDepth, IfDepth + 1);
  }

  void stmt(unsigned Level, unsigned LoopDepth, unsigned IfDepth) {
    Idiom K = pick();
    // Once the function's statement budget is spent, the statements
    // that bodies still need are plain assignments, so every helper of a
    // shape has the same number of statements whatever the seed.
    --Budget;
    const bool CanNest = IfDepth < 3 && Budget > 0;
    const bool CanLoop = LoopDepth < Shape.MaxLoopDepth;
    if ((K == ForLoop || K == Walk || K == DoWhile || K == LoopIn) &&
        !CanLoop)
      K = Store;
    if (!CanNest && K != Assign)
      K = R.below(2) ? Assign : Store;
    indent(Level);
    static const char *const SignTests[] = {"< 0", ">= 0", "> 0", "<= 0"};
    switch (K) {
    case Opcode:
      OS << "if (" << var() << " " << SignTests[R.below(4)] << ") {\n";
      body(Level, LoopDepth, IfDepth);
      elseBody(Level, LoopDepth, IfDepth);
      return;
    case Pointer:
      if (R.below(2)) {
        OS << "q = p->next;\n";
        indent(Level);
        OS << "if (q " << (R.below(2) ? "==" : "!=") << " 0) {\n";
      } else {
        OS << "if (p->next " << (R.below(2) ? "==" : "!=") << " 0) {\n";
      }
      body(Level, LoopDepth, IfDepth);
      elseBody(Level, LoopDepth, IfDepth);
      return;
    case Call:
      OS << "if (" << var() << " > " << var() << ") {\n";
      indent(Level + 1);
      OS << "x = f" << R.below(Shape.Functions) << "(p, y, " << lit()
         << ");\n";
      indent(Level);
      OS << "}\n";
      return;
    case Return:
      OS << "if (" << var() << " == " << lit() << ") {\n";
      indent(Level + 1);
      OS << "return " << expr(1) << ";\n";
      indent(Level);
      OS << "}\n";
      return;
    case Guard: {
      const char *V = var();
      OS << "if (" << V << " != " << var() << ") {\n";
      indent(Level + 1);
      OS << "z = " << V << " + " << lit() << ";\n";
      body(Level, LoopDepth, IfDepth);
      indent(Level);
      OS << "}\n";
      return;
    }
    case Store:
      OS << "g_arr[" << var() << " & 63] = " << expr(1) << ";\n";
      return;
    case LoopIn:
      OS << "if (" << var() << " > " << lit() << ") {\n";
      indent(Level + 1);
      forLoop(Level + 1, LoopDepth, IfDepth);
      indent(Level);
      OS << "}\n";
      return;
    case ForLoop:
      forLoop(Level, LoopDepth, IfDepth);
      return;
    case Walk:
      OS << "q = p;\n";
      indent(Level);
      OS << "while (q != 0) {\n";
      indent(Level + 1);
      OS << "x = x + q->val;\n";
      indent(Level + 1);
      OS << "q = q->next;\n";
      indent(Level);
      OS << "}\n";
      return;
    case DoWhile:
      OS << "do {\n";
      body(Level, LoopDepth + 1, IfDepth);
      indent(Level + 1);
      OS << "w = w - 1;\n";
      indent(Level);
      OS << "} while (w > 0);\n";
      return;
    case Assign:
    case NumIdioms:
      OS << var() << " = " << expr(2) << ";\n";
      return;
    }
  }

  void forLoop(unsigned Level, unsigned LoopDepth, unsigned IfDepth) {
    const std::string I = "i" + std::to_string(LoopDepth);
    OS << "for (" << I << " = 0; " << I << " < " << (2 + lit()) << "; "
       << I << " = " << I << " + 1) {\n";
    const unsigned N = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned S = 0; S < N; ++S)
      stmt(Level + 1, LoopDepth + 1, IfDepth);
    indent(Level);
    OS << "}\n";
  }

  void elseBody(unsigned Level, unsigned LoopDepth, unsigned IfDepth) {
    indent(Level);
    if (R.below(2)) {
      OS << "} else {\n";
      body(Level, LoopDepth, IfDepth);
      indent(Level);
    }
    OS << "}\n";
  }

  bpfree::Rng R;
  ProgramShape Shape;
  unsigned Weights[NumIdioms] = {};
  uint64_t TotalWeight = 0;
  int Budget = 0; ///< statements left in the current function
  std::ostringstream OS;
};

} // namespace


unsigned perfbench::corpusSize() { return GridPoints * Sweeps; }

std::string perfbench::generateProgram(uint64_t Seed, unsigned Index) {
  return Generator(Seed, Index).program();
}
