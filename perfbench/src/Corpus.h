//===- perfbench/src/Corpus.h - Seeded MiniC corpus generator -------------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the MiniC programs the static-predict workload compiles and
/// predicts. Dominator and loop analysis cost depends on CFG shape, so
/// the corpus walks a fixed grid of shapes — function count, statements
/// (and so blocks) per function, loop nesting depth — one grid point per
/// program. The seed draws everything else: each program's mix of
/// branch idioms (null-pointer tests, sign tests, guarded calls, stores
/// and early returns, loop entries), its expressions and its literals.
/// The grid keeps the corpus's total size nearly the same for every
/// seed; the idiom mix makes all seven Ball-Larus heuristics apply.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Generates program \p Index of the corpus drawn from \p Seed.
std::string generateProgram(uint64_t Seed, unsigned Index);

/// Number of programs in one corpus (a whole number of grid sweeps).
unsigned corpusSize();

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
