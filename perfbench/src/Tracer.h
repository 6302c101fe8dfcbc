//===- perfbench/src/Tracer.h - Spans around calls into each layer --------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span recorder. Every call the benchmark makes into
/// a module of the program is wrapped in a LayerScope named
/// "<layer>.<operation>" (frontend.compile, vm.profile, ipbc.static_disk,
/// ...). With tracing on, each scope records a span — name, start, end,
/// parent span, thread — into memory; the spans are written out once, at
/// exit. A layer's self time is the time its spans cover minus the time
/// their child spans cover.
///
/// With tracing off a scope costs nothing unless a slowdown is being
/// injected into its layer: then it times the call and spins for the
/// chosen fraction of that time afterwards, which slows exactly that
/// layer without any change to the program (the sensitivity check in
/// steadiness.py).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One completed span. Times are nanoseconds since the tracer started.
struct SpanRecord {
  std::string Name; ///< "<layer>.<operation>"
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Thread = 0;
  uint32_t Pass = 0; ///< timed pass the span belongs to (0 = set-up)
};

/// Turns span recording on or off (off by default).
void setTracing(bool On);

/// Injects a spin of \p Fraction of each call's own duration after every
/// call into \p Layer ("vm", "ipbc", ...). Empty layer: no injection.
void setInjection(const std::string &Layer, double Fraction);

/// Tags the spans recorded from now on with timed-pass number \p Pass.
void setPass(uint32_t Pass);

/// RAII span around one call into a layer. Nested scopes on the same
/// thread become children; a scope opened on a pool worker with no open
/// scope of its own takes \p ParentHint (the id of the scope that fanned
/// the work out) as its parent.
class LayerScope {
public:
  LayerScope(const char *Name, uint64_t ParentHint = 0);
  ~LayerScope();
  LayerScope(const LayerScope &) = delete;
  LayerScope &operator=(const LayerScope &) = delete;

  /// This span's id (0 when nothing is recorded), for ParentHint.
  uint64_t id() const { return Id; }

private:
  const char *Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  bool Timed = false;
  bool Inject = false;
  Clock::time_point Start;
};

/// Every recorded span, in completion order.
std::vector<SpanRecord> spans();

/// Per-name totals over the spans of timed passes: wall time covered
/// and self time (wall minus the time covered by direct children).
struct SpanTotals {
  double WallS = 0.0;
  double SelfS = 0.0;
};
std::map<std::string, SpanTotals> spanTotals();

/// Writes the spans as Chrome trace_event JSON (one complete event per
/// span, with its id and parent id in args). \returns false when the
/// file cannot be written.
bool writeSpans(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
