//===- perfbench/src/Tracer.cpp - Spans around calls into each layer ------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

using namespace perfbench;

namespace {

std::atomic<bool> TracingOn{false};
std::atomic<uint32_t> CurrentPass{0};
std::string InjectLayer;
double InjectFraction = 0.0;
const Clock::time_point Epoch = Clock::now();

std::mutex SpansMu;
std::vector<SpanRecord> Recorded; // guarded by SpansMu
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextThread{0};

thread_local std::vector<uint64_t> OpenStack;
thread_local uint32_t ThreadNo = NextThread.fetch_add(1);

uint64_t nsSinceEpoch(Clock::time_point T) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
          .count());
}

bool injectsInto(const char *Name) {
  if (InjectLayer.empty())
    return false;
  const size_t N = InjectLayer.size();
  return std::strncmp(Name, InjectLayer.c_str(), N) == 0 && Name[N] == '.';
}

} // namespace

void perfbench::setTracing(bool On) { TracingOn.store(On); }

void perfbench::setInjection(const std::string &Layer, double Fraction) {
  InjectLayer = Layer;
  InjectFraction = Fraction;
}

void perfbench::setPass(uint32_t Pass) { CurrentPass.store(Pass); }

LayerScope::LayerScope(const char *Name, uint64_t ParentHint) : Name(Name) {
  const bool Trace = TracingOn.load(std::memory_order_relaxed);
  Inject = injectsInto(Name);
  Timed = Trace || Inject;
  if (Trace) {
    Id = NextId.fetch_add(1, std::memory_order_relaxed);
    Parent = OpenStack.empty() ? ParentHint : OpenStack.back();
    OpenStack.push_back(Id);
  }
  if (Timed)
    Start = Clock::now();
}

LayerScope::~LayerScope() {
  if (!Timed)
    return;
  Clock::time_point End = Clock::now();
  if (Inject) {
    const auto Spin = std::chrono::duration_cast<Clock::duration>(
        (End - Start) * InjectFraction);
    const Clock::time_point Until = End + Spin;
    while (Clock::now() < Until) {
    }
    End = Clock::now();
  }
  if (Id == 0)
    return;
  OpenStack.pop_back();
  SpanRecord R;
  R.Name = Name;
  R.Id = Id;
  R.Parent = Parent;
  R.StartNs = nsSinceEpoch(Start);
  R.EndNs = nsSinceEpoch(End);
  R.Thread = ThreadNo;
  R.Pass = CurrentPass.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(SpansMu);
  Recorded.push_back(std::move(R));
}

std::vector<SpanRecord> perfbench::spans() {
  std::lock_guard<std::mutex> Lock(SpansMu);
  return Recorded;
}

std::map<std::string, SpanTotals> perfbench::spanTotals() {
  const std::vector<SpanRecord> All = spans();
  // Time covered by each span's direct children on its own thread. A
  // child on another thread (fanned-out work) runs alongside its parent
  // and does not cover any of the parent's own time.
  std::unordered_map<uint64_t, const SpanRecord *> ById;
  for (const SpanRecord &S : All)
    ById[S.Id] = &S;
  std::unordered_map<uint64_t, uint64_t> ChildNs;
  for (const SpanRecord &S : All) {
    auto It = ById.find(S.Parent);
    if (It != ById.end() && It->second->Thread == S.Thread)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  }
  std::map<std::string, SpanTotals> Totals;
  for (const SpanRecord &S : All) {
    if (S.Pass == 0)
      continue;
    SpanTotals &T = Totals[S.Name];
    const uint64_t Wall = S.EndNs - S.StartNs;
    const uint64_t Child = ChildNs.count(S.Id) ? ChildNs[S.Id] : 0;
    T.WallS += static_cast<double>(Wall) * 1e-9;
    T.SelfS += static_cast<double>(Wall > Child ? Wall - Child : 0) * 1e-9;
  }
  return Totals;
}

bool perfbench::writeSpans(const std::string &Path) {
  const std::vector<SpanRecord> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const SpanRecord &S = All[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"pass\": %u}}%s\n",
                 S.Name.c_str(), S.Thread, S.StartNs * 1e-3,
                 (S.EndNs - S.StartNs) * 1e-3,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Pass,
                 I + 1 < All.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
