//===- perfbench/src/main.cpp - End-to-end benchmark runner ---------------===//
//
// Part of the bpfree project (Ball & Larus, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints its metrics:
///
///   perfbench --workload paper-eval|trace-lab|static-predict --seed N
///             --seconds S --trace 0|1 --out DIR [--inject LAYER=FRACTION]
///   perfbench --print-program SEED INDEX
///
/// Set-up is the one-time registry build, the median of three repeats of
/// the seeded input draw, and one warm-up pass. Timed passes then repeat
/// while the next one fits in S seconds (at least three). A calibration leg runs
/// before set-up and after set-up and every pass; setup_s and pass_s (the
/// median pass) are wall times normalized by the legs around them. With
/// --trace 0 the last line of standard output holds
/// the end-to-end metrics; with --trace 1 the same passes run with spans
/// recorded around every call into the program, and the last line holds
/// the per-layer ledger derived from them. Every pass checks the
/// program's outputs; a failed check fails its operation, and any failed
/// operation makes the exit status 1.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>

using namespace perfbench;

OpCounts &perfbench::opCounts() {
  static OpCounts C;
  return C;
}

Op::~Op() {
  OpCounts &C = opCounts();
  C.Attempted.fetch_add(1);
  if (Failed)
    C.Failed.fetch_add(1);
}

bool Op::expect(bool Ok, const std::string &What) {
  if (Ok)
    return true;
  if (!Failed && opCounts().Reported.fetch_add(1) < 20)
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", Label.c_str(),
                 What.c_str());
  Failed = true;
  return false;
}

unsigned perfbench::benchJobs() {
  const unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

namespace {

std::string RunDir;

/// Wall time the calibration leg takes on a quiet reference host (the
/// 4-core Xeon the benchmark was tuned on). Normalized times are scaled
/// to it.
constexpr double CalibrationNominalS = 0.25;

/// The calibration leg: a fixed amount of the benchmark's own work on
/// benchJobs() threads — random read-modify-writes in a 1 MiB table per
/// thread and a streaming sum over 8 MiB — sharing none of the program's
/// code. On a host whose speed drifts (other tenants, frequency scaling)
/// the leg slows with the program, so pass time divided by the adjacent
/// legs' time is far steadier than pass time alone. \returns seconds.
double calibrationLeg() {
  const Clock::time_point T0 = Clock::now();
  std::atomic<uint64_t> Sink{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < benchJobs(); ++T)
    Threads.emplace_back([&Sink, T] {
      constexpr size_t TableMask = (1u << 18) - 1;
      std::vector<uint32_t> Table(TableMask + 1);
      std::vector<uint64_t> Stream(1u << 20);
      for (size_t I = 0; I < Table.size(); ++I)
        Table[I] = static_cast<uint32_t>(I * 2654435761u);
      for (size_t I = 0; I < Stream.size(); ++I)
        Stream[I] = I ^ T;
      uint64_t X = 0x9E3779B97F4A7C15ull + T, Acc = 0;
      for (int Round = 0; Round < 8; ++Round) {
        for (uint64_t I = 0; I < 2'500'000; ++I) {
          X ^= X << 13;
          X ^= X >> 7;
          X ^= X << 17;
          const uint32_t V = Table[X & TableMask];
          Acc = (V & 1) ? Acc + V : Acc ^ (V >> 3);
          Table[(X >> 20) & TableMask] = static_cast<uint32_t>(Acc);
        }
        for (uint64_t V : Stream)
          Acc += V;
      }
      Sink.fetch_add(Acc);
    });
  for (std::thread &Th : Threads)
    Th.join();
  return secondsSince(T0);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR [--inject LAYER=FRACTION]\n"
               "       perfbench --print-program SEED INDEX\n"
               "workloads: paper-eval, trace-lab, static-predict\n");
  return 2;
}

} // namespace

const std::string &perfbench::scratchDir() { return RunDir; }

double LayerInputs::wallPerPass(const std::string &Name) const {
  auto It = Spans.find(Name);
  return It == Spans.end() || Passes == 0 ? 0.0 : It->second.WallS / Passes;
}

double LayerInputs::layerSelfPerPass(const std::string &Layer) const {
  double S = 0.0;
  for (const auto &[Name, T] : Spans)
    if (Name.compare(0, Layer.size() + 1, Layer + ".") == 0)
      S += T.SelfS;
  return Passes == 0 ? 0.0 : S / Passes;
}

uint64_t LayerInputs::units(const std::string &Name) const {
  auto It = Units.find(Name);
  return It == Units.end() ? 0 : It->second;
}

double LayerInputs::nsPer(const std::string &Span,
                          const std::string &Unit) const {
  const uint64_t U = units(Unit);
  return U == 0 ? 0.0 : wallPerPass(Span) * 1e9 / static_cast<double>(U);
}

void perfbench::layerMetrics(const LayerInputs &In, double TracedPassS,
                             double CalibrationS, std::vector<Metric> &Out) {
  auto MbPerS = [&](const char *Bytes, const char *Span) {
    const double S = In.wallPerPass(Span);
    return S == 0.0 ? 0.0 : static_cast<double>(In.units(Bytes)) / 1e6 / S;
  };
  auto Count = [&](const char *U) {
    return static_cast<double>(In.units(U));
  };
  const double Scored = Count("ipbc.resident_event_preds") +
                        Count("ipbc.disk_event_preds") +
                        Count("ipbc.dynamic_event_members");
  const Metric All[] = {
      {"frontend.compile_s", In.wallPerPass("frontend.compile"), "s"},
      {"frontend.ns_per_src_byte",
       In.nsPer("frontend.compile", "frontend.src_bytes"), "ns/B"},
      {"frontend.self_s", In.layerSelfPerPass("frontend"), "s"},
      {"ir.instrs", Count("ir.instrs"), "count"},
      {"ir.round_trip_ns_per_byte", In.nsPer("ir.round_trip", "ir.text_bytes"),
       "ns/B"},
      {"ir.self_s", In.layerSelfPerPass("ir"), "s"},
      {"analysis.ctx_s", In.wallPerPass("analysis.ctx"), "s"},
      {"analysis.ns_per_block", In.nsPer("analysis.ctx", "analysis.blocks"),
       "ns/block"},
      {"analysis.self_s", In.layerSelfPerPass("analysis"), "s"},
      {"predict.ns_per_branch",
       In.nsPer("predict.predict", "predict.predicted"), "ns"},
      {"predict.stats_s", In.wallPerPass("predict.stats"), "s"},
      {"predict.order_sweep_ns_per_order",
       In.nsPer("predict.order_sweep", "predict.orders"), "ns"},
      {"predict.directions_s", In.wallPerPass("predict.directions"), "s"},
      {"predict.self_s", In.layerSelfPerPass("predict"), "s"},
      {"vm.decode_s", In.wallPerPass("vm.decode"), "s"},
      {"vm.profile_ns_per_instr", In.nsPer("vm.profile", "vm.instrs"),
       "ns/instr"},
      {"vm.capture_ns_per_event", In.nsPer("vm.capture", "vm.events"),
       "ns/event"},
      {"vm.instrs", Count("vm.instrs"), "count"},
      {"vm.events", Count("vm.events"), "count"},
      {"vm.store_write_mb_per_s", MbPerS("vm.store_bytes", "vm.store_write"),
       "MB/s"},
      {"vm.store_open_mb_per_s",
       MbPerS("vm.store_open_bytes", "vm.store_open"), "MB/s"},
      {"vm.self_s", In.layerSelfPerPass("vm"), "s"},
      {"ipbc.static_resident_ns_per_event_pred",
       In.nsPer("ipbc.static_resident", "ipbc.resident_event_preds"), "ns"},
      {"ipbc.static_disk_ns_per_event_pred",
       In.nsPer("ipbc.static_disk", "ipbc.disk_event_preds"), "ns"},
      {"ipbc.dynamic_ns_per_event_member",
       In.nsPer("ipbc.dynamic", "ipbc.dynamic_event_members"), "ns"},
      {"ipbc.char_ns_per_event", In.nsPer("ipbc.char", "ipbc.char_events"),
       "ns"},
      {"ipbc.char_site_join_s", In.wallPerPass("ipbc.char_site_join"), "s"},
      {"ipbc.char_dynamic_join_s", In.wallPerPass("ipbc.char_dynamic_join"),
       "s"},
      {"ipbc.self_s", In.layerSelfPerPass("ipbc"), "s"},
      {"workloads.registry_s", In.RegistryS, "s"},
      {"workloads.self_s", In.layerSelfPerPass("workloads"), "s"},
      {"bench.oracle_s", In.wallPerPass("bench.oracle"), "s"},
      {"predicted_kbranches_per_s",
       Count("predict.branches") / 1e3 / TracedPassS, "kbranches/s"},
      {"sim_minstr_per_s", Count("vm.instrs") / 1e6 / TracedPassS,
       "Minstr/s"},
      {"scored_mevents_per_s", Scored / 1e6 / TracedPassS, "Mevent-pred/s"},
      {"store_mb", Count("vm.store_bytes") / 1e6, "MB"},
      {"traced_pass_s", TracedPassS, "s"},
      {"calibration_s", CalibrationS, "s"},
  };
  Out.insert(Out.end(), std::begin(All), std::end(All));
}

int main(int argc, char **argv) {
  std::string Workload, OutDir, InjectLayer;
  uint64_t Seed = 0;
  double Seconds = 0.0, InjectFraction = 0.0;
  int Trace = -1;
  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    const bool HasValue = I + 1 < argc;
    if (A == "--print-program" && I + 2 < argc) {
      const uint64_t S = std::strtoull(argv[I + 1], nullptr, 10);
      const unsigned Index =
          static_cast<unsigned>(std::strtoul(argv[I + 2], nullptr, 10));
      if (Index >= corpusSize()) {
        std::fprintf(stderr, "perfbench: program index must be below %u\n",
                     corpusSize());
        return 2;
      }
      std::cout << generateProgram(S, Index);
      return 0;
    }
    if (!HasValue)
      return usage();
    const std::string V = argv[++I];
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      Seconds = std::strtod(V.c_str(), nullptr);
    } else if (A == "--trace") {
      Trace = V == "1" ? 1 : V == "0" ? 0 : -1;
    } else if (A == "--out") {
      OutDir = V;
    } else if (A == "--inject") {
      const size_t Eq = V.find('=');
      if (Eq == std::string::npos)
        return usage();
      InjectLayer = V.substr(0, Eq);
      InjectFraction = std::strtod(V.c_str() + Eq + 1, nullptr);
    } else {
      return usage();
    }
  }

  std::unique_ptr<BenchWorkload> W;
  if (Workload == "paper-eval")
    W = makePaperEval();
  else if (Workload == "trace-lab")
    W = makeTraceLab();
  else if (Workload == "static-predict")
    W = makeStaticPredict();
  if (!W || Trace < 0 || Seconds <= 0.0 || OutDir.empty())
    return usage();

  RunDir = OutDir + "/run-" + std::to_string(getpid());
  std::error_code EC;
  std::filesystem::create_directories(RunDir, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", RunDir.c_str());
    return 1;
  }
  setInjection(InjectLayer, InjectFraction);

  // Set-up: the registry once, the seeded draw three times, one warm-up
  // pass. The warm-up also teaches paper-eval its job costs for
  // longest-first scheduling. Calibration legs bracket set-up and every
  // pass; the end-to-end times are normalized by the legs around them.
  std::vector<double> CalS{calibrationLeg()};
  const double RegistryS = W->buildOnce();
  std::vector<double> PlanS;
  for (int R = 0; R < 3; ++R) {
    const Clock::time_point T0 = Clock::now();
    W->plan(Seed);
    PlanS.push_back(secondsSince(T0));
  }
  Ledger Warm;
  const Clock::time_point W0 = Clock::now();
  W->pass(Warm);
  const double SetupWallS = RegistryS + median(PlanS) + secondsSince(W0);
  CalS.push_back(calibrationLeg());
  const double SetupS =
      SetupWallS * CalibrationNominalS / (0.5 * (CalS[0] + CalS[1]));
  const std::map<std::string, uint64_t> WarmUnits = Warm.snapshot();

  setTracing(Trace == 1);
  std::vector<double> PassS, NormPassS;
  Ledger L;
  // Passes run while the next one (estimated by the last one and its
  // calibration leg) still ends within the S seconds; at least three.
  const Clock::time_point Start = Clock::now();
  double LastS = 0.0;
  while (PassS.size() < 3 || secondsSince(Start) + LastS <= Seconds) {
    const Clock::time_point P0 = Clock::now();
    setPass(static_cast<uint32_t>(PassS.size() + 1));
    L.clear();
    const Clock::time_point T0 = Clock::now();
    W->pass(L);
    PassS.push_back(secondsSince(T0));
    setPass(0);
    CalS.push_back(calibrationLeg());
    const double Cal = 0.5 * (CalS[CalS.size() - 2] + CalS.back());
    NormPassS.push_back(PassS.back() * CalibrationNominalS / Cal);
    std::fprintf(stderr,
                 "perfbench: pass %zu: %.4f s wall, calibration %.4f s, "
                 "normalized %.4f s\n",
                 PassS.size(), PassS.back(), Cal, NormPassS.back());
    Op O("pass work units");
    O.expect(L.snapshot() == WarmUnits,
             "a pass counted different work than the warm-up pass");
    LastS = secondsSince(P0);
  }
  setTracing(false);

  std::vector<Metric> Metrics;
  if (Trace == 0) {
    const double Pass = median(NormPassS);
    Metrics.push_back({"setup_s", SetupS, "s"});
    Metrics.push_back({"pass_s", Pass, "s"});
    Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  } else {
    LayerInputs In;
    In.Spans = spanTotals();
    In.Units = L.snapshot();
    In.Passes = static_cast<uint32_t>(PassS.size());
    In.RegistryS = RegistryS;
    layerMetrics(In, median(PassS), median(CalS), Metrics);
    const std::string SpansPath =
        OutDir + "/spans-" + Workload + "-seed" + std::to_string(Seed) +
        ".json";
    if (!writeSpans(SpansPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpansPath.c_str());
    else
      std::fprintf(stderr, "perfbench: spans written to %s\n",
                   SpansPath.c_str());
  }
  std::filesystem::remove_all(RunDir, EC);

  const uint64_t Attempted = opCounts().Attempted.load();
  const uint64_t Failed = opCounts().Failed.load();
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu timed passes, %s\n",
               Workload.c_str(), static_cast<unsigned long long>(Seed),
               PassS.size(), Failed ? "CHECKS FAILED" : "all checks passed");
  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted) +
          ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.12g", Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::cout << Json << std::endl;
  return Failed == 0 ? 0 : 1;
}
