//===- perfbench/pdgc_perfbench.cpp - End-to-end benchmark measurer --------===//
//
// Part of the PDGC project.
//
// The measuring half of the end-to-end benchmark (run.py is the
// orchestrating half). It makes the workload's inputs from a seed, runs the
// timed closed loop, gates every item for correctness, and prints one JSON
// object of raw samples on stdout; run.py turns those into metrics.
//
//   pdgc-perfbench local  --workload=suite|mega --seed=N --seconds=S
//                         [--trace=0|1]
//   pdgc-perfbench client --port=P --seed=N --seconds=S [--trace=0|1]
//
// `local` allocates in this process on one thread. `client` drives a running
// pdgc-serve over loopback with Conns closed-loop connections.
//
// The functions are specJvmLikeSuites() and megaFunctionProfile() (at four
// budgets) exactly, for every seed; the seed orders them: a seeded
// permutation of the suite, a seeded rotation of the mega pass. Re-drawing
// the generator seeds instead moved suite p50 by 24% and its simulated
// cost by 13% between seeds (5 draws), and a 10^4-vreg function's time by
// up to 70%, far beyond any bound a regression check could use.
//
// Every layer is measured from outside, around calls into public
// functions. With --trace=1 the timed items (client: each connection's
// requests) alternate untraced and traced, so the tracing overhead is
// measured under the same host drift, and one extra replay pass times the
// pipeline's pieces separately for every item.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "core/ColoringPrecedenceGraph.h"
#include "core/PDGCRegistration.h"
#include "core/RegisterPreferenceGraph.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/PhiElimination.h"
#include "ir/Verifier.h"
#include "machine/TargetDesc.h"
#include "regalloc/AllocatorRegistry.h"
#include "regalloc/AssignmentChecker.h"
#include "regalloc/Driver.h"
#include "regalloc/Simplifier.h"
#include "server/Client.h"
#include "sim/CostSimulator.h"
#include "sim/Interpreter.h"
#include "support/Stats.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace pdgc;

namespace {

using Clock = std::chrono::steady_clock;

/// The tier every item must be served by; anything else is a failure.
constexpr const char *RequestedTier = "full-preferences";
/// Registers per class of the benchmark target (pdgc-serve's default).
constexpr unsigned TargetRegs = 24;
/// Set-up (generation + printing) is repeated this often; run.py reports
/// the median.
constexpr unsigned SetupReps = 3;
/// Mega-profile fragment budgets: the four size classes, smallest first.
constexpr unsigned MegaBudgets[] = {300, 600, 1200, 2400};
/// Copies of each mega class per pass, so each class gets a similar share
/// of the time and the smallest enough samples for a tail percentile.
constexpr unsigned MegaCopies[] = {16, 4, 2, 1};
/// Serve traffic: request K is the big function when K % BigEvery ==
/// BigEvery - 1.
constexpr unsigned BigEvery = 40;
/// Closed-loop connections of the client, one thread each.
constexpr unsigned Conns = 4;
/// Keys of one host-speed probe, and the work between probes (local).
constexpr std::uint32_t ProbeKeys = 32768;
constexpr auto ProbeEvery = std::chrono::milliseconds(200);
/// The client's timed window runs in segments of this length. Between two
/// segments every connection has its answer, so the probes taken there see
/// an idle daemon and measure the host, not the daemon's use of it.
constexpr double ClientSegmentS = 1.0;
/// Probes taken in each pause: between client segments, and after each
/// set-up repetition (set-up is short, and single probes are noisy).
constexpr unsigned ProbesPerPause = 4;

const Clock::time_point Epoch = Clock::now();

double sinceEpochUs(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(T - Epoch).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

std::uint64_t splitmix(std::uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// A permutation of [0, N) drawn from \p Seed (Fisher-Yates on splitmix).
std::vector<int> seededOrder(std::size_t N, std::uint64_t Seed) {
  std::vector<int> Order(N);
  for (std::size_t I = 0; I != N; ++I)
    Order[I] = static_cast<int>(I);
  std::uint64_t State = splitmix(Seed);
  for (std::size_t I = N; I > 1; --I) {
    State = splitmix(State);
    std::swap(Order[I - 1], Order[State % I]);
  }
  return Order;
}

std::atomic<std::uint64_t> ProbeSink{0};

/// One host-speed probe, in milliseconds. A shared host's speed drifts by
/// up to 1.6x over seconds to minutes as other tenants come and go, and
/// thread CPU time drifts with it. The probe is fixed work with the
/// allocator's mix of branches and scattered memory (a sort and a hash table
/// over 32k keys); run.py scales times by the ratio of a reference probe
/// time to the median of the probes taken near them, which cancels much of
/// the drift.
double probeMs() {
  // Fixed buffers, so no heap traffic: any allocation of the benchmark's
  // own between the allocator's can change the heap layout and with it the
  // measured peak RSS (a growing vector of probe times between two warm-up
  // passes raised mega's from 96 to 123 MB).
  constexpr std::uint32_t Empty = ~0u, Mask = 2 * ProbeKeys - 1;
  static std::vector<std::uint32_t> Keys(ProbeKeys), Slots(Mask + 1),
      Counts(Mask + 1);
  const Clock::time_point T0 = Clock::now();
  std::uint64_t X = 0x5EED;
  for (std::uint32_t &K : Keys)
    K = static_cast<std::uint32_t>(X = splitmix(X));
  std::sort(Keys.begin(), Keys.end());
  std::fill(Slots.begin(), Slots.end(), Empty);
  for (std::uint32_t I = 0; I != ProbeKeys; ++I) {
    const std::uint32_t K = Keys[I] & 0xFFFF;
    std::uint32_t H = (K * 0x9E3779B1u) & Mask;
    while (Slots[H] != Empty && Slots[H] != K)
      H = (H + 1) & Mask;
    Counts[H] = Slots[H] == K ? Counts[H] + I : I;
    Slots[H] = K;
  }
  std::uint64_t Sum = 0;
  for (std::uint32_t H = 0; H <= Mask; ++H)
    if (Slots[H] != Empty)
      Sum += Counts[H];
  ProbeSink.fetch_add(Sum, std::memory_order_relaxed);
  return msBetween(T0, Clock::now());
}

/// Appends ProbesPerPause host-speed probes to \p Probes.
void probePause(std::vector<double> &Probes) {
  for (unsigned P = 0; P != ProbesPerPause; ++P)
    Probes.push_back(probeMs());
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

std::string numList(const std::vector<double> &Vs) {
  std::string J = "[";
  for (std::size_t I = 0; I < Vs.size(); ++I)
    J += (I ? "," : "") + num(Vs[I]);
  return J + "]";
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

long peakRssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atol(Line.c_str() + 6);
  return 0;
}

//===----------------------------------------------------------------------===//
// Spans: kept in memory, printed with the result.
//===----------------------------------------------------------------------===//

class SpanLog {
public:
  struct Span {
    const char *Name;
    double StartUs, EndUs;
    int Parent;
    int Item;
  };

  explicit SpanLog(bool On) : Enabled(On) {
    if (Enabled)
      Spans.reserve(1 << 16);
  }

  /// Appends \p Other's spans, keeping their parent links.
  void append(const SpanLog &Other) {
    const int Base = static_cast<int>(Spans.size());
    for (Span S : Other.Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Spans.push_back(S);
    }
  }

  int begin(const char *Name, int Item) {
    if (!Enabled)
      return -1;
    const int Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({Name, sinceEpochUs(Clock::now()), 0.0, Parent, Item});
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }

  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].EndUs = sinceEpochUs(Clock::now());
    Open.pop_back();
  }

  bool Enabled;
  std::vector<Span> Spans;

private:
  std::vector<int> Open;
};

class ScopedSpan {
public:
  ScopedSpan(SpanLog &L, const char *Name, int Item)
      : Log(L), Id(L.begin(Name, Item)) {}
  ~ScopedSpan() { Log.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int Id;
};

std::string spansJson(const SpanLog &L) {
  std::string J = "[";
  for (std::size_t I = 0; I < L.Spans.size(); ++I) {
    const SpanLog::Span &S = L.Spans[I];
    if (I)
      J += ",";
    J += "[" + quoted(S.Name) + "," + num(S.StartUs) + "," + num(S.EndUs) +
         "," + std::to_string(S.Parent) + "," + std::to_string(S.Item) + "]";
  }
  return J + "]";
}

std::string countersJson(const StatsSnapshot &Diff) {
  std::string J = "{";
  for (std::size_t I = 0; I < Diff.Counters.size(); ++I) {
    if (I)
      J += ",";
    J += quoted(Diff.Counters[I].first) + ":" +
         std::to_string(Diff.Counters[I].second);
  }
  return J + "}";
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Item {
  std::string Name;
  unsigned Class = 0; ///< Size class, 0 = smallest.
  unsigned VRegs = 0; ///< Input (SSA) virtual registers.
  std::unique_ptr<Function> Master;
  std::string Text;
  std::vector<std::int64_t> Args;
  ExecutionResult Reference; ///< runVirtual on the input.

  // The gated reference outcome every later allocation must reproduce.
  bool Gated = false;
  std::vector<int> Assignment;
  std::string AssignText; ///< As pdgc-serve renders it.
  double SimCost = 0;
  unsigned Spills = 0, Moves = 0, Rounds = 0, SpilledRanges = 0;
};

std::vector<GeneratorParams> workloadParams(const std::string &Workload,
                                            std::vector<unsigned> &Classes) {
  std::vector<GeneratorParams> Out;
  if (Workload == "mega") {
    for (unsigned C = 0; C != std::size(MegaBudgets); ++C) {
      GeneratorParams P = megaFunctionProfile();
      P.FragmentBudget = MegaBudgets[C];
      P.Name = "mega_b" + std::to_string(MegaBudgets[C]);
      Out.push_back(P);
      Classes.push_back(C);
    }
    return Out;
  }
  for (const WorkloadSuite &S : specJvmLikeSuites())
    for (const GeneratorParams &P : S.Functions) {
      Out.push_back(P);
      Classes.push_back(0);
    }
  if (Workload == "serve") {
    // One mega-profile function of the smallest size rides along.
    GeneratorParams P = megaFunctionProfile();
    P.FragmentBudget = MegaBudgets[0];
    P.Name = "mega_b" + std::to_string(MegaBudgets[0]);
    Out.push_back(P);
    Classes.push_back(1);
  }
  return Out;
}

/// Generates and prints every input SetupReps times, with host-speed probes
/// after each repetition; returns the per-repetition seconds and keeps the
/// last repetition's items.
std::vector<double> makeItems(const std::string &Workload,
                              const TargetDesc &Target,
                              std::vector<Item> &Items,
                              std::vector<double> &SetupProbes) {
  std::vector<double> Secs;
  for (unsigned R = 0; R != SetupReps; ++R) {
    const Clock::time_point T0 = Clock::now();
    std::vector<unsigned> Classes;
    std::vector<GeneratorParams> Params = workloadParams(Workload, Classes);
    std::vector<Item> Fresh(Params.size());
    for (std::size_t I = 0; I != Params.size(); ++I) {
      Item &It = Fresh[I];
      It.Name = Params[I].Name;
      It.Class = Classes[I];
      It.Master = generateFunction(Params[I], Target);
      It.VRegs = It.Master->numVRegs();
      It.Text = printFunction(*It.Master);
    }
    Secs.push_back(msBetween(T0, Clock::now()) / 1000.0);
    Items = std::move(Fresh);
    probePause(SetupProbes);
  }
  for (Item &It : Items) {
    for (unsigned I = 0, E = It.Master->numParams(); I != E; ++I)
      It.Args.push_back(static_cast<std::int64_t>(I) * 7 + 3);
    It.Reference = runVirtual(*It.Master, It.Args);
  }
  return Secs;
}

std::string renderAssignment(const std::vector<int> &A,
                             const TargetDesc &Target) {
  std::string Out;
  for (unsigned V = 0; V != A.size(); ++V)
    if (A[V] >= 0)
      Out += "v" + std::to_string(V) + " -> " +
             Target.regName(static_cast<PhysReg>(A[V])) + "\n";
  return Out;
}

/// The full correctness gate for one allocation of \p It: served by the
/// requested tier, checker-valid, and interpreter-equal to the reference.
/// On success the outcome becomes the item's reference for later passes.
bool fullGate(Item &It, int Idx, const Function &Final,
              const AllocationOutcome &Out, const TargetDesc &Target,
              SpanLog &Log, std::string &Why) {
  if (Out.Degradation.Degraded || Out.Degradation.ServedBy != RequestedTier) {
    Why = "served by '" + Out.Degradation.ServedBy + "'";
    return false;
  }
  int Id = Log.begin("regalloc.checker", Idx);
  std::vector<std::string> Errors =
      checkAssignment(Final, Target, Out.Assignment);
  Log.end(Id);
  if (!Errors.empty()) {
    Why = "checker: " + Errors.front();
    return false;
  }
  if (!It.Reference.Completed) {
    Why = "reference interpreter run did not complete";
    return false;
  }
  Id = Log.begin("sim.interp", Idx);
  const bool Same =
      runAllocated(Final, Target, Out.Assignment, It.Args) == It.Reference;
  Log.end(Id);
  if (!Same) {
    Why = "allocated code computes a different result";
    return false;
  }
  It.Gated = true;
  It.Assignment = Out.Assignment;
  It.AssignText = renderAssignment(Out.Assignment, Target);
  Id = Log.begin("sim.cost", Idx);
  It.SimCost = simulateCost(Final, Target, Out.Assignment).total();
  Log.end(Id);
  It.Spills = Out.SpillInstructions;
  It.Moves = Out.remainingMoves();
  It.Rounds = Out.Rounds;
  It.SpilledRanges = Out.SpilledRanges;
  return true;
}

struct Failure {
  std::string Item, Why;
};

std::string resultHead(const char *Mode, const std::string &Workload,
                       std::uint64_t Seed, const std::vector<Item> &Items,
                       const std::vector<double> &GenSecs,
                       const std::vector<double> &SetupProbes) {
  std::string J = "{\"mode\":" + quoted(Mode) +
                  ",\"workload\":" + quoted(Workload) +
                  ",\"seed\":" + std::to_string(Seed) + ",\"items\":[";
  for (std::size_t I = 0; I < Items.size(); ++I) {
    const Item &It = Items[I];
    if (I)
      J += ",";
    J += "{\"name\":" + quoted(It.Name) +
         ",\"class\":" + std::to_string(It.Class) +
         ",\"vregs\":" + std::to_string(It.VRegs) +
         ",\"sim_cost\":" + num(It.SimCost) +
         ",\"spill_insts\":" + std::to_string(It.Spills) +
         ",\"moves_left\":" + std::to_string(It.Moves) +
         ",\"rounds\":" + std::to_string(It.Rounds) +
         ",\"spilled_ranges\":" + std::to_string(It.SpilledRanges) + "}";
  }
  return J + "],\"gen_print_s\":" + numList(GenSecs) +
         ",\"setup_probe_ms\":" + numList(SetupProbes);
}

std::string replayJson(double CpgEdges, double IgEdges, double IgWasted) {
  return "{\"cpg_edges\":" + num(CpgEdges) + ",\"ig_edges\":" + num(IgEdges) +
         ",\"ig_wasted\":" + num(IgWasted) + "}";
}

std::string failuresJson(const std::vector<Failure> &Fs) {
  std::string J = "[";
  for (std::size_t I = 0; I < Fs.size() && I < 20; ++I)
    J += (I ? "," : "") + quoted(Fs[I].Item + ": " + Fs[I].Why);
  return J + "]";
}

//===----------------------------------------------------------------------===//
// local: suite and mega in this process
//===----------------------------------------------------------------------===//

/// Times the pipeline's pieces once for item \p Idx, each around its public
/// entry point. Select has no entry of its own: it is the round minus the
/// simplify/RPG/CPG builds, which run.py derives.
/// \p WithText adds the daemon's text layers: the parse of the request
/// body and the print of the function.
void replayItem(const Item &It, int Idx, const TargetDesc &Target,
                bool WithText, SpanLog &Log, double &CpgEdges,
                double &IgEdges, double &IgWasted) {
  ScopedSpan Root(Log, "replay", Idx);
  std::unique_ptr<Function> F;
  if (WithText) {
    std::string Error;
    {
      ScopedSpan S(Log, "ir.parse", Idx);
      F = parseFunction(It.Text, Error);
    }
    if (!F) {
      std::fprintf(stderr, "pdgc-perfbench: %s does not parse back: %s\n",
                   It.Name.c_str(), Error.c_str());
      std::exit(1);
    }
    ScopedSpan S(Log, "ir.print", Idx);
    std::string Text = printFunction(*F);
    (void)Text;
  } else {
    F = cloneFunction(*It.Master);
  }
  {
    ScopedSpan S(Log, "ir.verify", Idx);
    std::vector<std::string> Errors;
    verifyFunction(*F, Errors);
  }
  {
    ScopedSpan S(Log, "ir.phi_elim", Idx);
    eliminatePhis(*F);
  }
  int Id = Log.begin("analysis.liveness", Idx);
  Liveness LV = Liveness::compute(*F);
  Log.end(Id);
  Id = Log.begin("analysis.loopinfo", Idx);
  LoopInfo LI = LoopInfo::compute(*F);
  Log.end(Id);
  Id = Log.begin("analysis.costs", Idx);
  LiveRangeCosts Costs = LiveRangeCosts::compute(*F, LV, LI);
  Log.end(Id);
  const StatsSnapshot Before = StatRegistry::get().snapshot();
  Id = Log.begin("analysis.ig_build", Idx);
  InterferenceGraph IG = InterferenceGraph::build(*F, LV, LI);
  Log.end(Id);
  IgWasted += static_cast<double>(
      StatRegistry::get().snapshot().diff(Before).lookup(
          "interference.wasted_edge_attempts"));
  unsigned long Degrees = 0;
  for (unsigned N = 0; N != IG.numNodes(); ++N)
    Degrees += IG.degree(N);
  IgEdges += static_cast<double>(Degrees) / 2.0;
  {
    ScopedSpan S(Log, "analysis.ig_rebuild", Idx);
    IG.rebuild(*F, LV, LI);
  }
  Id = Log.begin("regalloc.simplify", Idx);
  SimplifyResult SR = simplifyGraph(
      IG, Target, [&](unsigned N) { return Costs.spillMetric(VReg(N)); },
      /*Optimistic=*/true);
  Log.end(Id);
  {
    ScopedSpan S(Log, "core.rpg", Idx);
    RegisterPreferenceGraph RPG =
        RegisterPreferenceGraph::build(*F, LV, LI, Costs, Target);
  }
  {
    ScopedSpan S(Log, "core.cpg", Idx);
    ColoringPrecedenceGraph CPG =
        ColoringPrecedenceGraph::build(IG, Target, SR);
    CpgEdges += CPG.numEdges();
  }
  std::unique_ptr<AllocatorBase> Alloc =
      createRegisteredAllocator(RequestedTier);
  Id = Log.begin("replay.context", Idx);
  AllocContext Ctx(*F, Target, CostParams());
  Log.end(Id);
  {
    ScopedSpan S(Log, "regalloc.round", Idx);
    RoundResult RR = Alloc->allocateRound(Ctx);
    (void)RR;
  }
}

int runLocal(const std::string &Workload, std::uint64_t Seed, double Seconds,
             bool Trace) {
  const TargetDesc Target = makeTarget(TargetRegs);
  std::vector<Item> Items;
  // Set-up is short, so it is scaled by probes taken during set-up, not
  // by those of the timed window.
  std::vector<double> SetupProbes;
  SetupProbes.reserve(3 * SetupReps * ProbesPerPause);
  const std::vector<double> GenSecs =
      makeItems(Workload, Target, Items, SetupProbes);

  // One pass: every item once in seeded order (mega: MegaCopies of each
  // class, spread evenly so drift hits every size alike), rotated by one
  // each pass so no item always follows the same neighbour.
  std::vector<int> Pass;
  if (Workload == "mega") {
    for (unsigned Slot = 0; Slot != MegaCopies[0]; ++Slot)
      for (std::size_t I = 0; I != Items.size(); ++I)
        if (Slot % (MegaCopies[0] / MegaCopies[Items[I].Class]) == 0)
          Pass.push_back(static_cast<int>(I));
    std::rotate(Pass.begin(), Pass.begin() + Seed % Pass.size(), Pass.end());
  } else {
    Pass = seededOrder(Items.size(), Seed);
  }

  std::vector<Failure> Failures;
  unsigned long DeterminismErrors = 0;
  SpanLog Log(Trace);
  Log.Enabled = false;
  DriverOptions Opts;

  // Warm-up pass (part of set-up): also the full gate, which pins each
  // item's reference outcome. Repeated SetupReps times for a steadier
  // set-up time; the first repetition's failures are kept.
  std::vector<double> WarmupS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    const Clock::time_point W0 = Clock::now();
    for (std::size_t I = 0; I != Items.size(); ++I) {
      Item &It = Items[I];
      std::unique_ptr<Function> F = cloneFunction(*It.Master);
      StatusOr<AllocationOutcome> R = allocateWithFallback(*F, Target, Opts);
      std::string Why;
      if (!R.ok())
        Why = R.status().toString();
      else
        fullGate(It, static_cast<int>(I), *F, *R, Target, Log, Why);
      if (!Why.empty() && Rep == 0)
        Failures.push_back({It.Name, "warm-up: " + Why});
    }
    WarmupS.push_back(msBetween(W0, Clock::now()) / 1000.0);
    probePause(SetupProbes);
  }

  struct Sample {
    int Item;
    double Ms;
    bool Ok;
    bool Traced;
    double AtS; ///< Completion, seconds into the timed window.
  };
  std::vector<Sample> Samples;
  Samples.reserve(1 << 15);
  const StatsSnapshot StatsBefore = StatRegistry::get().snapshot();
  unsigned long Attempted = 0, Ok = 0;
  unsigned Passes = 0;
  const Clock::time_point Start = Clock::now();
  const Clock::time_point Stop =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  // Host-speed probes between items, one per ProbeEvery of work, with
  // their completion times (seconds into the timed window).
  std::vector<double> Probes, ProbeAtS;
  Probes.reserve(1 << 12);
  ProbeAtS.reserve(1 << 12);
  Clock::time_point LastProbe = Start;
  // The window closes at the first item boundary past --seconds, but not
  // before one whole pass (two when traced: a slot of the pass is traced
  // on every other pass, so each item is timed both traced and untraced).
  const unsigned MinPasses = Trace ? 2 : 1;
  for (bool Done = false; !Done; ++Passes) {
    for (std::size_t K = 0; K != Pass.size(); ++K) {
      if (Passes >= MinPasses && Clock::now() >= Stop) {
        Done = true;
        break;
      }
      const std::size_t Slot = (K + Passes) % Pass.size();
      const bool Traced = Trace && (Slot + Passes) % 2 == 1;
      Log.Enabled = Traced;
      const int Idx = Pass[Slot];
      Item &It = Items[Idx];
      std::unique_ptr<Function> F = cloneFunction(*It.Master);
      ScopedSpan Root(Log, "item", Idx);
      int Id = Log.begin("regalloc.alloc", Idx);
      const Clock::time_point T0 = Clock::now();
      StatusOr<AllocationOutcome> R = allocateWithFallback(*F, Target, Opts);
      const Clock::time_point T1 = Clock::now();
      Log.end(Id);
      ++Attempted;
      std::string Why;
      if (!R.ok()) {
        Why = R.status().toString();
      } else if (R->Degradation.Degraded ||
                 R->Degradation.ServedBy != RequestedTier) {
        Why = "served by '" + R->Degradation.ServedBy + "'";
      } else if (!It.Gated) {
        Why = "no gated reference (warm-up failed)";
      } else {
        Id = Log.begin("regalloc.checker", Idx);
        std::vector<std::string> Errors =
            checkAssignment(*F, Target, R->Assignment);
        Log.end(Id);
        Id = Log.begin("sim.cost", Idx);
        const double Cost = simulateCost(*F, Target, R->Assignment).total();
        Log.end(Id);
        if (!Errors.empty())
          Why = "checker: " + Errors.front();
        else if (Cost != It.SimCost || R->SpillInstructions != It.Spills ||
                 R->remainingMoves() != It.Moves ||
                 R->Assignment != It.Assignment) {
          Why = "differs from its warm-up allocation (sim_cost " +
                num(Cost) + " vs " + num(It.SimCost) + ", spill_insts " +
                std::to_string(R->SpillInstructions) + " vs " +
                std::to_string(It.Spills) + ", moves_left " +
                std::to_string(R->remainingMoves()) + " vs " +
                std::to_string(It.Moves) + ")";
          ++DeterminismErrors;
        }
      }
      if (Why.empty())
        ++Ok;
      else
        Failures.push_back({It.Name, Why});
      Samples.push_back({Idx, msBetween(T0, T1), Why.empty(), Traced,
                         msBetween(Start, T1) / 1000.0});
      if (Clock::now() - LastProbe >= ProbeEvery) {
        Probes.push_back(probeMs());
        LastProbe = Clock::now();
        ProbeAtS.push_back(msBetween(Start, LastProbe) / 1000.0);
      }
    }
  }
  const double TimedS = msBetween(Start, Clock::now()) / 1000.0;
  const StatsSnapshot Counters =
      StatRegistry::get().snapshot().diff(StatsBefore);

  double CpgEdges = 0, IgEdges = 0, IgWasted = 0;
  if (Trace) {
    Log.Enabled = true;
    for (std::size_t I = 0; I != Items.size(); ++I)
      replayItem(Items[I], static_cast<int>(I), Target, /*WithText=*/false,
                 Log, CpgEdges, IgEdges, IgWasted);
  }

  std::string J = resultHead("local", Workload, Seed, Items, GenSecs,
                             SetupProbes);
  J += ",\"warmup_s\":" + numList(WarmupS);
  J += ",\"timed_s\":" + num(TimedS);
  J += ",\"passes\":" + std::to_string(Passes);
  J += ",\"probe_ms\":" + numList(Probes);
  J += ",\"probe_at_s\":" + numList(ProbeAtS);
  J += ",\"pass_items\":" + std::to_string(Pass.size());
  J += ",\"attempted\":" + std::to_string(Attempted);
  J += ",\"ok\":" + std::to_string(Ok);
  J += ",\"failures\":" + failuresJson(Failures);
  J += ",\"failure_count\":" + std::to_string(Failures.size());
  J += ",\"determinism_errors\":" + std::to_string(DeterminismErrors);
  J += ",\"samples\":[";
  for (std::size_t I = 0; I < Samples.size(); ++I)
    J += (I ? ",[" : "[") + std::to_string(Samples[I].Item) + "," +
         num(Samples[I].Ms) + "," + (Samples[I].Ok ? "1" : "0") + "," +
         (Samples[I].Traced ? "1" : "0") + "," + num(Samples[I].AtS) + "]";
  J += "],\"rss_kb\":" + std::to_string(peakRssKb());
  J += ",\"counters\":" + countersJson(Counters);
  if (Trace) {
    J += ",\"replay\":" + replayJson(CpgEdges, IgEdges, IgWasted);
    J += ",\"spans\":" + spansJson(Log);
  }
  std::printf("%s}\n", J.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// client: pdgc-serve over loopback
//===----------------------------------------------------------------------===//

int runClient(std::uint16_t Port, std::uint64_t Seed, double Seconds,
              bool Trace) {
  const TargetDesc Target = makeTarget(TargetRegs);
  std::vector<Item> Items;
  std::vector<double> SetupProbes;
  SetupProbes.reserve(3 * SetupReps * ProbesPerPause);
  const std::vector<double> GenSecs =
      makeItems("serve", Target, Items, SetupProbes);
  std::vector<Failure> Failures;
  SpanLog Log(Trace);

  // Local reference allocation of every distinct input, fully gated; the
  // daemon's answer must match it byte for byte. Like the warm-up below it
  // is repeated SetupReps times for a steadier set-up time; the first
  // repetition's failures and spans are kept.
  std::vector<double> ReferenceS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Log.Enabled = Trace && Rep == 0;
    const Clock::time_point W0 = Clock::now();
    for (std::size_t I = 0; I != Items.size(); ++I) {
      Item &It = Items[I];
      const int Idx = static_cast<int>(I);
      ScopedSpan Root(Log, "item", Idx);
      std::unique_ptr<Function> F = cloneFunction(*It.Master);
      int Id = Log.begin("regalloc.alloc", Idx);
      StatusOr<AllocationOutcome> R =
          allocateWithFallback(*F, Target, DriverOptions());
      Log.end(Id);
      std::string Why;
      if (!R.ok())
        Why = R.status().toString();
      else
        fullGate(It, Idx, *F, *R, Target, Log, Why);
      if (!Why.empty() && Rep == 0)
        Failures.push_back({It.Name, "reference: " + Why});
    }
    ReferenceS.push_back(msBetween(W0, Clock::now()) / 1000.0);
    probePause(SetupProbes);
  }
  Log.Enabled = Trace;

  std::vector<int> Small, Big;
  std::size_t SmallMaxBytes = 0;
  for (int I : seededOrder(Items.size(), Seed)) {
    if (Items[I].Class == 0) {
      Small.push_back(I);
      SmallMaxBytes = std::max(SmallMaxBytes, Items[I].Text.size());
    } else {
      Big.push_back(I);
    }
  }
  auto itemFor = [&](std::uint64_t K) {
    if (K % BigEvery == BigEvery - 1)
      return Big[(K / BigEvery) % Big.size()];
    return Small[(K - K / BigEvery) % Small.size()];
  };

  struct Sample {
    int Item;
    double Ms;
    bool Ok;
    bool Traced;
    double AtS; ///< Completion, seconds into the timed window.
  };

  auto checkResponse = [&](const Item &It, server::TransportError E,
                           const server::Response &Resp) -> std::string {
    if (E != server::TransportError::None)
      return std::string("transport: ") + server::transportErrorName(E);
    if (Resp.Status != server::ResponseStatus::Ok)
      return std::string("status ") + server::responseStatusName(Resp.Status) +
             " " + Resp.Error;
    if (Resp.ServedBy != RequestedTier)
      return "served by '" + Resp.ServedBy + "'";
    if (!It.Gated)
      return "no gated reference";
    if (Resp.Body != It.AssignText)
      return "assignment differs from the gated local allocation";
    return "";
  };

  auto request = [&](const Item &It) {
    server::Request Req;
    Req.Type = server::RequestType::Alloc;
    Req.Allocator = RequestedTier;
    Req.Body = It.Text;
    return Req;
  };

  // Warm-up (part of set-up): every distinct input once on one connection.
  std::vector<double> WarmupS;
  server::ClientConnection Warm;
  if (!Warm.connect(Port)) {
    std::fprintf(stderr, "pdgc-perfbench: cannot connect to port %u\n",
                 static_cast<unsigned>(Port));
    return 1;
  }
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    const Clock::time_point U0 = Clock::now();
    for (Item &It : Items) {
      server::Response Resp;
      const std::string Why =
          checkResponse(It, Warm.call(request(It), Resp), Resp);
      if (!Why.empty() && Rep == 0)
        Failures.push_back({It.Name, "warm-up: " + Why});
    }
    WarmupS.push_back(msBetween(U0, Clock::now()) / 1000.0);
    probePause(SetupProbes);
  }
  Warm.close();

  // The timed window: closed-loop traffic on Conns connections in segments
  // of ClientSegmentS, with host-speed probes in the pauses between. One
  // call per item: a REJECTED answer or a transport error is a failed item,
  // never retried. When traced, each connection's every other request is
  // timed inside a span.
  std::vector<server::ClientConnection> Conn(Conns);
  std::vector<SpanLog> ConnLogs;
  for (unsigned T = 0; T != Conns; ++T)
    ConnLogs.emplace_back(Trace);
  std::vector<std::vector<Sample>> ConnSamples(Conns);
  std::vector<std::vector<Failure>> ConnFailures(Conns);
  std::vector<unsigned long> ConnRejected(Conns, 0), ConnCalls(Conns, 0);
  std::atomic<std::uint64_t> Next{0};
  std::vector<double> Probes;
  double TimedS = 0;
  while (TimedS < Seconds) {
    const Clock::time_point SegStart = Clock::now();
    const Clock::time_point SegStop =
        SegStart + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           std::min(ClientSegmentS, Seconds - TimedS)));
    const double SegOffsetS = TimedS;
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != Conns; ++T)
      Threads.emplace_back([&, T] {
        server::ClientConnection &C = Conn[T];
        SpanLog &L = ConnLogs[T];
        while (Clock::now() < SegStop) {
          const int Idx = itemFor(Next.fetch_add(1));
          const Item &It = Items[Idx];
          const server::Request Req = request(It);
          const bool Traced = Trace && ConnCalls[T]++ % 2 == 1;
          L.Enabled = Traced;
          server::Response Resp;
          server::TransportError E = server::TransportError::ConnectFailed;
          const Clock::time_point T0 = Clock::now();
          {
            ScopedSpan S(L, "server.call", Idx);
            if (C.connected() || C.connect(Port))
              E = C.call(Req, Resp);
          }
          const Clock::time_point T1 = Clock::now();
          if (E == server::TransportError::None &&
              Resp.Status == server::ResponseStatus::Rejected)
            ++ConnRejected[T];
          const std::string Why = checkResponse(It, E, Resp);
          if (!Why.empty())
            ConnFailures[T].push_back({It.Name, Why});
          ConnSamples[T].push_back(
              {Idx, msBetween(T0, T1), Why.empty(), Traced,
               SegOffsetS + msBetween(SegStart, T1) / 1000.0});
        }
      });
    for (std::thread &T : Threads)
      T.join();
    TimedS += msBetween(SegStart, Clock::now()) / 1000.0;
    probePause(Probes);
  }
  for (server::ClientConnection &C : Conn)
    C.close();
  std::vector<Sample> Samples;
  unsigned long Rejected = 0;
  for (unsigned T = 0; T != Conns; ++T) {
    Samples.insert(Samples.end(), ConnSamples[T].begin(),
                   ConnSamples[T].end());
    Failures.insert(Failures.end(), ConnFailures[T].begin(),
                    ConnFailures[T].end());
    Rejected += ConnRejected[T];
    Log.append(ConnLogs[T]);
  }

  // Traced run: the daemon's pipeline replayed once per distinct input,
  // starting from the request text it parses.
  double CpgEdges = 0, IgEdges = 0, IgWasted = 0;
  if (Trace)
    for (std::size_t I = 0; I != Items.size(); ++I)
      replayItem(Items[I], static_cast<int>(I), Target, /*WithText=*/true,
                 Log, CpgEdges, IgEdges, IgWasted);

  unsigned long Ok = 0;
  for (const Sample &S : Samples)
    Ok += S.Ok;
  std::string J = resultHead("client", "serve", Seed, Items, GenSecs,
                             SetupProbes);
  J += ",\"reference_s\":" + numList(ReferenceS);
  J += ",\"warmup_s\":" + numList(WarmupS);
  J += ",\"timed_s\":" + num(TimedS);
  J += ",\"small_max_bytes\":" + std::to_string(SmallMaxBytes);
  J += ",\"probe_ms\":" + numList(Probes);
  J += ",\"attempted\":" + std::to_string(Samples.size());
  J += ",\"ok\":" + std::to_string(Ok);
  J += ",\"rejected\":" + std::to_string(Rejected);
  J += ",\"failures\":" + failuresJson(Failures);
  J += ",\"failure_count\":" + std::to_string(Failures.size());
  J += ",\"determinism_errors\":0";
  J += ",\"samples\":[";
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    J += (I ? ",[" : "[") + std::to_string(S.Item) + "," + num(S.Ms) + "," +
         (S.Ok ? "1" : "0") + "," + (S.Traced ? "1" : "0") + "," +
         num(S.AtS) + "]";
  }
  J += "],\"rss_kb\":" + std::to_string(peakRssKb());
  if (Trace) {
    J += ",\"replay\":" + replayJson(CpgEdges, IgEdges, IgWasted);
    J += ",\"spans\":" + spansJson(Log);
  }
  std::printf("%s}\n", J.c_str());
  return 0;
}

bool flag(const char *Arg, const char *Name, std::string &Out) {
  const std::size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: pdgc-perfbench local --workload=suite|mega --seed=N "
               "--seconds=S [--trace=0|1]\n"
               "       pdgc-perfbench client --port=P --seed=N --seconds=S "
               "[--trace=0|1]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Mode = Argv[1];
  std::string Workload = "suite", Value;
  std::uint64_t Seed = 0;
  double Seconds = 10;
  unsigned Port = 0;
  bool Trace = false;
  for (int I = 2; I < Argc; ++I) {
    const char *A = Argv[I];
    if (flag(A, "--workload", Value))
      Workload = Value;
    else if (flag(A, "--seed", Value))
      Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (flag(A, "--seconds", Value))
      Seconds = std::atof(Value.c_str());
    else if (flag(A, "--port", Value))
      Port = static_cast<unsigned>(std::atoi(Value.c_str()));
    else if (flag(A, "--trace", Value))
      Trace = Value == "1";
    else
      return usage();
  }
  if (Seconds <= 0)
    return usage();
  // Without this every allocation silently degrades to briggs+aggressive;
  // the gate would then fail every item.
  registerPDGCAllocators();
  if (Mode == "local" && (Workload == "suite" || Workload == "mega"))
    return runLocal(Workload, Seed, Seconds, Trace);
  if (Mode == "client" && Port > 0 && Port < 65536)
    return runClient(static_cast<std::uint16_t>(Port), Seed, Seconds, Trace);
  return usage();
}
