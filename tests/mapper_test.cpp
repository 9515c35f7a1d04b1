// Unit tests for the technology mapping loop (paper Section 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_set>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "netlist/si_verify.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

MapperOptions with_library(int max_literals) {
  MapperOptions opts;
  opts.library.max_literals = max_literals;
  return opts;
}

TEST(Mapper, AlreadyImplementableNeedsNoInsertion) {
  const StateGraph sg = bench::make_pipeline(2).to_state_graph();
  const MapResult result = technology_map(sg, with_library(4));
  EXPECT_TRUE(result.implementable);
  EXPECT_EQ(result.signals_inserted, 0);
}

TEST(Mapper, HazardMapsToTwoLiteralGates) {
  // Paper Figure 5: Sx = a'cd splits into two 2-input AND gates with one
  // inserted signal.
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  EXPECT_EQ(result.signals_inserted, 1);
  const Netlist netlist = result.build_netlist();
  EXPECT_LE(netlist.max_gate_complexity(), 2);
  EXPECT_TRUE(verify_speed_independence(netlist).ok);
}

TEST(Mapper, ParallelizerJoinDecomposes) {
  // A 4-way AND join must break into 2-input gates via inserted signals.
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  EXPECT_GE(result.signals_inserted, 1);
  const Netlist netlist = result.build_netlist();
  EXPECT_LE(netlist.max_gate_complexity(), 2);
  const SiVerifyResult verify = verify_speed_independence(netlist);
  EXPECT_TRUE(verify.ok) << verify.why;
}

TEST(Mapper, LargerLibraryNeedsFewerInsertions) {
  const StateGraph sg = bench::make_parallelizer(5).to_state_graph();
  const MapResult at2 = technology_map(sg, with_library(2));
  const MapResult at3 = technology_map(sg, with_library(3));
  const MapResult at4 = technology_map(sg, with_library(4));
  ASSERT_TRUE(at2.implementable) << at2.failure;
  ASSERT_TRUE(at3.implementable) << at3.failure;
  ASSERT_TRUE(at4.implementable) << at4.failure;
  EXPECT_GE(at2.signals_inserted, at3.signals_inserted);
  EXPECT_GE(at3.signals_inserted, at4.signals_inserted);
}

TEST(Mapper, FinalSgStaysImplementable) {
  const StateGraph sg = bench::make_combo(3, 2).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  if (result.implementable) {
    EXPECT_TRUE(check_implementability(*result.sg));
    for (const auto& synth : result.syntheses)
      EXPECT_LE(synth.complexity, 2);
  }
}

TEST(Mapper, StepsRecordProgress) {
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  ASSERT_EQ(static_cast<int>(result.steps.size()), result.signals_inserted);
  for (const auto& step : result.steps) {
    // Every committed step strictly improves the global cost tuple -- the
    // mapper's termination measure.
    EXPECT_TRUE(step.after < step.before);
    EXPECT_GE(step.states_after, step.states_before);
    EXPECT_FALSE(step.new_signal.empty());
  }
}

TEST(Mapper, InsertedSignalsAreInternal) {
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  for (int s = sg.num_signals(); s < result.sg->num_signals(); ++s)
    EXPECT_EQ(result.sg->signal(s).kind, SignalKind::kInternal);
}

TEST(Mapper, RejectsNonImplementableInput) {
  // CSC violation: two states with the same code enable different outputs.
  StateGraph bad;
  const int a = bad.add_signal("a", SignalKind::kInput);
  const int b = bad.add_signal("b", SignalKind::kOutput);
  const StateId s0 = bad.add_state(0b00);
  const StateId s1 = bad.add_state(0b01);
  const StateId s2 = bad.add_state(0b11);
  const StateId s3 = bad.add_state(0b10);
  const StateId s4 = bad.add_state(0b00);  // code clash with s0
  const StateId s5 = bad.add_state(0b10);
  bad.add_arc(s0, Event{a, true}, s1);
  bad.add_arc(s1, Event{b, true}, s2);
  bad.add_arc(s2, Event{a, false}, s3);
  bad.add_arc(s3, Event{b, false}, s4);
  bad.add_arc(s4, Event{b, true}, s5);  // b+ enabled at s4 but not s0
  bad.add_arc(s5, Event{b, false}, s0);
  bad.set_initial(s0);
  EXPECT_THROW(technology_map(bad, with_library(2)), Error);
}

TEST(Mapper, InsertionLimitProducesFailure) {
  MapperOptions opts = with_library(2);
  opts.max_insertions = 0;
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, opts);
  EXPECT_FALSE(result.implementable);
  EXPECT_FALSE(result.failure.empty());
}

TEST(Mapper, LocalAcknowledgementIsWeaker) {
  // With global acknowledgement disabled the mapper solves no more (and
  // typically fewer) instances; on the same instance it never needs fewer
  // insertions.
  const StateGraph sg = bench::make_parallelizer(5).to_state_graph();
  MapperOptions local = with_library(2);
  local.global_acknowledgement = false;
  const MapResult global_r = technology_map(sg, with_library(2));
  const MapResult local_r = technology_map(sg, local);
  ASSERT_TRUE(global_r.implementable);
  if (local_r.implementable) {
    EXPECT_GE(local_r.signals_inserted, global_r.signals_inserted);
  }
}

TEST(Mapper, DivisorFunctionsRecorded) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable);
  ASSERT_FALSE(result.steps.empty());
  // The chosen divisor for Sx = a'cd must be one of the legal 2-literal
  // sub-cubes (a'c or cd -- a'd is illegal per Figure 1).
  const Cover& f = result.steps[0].divisor;
  EXPECT_EQ(f.num_literals(), 2);
  const int a = sg.find_signal("a");
  const int d = sg.find_signal("d");
  const bool is_ad = f.cubes()[0].has_literal(a) && f.cubes()[0].has_literal(d);
  EXPECT_FALSE(is_ad);
}

TEST(Mapper, BuildNetlistRejectsOtherSynthesisOptions) {
  // build_netlist assembles the netlist from the syntheses the mapper made,
  // so it must refuse options those syntheses were not made with.
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  MapperOptions opts = with_library(2);
  opts.mc.architecture = Architecture::kStandardC;
  const MapResult result = technology_map(sg, opts);
  ASSERT_TRUE(result.implementable) << result.failure;

  const std::string netlist = result.build_netlist(opts.mc).to_string();
  McOptions threads = opts.mc;
  threads.threads = 4;  // not a synthesis option
  EXPECT_EQ(result.build_netlist(threads).to_string(), netlist);

  EXPECT_THROW(result.build_netlist(), Error);  // kAuto
  McOptions passes = opts.mc;
  passes.minimize_passes = 2;
  EXPECT_THROW(result.build_netlist(passes), Error);
}

TEST(Mapper, AbandonmentBoundNeverStopsAWinner) {
  // The mapper abandons a candidate once cannot_improve holds for the cost
  // of the signals synthesized so far.  For random per-signal complexities
  // and random evaluation orders, a stop on any prefix must mean the full
  // cost does not beat the threshold; on the full set the bound is exact.
  std::mt19937 rng(20261017);
  const GateLibrary library{2};
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  int early_stops = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<SignalSynthesis> syntheses(1 + pick(6));
    for (SignalSynthesis& s : syntheses) {
      s.combinational = pick(3) == 0;
      s.complete_complexity = pick(6);
      s.set.complexity = pick(6);
      s.reset.complexity = pick(6);
    }
    const MapMetrics full = metrics_of(syntheses, library);
    MapMetrics threshold = full;  // ties half the time
    if (pick(2) == 0) {
      threshold.gates_over_library = pick(8);
      threshold.max_complexity = pick(6);
      threshold.total_literals = pick(40);
    }
    const bool ties_lose = pick(2) == 0;
    const bool beats = ties_lose ? full < threshold : !(threshold < full);

    std::vector<std::size_t> order(syntheses.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    MapMetrics partial;
    for (const std::size_t i : order) {
      if (cannot_improve(partial, threshold, ties_lose)) {
        EXPECT_FALSE(beats) << "trial " << trial;
        ++early_stops;
      }
      partial.add(syntheses[i], library);
    }
    EXPECT_EQ(partial, full);
    EXPECT_EQ(cannot_improve(partial, threshold, ties_lose), !beats)
        << "trial " << trial;
  }
  EXPECT_GT(early_stops, 0);
}

/// Variables v for which some code of `on` and some code of `off` differ in
/// v alone (the separating set of separating_literals_lower_bound).
std::uint64_t code_separating_vars(const StateGraph& sg, const DynBitset& on,
                                   const DynBitset& off) {
  std::unordered_set<std::uint64_t> off_codes;
  off.for_each([&](std::size_t s) {
    off_codes.insert(sg.code(static_cast<StateId>(s)));
  });
  std::uint64_t vars = 0;
  on.for_each([&](std::size_t s) {
    const std::uint64_t code = sg.code(static_cast<StateId>(s));
    for (int v = 0; v < sg.num_signals(); ++v)
      if (off_codes.count(code ^ (std::uint64_t{1} << v)))
        vars |= std::uint64_t{1} << v;
  });
  return vars;
}

/// Every non-input signal of `sg`, under every architecture: the arc-sweep
/// bound is componentwise <= the signal's synthesized cost, and each
/// cover's arc-separating variables are separating variables of the codes
/// the synthesis actually split.  Returns the bound's literals, summed.
int expect_complexity_bounds_sound(const StateGraph& sg,
                                   const std::string& where) {
  const GateLibrary library{2};
  const std::vector<int> sigs = sg.noninput_signals();
  const std::vector<ComplexityBound> bounds = complexity_lower_bounds(sg);
  EXPECT_EQ(bounds.size(), sigs.size()) << where;
  const DynBitset reachable = sg.reachable();
  int bound_literals = 0;
  for (std::size_t k = 0; k < sigs.size() && k < bounds.size(); ++k) {
    const int sig = sigs[k];
    const ComplexityBound& b = bounds[k];
    const std::string at = where + " signal " + sg.signal(sig).name;
    for (const Architecture arch :
         {Architecture::kAuto, Architecture::kStandardC,
          Architecture::kComplexGate}) {
      McOptions mc;
      mc.architecture = arch;
      const SignalSynthesis synth = synthesize_signal(sg, sig, mc);
      MapMetrics actual;
      actual.add(synth, library);
      const MapMetrics lower = metrics_lower_bound(b, arch, library);
      const std::string arch_at =
          at + " architecture " + std::to_string(static_cast<int>(arch));
      EXPECT_LE(lower.gates_over_library, actual.gates_over_library)
          << arch_at;
      EXPECT_LE(lower.max_complexity, actual.max_complexity) << arch_at;
      EXPECT_LE(lower.total_literals, actual.total_literals) << arch_at;
      if (arch != Architecture::kAuto) continue;
      EXPECT_LE(b.set, synth.set.complexity) << at;
      EXPECT_LE(b.reset, synth.reset.complexity) << at;
      EXPECT_LE(b.complete, synth.complete_complexity) << at;
      EXPECT_EQ(b.set_vars & ~code_separating_vars(sg, synth.set.on,
                                                   synth.set.off),
                0u)
          << at;
      EXPECT_EQ(b.reset_vars & ~code_separating_vars(sg, synth.reset.on,
                                                     synth.reset.off),
                0u)
          << at;
      DynBitset next_on = sg.empty_set();
      reachable.for_each([&](std::size_t s) {
        if (next_value(sg, static_cast<StateId>(s), sig)) next_on.set(s);
      });
      EXPECT_EQ(b.complete_vars &
                    ~code_separating_vars(sg, next_on, reachable - next_on),
                0u)
          << at;
      bound_literals += b.set + b.reset + b.complete;
    }
  }
  return bound_literals;
}

TEST(Mapper, ArcSweepBoundIsSoundOnCorpus) {
  int bound_literals = 0;
  for (const auto& name : bench::suite_names()) {
    // Synthesis needs CSC: run the flow front half, which resolves it.
    FlowOptions front;
    front.stop_after = Stage::kCsc;
    Flow flow(front);
    Spec spec;
    spec.name = name;
    spec.format = SpecFormat::kG;
    spec.stg = bench::suite_benchmark(name).stg;
    const FlowReport report = flow.run_spec(std::move(spec));
    ASSERT_TRUE(report.ok) << name << ": " << report.failure;
    bound_literals += expect_complexity_bounds_sound(*flow.context().sg, name);
  }
  EXPECT_GT(bound_literals, 0);
}

TEST(Mapper, ArcSweepBoundIsSoundOnRandomSgs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const StateGraph sg = bench::make_random_stg(seed).to_state_graph();
    ASSERT_TRUE(check_csc(sg)) << "seed " << seed;
    expect_complexity_bounds_sound(sg, "random seed " + std::to_string(seed));
  }
}

TEST(Mapper, ArcSweepBoundIsSoundOnMappedSgs) {
  // The mapper's own candidate SGs: inserted signals, larger state counts.
  const std::pair<const char*, StateGraph> workloads[] = {
      {"parallelizer(6)", bench::make_parallelizer(6).to_state_graph()},
      {"combo(5,3)", bench::make_combo(5, 3).to_state_graph()},
  };
  for (const auto& [name, sg] : workloads) {
    const MapResult result = technology_map(sg, with_library(2));
    ASSERT_TRUE(result.implementable) << name << ": " << result.failure;
    ASSERT_GT(result.signals_inserted, 0) << name;
    EXPECT_GT(expect_complexity_bounds_sound(*result.sg, name), 0) << name;
  }
}

TEST(Mapper, HandedInSynthesesSkipTheInputSynthesis) {
  // Syntheses of the input SG made under the mapper's options replace its
  // own synthesize_all: the same mapping, with that work not counted.
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapperOptions opts = with_library(2);
  std::vector<SignalSynthesis> syntheses;
  synthesize_all(sg, opts.mc, &syntheses);
  long input_minimizations = 0;
  for (const SignalSynthesis& s : syntheses)
    input_minimizations += s.minimizations;

  const MapResult fresh = technology_map(sg, opts);
  const MapResult reused = technology_map(sg, opts, nullptr, &syntheses);
  ASSERT_TRUE(reused.implementable) << reused.failure;
  EXPECT_EQ(reused.build_netlist().to_string(),
            fresh.build_netlist().to_string());
  EXPECT_EQ(reused.steps.size(), fresh.steps.size());
  EXPECT_EQ(reused.signals_synthesized + static_cast<long>(syntheses.size()),
            fresh.signals_synthesized);
  EXPECT_EQ(reused.minimizations + input_minimizations, fresh.minimizations);

  // A list that does not name the SG's non-input signals is refused.
  const std::vector<SignalSynthesis> none;
  EXPECT_THROW(technology_map(sg, opts, nullptr, &none), Error);

  // Pruning an unreachable state renumbers the SG, so the state-indexed
  // covers cannot be reused: the mapper synthesizes again.
  StateGraph padded = sg;
  padded.add_state(sg.code(sg.initial()));
  std::vector<SignalSynthesis> padded_syntheses;
  synthesize_all(padded, opts.mc, &padded_syntheses);
  const MapResult resynthesized =
      technology_map(padded, opts, nullptr, &padded_syntheses);
  EXPECT_EQ(resynthesized.signals_synthesized, fresh.signals_synthesized);
  EXPECT_EQ(resynthesized.build_netlist().to_string(),
            fresh.build_netlist().to_string());
}

}  // namespace
}  // namespace sitm
