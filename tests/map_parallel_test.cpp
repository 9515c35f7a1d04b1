// Parallel candidate resynthesis (MapperOptions::threads) must be
// bit-identical to the serial loop: every candidate evaluation reads only
// the current (const) SG, the evaluated set is the first max_full_evals
// verifying candidates in rank order, and the winner is chosen in candidate
// order regardless of worker schedule.  Pinned over the Table-1 corpus
// (CSC-resolved through the Flow engine) and directly on the generator
// families at 1/2/4/N threads.  The corpus run also pins the reuse of the
// winner's syntheses: the mapper never resynthesizes the committed SG, so
// its syntheses and netlist must equal a fresh synthesis of the final SG.

#include <gtest/gtest.h>

#include "benchlib/generators.hpp"
#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "stg/stg.hpp"

namespace sitm {
namespace {

/// Everything observable about a map-stage run that must not depend on the
/// thread count.
struct MapFingerprint {
  bool ok = false;
  std::string netlist;
  int signals_inserted = 0;
  long candidates_planned = 0;
  long resyntheses = 0;
  std::size_t states = 0;
  std::vector<std::string> step_signals;
  std::vector<Cover> step_divisors;

  bool operator==(const MapFingerprint&) const = default;
};

MapFingerprint fingerprint_of(const MapResult& result) {
  MapFingerprint fp;
  fp.ok = result.implementable;
  fp.signals_inserted = result.signals_inserted;
  fp.candidates_planned = result.candidates_planned;
  fp.resyntheses = result.resyntheses;
  fp.states = result.sg ? result.sg->num_states() : 0;
  for (const auto& step : result.steps) {
    fp.step_signals.push_back(step.new_signal);
    fp.step_divisors.push_back(step.divisor);
  }
  if (result.implementable) fp.netlist = result.build_netlist().to_string();
  return fp;
}

/// The syntheses a map run carries (reused from its winners) and the
/// netlist assembled from them equal a fresh synthesis of the final SG.
void expect_fresh_syntheses(const MapResult& result, const McOptions& mc,
                            const std::string& label) {
  ASSERT_TRUE(result.sg) << label;
  std::vector<SignalSynthesis> fresh;
  const Netlist netlist = synthesize_all(*result.sg, mc, &fresh);
  EXPECT_TRUE(result.syntheses == fresh) << label;
  EXPECT_EQ(result.build_netlist(mc).to_string(), netlist.to_string())
      << label;
}

TEST(MapParallel, CorpusBitIdenticalAcrossThreadCounts) {
  for (const auto& name : bench::suite_names()) {
    // The corpus includes CSC-violating specs; run the flow front half
    // (reachability + csc) once, then map the resolved SG directly.
    FlowOptions front;
    front.stop_after = Stage::kCsc;
    Flow flow(front);
    Spec spec;
    spec.name = name;
    spec.format = SpecFormat::kG;
    spec.stg = bench::suite_benchmark(name).stg;
    const FlowReport report = flow.run_spec(std::move(spec));
    ASSERT_TRUE(report.ok) << name << ": " << report.failure;
    const StateGraph& sg = *flow.context().sg;

    MapperOptions serial;
    serial.library.max_literals = 2;
    serial.threads = 1;
    const MapResult serial_result = technology_map(sg, serial);
    expect_fresh_syntheses(serial_result, serial.mc, name + " at 1");
    const MapFingerprint ref = fingerprint_of(serial_result);
    EXPECT_TRUE(ref.ok) << name;

    for (const int threads : {2, 4, 0}) {
      MapperOptions opts = serial;
      opts.threads = threads;
      const MapResult result = technology_map(sg, opts);
      if (threads == 4) expect_fresh_syntheses(result, opts.mc, name + " at 4");
      EXPECT_EQ(fingerprint_of(result), ref)
          << name << " at " << threads << " map-threads";
    }
  }
}

TEST(MapParallel, GeneratorFamiliesBitIdentical) {
  // Heavier multi-insertion instances than most of the corpus: the
  // parallelizer join and the mixed combo family.
  const StateGraph workloads[] = {
      bench::make_parallelizer(5).to_state_graph(),
      bench::make_combo(3, 3).to_state_graph(),
  };
  for (const StateGraph& sg : workloads) {
    MapperOptions serial;
    serial.library.max_literals = 2;
    const MapFingerprint ref = fingerprint_of(technology_map(sg, serial));
    for (const int threads : {2, 4, 0}) {
      MapperOptions opts = serial;
      opts.threads = threads;
      EXPECT_EQ(fingerprint_of(technology_map(sg, opts)), ref)
          << threads << " map-threads";
    }
  }
}

TEST(MapParallel, FusedEvaluationDeterministicUnderAnySchedule) {
  // A target's candidates run as one task each with no barrier between
  // them, so which candidate finishes first changes from run to run.  The
  // result must not: every thread count, and repeated runs at 4 threads,
  // reproduce the serial fingerprint.  The serial work counters are pinned
  // to the values of the earlier round-by-round loop (one candidate per
  // round at 1 thread), proving the serial path runs the same thresholds
  // in the same order.
  struct Workload {
    const char* name;
    StateGraph sg;
    long abandoned;
    long signals;
  };
  const Workload workloads[] = {
      {"parallelizer(6)", bench::make_parallelizer(6).to_state_graph(), 5,
       351},
      {"combo(5,3)", bench::make_combo(5, 3).to_state_graph(), 19, 302},
  };
  for (const Workload& w : workloads) {
    MapperOptions serial;
    serial.library.max_literals = 2;
    serial.threads = 1;
    const MapResult serial_result = technology_map(w.sg, serial);
    const MapFingerprint ref = fingerprint_of(serial_result);
    EXPECT_TRUE(ref.ok) << w.name;
    EXPECT_EQ(serial_result.candidates_abandoned, w.abandoned) << w.name;
    EXPECT_EQ(serial_result.signals_synthesized, w.signals) << w.name;

    for (const int threads : {2, 3, 4, 8, 4, 4, 4, 4}) {
      MapperOptions opts = serial;
      opts.threads = threads;
      EXPECT_EQ(fingerprint_of(technology_map(w.sg, opts)), ref)
          << w.name << " at " << threads << " map-threads";
    }
  }
}

TEST(MapParallel, PrunedPreChecksThreadIdenticalAndStillImplementable) {
  // MapperOptions::prune_pre_checks stops the insert/verify pre-check once
  // a committable winner exists.  The prune decision sits on fixed-width
  // round boundaries, so for fixed options the result must stay
  // bit-identical across thread counts; it may commit different (equally
  // progress-making) divisors than the exhaustive loop, but never more
  // resyntheses, and the mapped result must still be implementable.
  const StateGraph workloads[] = {
      bench::make_parallelizer(4).to_state_graph(),
      bench::make_combo(3, 3).to_state_graph(),
  };
  for (const StateGraph& sg : workloads) {
    MapperOptions exhaustive;
    exhaustive.library.max_literals = 2;
    MapperOptions pruned = exhaustive;
    pruned.prune_pre_checks = true;

    const MapFingerprint full = fingerprint_of(technology_map(sg, exhaustive));
    const MapFingerprint ref = fingerprint_of(technology_map(sg, pruned));
    EXPECT_TRUE(ref.ok);
    EXPECT_LE(ref.resyntheses, full.resyntheses);
    for (const int threads : {2, 4, 0}) {
      MapperOptions opts = pruned;
      opts.threads = threads;
      EXPECT_EQ(fingerprint_of(technology_map(sg, opts)), ref)
          << threads << " map-threads (pruned)";
    }
  }
}

TEST(MapParallel, TightEvalCapKeepsTheSerialEvaluationSet) {
  // With a cap smaller than the candidate list the parallel pre-check must
  // still evaluate exactly the first cap verifying candidates, not the
  // first cap to finish.
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  for (const int cap : {1, 2, 3}) {
    MapperOptions serial;
    serial.library.max_literals = 2;
    serial.max_full_evals = cap;
    const MapFingerprint ref = fingerprint_of(technology_map(sg, serial));
    for (const int threads : {2, 4}) {
      MapperOptions opts = serial;
      opts.threads = threads;
      EXPECT_EQ(fingerprint_of(technology_map(sg, opts)), ref)
          << "cap " << cap << " at " << threads << " map-threads";
    }
  }
}

}  // namespace
}  // namespace sitm
