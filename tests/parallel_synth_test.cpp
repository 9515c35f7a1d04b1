// Parallel per-signal synthesis (McOptions::threads) must be bit-identical
// to the serial loop: the SG is read-only during synthesize_all, every
// signal's covers are computed independently, and the netlist is assembled
// in serial signal order regardless of the worker schedule.  Pinned across
// the Table-1 corpus and randomized SGs at 1, 2 and N threads.

#include <gtest/gtest.h>

#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "core/mc_cover.hpp"
#include "sg/properties.hpp"
#include "stg/g_io.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

void expect_same_synthesis(const std::vector<SignalSynthesis>& serial,
                           const std::vector<SignalSynthesis>& parallel,
                           const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& p = parallel[i];
    EXPECT_EQ(s.signal, p.signal) << label;
    EXPECT_EQ(s.combinational, p.combinational) << label;
    EXPECT_EQ(s.complexity, p.complexity) << label;
    EXPECT_EQ(s.complete_complexity, p.complete_complexity) << label;
    EXPECT_TRUE(s.complete == p.complete) << label;
    EXPECT_TRUE(s.set.cover == p.set.cover) << label;
    EXPECT_EQ(s.set.complexity, p.set.complexity) << label;
    EXPECT_TRUE(s.reset.cover == p.reset.cover) << label;
    EXPECT_EQ(s.reset.complexity, p.reset.complexity) << label;
    EXPECT_EQ(s.minimizations, p.minimizations) << label;
  }
}

void expect_parallel_identical(const StateGraph& sg,
                               const std::string& label) {
  McOptions serial_opts;
  serial_opts.threads = 1;
  std::vector<SignalSynthesis> serial_synth;
  const Netlist serial = synthesize_all(sg, serial_opts, &serial_synth);
  const std::string serial_text = serial.to_string();

  for (const int threads : {2, 4}) {
    McOptions opts;
    opts.threads = threads;
    std::vector<SignalSynthesis> par_synth;
    const Netlist parallel = synthesize_all(sg, opts, &par_synth);
    EXPECT_TRUE(parallel.same_impls(serial))
        << label << " at " << threads << " threads";
    EXPECT_EQ(parallel.to_string(), serial_text)
        << label << " at " << threads << " threads";
    EXPECT_EQ(parallel.total_literals(), serial.total_literals()) << label;
    EXPECT_EQ(parallel.num_c_elements(), serial.num_c_elements()) << label;
    expect_same_synthesis(serial_synth, par_synth,
                          label + " @" + std::to_string(threads));
  }
}

TEST(ParallelSynth, CorpusBitIdentical) {
  for (const auto& name : bench::suite_names()) {
    const StateGraph sg = bench::suite_benchmark(name).stg.to_state_graph();
    if (!check_csc(sg)) continue;  // synthesize_all requires CSC
    expect_parallel_identical(sg, name);
  }
}

TEST(ParallelSynth, RandomizedSgsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const StateGraph sg = bench::make_random_stg(seed).to_state_graph();
    ASSERT_TRUE(check_csc(sg)) << "seed " << seed;
    expect_parallel_identical(sg, "random seed " + std::to_string(seed));
  }
}

TEST(ParallelSynth, HardwareConcurrencyMatchesSerial) {
  const StateGraph sg = bench::suite_benchmark("vbe5b").stg.to_state_graph();
  const std::string serial = synthesize_all(sg).to_string();
  McOptions opts;
  opts.threads = 0;  // one worker per hardware core
  EXPECT_EQ(synthesize_all(sg, opts).to_string(), serial);
}

TEST(ParallelSynth, MoreThreadsThanSignals) {
  const StateGraph sg = bench::suite_benchmark("half").stg.to_state_graph();
  McOptions opts;
  opts.threads = 64;
  EXPECT_EQ(synthesize_all(sg, opts).to_string(),
            synthesize_all(sg).to_string());
}

TEST(ParallelSynth, WorkerExceptionPropagates) {
  // A CSC-violating SG makes the minimizer throw (on/off sets intersect);
  // the pool must surface the worker's sitm::Error, not crash or hang.
  const char* spec = R"(.model twophase
.outputs a b c d
.graph
a+ b+
b+ a-
a- b-
b- c+
c+ d+
d+ c-
c- d-
d- a+
.marking { <d-,a+> }
.end
)";
  const StateGraph sg = read_g_string(spec).to_state_graph();
  ASSERT_FALSE(check_csc(sg));
  McOptions opts;
  opts.threads = 4;
  EXPECT_THROW(synthesize_all(sg, opts), Error);
}

}  // namespace
}  // namespace sitm
