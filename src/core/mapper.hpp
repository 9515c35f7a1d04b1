#pragma once
// The technology mapping loop (paper Section 3).
//
//   while the circuit is not implementable in the library:
//     pick the event a* with the most complex monotonous cover;
//     enumerate divisors of c(a*) (kernels, co-kernels, AND/OR subsets);
//     for each divisor f: plan a SIP insertion of a new signal x = f,
//       filter by Properties 3.1 / 3.2 (progress analysis on the old SG);
//     fully resynthesize the most promising candidates (boolean division /
//       resynthesis: every cover is recomputed from scratch on the new SG,
//       which realizes the paper's global acknowledgement automatically);
//     commit the candidate with the best global progress, or give up (n.i.).
//
// Only the input SG is synthesized with synthesize_all (or not at all, when
// the caller hands its syntheses in): the committed candidate's syntheses are
// those of the next SG.  A target's verified candidates are resynthesized
// best-first, one signal at a time: each step advances the candidate with
// the smallest lower bound on its cost (see cannot_improve), which counts
// the signals synthesized so far exactly and every other signal by the
// arc-sweep bound of complexity_lower_bounds, and takes its costliest
// signal first.  The first candidate finished with the smallest bound is the
// winner; every other candidate stops there, and one whose bound cannot beat
// the current cost stops as soon as that is known.
//
// The paper's tuning knobs (try other events when the worst one is stuck,
// cap the number of candidates, local-vs-global acknowledgement for the
// ablation study) are exposed through MapperOptions.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/gate_library.hpp"
#include "core/insertion.hpp"
#include "core/mc_cover.hpp"
#include "mlogic/divisors.hpp"
#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"

namespace sitm {

struct MapperOptions {
  GateLibrary library{2};
  McOptions mc;
  DivisorOptions divisors;
  /// Apply Properties 3.1/3.2 as candidate filters before resynthesis.
  bool use_progress_filters = true;
  /// Allow transitions of the new signal to be acknowledged by covers other
  /// than the target (the paper's key improvement over [12, 4]).  When
  /// false, candidates creating any new trigger on another cover are
  /// discarded — the "local acknowledgement" baseline of the ablation.
  bool global_acknowledgement = true;
  /// Safety cap on inserted signals.
  int max_insertions = 48;
  /// How many of the most complex events are tried per iteration before
  /// declaring failure.
  int max_target_events = 4;
  /// How many filtered candidates are fully resynthesized per target.
  int max_full_evals = 12;
  /// Worker threads for the candidate evaluation.  A round's workers share
  /// one best-first frontier over the read-only current SG and take one
  /// unit of work at a time from it: a candidate's insert and verify, or
  /// one signal of a candidate already known to be in the evaluated set.
  /// Several workers may synthesize signals of one candidate at once.  The
  /// evaluated set and the winner do not depend on which unit finishes
  /// first, so the mapped SG, netlist, steps and search counters are
  /// bit-identical at every thread count.  1 = serial, 0 = one thread per
  /// hardware core; a round never starts more workers than it has
  /// candidates, whatever the count asked for.
  int threads = 1;
  /// Prune the insert/verify pre-check: candidates are evaluated in rounds
  /// of 8 (thread-count independent) instead of one round over the whole
  /// ranked list, and once a round ends with a committable running best
  /// (one that beats the pre-insertion metrics), the remaining candidates —
  /// ranked no better by the Property 3.1/3.2 estimates — are never
  /// inserted, verified or resynthesized.  Like CscOptions::rank_top_k this
  /// trades the exhaustive winner for the best of the leading rounds: the
  /// mapper may commit a different, equally progress-making decomposition,
  /// but the result is still bit-identical across thread counts for fixed
  /// options.  false (the default) evaluates every ranked candidate.
  bool prune_pre_checks = false;
};

/// Global cost of a synthesis state: number of gates exceeding the library,
/// worst gate complexity, total literals.  The mapper accepts an insertion
/// only if this tuple strictly decreases lexicographically, which makes the
/// loop terminate (the order is well-founded).
struct MapMetrics {
  int gates_over_library = 0;
  int max_complexity = 0;
  int total_literals = 0;

  auto tuple() const {
    return std::make_tuple(gates_over_library, max_complexity, total_literals);
  }
  bool operator<(const MapMetrics& o) const { return tuple() < o.tuple(); }
  bool operator==(const MapMetrics& o) const { return tuple() == o.tuple(); }

  /// Add the gates of one signal's implementation.  Every component only
  /// grows, so the cost of some of the signals (in any order), plus a
  /// componentwise lower bound on each of the others (metrics_lower_bound),
  /// is a componentwise, hence lexicographic, lower bound on the full cost.
  void add(const SignalSynthesis& s, const GateLibrary& library);
  /// Add the cost of other signals: gate and literal counts sum, the worst
  /// gate is the larger one.
  void add(const MapMetrics& o);
};

/// Componentwise lower bound on `MapMetrics{}.add(synthesis, library)` for
/// a signal whose complexities `bound` bounds, synthesized under
/// `architecture`: the complete cover's gate, the set and reset gates, or
/// (kAuto) the componentwise min of the two.
MapMetrics metrics_lower_bound(const ComplexityBound& bound,
                               Architecture architecture,
                               const GateLibrary& library);

/// Global cost of a full set of syntheses.
MapMetrics metrics_of(const std::vector<SignalSynthesis>& syntheses,
                      const GateLibrary& library);

/// Can no candidate whose cost has the lower bound `partial` beat
/// `threshold`?  Beating means a strictly smaller cost, or an equal one when
/// `ties_lose` is false.  The mapper's bound is a candidate's synthesized
/// signals plus metrics_lower_bound of every signal not yet synthesized.
bool cannot_improve(const MapMetrics& partial, const MapMetrics& threshold,
                    bool ties_lose);

/// One committed decomposition step, for reporting.
struct MapStep {
  std::string new_signal;
  Cover divisor;              ///< (set) function of the inserted signal
  Cover divisor_reset;        ///< reset partner for latch insertions
  bool latch = false;         ///< sequential (SR latch) insertion
  int target_signal = -1;
  Event target_event;
  std::size_t states_before = 0, states_after = 0;
  MapMetrics before, after;   ///< global cost before/after the insertion
};

/// Result of technology mapping.
struct MapResult {
  bool implementable = false;
  std::string failure;        ///< reason when not implementable
  int signals_inserted = 0;
  /// Search statistics: divisor candidates with a legal insertion plan, and
  /// how many were fully resynthesized (the expensive step the Property
  /// 3.1/3.2 ranking is meant to save).
  long candidates_planned = 0;
  long resyntheses = 0;
  /// Work counters: evaluated candidates stopped before their last signal
  /// (proven unable to win, or outrun by the winner), single-signal
  /// syntheses run (the input SG's included unless they were handed in),
  /// those of them whose candidate was committed (`signals_useful`, the
  /// input SG's included likewise), and the minimize_onoff calls the
  /// syntheses made (see SignalSynthesis::minimizations).  Exact at 1
  /// thread; at more threads all but signals_useful may vary from run to
  /// run, since workers advance members whose keys are not yet the
  /// smallest while the best member's last signals are in flight, but
  /// each target's round synthesizes at most 3 * (threads - 1) signals
  /// more than at 1 thread.
  long candidates_abandoned = 0;
  long signals_synthesized = 0;
  long signals_useful = 0;
  long minimizations = 0;
  /// Final SG (with the inserted signals) and its synthesis, made with the
  /// mapper's McOptions::architecture and minimize_passes.
  std::shared_ptr<StateGraph> sg;
  std::vector<SignalSynthesis> syntheses;
  Architecture architecture = Architecture::kAuto;
  int minimize_passes = 1;
  std::vector<MapStep> steps;

  /// Standard-C netlist of the final SG, assembled from `syntheses`
  /// (nothing is synthesized).  `mc` must name the architecture and
  /// minimize_passes the mapper ran with; throws sitm::Error otherwise,
  /// since the syntheses would not match the options.  The returned netlist
  /// references *sg; keep this MapResult alive while using it.
  Netlist build_netlist(const McOptions& mc = {}) const;
};

/// Map `sg` onto the library in `opts`.  The input SG must satisfy the flow
/// preconditions (consistency, speed-independence, CSC); throws otherwise.
/// `guard` (optional) bounds the search — polled at every iteration, and
/// charged one `map.candidates` unit per candidate claimed for evaluation
/// and one `synth.signal` unit per synthesized signal — and throws
/// GuardExhausted on exhaustion (no partial MapResult: an uncommitted
/// decomposition has no netlist worth degrading to).  `syntheses`
/// (optional) is synthesize_all's output for `sg` under the architecture and
/// minimize_passes of `opts.mc`; the mapper starts from it instead of
/// synthesizing `sg` again, unless pruning unreachable states renumbered
/// `sg` (the covers are state-indexed).  Throws sitm::Error when it does not
/// list `sg`'s non-input signals in order.
MapResult technology_map(const StateGraph& sg, const MapperOptions& opts = {},
                         const RunGuard* guard = nullptr,
                         const std::vector<SignalSynthesis>* syntheses =
                             nullptr);

}  // namespace sitm
