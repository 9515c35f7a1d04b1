#pragma once
// Monotonous cover synthesis (paper Section 2.2).
//
// For every transition a* of a non-input signal we derive a cover function
// c(a*) satisfying the Monotonous Cover conditions:
//   1. c(a*) evaluates to 1 on every state of every ERj(a*);
//   2. c(a*) evaluates to 0 outside U_j (ERj(a*) u QRj(a*));
//   3. within each QRj(a*) the cover changes at most once (it may fall
//      from 1 to 0 but never rises back).
// Unreachable codes are free don't-cares.  Condition 3 is enforced by a
// repair loop that moves offending quiescent states into the off-set and
// re-minimizes.
//
// A signal is implemented combinationally (complete cover, C element
// degenerates into a wire) when the minimized next-state function is not
// more complex than the worse of the set/reset gates; otherwise the
// standard-C architecture with set/reset networks is used.

#include <vector>

#include "boolf/cover.hpp"
#include "netlist/netlist.hpp"
#include "sg/regions.hpp"
#include "sg/state_graph.hpp"
#include "util/run_guard.hpp"

namespace sitm {

/// Cover of one event (the whole set or reset network of a signal).
struct EventCover {
  Event event;
  std::vector<Region> regions;  ///< ERs/QRs of the event
  Cover cover;                  ///< minimized monotonous cover
  DynBitset on, dc, off;        ///< state sets used for minimization
  /// Gate complexity: min(lit(cover), lit(complement)), the complement being
  /// the OFF condition minimized with the same don't-care space (the
  /// library holds every gate complemented or not).  Only the complement's
  /// literal count is used, and the complement is minimized only when
  /// separating_literals_lower_bound leaves it room to have fewer literals
  /// than the cover; otherwise the minimum is lit(cover), exactly.
  int complexity = 0;

  bool operator==(const EventCover&) const = default;
};

/// Full synthesis result for one signal.
struct SignalSynthesis {
  int signal = -1;
  bool combinational = false;
  EventCover set;        ///< a+ cover; the complete cover when combinational
  EventCover reset;      ///< a- cover (empty when combinational)
  Cover complete;        ///< minimized next-state function
  /// min(lit(complete), lit(its inverse)), skipping the inverse's
  /// minimization as EventCover::complexity does.
  int complete_complexity = 0;
  /// Worst gate complexity of the chosen implementation.
  int complexity = 0;
  /// minimize_onoff calls this synthesis made: the cover of each repair
  /// round, plus each complement the lower bound could not rule out.
  int minimizations = 0;

  bool operator==(const SignalSynthesis&) const = default;
};

/// Implementation architecture policy per signal.
enum class Architecture {
  /// Choose per signal: combinational (complete cover) when it is not more
  /// complex than the worst set/reset gate, standard-C otherwise.
  kAuto,
  /// Always a C element with set/reset networks (Figure 2a).
  kStandardC,
  /// Always the complete cover as one atomic complex gate (Figure 2b/c).
  kComplexGate,
};

struct McOptions {
  /// Extra minimizer refinement passes.
  int minimize_passes = 1;
  Architecture architecture = Architecture::kAuto;
  /// Worker threads for `synthesize_all`.  Per-signal synthesis only reads
  /// the (const) SG, so non-input signals are minimized in parallel and the
  /// results are assembled in serial signal order — the netlist is
  /// bit-identical for every thread count.  1 = serial, 0 = one thread per
  /// hardware core.
  int threads = 1;
};

/// Monotonous cover for one event.  Throws sitm::Error if the SG violates
/// the flow preconditions (e.g. CSC).
EventCover monotonous_cover(const StateGraph& sg, Event e,
                            const McOptions& opts = {});

/// Complete (next-state) cover of a signal plus its complexity (min of the
/// cover's and its inverse's literal counts; see EventCover::complexity).
Cover complete_cover(const StateGraph& sg, int sig, int* complexity,
                     const McOptions& opts = {});

/// Synthesize one signal (choosing combinational vs standard-C).
SignalSynthesis synthesize_signal(const StateGraph& sg, int sig,
                                  const McOptions& opts = {});

/// Lower bounds on the complexities synthesize_signal reports for one
/// signal, found without minimizing anything.  Each cover is bounded by its
/// arc-separating variables: the v for which some reachable arc s->t that
/// flips v alone joins a state of the cover's on-set to a state of (a
/// subset of) its off-set.  The two codes differ in v alone, so, as in
/// separating_literals_lower_bound, every such v costs a literal in the
/// cover and in its complement.  A cover whose two sides are both
/// non-empty is not constant and costs a literal anyway.  With
/// NV = next_value, the sides are:
///  - complete cover: on = NV, off = not NV (exactly);
///  - set cover of a+: on = "a+ enabled", off >= not NV (QR(a+) holds only
///    states where a = 1 is stable, and the monotonicity repair only grows
///    the off-set);
///  - reset cover: on = "a- enabled", off >= NV (the mirror image).
struct ComplexityBound {
  std::uint64_t set_vars = 0, reset_vars = 0, complete_vars = 0;
  int set = 0;       ///< <= set.complexity
  int reset = 0;     ///< <= reset.complexity
  int complete = 0;  ///< <= complete_complexity
};

/// ComplexityBound of every non-input signal of `sg`, in noninput_signals()
/// order, from one sweep over the reachable arcs.
std::vector<ComplexityBound> complexity_lower_bounds(const StateGraph& sg);

/// Synthesize every non-input signal into a standard-C netlist.
/// `out_syntheses` (optional) receives the per-signal details.  `guard`
/// (optional) is polled once per signal by every worker; exhaustion stops
/// further signal claims and rethrows GuardExhausted on the calling thread
/// (parallel_for's error contract), at any thread count.
Netlist synthesize_all(const StateGraph& sg, const McOptions& opts = {},
                       std::vector<SignalSynthesis>* out_syntheses = nullptr,
                       const RunGuard* guard = nullptr);

/// Standard-C netlist assembled from per-signal syntheses of `sg` (in
/// signal order, as synthesize_all produces them).  Synthesizes nothing;
/// the netlist references `sg`.
Netlist netlist_of(const StateGraph& sg,
                   const std::vector<SignalSynthesis>& syntheses);

/// Worker count synthesize_all will actually use for `num_signals` work
/// items: McOptions::threads with 0 resolved to the hardware concurrency,
/// clamped to the number of signals.  Exposed so reports can record the
/// true value.
int resolve_synthesis_threads(const McOptions& opts, std::size_t num_signals);

}  // namespace sitm
