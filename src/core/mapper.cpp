#include "core/mapper.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <optional>

#include "core/progress.hpp"
#include "mlogic/division.hpp"
#include "sg/properties.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

/// Is the planned signal identical (over reachable states) to an existing
/// signal or its complement?  Such an insertion adds a redundant wire.
/// `reachable` is the (per-iteration, shared) reachable set of `sg`.
bool duplicates_signal(const StateGraph& sg, const DynBitset& reachable,
                       const DynBitset& s1) {
  for (int sig = 0; sig < sg.num_signals(); ++sig) {
    bool same = true, inverse = true;
    reachable.for_each([&](std::size_t s) {
      if (!same && !inverse) return;
      const bool fv = s1.test(s);
      const bool sv = sg.value(static_cast<StateId>(s), sig);
      if (fv != sv) same = false;
      if (fv == sv) inverse = false;
    });
    if (same || inverse) return true;
  }
  return false;
}

/// The sequential partner of a divisor: the cube of complemented literals
/// (e.g. a*b -> a'*b'; a+b -> a'*b').  A latch set by f and reset by this
/// partner realizes a Muller-C-style sub-element.  Returns an empty cover
/// when f uses some variable in both polarities.
Cover latch_reset_partner(const Cover& f) {
  Cube partner = Cube::one();
  for (const auto& cube : f.cubes()) {
    for (int v = 0; v < f.num_vars(); ++v) {
      if (!cube.has_literal(v)) continue;
      const bool want = !cube.polarity(v);
      if (partner.has_literal(v) && partner.polarity(v) != want)
        return Cover(f.num_vars());
      partner = partner.with_literal(v, want);
    }
  }
  if (partner.is_one()) return Cover(f.num_vars());
  return Cover(f.num_vars(), {partner});
}

/// Fresh internal signal name.
std::string fresh_name(const StateGraph& sg, int counter) {
  while (true) {
    std::string name = "x" + std::to_string(counter);
    if (sg.find_signal(name) < 0) return name;
    ++counter;
  }
}

struct Candidate {
  Cover f;
  Cover quotient, remainder;
  InsertionPlan plan;
  ProgressEstimate estimate;
};

/// What one candidate's evaluation left behind.  Written only by the task
/// evaluating it, read after the pass.
struct Evaluated {
  bool verified = false;
  bool abandoned = false;
  /// The candidate's SG and syntheses (signal-order slots), kept only when
  /// it finished committable.
  std::optional<StateGraph> sg;
  std::vector<SignalSynthesis> syntheses;
  MapMetrics metrics;  ///< a lower bound only when abandoned or stopped
  std::size_t states = 0;
  long signals = 0;    ///< signals synthesized
  long minimizations = 0;  ///< their minimize_onoff calls
};

/// The record the evaluation tasks of one target share, under one mutex:
/// each candidate's verify status, and the cost of those that finished
/// committable.  Indices are candidate ranks, across every round.
class EvalRecord {
 public:
  enum class Verdict { kGo, kStop, kAbandon };

  EvalRecord(std::size_t candidates, std::size_t cap)
      : cap_(cap), slots_(candidates) {}

  /// Does candidate i still belong to the evaluated set?  Once the verified
  /// candidates before it fill the cap it never will, and after a failed
  /// task none of the work matters.
  Verdict claim(std::size_t i) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_ || verified_before(i) >= cap_ ? Verdict::kStop
                                                 : Verdict::kGo;
  }

  /// Should candidate i, whose partial cost is `partial` over an SG of
  /// `states` states, synthesize its next signal?  It is abandoned once it
  /// cannot beat a finished committable candidate of lower rank; a tie
  /// loses when its states are no fewer, as in the final selection.
  Verdict judge(std::size_t i, const MapMetrics& partial, std::size_t states) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failed_ || verified_before(i) >= cap_) return Verdict::kStop;
    for (std::size_t j = 0; j < i; ++j) {
      const Slot& s = slots_[j];
      if (s.status == Status::kCommittable &&
          cannot_improve(partial, s.metrics, states >= s.states))
        return Verdict::kAbandon;
    }
    return Verdict::kGo;
  }

  void verified(std::size_t i, bool ok) {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_[i].status = ok ? Status::kVerified : Status::kRejected;
  }

  void committable(std::size_t i, const MapMetrics& metrics,
                   std::size_t states) {
    const std::lock_guard<std::mutex> lock(mutex_);
    slots_[i] = Slot{Status::kCommittable, metrics, states};
  }

  void fail() {
    const std::lock_guard<std::mutex> lock(mutex_);
    failed_ = true;
  }

 private:
  enum class Status : unsigned char {
    kPending,
    kRejected,
    kVerified,
    kCommittable,
  };
  struct Slot {
    Status status = Status::kPending;
    MapMetrics metrics;
    std::size_t states = 0;
  };

  /// Verified candidates ranked before i (a lower bound while some of them
  /// are still pending, exact once they are not).
  std::size_t verified_before(std::size_t i) const {
    std::size_t n = 0;
    for (std::size_t j = 0; j < i; ++j)
      n += slots_[j].status == Status::kVerified ||
           slots_[j].status == Status::kCommittable;
    return n;
  }

  const std::size_t cap_;
  std::mutex mutex_;  // guards slots_ and failed_
  std::vector<Slot> slots_;
  bool failed_ = false;
};

}  // namespace

void MapMetrics::add(const SignalSynthesis& s, const GateLibrary& library) {
  const int gates[2] = {s.combinational ? s.complete_complexity
                                        : s.set.complexity,
                        s.combinational ? -1 : s.reset.complexity};
  for (int c : gates) {
    if (c < 0) continue;
    if (!library.fits(c)) ++gates_over_library;
    max_complexity = std::max(max_complexity, c);
    total_literals += c;
  }
}

MapMetrics metrics_of(const std::vector<SignalSynthesis>& syntheses,
                      const GateLibrary& library) {
  MapMetrics m;
  for (const auto& s : syntheses) m.add(s, library);
  return m;
}

bool cannot_improve(const MapMetrics& partial, const MapMetrics& threshold,
                    bool ties_lose) {
  return ties_lose ? !(partial < threshold) : threshold < partial;
}

Netlist MapResult::build_netlist(const McOptions& mc) const {
  if (!sg) throw Error("MapResult: no state graph");
  if (mc.architecture != architecture || mc.minimize_passes != minimize_passes)
    throw Error(
        "MapResult::build_netlist: options differ from the mapper's "
        "(architecture / minimize_passes)");
  return netlist_of(*sg, syntheses);
}

MapResult technology_map(const StateGraph& input, const MapperOptions& opts,
                         const RunGuard* guard) {
  MapResult result;
  result.sg = std::make_shared<StateGraph>(input);
  result.sg->prune_unreachable();

  if (auto r = check_implementability(*result.sg); !r)
    throw Error("technology_map: input SG not implementable: " + r.why);

  int name_counter = 0;
  result.architecture = opts.mc.architecture;
  result.minimize_passes = opts.mc.minimize_passes;
  // The only full synthesis: every later iteration starts from the
  // committed candidate's syntheses.
  synthesize_all(*result.sg, opts.mc, &result.syntheses, guard);
  result.signals_synthesized = static_cast<long>(result.syntheses.size());
  for (const SignalSynthesis& s : result.syntheses)
    result.minimizations += s.minimizations;

  while (true) {
    guard_check(guard, "map.iteration");
    fault::hit("map.round");
    StateGraph& sg = *result.sg;

    // Shared per-iteration planning state: one diamond enumeration and one
    // region memo serve every divisor candidate of every target below, and
    // the reachable set feeds the duplicate-signal filter.
    InsertionPlanner planner(sg);
    const DynBitset reachable = sg.reachable();

    // Collect event covers whose signal implementation exceeds the library.
    struct Target {
      const SignalSynthesis* synth;
      const EventCover* cover;
    };
    std::vector<Target> targets;
    for (const auto& synth : result.syntheses) {
      if (opts.library.fits(synth.complexity)) continue;
      targets.push_back(Target{&synth, &synth.set});
      targets.push_back(Target{&synth, &synth.reset});
    }
    if (targets.empty()) {
      result.implementable = true;
      return result;
    }
    if (result.signals_inserted >= opts.max_insertions) {
      result.failure = "insertion limit reached";
      return result;
    }

    // Most complex covers first (the paper's target selection).
    std::stable_sort(targets.begin(), targets.end(),
                     [](const Target& a, const Target& b) {
                       return a.cover->complexity > b.cover->complexity;
                     });

    bool committed = false;
    const MapMetrics current_metrics =
        metrics_of(result.syntheses, opts.library);
    // Shared per-iteration verification state: the persistency baseline of
    // `sg` is candidate-independent, so every candidate task below reuses
    // it (the verifier is const and safe to share across the worker pool).
    const InsertionVerifier verifier(sg);

    int tried_targets = 0;
    for (const auto& target : targets) {
      if (tried_targets++ >= opts.max_target_events) break;
      // Gates already implementable do not need decomposition.
      if (opts.library.fits(target.cover->complexity)) continue;

      // ---- candidate generation -------------------------------------
      std::vector<Candidate> candidates;
      auto consider = [&](const Cover& f, std::optional<InsertionPlan> plan,
                          const Division& div) {
        if (!plan) return;
        if (duplicates_signal(sg, reachable, plan->s1)) return;
        ProgressEstimate est =
            estimate_progress(sg, result.syntheses, *target.cover,
                              div.quotient, div.remainder, *plan);
        if (!opts.global_acknowledgement && est.new_triggers > 0) return;
        ++result.candidates_planned;
        candidates.push_back(
            Candidate{f, div.quotient, div.remainder, std::move(*plan), est});
      };
      for (Cover& f : generate_divisors(target.cover->cover, opts.divisors)) {
        Division div = algebraic_division(target.cover->cover, f);
        if (div.quotient.empty()) continue;  // not an algebraic divisor
        // Combinational divisor: the new signal is a delayed copy of f.
        consider(f, planner.plan(f), div);
        // Sequential divisor: an SR sub-latch set by f and reset by the
        // complement-literal partner cube (C-element decomposition).
        const Cover partner = latch_reset_partner(f);
        if (!partner.empty()) consider(f, planner.plan_latch(f, partner), div);
      }
      // Properties 3.1 / 3.2 rank the candidates (safe substitutions and
      // bounded impact on other covers first); the exact accept/reject
      // decision is the resynthesis below.
      if (opts.use_progress_filters) {
        auto key = [](const Candidate& c) {
          return std::make_tuple(c.estimate.target_ok ? 0 : 1,
                                 c.estimate.others_ok ? 0 : 1,
                                 c.estimate.estimated_delta);
        };
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const Candidate& a, const Candidate& b) {
                           return key(a) < key(b);
                         });
      }

      // ---- full evaluation (resynthesis from scratch) ------------------
      // Every candidate evaluation reads only the shared (const) SG and its
      // own plan, so each candidate is one task — insert, verify, then
      // resynthesize one signal at a time, the target signal first — and a
      // round's tasks run in one parallel_for (MapperOptions::threads) with
      // no barrier in between.  A round is the whole ranked list, or 8
      // candidates with prune_pre_checks; the width never depends on the
      // thread count.  The tasks meet only in the EvalRecord, read once
      // per synthesized signal:
      //  - a candidate stops (or never starts) once the verified
      //    candidates ranked before it fill max_full_evals;
      //  - it is abandoned once its partial cost (a lower bound, see
      //    MapMetrics::add) cannot beat current_metrics, or a finished,
      //    committable candidate of lower rank.
      // After the pass a serial walk in rank order takes the first `cap`
      // verified candidates as the evaluated set, and the winner is the
      // best committable (metrics, states) key among them, the earliest on
      // ties.  A lower-ranked candidate that beats candidate k is in the
      // evaluated set whenever k is, so no abandoned candidate could have
      // won, and the evaluated set and the winner are bit-identical at
      // every thread count.  At 1 thread the candidates run in rank order,
      // each one seeing every lower-ranked candidate finished.  The
      // guard is charged one `map.candidates` unit per candidate claimed, so
      // a candidate skipped past the cap costs nothing.  With
      // prune_pre_checks the loop stops at the first round boundary where
      // a committable winner exists: the pruned candidates carry estimates
      // no better than what already won, and never pay for
      // insert_signal/verify_insertion.
      const std::string name = fresh_name(sg, name_counter);
      const std::size_t cap =
          opts.max_full_evals > 0
              ? static_cast<std::size_t>(opts.max_full_evals)
              : 0;
      const int target_signal = target.synth->signal;
      std::vector<Evaluated> evaluated(candidates.size());
      EvalRecord record(candidates.size(), cap);
      auto evaluate = [&](std::size_t i) {
        using Verdict = EvalRecord::Verdict;
        if (record.claim(i) == Verdict::kStop) return;
        Evaluated& ev = evaluated[i];
        try {
          guard_charge(guard, 1, "map.candidates");
          const InsertionPlan& plan = candidates[i].plan;
          StateGraph next = insert_signal(sg, plan, name);
          const DynBitset disturbed = disturbed_signals(sg, plan);
          ev.verified = static_cast<bool>(
              verifier.verify(next, /*require_csc=*/true, &disturbed));
          record.verified(i, ev.verified);
          if (!ev.verified) return;
          ev.states = next.num_states();
          const std::vector<int> sigs = next.noninput_signals();
          std::vector<std::size_t> order(sigs.size());
          std::iota(order.begin(), order.end(), std::size_t{0});
          std::stable_partition(
              order.begin(), order.end(),
              [&](std::size_t slot) { return sigs[slot] == target_signal; });
          ev.syntheses.resize(sigs.size());
          for (const std::size_t slot : order) {
            const Verdict verdict =
                cannot_improve(ev.metrics, current_metrics, true)
                    ? Verdict::kAbandon
                    : record.judge(i, ev.metrics, ev.states);
            if (verdict != Verdict::kGo) {
              ev.abandoned = verdict == Verdict::kAbandon;
              ev.syntheses.clear();
              return;
            }
            fault::hit("synth.signal");
            guard_charge(guard, 1, "synth.signal");
            ev.syntheses[slot] = synthesize_signal(next, sigs[slot], opts.mc);
            ev.metrics.add(ev.syntheses[slot], opts.library);
            ++ev.signals;
            ev.minimizations += ev.syntheses[slot].minimizations;
          }
          // Progress requirement: the global cost tuple strictly decreases.
          // This is the termination measure of the whole loop — temporary
          // growth of one cover (the acknowledgement literal of Property
          // 3.2) is fine as long as fewer gates exceed the library.
          if (!(ev.metrics < current_metrics)) {
            ev.syntheses.clear();
            return;
          }
          ev.sg = std::move(next);
          record.committable(i, ev.metrics, ev.states);
        } catch (...) {
          record.fail();
          throw;
        }
      };

      std::size_t num_evaluated = 0;
      std::optional<std::size_t> best_idx;  // committable running best
      auto key = [](const Evaluated& e) {
        return std::make_tuple(e.metrics.tuple(), e.states);
      };
      for (std::size_t pos = 0;
           pos < candidates.size() && num_evaluated < cap;) {
        if (opts.prune_pre_checks && best_idx) break;
        const std::size_t end =
            opts.prune_pre_checks ? std::min(candidates.size(), pos + 8)
                                  : candidates.size();
        parallel_for(end - pos, opts.threads,
                     [&](std::size_t k) { evaluate(pos + k); });
        for (std::size_t i = pos; i < end; ++i) {
          const Evaluated& ev = evaluated[i];
          result.signals_synthesized += ev.signals;
          result.minimizations += ev.minimizations;
          if (!ev.verified || num_evaluated >= cap) continue;
          ++num_evaluated;
          if (ev.abandoned) ++result.candidates_abandoned;
          if (!ev.sg) continue;
          if (!best_idx || key(ev) < key(evaluated[*best_idx])) best_idx = i;
        }
        pos = end;
      }
      result.resyntheses += static_cast<long>(num_evaluated);
      if (best_idx) {
        Evaluated& best = evaluated[*best_idx];
        const InsertionPlan& plan = candidates[*best_idx].plan;
        MapStep step;
        step.new_signal = name;
        step.divisor = plan.f;
        step.divisor_reset = plan.f_reset;
        step.latch = plan.latch;
        step.target_signal = target.synth->signal;
        step.target_event = target.cover->event;
        step.states_before = sg.num_states();
        step.states_after = best.states;
        step.before = current_metrics;
        step.after = best.metrics;
        result.steps.push_back(std::move(step));

        result.syntheses = std::move(best.syntheses);
        result.sg = std::make_shared<StateGraph>(std::move(*best.sg));
        ++result.signals_inserted;
        ++name_counter;
        committed = true;
        break;
      }
    }

    if (!committed) {
      result.failure = "no divisor makes progress (n.i.)";
      // Leave the best-effort syntheses in the result for inspection.
      return result;
    }
  }
}

}  // namespace sitm
