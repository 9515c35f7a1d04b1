#include "core/mapper.hpp"

#include <algorithm>
#include <numeric>

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
    // `sg` is candidate-independent, so every pre-check round below reuses
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
      // own plan, so both steps fan out to a worker pool
      // (MapperOptions::threads): the insert/verify pre-check in rank-order
      // rounds, each round's verified candidates fully resynthesized before
      // the next round starts.  The evaluated set — the first
      // max_full_evals candidates whose insertion verifies — and the winner
      // — the best (metrics, states) key, earliest candidate on ties — are
      // both determined in candidate order, so the mapped result and the
      // search counters are bit-identical to the serial loop at every
      // thread count.  With prune_pre_checks the loop additionally stops
      // at the first round boundary where a committable running best
      // exists: the pruned candidates carry estimates no better than what
      // already won, and never pay for insert_signal/verify_insertion.
      //
      // A candidate is resynthesized one signal at a time, the target
      // signal first, and abandoned once its partial cost (a lower bound,
      // see MapMetrics::add) cannot beat current_metrics or the running
      // best of the earlier rounds.  Those have lower indices, so a tie
      // loses to them too.  An abandoned candidate could never have been
      // committed, so the winner and the evaluated set are unchanged.
      struct Evaluated {
        StateGraph sg;
        std::vector<SignalSynthesis> syntheses;  ///< signal-order slots
        const Candidate* candidate = nullptr;
        MapMetrics metrics;  ///< a lower bound only when abandoned
        std::size_t states = 0;
        long signals = 0;    ///< signals synthesized
        bool abandoned = false;
      };
      const std::string name = fresh_name(sg, name_counter);
      const int eval_threads =
          resolve_worker_threads(opts.threads, candidates.size());
      // Round width.  When pruning, the stop decision happens only on round
      // boundaries, so the width must not depend on the worker count — a
      // fixed 8 keeps the pruned result bit-identical at every thread
      // count.  Without pruning the width is unobservable (the evaluated
      // set is the first `cap` verifying candidates regardless), so one
      // chunk per worker over-checks at most one chunk past the serial
      // stop, exactly like the historical pre-check loop.
      const std::size_t round_width =
          opts.prune_pre_checks
              ? std::size_t{8}
              : static_cast<std::size_t>(std::max(eval_threads, 1));

      std::vector<Evaluated> evaluated;
      std::optional<std::size_t> best_idx;  // committable running best
      auto key = [](const Evaluated& e) {
        return std::make_tuple(e.metrics.tuple(), e.states);
      };
      {
        const std::size_t cap =
            opts.max_full_evals > 0
                ? static_cast<std::size_t>(opts.max_full_evals)
                : 0;
        std::vector<std::optional<StateGraph>> verified;
        std::size_t pos = 0;
        while (pos < candidates.size() && evaluated.size() < cap) {
          if (opts.prune_pre_checks && best_idx) break;
          const std::size_t chunk =
              std::min(candidates.size() - pos, round_width);
          guard_charge(guard, chunk, "map.candidates");
          verified.assign(chunk, std::nullopt);
          parallel_for(chunk, eval_threads, [&](std::size_t k) {
            const InsertionPlan& plan = candidates[pos + k].plan;
            StateGraph next = insert_signal(sg, plan, name);
            const DynBitset disturbed = disturbed_signals(sg, plan);
            if (verifier.verify(next, /*require_csc=*/true, &disturbed))
              verified[k] = std::move(next);
          });
          const std::size_t first_new = evaluated.size();
          for (std::size_t k = 0; k < chunk && evaluated.size() < cap; ++k) {
            if (!verified[k]) continue;
            Evaluated ev;
            ev.sg = std::move(*verified[k]);
            ev.candidate = &candidates[pos + k];
            evaluated.push_back(std::move(ev));
          }
          const Evaluated* earlier = best_idx ? &evaluated[*best_idx] : nullptr;
          auto loses = [&](const Evaluated& ev) {
            return cannot_improve(ev.metrics, current_metrics, true) ||
                   (earlier && cannot_improve(ev.metrics, earlier->metrics,
                                              ev.states >= earlier->states));
          };
          const int target_signal = target.synth->signal;
          parallel_for(
              evaluated.size() - first_new, eval_threads, [&](std::size_t k) {
                Evaluated& ev = evaluated[first_new + k];
                ev.states = ev.sg.num_states();
                const std::vector<int> sigs = ev.sg.noninput_signals();
                std::vector<std::size_t> order(sigs.size());
                std::iota(order.begin(), order.end(), std::size_t{0});
                std::stable_partition(order.begin(), order.end(),
                                      [&](std::size_t slot) {
                                        return sigs[slot] == target_signal;
                                      });
                ev.syntheses.resize(sigs.size());
                for (const std::size_t slot : order) {
                  if (loses(ev)) {
                    ev.abandoned = true;
                    break;
                  }
                  fault::hit("synth.signal");
                  guard_charge(guard, 1, "synth.signal");
                  ev.syntheses[slot] =
                      synthesize_signal(ev.sg, sigs[slot], opts.mc);
                  ev.metrics.add(ev.syntheses[slot], opts.library);
                  ++ev.signals;
                }
              });
          for (std::size_t i = first_new; i < evaluated.size(); ++i) {
            result.signals_synthesized += evaluated[i].signals;
            if (evaluated[i].abandoned) {
              ++result.candidates_abandoned;
              continue;
            }
            // Progress requirement: the global cost tuple strictly
            // decreases.  This is the termination measure of the whole loop
            // — temporary growth of one cover (the acknowledgement literal
            // of Property 3.2) is fine as long as fewer gates exceed the
            // library.
            if (!(evaluated[i].metrics < current_metrics)) continue;
            if (!best_idx || key(evaluated[i]) < key(evaluated[*best_idx]))
              best_idx = i;
          }
          pos += chunk;
        }
      }
      result.resyntheses += static_cast<long>(evaluated.size());
      Evaluated* best = best_idx ? &evaluated[*best_idx] : nullptr;

      if (best) {
        MapStep step;
        step.new_signal = name;
        step.divisor = best->candidate->plan.f;
        step.divisor_reset = best->candidate->plan.f_reset;
        step.latch = best->candidate->plan.latch;
        step.target_signal = target.synth->signal;
        step.target_event = target.cover->event;
        step.states_before = sg.num_states();
        step.states_after = best->sg.num_states();
        step.before = current_metrics;
        step.after = best->metrics;
        result.steps.push_back(std::move(step));

        result.syntheses = std::move(best->syntheses);
        result.sg = std::make_shared<StateGraph>(std::move(best->sg));
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
