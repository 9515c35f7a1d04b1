#include "core/mapper.hpp"

#include <algorithm>
#include <condition_variable>
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

/// What every round of one target's candidates shares: the current SG, its
/// verifier and cost, and the committed syntheses (noninput_signals order).
struct Round {
  const StateGraph& sg;
  const InsertionVerifier& verifier;
  const std::vector<SignalSynthesis>& committed;
  const MapMetrics& current;
  const std::string& name;
  const MapperOptions& opts;
  const RunGuard* guard;
};

/// One round of one target's ranked candidates, resynthesized best-first
/// (the rules are in technology_map's full-evaluation block).  Its workers
/// (run) share it under one mutex and wait on one condition variable; a
/// unit of work is one candidate's insert and verify, or one signal of an
/// evaluated candidate ("member").  At most `speculative` signals whose
/// synthesis the serial order has not been shown to need are outstanding
/// at once, so the round synthesizes at most that many more signals than
/// the serial order.
class Frontier {
 public:
  Frontier(const Round& round, const std::vector<Candidate>& candidates,
           std::size_t begin, std::size_t end, std::size_t members,
           std::size_t cap, std::size_t speculative)
      : round_(round),
        candidates_(candidates),
        begin_(begin),
        cap_(cap),
        speculative_(speculative),
        first_member_(members),
        members_(members),
        next_(begin),
        settled_(begin),
        entries_(end - begin) {}

  /// One worker: take the next verification, else the next signal, else
  /// wait, until the round has a winner, has none left, or a worker failed.
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    try {
      while (!failed_ && !over_) {
        if (claimable()) {
          verify(next_++, lock);
          continue;
        }
        std::vector<std::size_t> live;
        for (std::size_t i = begin_; i < settled_; ++i)
          if (entry(i).phase == Phase::kLive) live.push_back(i);
        std::sort(live.begin(), live.end(),
                  [&](std::size_t a, std::size_t b) { return ahead(a, b); });
        // The next signal of the smallest key that may take one.  A member
        // has at most one more signal in flight than it has finished: one
        // at first, since its costliest signal is the likeliest to prove
        // it a loser, so the other workers move on to the next key instead
        // of piling onto a member that may be about to stop.  The serial
        // order needs the signal when the round is settled and its member
        // is the smallest key with nothing in flight; any other is
        // speculative and waits for room.
        std::optional<std::size_t> pick;
        bool needed = false;
        for (const std::size_t i : live) {
          const Entry& e = entry(i);
          if (finished(e)) break;
          if (e.claimed < e.order.size() && e.claimed <= 2 * e.synthesized) {
            needed = settled() && i == live.front() &&
                     e.claimed == e.synthesized;
            if (needed || speculated_.size() < speculative_) pick = i;
            break;
          }
        }
        if (pick) {
          if (!needed) speculated_.emplace_back(*pick, entry(*pick).claimed);
          synthesize(*pick, lock);
          continue;
        }
        // The smallest key is a finished member's (or there is no member
        // left): it wins once no verification can still add a smaller one.
        if ((live.empty() || finished(entry(live.front()))) &&
            settled_ == next_) {
          if (!live.empty()) winner_ = live.front();
          over_ = true;
          cv_.notify_all();
          return;
        }
        cv_.wait(lock);
      }
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      failed_ = true;
      cv_.notify_all();
      throw;
    }
  }

  /// Evaluated candidates so far, across rounds (after the workers join).
  std::size_t members() const { return members_; }
  std::optional<std::size_t> winner() const { return winner_; }
  long signals() const { return signals_; }
  long minimizations() const { return minimizations_; }
  /// Members stopped with signals left unsynthesized.
  long abandoned() const {
    long n = 0;
    for (std::size_t i = begin_; i < settled_; ++i) {
      const Entry& e = entry(i);
      n += (e.phase == Phase::kLive || e.phase == Phase::kAbandoned) &&
           !finished(e);
    }
    return n;
  }
  /// The winner's SG, syntheses (signal order), cost and states.
  StateGraph take_sg() { return std::move(*entry(*winner_).sg); }
  std::vector<SignalSynthesis> take_syntheses() {
    return std::move(entry(*winner_).syntheses);
  }
  const MapMetrics& metrics() const { return entry(*winner_).metrics; }
  std::size_t states() const { return entry(*winner_).states; }

 private:
  enum class Phase : unsigned char {
    kPending,    ///< unclaimed, or being inserted and verified
    kVerified,   ///< verified, evaluated-set membership still open
    kRejected,   ///< failed verification, or verified past the cap
    kLive,       ///< evaluated, may still win
    kAbandoned,  ///< evaluated, its key cannot beat the current cost
  };
  struct Entry {
    Phase phase = Phase::kPending;
    std::optional<StateGraph> sg;
    std::vector<int> sigs;
    std::vector<std::size_t> order;  ///< synthesis order (signal slots)
    std::vector<MapMetrics> bounds;  ///< per slot
    std::vector<SignalSynthesis> syntheses;  ///< per slot
    std::vector<char> done;                  ///< per slot
    std::vector<MapMetrics> exact;  ///< per slot, once synthesized
    std::size_t claimed = 0;  ///< order[0, claimed) handed to workers
    std::size_t synthesized = 0;
    MapMetrics metrics;  ///< of the synthesized slots
    MapMetrics bound;    ///< metrics plus the bounds of the other slots
    std::size_t states = 0;
  };

  static bool finished(const Entry& e) {
    return e.synthesized == e.order.size();
  }
  Entry& entry(std::size_t i) { return entries_[i - begin_]; }
  const Entry& entry(std::size_t i) const { return entries_[i - begin_]; }
  /// Does member a come before member b in key order?
  bool ahead(std::size_t a, std::size_t b) const {
    return std::make_tuple(entry(a).bound.tuple(), entry(a).states, a) <
           std::make_tuple(entry(b).bound.tuple(), entry(b).states, b);
  }
  /// Is the evaluated set final?
  bool settled() const { return !claimable() && settled_ == next_; }
  /// Drop every speculative signal now shown to be one the serial order
  /// synthesizes: its member's key with exactly the signals before it in
  /// its order synthesized cannot be abandoned, and is no larger than the
  /// smallest live key, a lower bound on the winner's exact key.
  void confirm() {
    if (speculated_.empty() || !settled()) return;
    std::optional<std::size_t> front;
    for (std::size_t i = begin_; i < settled_; ++i)
      if (entry(i).phase == Phase::kLive && (!front || ahead(i, *front)))
        front = i;
    std::erase_if(speculated_, [&](const std::pair<std::size_t,
                                                   std::size_t>& claim) {
      const auto [i, pos] = claim;
      const Entry& e = entry(i);
      MapMetrics key;
      for (std::size_t k = 0; k < e.order.size(); ++k) {
        const std::size_t slot = e.order[k];
        if (k >= pos) {
          key.add(e.bounds[slot]);
        } else if (e.done[slot]) {
          key.add(e.exact[slot]);
        } else {
          return false;
        }
      }
      if (cannot_improve(key, round_.current, true)) return false;
      if (!front) return true;  // no member can win: only the cost counts
      const Entry& f = entry(*front);
      return std::make_tuple(key.tuple(), e.states, i) <=
             std::make_tuple(f.bound.tuple(), f.states, *front);
    });
  }
  /// May candidate next_ still join the evaluated set?
  bool claimable() const {
    return next_ < begin_ + entries_.size() && first_member_ + verified_ < cap_;
  }

  /// Claim, insert and verify candidate i; on success give it its bounds
  /// and synthesis order.  Only this worker touches the entry until its
  /// phase leaves kPending.
  void verify(std::size_t i, std::unique_lock<std::mutex>& lock) {
    Entry& e = entry(i);
    lock.unlock();
    guard_charge(round_.guard, 1, "map.candidates");
    const InsertionPlan& plan = candidates_[i].plan;
    StateGraph next = insert_signal(round_.sg, plan, round_.name);
    const DynBitset disturbed = disturbed_signals(round_.sg, plan);
    const bool ok = static_cast<bool>(
        round_.verifier.verify(next, /*require_csc=*/true, &disturbed));
    if (ok) {
      const MapperOptions& opts = round_.opts;
      const std::vector<ComplexityBound> bounds =
          complexity_lower_bounds(next);
      e.sigs = next.noninput_signals();
      e.states = next.num_states();
      // Costliest first by the pre-insertion cost: the committed synthesis
      // of each old signal (the first slots, in the same order), the bound
      // of the new one.  The signals' syntheses are independent, so any
      // order is exact; this one raises a loser's key soonest.
      std::vector<MapMetrics> cost(e.sigs.size());
      for (std::size_t slot = 0; slot < e.sigs.size(); ++slot) {
        e.bounds.push_back(metrics_lower_bound(
            bounds[slot], opts.mc.architecture, opts.library));
        e.bound.add(e.bounds[slot]);
        if (slot < round_.committed.size())
          cost[slot].add(round_.committed[slot], opts.library);
        else
          cost[slot] = e.bounds[slot];
      }
      e.order.resize(e.sigs.size());
      std::iota(e.order.begin(), e.order.end(), std::size_t{0});
      std::stable_sort(e.order.begin(), e.order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return cost[b] < cost[a];
                       });
      e.syntheses.resize(e.sigs.size());
      e.done.assign(e.sigs.size(), 0);
      e.exact.resize(e.sigs.size());
      e.sg = std::move(next);
    }
    lock.lock();
    e.phase = ok ? Phase::kVerified : Phase::kRejected;
    verified_ += ok;
    // Settle the rank-order prefix whose verifications are all back.
    for (; settled_ < next_ && entry(settled_).phase != Phase::kPending;
         ++settled_) {
      Entry& s = entry(settled_);
      if (s.phase != Phase::kVerified) continue;
      if (members_ >= cap_) {
        s.phase = Phase::kRejected;
      } else {
        ++members_;
        s.phase = cannot_improve(s.bound, round_.current, true)
                      ? Phase::kAbandoned
                      : Phase::kLive;
      }
      release(s);
    }
    confirm();
    cv_.notify_all();
  }

  /// Drop the SG and syntheses of a candidate that can no longer win, once
  /// no worker is synthesizing one of its signals.
  static void release(Entry& e) {
    if (e.phase == Phase::kLive || e.claimed > e.synthesized) return;
    e.sg.reset();
    e.syntheses = {};
  }

  /// Synthesize the next signal of live member i in its order.  Other
  /// workers may synthesize other signals of i meanwhile.
  void synthesize(std::size_t i, std::unique_lock<std::mutex>& lock) {
    Entry& e = entry(i);
    const std::size_t slot = e.order[e.claimed++];
    lock.unlock();
    fault::hit("synth.signal");
    guard_charge(round_.guard, 1, "synth.signal");
    SignalSynthesis s =
        synthesize_signal(*e.sg, e.sigs[slot], round_.opts.mc);
    lock.lock();
    ++signals_;
    minimizations_ += s.minimizations;
    e.exact[slot].add(s, round_.opts.library);
    e.metrics.add(e.exact[slot]);
    e.syntheses[slot] = std::move(s);
    e.done[slot] = 1;
    ++e.synthesized;
    if (e.phase == Phase::kLive) {
      e.bound = e.metrics;
      for (std::size_t k = 0; k < e.done.size(); ++k)
        if (!e.done[k]) e.bound.add(e.bounds[k]);
      if (cannot_improve(e.bound, round_.current, true))
        e.phase = Phase::kAbandoned;
    }
    release(e);
    confirm();
    cv_.notify_all();
  }

  const Round& round_;
  const std::vector<Candidate>& candidates_;
  const std::size_t begin_, cap_, speculative_;
  const std::size_t first_member_;  ///< evaluated in earlier rounds
  std::mutex mutex_;  // guards everything below
  std::condition_variable cv_;
  std::size_t members_;   ///< evaluated candidates, earlier rounds included
  std::size_t verified_ = 0;  ///< verified candidates in [begin_, next_)
  std::size_t next_;      ///< next candidate to claim
  std::size_t settled_;   ///< candidates before it have known membership
  std::vector<Entry> entries_;
  std::optional<std::size_t> winner_;
  bool over_ = false, failed_ = false;
  long signals_ = 0, minimizations_ = 0;
  /// Speculative signals not yet confirmed: (member, position in order).
  std::vector<std::pair<std::size_t, std::size_t>> speculated_;
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

void MapMetrics::add(const MapMetrics& o) {
  gates_over_library += o.gates_over_library;
  max_complexity = std::max(max_complexity, o.max_complexity);
  total_literals += o.total_literals;
}

MapMetrics metrics_lower_bound(const ComplexityBound& bound,
                               Architecture architecture,
                               const GateLibrary& library) {
  const MapMetrics complete{library.fits(bound.complete) ? 0 : 1,
                            bound.complete, bound.complete};
  const MapMetrics standard_c{
      (library.fits(bound.set) ? 0 : 1) + (library.fits(bound.reset) ? 0 : 1),
      std::max(bound.set, bound.reset), bound.set + bound.reset};
  switch (architecture) {
    case Architecture::kComplexGate:
      return complete;
    case Architecture::kStandardC:
      return standard_c;
    case Architecture::kAuto:
      break;
  }
  return MapMetrics{
      std::min(complete.gates_over_library, standard_c.gates_over_library),
      std::min(complete.max_complexity, standard_c.max_complexity),
      std::min(complete.total_literals, standard_c.total_literals)};
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
                         const RunGuard* guard,
                         const std::vector<SignalSynthesis>* syntheses) {
  MapResult result;
  result.sg = std::make_shared<StateGraph>(input);
  const bool renumbered = result.sg->prune_unreachable() > 0;

  if (auto r = check_implementability(*result.sg); !r)
    throw Error("technology_map: input SG not implementable: " + r.why);

  int name_counter = 0;
  result.architecture = opts.mc.architecture;
  result.minimize_passes = opts.mc.minimize_passes;
  if (syntheses && !renumbered) {
    const std::vector<int> sigs = input.noninput_signals();
    if (!std::equal(sigs.begin(), sigs.end(), syntheses->begin(),
                    syntheses->end(), [](int sig, const SignalSynthesis& s) {
                      return s.signal == sig;
                    }))
      throw Error(
          "technology_map: syntheses do not match the SG's non-input "
          "signals");
    result.syntheses = *syntheses;
  } else {
    // The only full synthesis: every later iteration starts from the
    // committed candidate's syntheses.
    synthesize_all(*result.sg, opts.mc, &result.syntheses, guard);
    result.signals_synthesized = static_cast<long>(result.syntheses.size());
    result.signals_useful = result.signals_synthesized;
    for (const SignalSynthesis& s : result.syntheses)
      result.minimizations += s.minimizations;
  }

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
      // own plan.  A round (the whole ranked list, or 8 candidates with
      // prune_pre_checks; the width never depends on the thread count) is
      // one Frontier, worked by one parallel_for of MapperOptions::threads
      // workers, at most one per candidate of the round, whose unit of work
      // is one verification or one signal:
      //  - the evaluated set is the first max_full_evals candidates in rank
      //    order that verify, and no signal of a candidate is synthesized
      //    before its membership is known;
      //  - each step synthesizes one signal of the member with the smallest
      //    key: its synthesized signals exactly plus every other signal by
      //    metrics_lower_bound of the complexity_lower_bounds that one
      //    sweep over its SG's arcs gives (see MapMetrics::add), then
      //    states, then rank.  A member's signals go costliest first by the
      //    pre-insertion cost, so a loser's key rises past the winner's
      //    after few syntheses;
      //  - a member whose key cannot beat current_metrics is abandoned;
      //  - the first member finished with the smallest key, once every
      //    candidate of the round is settled, wins and every other member
      //    stops.  Its exact key is no larger than any other member's
      //    bound, so it is the best committable (metrics, states) key of
      //    the evaluated set, the earliest on ties, at every thread count.
      // At more than one thread, verifications go first; several workers
      // may synthesize signals of one member at once, at most one more than
      // it has finished, and a worker finding no signal it may take on the
      // smallest key moves on to the next one, or waits.  A member whose
      // signals are in flight keeps its bound as its key, so no finished
      // member wins past it.  A signal the serial order is not yet shown
      // to need (the round unsettled, or its member not the smallest key
      // with nothing in flight) is speculative; at most 3 per worker past
      // the first are outstanding until confirmed, so a round synthesizes
      // at most that many signals more than at 1 thread.
      // The guard is charged one `map.candidates` unit per candidate
      // claimed, so a candidate skipped past the cap costs nothing.  With
      // prune_pre_checks a round with a winner ends the target: the pruned
      // candidates carry estimates no better than what already won, and
      // never pay for insert_signal/verify_insertion.
      const std::string name = fresh_name(sg, name_counter);
      const std::size_t cap =
          opts.max_full_evals > 0
              ? static_cast<std::size_t>(opts.max_full_evals)
              : 0;
      const Round round{sg,   verifier, result.syntheses, current_metrics,
                        name, opts, guard};
      std::size_t members = 0;
      std::optional<Frontier> best;  // the last round's
      for (std::size_t pos = 0; pos < candidates.size() && members < cap;) {
        const std::size_t end =
            opts.prune_pre_checks ? std::min(candidates.size(), pos + 8)
                                  : candidates.size();
        const int workers = resolve_worker_threads(opts.threads, end - pos);
        Frontier& frontier =
            best.emplace(round, candidates, pos, end, members, cap,
                         3 * static_cast<std::size_t>(workers - 1));
        parallel_for(static_cast<std::size_t>(workers), workers,
                     [&](std::size_t) { frontier.run(); });
        result.signals_synthesized += frontier.signals();
        result.minimizations += frontier.minimizations();
        result.resyntheses += static_cast<long>(frontier.members() - members);
        result.candidates_abandoned += frontier.abandoned();
        members = frontier.members();
        if (frontier.winner()) break;
        pos = end;
      }
      if (best && best->winner()) {
        const InsertionPlan& plan = candidates[*best->winner()].plan;
        MapStep step;
        step.new_signal = name;
        step.divisor = plan.f;
        step.divisor_reset = plan.f_reset;
        step.latch = plan.latch;
        step.target_signal = target.synth->signal;
        step.target_event = target.cover->event;
        step.states_before = sg.num_states();
        step.states_after = best->states();
        step.before = current_metrics;
        step.after = best->metrics();
        result.steps.push_back(std::move(step));

        result.syntheses = best->take_syntheses();
        result.signals_useful += static_cast<long>(result.syntheses.size());
        result.sg = std::make_shared<StateGraph>(best->take_sg());
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
