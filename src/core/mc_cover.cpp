#include "core/mc_cover.hpp"

#include <algorithm>
#include <bit>

#include "boolf/minimize.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace sitm {

namespace {

std::vector<std::uint64_t> codes_of(const StateGraph& sg, const DynBitset& set) {
  std::vector<std::uint64_t> out;
  out.reserve(set.count());
  set.for_each([&](std::size_t s) {
    out.push_back(sg.code(static_cast<StateId>(s)));
  });
  return out;
}

/// Monotonicity violations (MC condition 3): a 0->1 change of `cover` along
/// an arc that stays within ERj u QRj of some region.  Returns the states to
/// force into the off-set.
DynBitset monotonicity_violations(const StateGraph& sg, const Cover& cover,
                                  const std::vector<Region>& regions) {
  DynBitset bad(sg.num_states());
  for (const auto& region : regions) {
    DynBitset zone = region.er | region.qr;
    zone.for_each([&](std::size_t u) {
      if (cover.eval(sg.code(static_cast<StateId>(u)))) return;
      for (const auto& edge : sg.succs(static_cast<StateId>(u))) {
        if (!zone.test(edge.target)) continue;
        if (cover.eval(sg.code(edge.target))) bad.set(edge.target);
      }
    });
  }
  return bad;
}

/// Gate complexity of a function whose minimized cover is `cover`:
/// min(lit(cover), lit(complement)), the complement minimized over the same
/// on/off codes with the roles swapped.  The complement is minimized only
/// when the separating-literal lower bound (which binds it too) leaves room
/// for it to be smaller; `minimizations` counts the minimize_onoff calls.
int gate_complexity_of(const Cover& cover,
                       const std::vector<std::uint64_t>& on_codes,
                       const std::vector<std::uint64_t>& off_codes,
                       int num_vars, const MinimizeOptions& mopts,
                       int& minimizations) {
  const int lits = cover.num_literals();
  if (lits <= 1 ||
      separating_literals_lower_bound(on_codes, off_codes, num_vars, lits) >=
          lits)
    return lits;
  ++minimizations;
  return std::min(lits, minimize_onoff(off_codes, on_codes, num_vars, mopts)
                            .num_literals());
}

/// monotonous_cover over the precomputed reachable set of `sg`.
EventCover event_cover(const StateGraph& sg, const DynBitset& reachable,
                       Event e, const McOptions& opts, int& minimizations) {
  EventCover out;
  out.event = e;
  out.regions = excitation_regions(sg, e);

  out.on = union_er(sg, out.regions);
  out.dc = union_qr(sg, out.regions);
  out.off = reachable - out.on - out.dc;

  const MinimizeOptions mopts{opts.minimize_passes};
  const auto on_codes = codes_of(sg, out.on);
  std::vector<std::uint64_t> off_codes;

  // Repair loop: enforce condition 3 by moving rising quiescent states to
  // the off-set and re-minimizing.  Terminates because each round shrinks
  // the don't-care set.
  while (true) {
    off_codes = codes_of(sg, out.off);
    out.cover = minimize_onoff(on_codes, off_codes, sg.num_signals(), mopts);
    ++minimizations;
    const DynBitset bad = monotonicity_violations(sg, out.cover, out.regions);
    if (bad.none()) break;
    out.off |= bad;
    out.dc -= bad;
  }

  // The complemented form is judged with the final don't-care space.
  out.complexity = gate_complexity_of(out.cover, on_codes, off_codes,
                                      sg.num_signals(), mopts, minimizations);
  return out;
}

/// complete_cover over the precomputed reachable set of `sg`.
Cover next_state_cover(const StateGraph& sg, const DynBitset& reachable,
                       int sig, int* complexity, const McOptions& opts,
                       int& minimizations) {
  std::vector<std::uint64_t> on, off;
  reachable.for_each([&](std::size_t s) {
    const auto id = static_cast<StateId>(s);
    (next_value(sg, id, sig) ? on : off).push_back(sg.code(id));
  });
  const MinimizeOptions mopts{opts.minimize_passes};
  Cover direct = minimize_onoff(on, off, sg.num_signals(), mopts);
  ++minimizations;
  if (complexity)
    *complexity = gate_complexity_of(direct, on, off, sg.num_signals(), mopts,
                                     minimizations);
  return direct;
}

}  // namespace

EventCover monotonous_cover(const StateGraph& sg, Event e,
                            const McOptions& opts) {
  int minimizations = 0;
  return event_cover(sg, sg.reachable(), e, opts, minimizations);
}

Cover complete_cover(const StateGraph& sg, int sig, int* complexity,
                     const McOptions& opts) {
  int minimizations = 0;
  return next_state_cover(sg, sg.reachable(), sig, complexity, opts,
                          minimizations);
}

SignalSynthesis synthesize_signal(const StateGraph& sg, int sig,
                                  const McOptions& opts) {
  if (sg.signal(sig).kind == SignalKind::kInput)
    throw Error("synthesize_signal: input signal " + sg.signal(sig).name);

  SignalSynthesis out;
  out.signal = sig;
  const DynBitset reachable = sg.reachable();
  out.set = event_cover(sg, reachable, Event{sig, true}, opts,
                        out.minimizations);
  out.reset = event_cover(sg, reachable, Event{sig, false}, opts,
                          out.minimizations);
  out.complete = next_state_cover(sg, reachable, sig,
                                  &out.complete_complexity, opts,
                                  out.minimizations);

  const int seq = std::max(out.set.complexity, out.reset.complexity);
  switch (opts.architecture) {
    case Architecture::kAuto:
      out.combinational = out.complete_complexity <= seq;
      break;
    case Architecture::kStandardC:
      out.combinational = false;
      break;
    case Architecture::kComplexGate:
      out.combinational = true;
      break;
  }
  out.complexity = out.combinational ? out.complete_complexity : seq;
  return out;
}

namespace {

/// Bits 0, 2, 4, ... of `x`, packed into the low 32 bits.
std::uint64_t even_bits(std::uint64_t x) {
  x &= 0x5555555555555555u;
  x = (x | x >> 1) & 0x3333333333333333u;
  x = (x | x >> 2) & 0x0F0F0F0F0F0F0F0Fu;
  x = (x | x >> 4) & 0x00FF00FF00FF00FFu;
  x = (x | x >> 8) & 0x0000FFFF0000FFFFu;
  return (x | x >> 16) & 0x00000000FFFFFFFFu;
}

/// Per-signal masks of one state: rise / fall enabled, and next value.
struct StateMasks {
  std::uint64_t rise, fall, next;
};

StateMasks state_masks(const StateGraph& sg, StateId s) {
  const auto& ev = sg.enabled_mask(s);
  const std::uint64_t rise =
      even_bits(ev[0] >> 1) | even_bits(ev[1] >> 1) << 32;
  const std::uint64_t fall = even_bits(ev[0]) | even_bits(ev[1]) << 32;
  return {rise, fall, rise | (sg.code(s) & ~fall)};
}

/// popcount(vars), raised to 1 when both sides of the cover are non-empty.
int separation_bound(std::uint64_t vars, bool both_sides) {
  return std::max(std::popcount(vars), both_sides ? 1 : 0);
}

}  // namespace

std::vector<ComplexityBound> complexity_lower_bounds(const StateGraph& sg) {
  // cross[v] has bit a when some arc flipping v alone crosses signal a's
  // split for that cover; transposed into per-signal variable sets below.
  std::uint64_t cross_set[64] = {}, cross_reset[64] = {},
                cross_complete[64] = {};
  std::uint64_t any_rise = 0, any_fall = 0, any_next = 0, any_not_next = 0;
  sg.reachable().for_each([&](std::size_t i) {
    const auto s = static_cast<StateId>(i);
    const StateMasks from = state_masks(sg, s);
    any_rise |= from.rise;
    any_fall |= from.fall;
    any_next |= from.next;
    any_not_next |= ~from.next;
    for (const auto& edge : sg.succs(s)) {
      const std::uint64_t flip = sg.code(s) ^ sg.code(edge.target);
      if (!std::has_single_bit(flip)) continue;
      const int v = std::countr_zero(flip);
      const StateMasks to = state_masks(sg, edge.target);
      cross_complete[v] |= from.next ^ to.next;
      cross_set[v] |= (from.rise & ~to.next) | (to.rise & ~from.next);
      cross_reset[v] |= (from.fall & to.next) | (to.fall & from.next);
    }
  });

  const std::vector<int> sigs = sg.noninput_signals();
  std::vector<ComplexityBound> out(sigs.size());
  for (std::size_t k = 0; k < sigs.size(); ++k) {
    const int a = sigs[k];
    ComplexityBound& b = out[k];
    for (int v = 0; v < sg.num_signals(); ++v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      if ((cross_set[v] >> a) & 1u) b.set_vars |= bit;
      if ((cross_reset[v] >> a) & 1u) b.reset_vars |= bit;
      if ((cross_complete[v] >> a) & 1u) b.complete_vars |= bit;
    }
    const bool rises = (any_rise >> a) & 1u, falls = (any_fall >> a) & 1u;
    const bool high = (any_next >> a) & 1u, low = (any_not_next >> a) & 1u;
    b.set = separation_bound(b.set_vars, rises && low);
    b.reset = separation_bound(b.reset_vars, falls && high);
    b.complete = separation_bound(b.complete_vars, high && low);
  }
  return out;
}

int resolve_synthesis_threads(const McOptions& opts,
                              std::size_t num_signals) {
  return resolve_worker_threads(opts.threads, num_signals);
}

namespace {

/// Per-signal syntheses in `sigs` order.  The SG is shared read-only; each
/// signal's synthesis is independent, so any schedule produces the same
/// per-slot results as the serial loop.
std::vector<SignalSynthesis> synthesize_signals(const StateGraph& sg,
                                                const std::vector<int>& sigs,
                                                const McOptions& opts,
                                                const RunGuard* guard) {
  std::vector<SignalSynthesis> out(sigs.size());
  parallel_for(sigs.size(), opts.threads, [&](std::size_t i) {
    fault::hit("synth.signal");
    guard_charge(guard, 1, "synth.signal");
    out[i] = synthesize_signal(sg, sigs[i], opts);
  });
  return out;
}

}  // namespace

Netlist netlist_of(const StateGraph& sg,
                   const std::vector<SignalSynthesis>& syntheses) {
  Netlist netlist(&sg);
  for (const SignalSynthesis& synth : syntheses) {
    SignalImpl impl;
    impl.signal = synth.signal;
    impl.combinational = synth.combinational;
    impl.complexity = synth.complexity;
    if (synth.combinational) {
      impl.set = synth.complete;
      impl.set_complexity = synth.complete_complexity;
    } else {
      impl.set = synth.set.cover;
      impl.reset = synth.reset.cover;
      impl.set_complexity = synth.set.complexity;
      impl.reset_complexity = synth.reset.complexity;
    }
    netlist.add_impl(std::move(impl));
  }
  return netlist;
}

Netlist synthesize_all(const StateGraph& sg, const McOptions& opts,
                       std::vector<SignalSynthesis>* out_syntheses,
                       const RunGuard* guard) {
  std::vector<SignalSynthesis> syntheses =
      synthesize_signals(sg, sg.noninput_signals(), opts, guard);
  Netlist netlist = netlist_of(sg, syntheses);
  if (out_syntheses) *out_syntheses = std::move(syntheses);
  return netlist;
}

}  // namespace sitm
