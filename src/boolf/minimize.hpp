#pragma once
// Two-level minimization against explicit on-set / off-set minterm lists
// (espresso-style expand + irredundant).  Minterms not listed in either set
// are don't-cares — the natural setting for covers over SG states, where
// unreachable codes are free.

#include <cstdint>
#include <vector>

#include "boolf/bitslice.hpp"
#include "boolf/cover.hpp"

namespace sitm {

struct MinimizeOptions {
  /// Extra reduce/re-expand refinement passes.
  int passes = 1;
  /// Use the retained row-major reference paths instead of the fast
  /// engines: the full off-set scan in expand_minterm (vs the bit-sliced
  /// reduction) and the rescan-all greedy loop in irredundant (vs the
  /// lazy-revalidation max-heap).  Slower; kept as the equivalence-test
  /// reference — both engines return literal-for-literal identical covers.
  bool reference_engine = false;
};

/// Minimal-ish SOP cover that contains every `on` minterm and no `off`
/// minterm.  Throws if the two lists intersect.
Cover minimize_onoff(const std::vector<std::uint64_t>& on,
                     const std::vector<std::uint64_t>& off, int num_vars,
                     const MinimizeOptions& opts = {});

/// Lower bound on the literal count of any cover separating `on` from `off`
/// (in either direction: the cover of `on` against `off`, or its
/// complement).  Counts the variables v on which some on-code and some
/// off-code differ in v alone: the cube covering that on-code (or off-code)
/// must carry a literal on v, so every such v costs a distinct literal.
/// Holds for any MinimizeOptions::passes.  Counting stops once it reaches
/// `enough`, so the result is min(bound, enough) when enough >= 0.  The two
/// lists must be disjoint (as minimize_onoff requires); codes are masked to
/// `num_vars` bits.
int separating_literals_lower_bound(const std::vector<std::uint64_t>& on,
                                    const std::vector<std::uint64_t>& off,
                                    int num_vars, int enough);

/// Expand a single minterm into a prime-ish cube against `off`.
/// `var_order` lists variables in the order literal removal is attempted.
/// Row-major reference engine; the bit-sliced overload lives in bitslice.hpp
/// and returns identical cubes.
Cube expand_minterm(std::uint64_t code, const std::vector<std::uint64_t>& off,
                    int num_vars, const std::vector<int>& var_order);

/// Greedy irredundant: select a subset of `cubes` covering all `on`
/// minterms, essential cubes first, then by descending marginal coverage
/// (ties: fewer literals, then lower cube index).  The default engine keys
/// candidates in a max-heap over packed uncovered-minterm words and
/// re-scores a cube only when it is popped stale; `reference_engine`
/// selects the retained rescan-all loop.  Both return the same cubes.
std::vector<Cube> irredundant(const std::vector<Cube>& cubes,
                              const std::vector<std::uint64_t>& on,
                              bool reference_engine = false);

}  // namespace sitm
