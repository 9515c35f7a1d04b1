#include "boolf/minimize.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/bitwords.hpp"
#include "util/error.hpp"
#include "util/flat_map.hpp"

namespace sitm {

namespace {

std::uint64_t var_mask(int num_vars) {
  return num_vars >= 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << num_vars) - 1);
}

bool cube_hits_off(const Cube& c, const std::vector<std::uint64_t>& off) {
  for (const auto code : off)
    if (c.contains_code(code)) return true;
  return false;
}

std::vector<std::uint64_t> dedup(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

struct CubeHash {
  std::uint64_t operator()(const Cube& c) const {
    return hash_mix(c.val ^ hash_mix(c.care));
  }
};

/// Insertion-ordered cube set: membership through a flat hash, order through
/// the output vector (the O(n^2) std::find dedup this replaces was itself a
/// hot spot on large on-sets).
using CubeSet = FlatMap<Cube, char, CubeHash>;

}  // namespace

int separating_literals_lower_bound(const std::vector<std::uint64_t>& on,
                                    const std::vector<std::uint64_t>& off,
                                    int num_vars, int enough) {
  if (enough <= 0) return 0;
  const std::uint64_t mask = var_mask(num_vars);
  // The relation is symmetric: probe each code of the smaller list against
  // the sorted larger one.
  const bool on_probes = on.size() <= off.size();
  const auto& probes = on_probes ? on : off;
  std::vector<std::uint64_t> table;
  table.reserve(on_probes ? off.size() : on.size());
  for (const auto c : on_probes ? off : on) table.push_back(c & mask);
  std::sort(table.begin(), table.end());

  std::uint64_t found = 0;  // variables already counted
  int count = 0;
  for (const auto raw : probes) {
    const std::uint64_t code = raw & mask;
    for (std::uint64_t todo = mask & ~found; todo != 0; todo &= todo - 1) {
      const std::uint64_t bit = todo & (~todo + 1);
      if (!std::binary_search(table.begin(), table.end(), code ^ bit))
        continue;
      found |= bit;
      if (++count >= enough) return count;
    }
  }
  return count;
}

Cube expand_minterm(std::uint64_t code, const std::vector<std::uint64_t>& off,
                    int num_vars, const std::vector<int>& var_order) {
  Cube cube = Cube::minterm(code, num_vars);
  bool changed = true;
  // Iterate to a fixpoint: removing one literal can enable another.
  while (changed) {
    changed = false;
    for (int v : var_order) {
      if (!cube.has_literal(v)) continue;
      const Cube wider = cube.without_literal(v);
      if (!cube_hits_off(wider, off)) {
        cube = wider;
        changed = true;
      }
    }
  }
  return cube;
}

namespace {

std::vector<Cube> selected_cubes(const std::vector<Cube>& cubes,
                                 const std::vector<char>& selected) {
  std::vector<Cube> out;
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (selected[i]) out.push_back(cubes[i]);
  return out;
}

/// Retained rescan-all greedy loop (MinimizeOptions::reference_engine): the
/// equivalence baseline the heap engine below is pinned against.
std::vector<Cube> irredundant_reference(const std::vector<Cube>& cubes,
                                        const std::vector<std::uint64_t>& on) {
  // coverage[i] = indices of on-minterms covered by cube i;
  // first_cover[m] = lowest cube index covering minterm m.
  std::vector<std::vector<int>> coverage(cubes.size());
  std::vector<int> cover_count(on.size(), 0);
  std::vector<int> first_cover(on.size(), -1);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    for (std::size_t m = 0; m < on.size(); ++m) {
      if (cubes[i].contains_code(on[m])) {
        coverage[i].push_back(static_cast<int>(m));
        if (cover_count[m]++ == 0) first_cover[m] = static_cast<int>(i);
      }
    }
  }

  std::vector<char> selected(cubes.size(), 0);
  std::vector<char> covered(on.size(), 0);
  std::size_t num_covered = 0;

  auto select = [&](std::size_t i) {
    if (selected[i]) return;
    selected[i] = 1;
    for (int m : coverage[i]) {
      if (!covered[m]) {
        covered[m] = 1;
        ++num_covered;
      }
    }
  };

  // Essential cubes: sole cover of some minterm (its recorded first — and
  // only — coverer; no per-(minterm, cube) containment rescan needed).
  for (std::size_t m = 0; m < on.size(); ++m) {
    if (cover_count[m] == 1) select(static_cast<std::size_t>(first_cover[m]));
  }

  // Greedy: biggest marginal coverage, ties by fewer literals.
  while (num_covered < on.size()) {
    std::size_t best = cubes.size();
    int best_gain = -1, best_lits = 65;
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      if (selected[i]) continue;
      int gain = 0;
      for (int m : coverage[i])
        if (!covered[m]) ++gain;
      const int lits = cubes[i].num_literals();
      if (gain > best_gain || (gain == best_gain && lits < best_lits)) {
        best_gain = gain;
        best_lits = lits;
        best = i;
      }
    }
    if (best == cubes.size() || best_gain <= 0)
      throw Error("irredundant: on-set not coverable by candidate cubes");
    select(best);
  }

  return selected_cubes(cubes, selected);
}

/// Heap entry for the lazy-revalidation engine.  `gain` is the marginal
/// coverage at push time — an upper bound on the current value, since
/// covering a minterm only ever lowers other cubes' gains.
struct GainEntry {
  int gain;
  int lits;
  std::uint32_t index;
};

/// priority_queue "less": lower priority = smaller gain, then more
/// literals, then higher index — so the top is exactly the cube the
/// reference rescan would pick (its scan keeps the first maximum, i.e. the
/// lowest index among (max gain, min literals) ties).
struct GainLess {
  bool operator()(const GainEntry& a, const GainEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.lits != b.lits) return a.lits > b.lits;
    return a.index > b.index;
  }
};

/// Priority-driven greedy selection.  Per-cube coverage is stored as packed
/// 64-bit rows over on-minterm indices (the bit-sliced layout of
/// boolf/bitslice.hpp turned sideways), so re-scoring a cube is a
/// word-parallel AND/popcount against the uncovered mask instead of a list
/// walk, and only cubes popped with a stale key are re-scored at all — the
/// O(cubes) rescan per pick of the reference loop never happens.
std::vector<Cube> irredundant_priority(const std::vector<Cube>& cubes,
                                       const std::vector<std::uint64_t>& on) {
  const std::size_t words = bitwords::words_for(on.size());
  std::vector<std::uint64_t> rows(cubes.size() * words, 0);
  std::vector<int> cover_count(on.size(), 0);
  std::vector<int> first_cover(on.size(), -1);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    std::uint64_t* row = rows.data() + i * words;
    for (std::size_t m = 0; m < on.size(); ++m) {
      if (cubes[i].contains_code(on[m])) {
        row[m >> 6] |= std::uint64_t{1} << (m & 63);
        if (cover_count[m]++ == 0) first_cover[m] = static_cast<int>(i);
      }
    }
  }

  std::vector<char> selected(cubes.size(), 0);
  std::vector<std::uint64_t> uncovered(words, ~std::uint64_t{0});
  if (words > 0) uncovered[words - 1] = bitwords::tail_mask(on.size());
  std::size_t num_uncovered = on.size();

  auto gain_of = [&](std::size_t i) {
    const std::uint64_t* row = rows.data() + i * words;
    int gain = 0;
    for (std::size_t w = 0; w < words; ++w)
      gain += __builtin_popcountll(row[w] & uncovered[w]);
    return gain;
  };
  auto select = [&](std::size_t i) {
    if (selected[i]) return;
    selected[i] = 1;
    const std::uint64_t* row = rows.data() + i * words;
    for (std::size_t w = 0; w < words; ++w) {
      num_uncovered -= static_cast<std::size_t>(
          __builtin_popcountll(row[w] & uncovered[w]));
      uncovered[w] &= ~row[w];
    }
  };

  // Essential cubes first, exactly as in the reference engine.
  for (std::size_t m = 0; m < on.size(); ++m) {
    if (cover_count[m] == 1) select(static_cast<std::size_t>(first_cover[m]));
  }

  std::priority_queue<GainEntry, std::vector<GainEntry>, GainLess> heap;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (selected[i]) continue;
    const int gain = gain_of(i);
    // Zero gain can never recover (gains only fall), so never enqueue it.
    if (gain > 0)
      heap.push(GainEntry{gain, cubes[i].num_literals(),
                          static_cast<std::uint32_t>(i)});
  }

  while (num_uncovered > 0) {
    if (heap.empty())
      throw Error("irredundant: on-set not coverable by candidate cubes");
    const GainEntry top = heap.top();
    heap.pop();
    if (selected[top.index]) continue;  // re-pushed before an earlier select
    const int gain = gain_of(top.index);
    if (gain != top.gain) {
      // Stale: stored keys are upper bounds, so re-keying and retrying
      // still surfaces the true maximum before anything is selected.
      if (gain > 0) heap.push(GainEntry{gain, top.lits, top.index});
      continue;
    }
    select(top.index);
  }

  return selected_cubes(cubes, selected);
}

}  // namespace

std::vector<Cube> irredundant(const std::vector<Cube>& cubes,
                              const std::vector<std::uint64_t>& on,
                              bool reference_engine) {
  return reference_engine ? irredundant_reference(cubes, on)
                          : irredundant_priority(cubes, on);
}

Cover minimize_onoff(const std::vector<std::uint64_t>& on_in,
                     const std::vector<std::uint64_t>& off_in, int num_vars,
                     const MinimizeOptions& opts) {
  const std::uint64_t mask = var_mask(num_vars);
  std::vector<std::uint64_t> on, off;
  on.reserve(on_in.size());
  off.reserve(off_in.size());
  for (auto c : on_in) on.push_back(c & mask);
  for (auto c : off_in) off.push_back(c & mask);
  on = dedup(std::move(on));
  off = dedup(std::move(off));
  {
    // Sorted-merge intersection check.
    std::size_t i = 0, j = 0;
    while (i < on.size() && j < off.size()) {
      if (on[i] == off[j]) throw Error("minimize_onoff: on/off sets intersect");
      (on[i] < off[j]) ? ++i : ++j;
    }
  }
  if (on.empty()) return Cover::zero(num_vars);
  if (off.empty()) return Cover::one(num_vars);

  // Variable removal order: try to drop the variables that least often
  // distinguish on from off first (globally uninformative literals).
  std::vector<int> var_order(static_cast<std::size_t>(num_vars));
  std::iota(var_order.begin(), var_order.end(), 0);
  {
    std::vector<long> on_ones(static_cast<std::size_t>(num_vars), 0);
    std::vector<long> off_ones(static_cast<std::size_t>(num_vars), 0);
    for (auto c : on)
      for (int v = 0; v < num_vars; ++v) on_ones[v] += (c >> v) & 1;
    for (auto c : off)
      for (int v = 0; v < num_vars; ++v) off_ones[v] += (c >> v) & 1;
    std::vector<double> info(static_cast<std::size_t>(num_vars));
    for (int v = 0; v < num_vars; ++v) {
      const double pon = static_cast<double>(on_ones[v]) / on.size();
      const double poff = static_cast<double>(off_ones[v]) / off.size();
      info[v] = std::abs(pon - poff);
    }
    std::stable_sort(var_order.begin(), var_order.end(),
                     [&](int a, int b) { return info[a] < info[b]; });
  }

  // The off-set is transposed once per call; every expansion below is a
  // word-parallel reduction over its columns.  Both engines return identical
  // cubes, so the choice is pure engineering: below a dozen or so
  // off-minterms the transpose allocation costs more than the scan it saves.
  const bool slice = !opts.reference_engine && off.size() >= 12;
  const BitSlicedOffSet sliced =
      slice ? BitSlicedOffSet(off, num_vars) : BitSlicedOffSet{};
  auto expand = [&](std::uint64_t code, const std::vector<int>& order) {
    // The intersection check above rules out the degenerate input, so the
    // bit-sliced expansion skips its own check.
    return slice ? expand_disjoint_minterm(code, sliced, order)
                 : expand_minterm(code, off, num_vars, order);
  };

  std::vector<Cube> primes;
  primes.reserve(on.size());
  CubeSet seen(on.size());
  for (auto code : on) {
    const Cube c = expand(code, var_order);
    if (seen.emplace(c, 1).second) primes.push_back(c);
  }
  std::vector<Cube> chosen = irredundant(primes, on, opts.reference_engine);

  // Refinement: re-expand each chosen cube with a reversed order and keep
  // the variant set if it lowers the literal count.
  for (int pass = 1; pass < opts.passes; ++pass) {
    std::vector<int> reversed(var_order.rbegin(), var_order.rend());
    std::vector<Cube> alt = primes;
    CubeSet alt_seen = seen;
    for (auto code : on) {
      const Cube c = expand(code, reversed);
      if (alt_seen.emplace(c, 1).second) alt.push_back(c);
    }
    std::vector<Cube> alt_chosen = irredundant(alt, on, opts.reference_engine);
    auto lits = [](const std::vector<Cube>& v) {
      int n = 0;
      for (const auto& c : v) n += c.num_literals();
      return n;
    };
    if (lits(alt_chosen) < lits(chosen)) chosen = std::move(alt_chosen);
  }

  Cover out(num_vars, std::move(chosen));
  out.make_minimal_wrt_containment();
  out.sort();
  return out;
}

}  // namespace sitm
