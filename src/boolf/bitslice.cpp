#include "boolf/bitslice.hpp"

#include "util/bitwords.hpp"

namespace sitm {

BitSlicedOffSet::BitSlicedOffSet(const std::vector<std::uint64_t>& off,
                                 int num_vars)
    : num_vars_(num_vars),
      n_(off.size()),
      words_(bitwords::words_for(off.size())),
      tail_(bitwords::tail_mask(off.size())),
      cols_(static_cast<std::size_t>(num_vars) * bitwords::words_for(off.size()),
            0) {
  for (std::size_t j = 0; j < off.size(); ++j) {
    const std::uint64_t bit = std::uint64_t{1} << (j & 63);
    std::uint64_t code = off[j];
    while (code) {
      const int v = __builtin_ctzll(code);
      code &= code - 1;
      cols_[static_cast<std::size_t>(v) * words_ + (j >> 6)] |= bit;
    }
  }
}

bool BitSlicedOffSet::hits(const Cube& c) const {
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t acc = (w + 1 == words_) ? tail_ : ~std::uint64_t{0};
    std::uint64_t rem = c.care;
    while (rem && acc) {
      const int u = __builtin_ctzll(rem);
      rem &= rem - 1;
      const std::uint64_t ones = col(u)[w];
      acc &= ((c.val >> u) & 1u) ? ones : ~ones;
    }
    if (acc) return true;
  }
  return false;
}

bool BitSlicedOffSet::contains_minterm(std::uint64_t code) const {
  return hits(Cube::minterm(code, num_vars_));
}

bool BitSlicedOffSet::removal_hits(const Cube& c, int v) const {
  const std::uint64_t others = c.care & ~(std::uint64_t{1} << v);
  for (std::size_t w = 0; w < words_; ++w) {
    // Surviving off-minterms for this trial: those that disagree with the
    // cube on v.  (Minterms agreeing on v would have to be inside the cube
    // already, which the off-cleanliness precondition rules out.)
    const std::uint64_t ones_v = col(v)[w];
    std::uint64_t acc = ((c.val >> v) & 1u) ? ~ones_v : ones_v;
    if (w + 1 == words_) acc &= tail_;
    std::uint64_t rem = others;
    while (rem && acc) {
      const int u = __builtin_ctzll(rem);
      rem &= rem - 1;
      const std::uint64_t ones = col(u)[w];
      acc &= ((c.val >> u) & 1u) ? ones : ~ones;
    }
    if (acc) return true;
  }
  return false;
}

Cube expand_minterm(std::uint64_t code, const BitSlicedOffSet& off,
                    const std::vector<int>& var_order) {
  // Degenerate input (the minterm itself is in the off-set): every widening
  // still hits, so the row-major fixpoint returns the minterm unchanged.
  if (off.contains_minterm(code)) return Cube::minterm(code, off.num_vars());
  return expand_disjoint_minterm(code, off, var_order);
}

Cube expand_disjoint_minterm(std::uint64_t code, const BitSlicedOffSet& off,
                             const std::vector<int>& var_order) {
  Cube cube = Cube::minterm(code, off.num_vars());
  // One ordered pass reaches the row-major fixpoint.  A trial for v fails
  // iff some off-minterm's only cared disagreement with the cube is v; later
  // removals only shrink the cared set, so that witness keeps blocking v
  // forever and re-running the order can never remove more literals.
  for (int v : var_order) {
    if (!cube.has_literal(v)) continue;
    if (!off.removal_hits(cube, v)) {
      cube.care &= ~(std::uint64_t{1} << v);
      cube.val &= cube.care;
    }
  }
  return cube;
}

}  // namespace sitm
