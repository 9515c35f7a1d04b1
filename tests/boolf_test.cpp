// Unit tests for the cube/cover algebra and the two-level minimizer.

#include <gtest/gtest.h>

#include <algorithm>

#include "boolf/cover.hpp"
#include "boolf/cube.hpp"
#include "boolf/minimize.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

const std::vector<std::string> kNames = {"a", "b", "c", "d", "e", "f"};

Cube cube(std::initializer_list<std::pair<int, bool>> lits) {
  Cube c = Cube::one();
  for (auto [v, pol] : lits) c = c.with_literal(v, pol);
  return c;
}

TEST(Cube, Basics) {
  const Cube one = Cube::one();
  EXPECT_TRUE(one.is_one());
  EXPECT_EQ(one.num_literals(), 0);
  EXPECT_TRUE(one.contains_code(0b1010));

  const Cube ab = cube({{0, true}, {1, false}});  // a b'
  EXPECT_EQ(ab.num_literals(), 2);
  EXPECT_TRUE(ab.contains_code(0b001));   // a=1,b=0
  EXPECT_FALSE(ab.contains_code(0b011));  // b=1
  EXPECT_EQ(ab.to_string(kNames), "a b'");
}

TEST(Cube, MintermAndLiteral) {
  const Cube m = Cube::minterm(0b101, 3);
  EXPECT_EQ(m.num_literals(), 3);
  EXPECT_TRUE(m.contains_code(0b101));
  EXPECT_FALSE(m.contains_code(0b100));
  const Cube l = Cube::literal(2, false);
  EXPECT_TRUE(l.contains_code(0b011));
  EXPECT_FALSE(l.contains_code(0b100));
}

TEST(Cube, ContainmentIntersection) {
  const Cube a = cube({{0, true}});
  const Cube ab = cube({{0, true}, {1, true}});
  EXPECT_TRUE(a.contains(ab));
  EXPECT_FALSE(ab.contains(a));
  EXPECT_TRUE(a.intersects(ab));
  EXPECT_TRUE(ab.intersects(a));
  EXPECT_FALSE(ab.intersects(cube({{1, false}})));
  EXPECT_FALSE(cube({{1, true}}).intersects(cube({{1, false}})));
  EXPECT_EQ(a.meet(cube({{1, true}})), ab);
}

TEST(Cube, SupercubeDistance) {
  const Cube ab = cube({{0, true}, {1, true}});
  const Cube anb = cube({{0, true}, {1, false}});
  EXPECT_EQ(ab.supercube(anb), cube({{0, true}}));
  EXPECT_EQ(ab.distance(anb), 1);
  EXPECT_EQ(ab.distance(ab), 0);
}

TEST(Cover, EvalAndLiterals) {
  Cover f(3);
  f.add(cube({{0, true}, {1, true}}));   // ab
  f.add(cube({{2, false}}));             // c'
  EXPECT_EQ(f.num_literals(), 3);
  EXPECT_TRUE(f.eval(0b011));   // ab
  EXPECT_TRUE(f.eval(0b000));   // c'
  EXPECT_FALSE(f.eval(0b101));  // a, c
  EXPECT_EQ(f.to_string(kNames), "a b + c'");
}

TEST(Cover, ContainmentCleanup) {
  Cover f(3);
  f.add(cube({{0, true}}));
  f.add(cube({{0, true}, {1, true}}));  // contained
  f.add(cube({{0, true}}));             // duplicate
  f.make_minimal_wrt_containment();
  EXPECT_EQ(f.size(), 1u);
}

TEST(Cover, Tautology) {
  EXPECT_TRUE(Cover::one(3).tautology());
  EXPECT_FALSE(Cover::zero(3).tautology());
  Cover f(1);
  f.add(cube({{0, true}}));
  f.add(cube({{0, false}}));
  EXPECT_TRUE(f.tautology());  // a + a' = 1
  Cover g(2);
  g.add(cube({{0, true}}));
  g.add(cube({{1, true}}));
  EXPECT_FALSE(g.tautology());  // a + b != 1
}

TEST(Cover, CoversCube) {
  Cover f(2);
  f.add(cube({{0, true}}));
  f.add(cube({{0, false}, {1, true}}));
  // f = a + a'b covers cube b
  EXPECT_TRUE(f.covers_cube(cube({{1, true}})));
  EXPECT_FALSE(f.covers_cube(cube({{1, false}})));
}

TEST(Cover, ComplementIsExact) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    const int n = 4;
    Cover f(n);
    const int terms = 1 + static_cast<int>(rng.below(4));
    for (int t = 0; t < terms; ++t) {
      Cube c = Cube::one();
      for (int v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r == 0) c = c.with_literal(v, false);
        if (r == 1) c = c.with_literal(v, true);
      }
      f.add(c);
    }
    const Cover fc = f.complement();
    for (std::uint64_t code = 0; code < (1u << n); ++code)
      EXPECT_NE(f.eval(code), fc.eval(code)) << "code " << code;
  }
}

TEST(Cover, AndOrSemantics) {
  Cover a(3), b(3);
  a.add(cube({{0, true}}));
  b.add(cube({{1, true}}));
  b.add(cube({{2, false}}));
  const Cover o = a | b;
  const Cover n = a & b;
  for (std::uint64_t code = 0; code < 8; ++code) {
    EXPECT_EQ(o.eval(code), a.eval(code) || b.eval(code));
    EXPECT_EQ(n.eval(code), a.eval(code) && b.eval(code));
  }
}

TEST(Cover, EquivalenceUpToRepresentation) {
  Cover xor1(2), xor2(2);
  xor1.add(cube({{0, true}, {1, false}}));
  xor1.add(cube({{0, false}, {1, true}}));
  xor2.add(cube({{1, true}, {0, false}}));
  xor2.add(cube({{1, false}, {0, true}}));
  EXPECT_TRUE(xor1.equivalent(xor2));
  EXPECT_FALSE(xor1.equivalent(Cover::one(2)));
}

TEST(Cover, Support) {
  Cover f(4);
  f.add(cube({{0, true}, {3, false}}));
  EXPECT_EQ(f.support(), 0b1001u);
}

// ---------------------------------------------------------------- minimize

TEST(Minimize, ExactCorner) {
  // on = {00}, off = {11}: a single cube a' (or b') suffices.
  const Cover f = minimize_onoff({0b00}, {0b11}, 2);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.num_literals(), 1);
  EXPECT_TRUE(f.eval(0b00));
  EXPECT_FALSE(f.eval(0b11));
}

TEST(Minimize, ConstantCases) {
  EXPECT_TRUE(minimize_onoff({}, {0b0}, 2).empty());
  const Cover one = minimize_onoff({0b0}, {}, 2);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.cubes()[0].is_one());
}

TEST(Minimize, ThrowsOnIntersection) {
  EXPECT_THROW(minimize_onoff({0b1}, {0b1}, 1), Error);
}

TEST(Minimize, XorNeedsTwoCubes) {
  const Cover f = minimize_onoff({0b01, 0b10}, {0b00, 0b11}, 2);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.num_literals(), 4);
}

TEST(Minimize, DontCaresReduceLiterals) {
  // on = {111}, off = {000}; everything else DC: a 1-literal cube works.
  const Cover f = minimize_onoff({0b111}, {0b000}, 3);
  EXPECT_EQ(f.num_literals(), 1);
}

TEST(Minimize, CoversExactlyOnAndAvoidsOff) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    const int n = 5;
    std::vector<std::uint64_t> on, off;
    for (std::uint64_t code = 0; code < (1u << n); ++code) {
      const auto r = rng.below(3);
      if (r == 0) on.push_back(code);
      if (r == 1) off.push_back(code);
    }
    if (on.empty() || off.empty()) continue;
    const Cover f = minimize_onoff(on, off, n);
    for (auto code : on) EXPECT_TRUE(f.eval(code));
    for (auto code : off) EXPECT_FALSE(f.eval(code));
  }
}

TEST(Minimize, IrredundantGreedyCoversAll) {
  const std::vector<std::uint64_t> on{0, 1, 2, 3};
  std::vector<Cube> cubes{
      cube({{0, false}}),            // covers 0, 2 (b free)
      cube({{0, true}}),             // covers 1, 3
      cube({{1, false}}),            // covers 0, 1
      cube({{1, true}}),             // covers 2, 3
  };
  const auto chosen = irredundant(cubes, on);
  EXPECT_LE(chosen.size(), 2u);
  Cover f(2, chosen);
  for (auto code : on) EXPECT_TRUE(f.eval(code));
}

TEST(Minimize, ExpandFindsPrime) {
  // off = {11}; minterm 00 expands to a' or b'.
  const Cube c = expand_minterm(0b00, {0b11}, 2, {0, 1});
  EXPECT_EQ(c.num_literals(), 1);
}

TEST(Minimize, SeparatingBoundSingleLiteral) {
  // f = a over (a, b): every on-code has an off-neighbour across a only.
  const std::vector<std::uint64_t> on{0b01, 0b11}, off{0b00, 0b10};
  EXPECT_EQ(separating_literals_lower_bound(on, off, 2, 64), 1);
  EXPECT_EQ(separating_literals_lower_bound(off, on, 2, 64), 1);
  EXPECT_EQ(minimize_onoff(on, off, 2).num_literals(), 1);
}

TEST(Minimize, SeparatingBoundAndGateWithBothNeighbours) {
  // f = a*b with both distance-1 off-codes listed: a and b each separate,
  // so no cover (a*b) or complement (a' + b') has fewer than 2 literals.
  const std::vector<std::uint64_t> on{0b11}, off{0b01, 0b10};
  EXPECT_EQ(separating_literals_lower_bound(on, off, 2, 64), 2);
  EXPECT_EQ(separating_literals_lower_bound(off, on, 2, 64), 2);
  EXPECT_EQ(minimize_onoff(on, off, 2).num_literals(), 2);
  EXPECT_EQ(minimize_onoff(off, on, 2).num_literals(), 2);
  // With 10 as the only off-code, only a (bit 0) is forced.
  EXPECT_EQ(separating_literals_lower_bound(on, {0b10}, 2, 64), 1);
}

TEST(Minimize, SeparatingBoundStopsAtEnough) {
  // on = {000}, off = its three neighbours: the full bound is 3.
  const std::vector<std::uint64_t> on{0b000}, off{0b001, 0b010, 0b100};
  EXPECT_EQ(separating_literals_lower_bound(on, off, 3, 64), 3);
  EXPECT_EQ(separating_literals_lower_bound(on, off, 3, 2), 2);
  EXPECT_EQ(separating_literals_lower_bound(on, off, 3, 1), 1);
  EXPECT_EQ(separating_literals_lower_bound(on, off, 3, 0), 0);
  // Codes are masked to num_vars bits, as minimize_onoff masks them.
  EXPECT_EQ(separating_literals_lower_bound({0b1000}, {0b001}, 3, 64), 1);
  EXPECT_EQ(separating_literals_lower_bound({}, off, 3, 64), 0);
}

TEST(Minimize, SeparatingBoundNeverExceedsEitherCover) {
  // Random walks over the cube give SG-like code sets: many distance-1
  // on/off pairs, everything unvisited a don't-care.
  Rng rng(15);
  int rounds = 0, positive = 0;
  while (rounds < 2000) {
    const int n = 3 + static_cast<int>(rng.below(10));
    const std::uint64_t space = std::uint64_t{1} << n;
    std::vector<char> side(space, 0);  // 0 dc, 1 on, 2 off
    std::vector<std::uint64_t> on, off;
    std::uint64_t code = rng.below(space);
    const int steps = 2 + static_cast<int>(rng.below(60));
    for (int step = 0; step < steps; ++step) {
      if (side[code] == 0) {
        const auto r = rng.below(3);
        if (r < 2) {
          side[code] = static_cast<char>(r + 1);
          (r == 0 ? on : off).push_back(code);
        } else {
          side[code] = 3;  // a visited don't-care
        }
      }
      code ^= std::uint64_t{1} << rng.below(static_cast<std::uint64_t>(n));
    }
    if (on.empty() || off.empty()) continue;
    ++rounds;
    const int bound = separating_literals_lower_bound(on, off, n, 64);
    EXPECT_EQ(separating_literals_lower_bound(off, on, n, 64), bound);
    const int passes = 1 + static_cast<int>(rng.below(2));
    const MinimizeOptions mopts{passes};
    EXPECT_LE(bound, minimize_onoff(on, off, n, mopts).num_literals());
    EXPECT_LE(bound, minimize_onoff(off, on, n, mopts).num_literals());
    const int enough = static_cast<int>(rng.below(8));
    EXPECT_EQ(separating_literals_lower_bound(on, off, n, enough),
              std::min(bound, enough));
    if (bound > 0) ++positive;
  }
  EXPECT_GT(positive, 1000);  // the property is not vacuous
}

}  // namespace
}  // namespace sitm
