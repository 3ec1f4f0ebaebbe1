#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "iset/set.hpp"

namespace dhpf::iset {
namespace {

Params no_params;

/// 1D interval [lo, hi] as a Set.
Set interval(i64 lo, i64 hi) {
  BasicSet bs(1, no_params);
  bs.add_bounds(0, bs.expr_const(lo), bs.expr_const(hi));
  return Set(bs);
}

/// 2D box.
Set box2(i64 xlo, i64 xhi, i64 ylo, i64 yhi) {
  BasicSet bs(2, no_params);
  bs.add_bounds(0, bs.expr_const(xlo), bs.expr_const(xhi));
  bs.add_bounds(1, bs.expr_const(ylo), bs.expr_const(yhi));
  return Set(bs);
}

std::vector<std::vector<i64>> points_of(const Set& s, const std::vector<i64>& params = {}) {
  std::vector<std::vector<i64>> pts;
  s.enumerate(params, [&](const std::vector<i64>& p) { pts.push_back(p); });
  return pts;
}

TEST(LinExpr, Arithmetic) {
  LinExpr a = LinExpr::variable(2, 0, 0, 3);
  LinExpr b = LinExpr::variable(2, 0, 1, -1);
  LinExpr c = a + b * 2 - LinExpr::constant(2, 0, 5);
  EXPECT_EQ(c.var[0], 3);
  EXPECT_EQ(c.var[1], -2);
  EXPECT_EQ(c.cst, -5);
  EXPECT_EQ(c.eval({1, 1}, {}), -4);
}

TEST(LinExpr, GcdNormalize) {
  LinExpr e = LinExpr::variable(1, 0, 0, 4) + LinExpr::constant(1, 0, 8);
  e.normalize_gcd();
  EXPECT_EQ(e.var[0], 1);
  EXPECT_EQ(e.cst, 2);
}

TEST(LinExpr, ToString) {
  Params ps({"N"});
  LinExpr e = LinExpr::variable(2, 1, 0, 1) - LinExpr::variable(2, 1, 1, 2) +
              LinExpr::parameter(2, 1, 0) + LinExpr::constant(2, 1, -3);
  EXPECT_EQ(e.to_string(ps, {"i", "j"}), "i - 2*j + N - 3");
}

TEST(BasicSet, EmptinessObvious) {
  BasicSet bs(1, no_params);
  bs.add_bounds(0, bs.expr_const(5), bs.expr_const(3));
  EXPECT_TRUE(bs.is_empty());
}

TEST(BasicSet, NonEmptyInterval) {
  BasicSet bs(1, no_params);
  bs.add_bounds(0, bs.expr_const(3), bs.expr_const(5));
  EXPECT_FALSE(bs.is_empty());
}

TEST(BasicSet, EmptinessThroughProjection) {
  // { (x,y) : y == x, y >= x + 1 } is empty.
  BasicSet bs(2, no_params);
  bs.add(Constraint::eq0(bs.expr_var(1) - bs.expr_var(0)));
  bs.add(Constraint::ge0(bs.expr_var(1) - bs.expr_var(0) - bs.expr_const(1)));
  EXPECT_TRUE(bs.is_empty());
}

TEST(BasicSet, ParametricEmptiness) {
  // { x : 0 <= x <= N, N <= -1 } is empty for every N satisfying constraints.
  Params ps({"N"});
  BasicSet bs(1, ps);
  bs.add_bounds(0, bs.expr_const(0), bs.expr_param("N"));
  bs.add(Constraint::ge0(bs.expr_param("N") * -1 - bs.expr_const(1)));
  EXPECT_TRUE(bs.is_empty());
}

TEST(Set, EnumerateInterval) {
  auto pts = points_of(interval(2, 5));
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front()[0], 2);
  EXPECT_EQ(pts.back()[0], 5);
}

TEST(Set, EnumerateBoxLexOrder) {
  auto pts = points_of(box2(0, 1, 0, 2));
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_EQ(pts[0], (std::vector<i64>{0, 0}));
  EXPECT_EQ(pts[1], (std::vector<i64>{0, 1}));
  EXPECT_EQ(pts[5], (std::vector<i64>{1, 2}));
}

TEST(Set, UnionDeduplicatesOnEnumerate) {
  Set s = interval(0, 5).unite(interval(3, 8));
  EXPECT_EQ(points_of(s).size(), 9u);
}

TEST(Set, IntersectBoxes) {
  Set s = box2(0, 4, 0, 4).intersect(box2(2, 6, 3, 9));
  auto pts = points_of(s);
  EXPECT_EQ(pts.size(), 6u);  // x in [2,4], y in [3,4]
}

TEST(Set, SubtractInterval) {
  Set s = interval(0, 9).subtract(interval(3, 5));
  auto pts = points_of(s);
  EXPECT_EQ(pts.size(), 7u);
  for (const auto& p : pts) EXPECT_TRUE(p[0] < 3 || p[0] > 5);
}

TEST(Set, SubsetOf) {
  EXPECT_TRUE(interval(2, 4).subset_of(interval(0, 9)));
  EXPECT_FALSE(interval(0, 9).subset_of(interval(2, 4)));
  EXPECT_TRUE(interval(5, 4).subset_of(interval(100, 101)));  // empty ⊆ anything
  EXPECT_TRUE(box2(1, 2, 1, 2).subset_of(box2(0, 3, 0, 3)));
  EXPECT_FALSE(box2(1, 5, 1, 2).subset_of(box2(0, 3, 0, 3)));
}

TEST(Set, SubsetOfUnionCover) {
  // [0,9] ⊆ [0,4] ∪ [5,9] — requires integer-exact negation.
  Set cover = interval(0, 4).unite(interval(5, 9));
  EXPECT_TRUE(interval(0, 9).subset_of(cover));
  Set gap = interval(0, 4).unite(interval(6, 9));
  EXPECT_FALSE(interval(0, 9).subset_of(gap));
}

TEST(Set, ApplyTranslationMap) {
  AffineMap shift(1, 1, no_params);
  shift.out(0) = shift.expr_var(0) + shift.expr_const(10);
  auto pts = points_of(interval(0, 3).apply(shift));
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front()[0], 10);
  EXPECT_EQ(pts.back()[0], 13);
}

TEST(Set, ApplyProjectionMap) {
  // (x, y) -> (x): image of a box is an interval.
  AffineMap proj(2, 1, no_params);
  proj.out(0) = proj.expr_var(0);
  auto pts = points_of(box2(1, 3, 7, 9).apply(proj));
  EXPECT_EQ(pts.size(), 3u);
}

TEST(Set, PreimageOfShift) {
  AffineMap shift(1, 1, no_params);
  shift.out(0) = shift.expr_var(0) + shift.expr_const(1);
  // preimage of [5,7] under x+1 is [4,6]
  auto pts = points_of(interval(5, 7).preimage(shift));
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts.front()[0], 4);
}

TEST(Set, ComposeMaps) {
  AffineMap a(1, 1, no_params), b(1, 1, no_params);
  a.out(0) = a.expr_var(0) * 2;             // x -> 2x
  b.out(0) = b.expr_var(0) + b.expr_const(3);  // x -> x+3
  AffineMap ab = a.compose(b);              // x -> 2(x+3)
  EXPECT_EQ(ab.eval({1}, {})[0], 8);
}

TEST(Set, ParametricBlockOwnership) {
  // The canonical HPF BLOCK set: { i : p*B <= i <= p*B + B - 1 } with
  // parameters p (processor) and B (block size).
  Params ps({"p", "B"});
  BasicSet bs(1, ps);
  bs.add(Constraint::ge0(bs.expr_var(0) - bs.expr_param("p") /*times B: nonlinear!*/));
  // p*B is nonlinear in params; standard trick (as in the paper's Section 7
  // example) is a derived parameter lb = p*B:
  Params ps2({"lb", "B"});
  BasicSet own(1, ps2);
  own.add(Constraint::ge0(own.expr_var(0) - own.expr_param("lb")));
  own.add(Constraint::ge0(own.expr_param("lb") + own.expr_param("B") - own.expr_const(1) -
                          own.expr_var(0)));
  Set owned(own);
  // For lb=8, B=4: points 8..11.
  auto pts = points_of(owned, {8, 4});
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front()[0], 8);
  EXPECT_EQ(pts.back()[0], 11);
}

TEST(Set, Paper7DataAvailabilityExample) {
  // Paper §7: nonLocalReadData ⊆ nonLocalWriteData with symbolic block
  // bounds. Derived parameter ub = Mj*Bj + Bj (one past the block end), G1.
  Params ps({"ub", "G1"});
  auto make_band = [&](i64 lo_off, i64 hi_off) {
    BasicSet bs(2, ps);  // (i, j): i in [1, G1-2], j in [ub+lo_off, ub+hi_off]
    bs.add_bounds(0, bs.expr_const(1), bs.expr_param("G1") - bs.expr_const(2));
    bs.add_bounds(1, bs.expr_param("ub") + bs.expr_const(lo_off),
                  bs.expr_param("ub") + bs.expr_const(hi_off));
    return Set(bs);
  };
  Set nonlocal_read = make_band(1, 1);       // row ub+1
  Set nonlocal_write = make_band(1, 2);      // rows ub+1 .. ub+2
  EXPECT_TRUE(nonlocal_read.subset_of(nonlocal_write));   // => eliminate comm
  EXPECT_FALSE(nonlocal_write.subset_of(nonlocal_read));
}

TEST(Set, RandomizedAlgebraAgainstBruteForce) {
  // Property test: random small sets; intersect/unite/subtract must agree
  // with pointwise evaluation over a bounding box.
  std::mt19937 rng(17);
  std::uniform_int_distribution<i64> bound(-4, 8);
  for (int trial = 0; trial < 40; ++trial) {
    auto rand_box = [&]() {
      i64 a = bound(rng), b = bound(rng), c = bound(rng), d = bound(rng);
      return box2(std::min(a, b), std::max(a, b), std::min(c, d), std::max(c, d));
    };
    Set A = rand_box().unite(rand_box());
    Set B = rand_box();
    Set I = A.intersect(B), U = A.unite(B), D = A.subtract(B);
    for (i64 x = -5; x <= 9; ++x)
      for (i64 y = -5; y <= 9; ++y) {
        const std::vector<i64> p{x, y};
        const bool in_a = A.contains(p, {}), in_b = B.contains(p, {});
        EXPECT_EQ(I.contains(p, {}), in_a && in_b);
        EXPECT_EQ(U.contains(p, {}), in_a || in_b);
        EXPECT_EQ(D.contains(p, {}), in_a && !in_b);
      }
    // enumerate must match contains over the box
    std::set<std::pair<i64, i64>> enumerated;
    D.enumerate({}, [&](const std::vector<i64>& p) { enumerated.insert({p[0], p[1]}); });
    for (i64 x = -5; x <= 9; ++x)
      for (i64 y = -5; y <= 9; ++y)
        EXPECT_EQ(enumerated.count({x, y}) == 1, D.contains({x, y}, {}));
  }
}

TEST(Set, ImageExactForSubscriptLikeMaps) {
  // The subscript maps dHPF manipulates are of the form out = ±x_v + c (one
  // variable per output, unit coefficient) — for those, equality
  // substitution makes the image integer-exact.
  std::mt19937 rng(23);
  std::uniform_int_distribution<i64> sign(0, 2);  // 0: -1, 1: +1, 2: constant output
  std::uniform_int_distribution<std::size_t> pick_var(0, 1);
  std::uniform_int_distribution<i64> shift(-3, 3);
  for (int trial = 0; trial < 25; ++trial) {
    Set s = box2(0, 4, 0, 4);
    AffineMap m(2, 2, no_params);
    for (std::size_t o = 0; o < 2; ++o) {
      const i64 kind = sign(rng);
      m.out(o) = m.expr_const(shift(rng));
      if (kind != 2) m.out(o) += m.expr_var(pick_var(rng), kind == 0 ? -1 : 1);
    }
    Set img = s.apply(m);
    std::set<std::pair<i64, i64>> expected;
    s.enumerate({}, [&](const std::vector<i64>& p) {
      auto q = m.eval(p, {});
      expected.insert({q[0], q[1]});
      EXPECT_TRUE(img.contains(q, {}));
    });
    std::size_t n = 0;
    img.enumerate({}, [&](const std::vector<i64>& p) {
      EXPECT_TRUE(expected.count({p[0], p[1]}) == 1);
      ++n;
    });
    EXPECT_EQ(n, expected.size());
  }
}

TEST(Set, ImageIsSoundOverapproximationForStridedMaps) {
  // x -> 2x over [0,3]: the true image {0,2,4,6} has lattice gaps; rational
  // projection yields the interval hull [0,6]. Soundness direction: every
  // true image point is contained (never a false "empty").
  AffineMap dbl(1, 1, no_params);
  dbl.out(0) = dbl.expr_var(0) * 2;
  Set img = interval(0, 3).apply(dbl);
  for (i64 x = 0; x <= 3; ++x) EXPECT_TRUE(img.contains({2 * x}, {}));
  EXPECT_FALSE(img.contains({-1}, {}));
  EXPECT_FALSE(img.contains({7}, {}));
}

TEST(Set, ProjectOutMatchesShadow) {
  // project_out y of a triangle { 0<=x<=5, 0<=y<=x } is [0,5].
  BasicSet tri(2, no_params);
  tri.add_bounds(0, tri.expr_const(0), tri.expr_const(5));
  tri.add_bounds(1, tri.expr_const(0), tri.expr_var(0));
  Set s(tri);
  auto pts = points_of(s.project_out(1));
  EXPECT_EQ(pts.size(), 6u);
}

TEST(Set, DifferenceToEmptyIsExactlyEmpty) {
  // a − b where b ⊇ a must answer empty (the soundness direction the
  // verifier's clean reports depend on), for single parts and for unions.
  Set a = interval(2, 7);
  EXPECT_TRUE(a.subtract(interval(0, 10)).is_empty());
  EXPECT_TRUE(a.subtract(a).is_empty());
  Set cover = interval(0, 4).unite(interval(5, 10));
  EXPECT_TRUE(a.subtract(cover).is_empty());
  // And the one-element-short cover is NOT empty — with the right witness.
  Set short_cover = interval(0, 4).unite(interval(6, 10));
  Set diff = a.subtract(short_cover);
  EXPECT_FALSE(diff.is_empty());
  auto w = diff.sample({});
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, (std::vector<i64>{5}));
}

TEST(Set, SampleExtractsLexLeastWitness) {
  // sample() is the verifier's witness extractor: lexicographically least
  // point of the set, nullopt on empty sets.
  EXPECT_FALSE(interval(5, 3).sample({}).has_value());
  auto p = box2(2, 4, 7, 9).sample({});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<i64>{2, 7}));
  // Union parts don't disturb lexicographic order.
  auto q = interval(6, 8).unite(interval(1, 3)).sample({});
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, (std::vector<i64>{1}));
  // Parametric set: the witness tracks the parameter values.
  Params ps({"n"});
  BasicSet bs(1, ps);
  bs.add_bounds(0, bs.expr_param("n"), bs.expr_param("n") + bs.expr_const(2));
  EXPECT_EQ(*Set(bs).sample({40}), (std::vector<i64>{40}));
  EXPECT_FALSE(Set(bs).subtract(Set(bs)).sample({40}).has_value());
}

TEST(Set, EmptyInputIdentities) {
  // ∅ is the identity of union and the absorbing element of intersection,
  // including for the nullary Set::empty() constructor form.
  Set e = Set::empty(1, no_params);
  Set a = interval(3, 6);
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(points_of(a.unite(e)).size(), 4u);
  EXPECT_EQ(points_of(e.unite(a)).size(), 4u);
  EXPECT_TRUE(e.intersect(a).is_empty());
  EXPECT_TRUE(a.intersect(e).is_empty());
  EXPECT_TRUE(e.subtract(a).is_empty());
  EXPECT_EQ(points_of(a.subtract(e)).size(), 4u);
  EXPECT_EQ(e.cardinality({}), 0u);
  EXPECT_FALSE(e.sample({}).has_value());
}

TEST(Set, ToStringReadable) {
  Params ps({"N"});
  BasicSet bs(1, ps);
  bs.add_bounds(0, bs.expr_const(1), bs.expr_param("N") - bs.expr_const(2));
  const std::string str = Set(bs).to_string({"i"});
  EXPECT_NE(str.find("i - 1 >= 0"), std::string::npos);
  EXPECT_NE(str.find("N"), std::string::npos);
}

// ----------------------------------------------------- exact cardinality

TEST(Cardinality, EmptySetIsZero) {
  EXPECT_EQ(Set::empty(2, no_params).cardinality({}), 0u);
  // Statically contradictory constraints are also zero, without enumerating.
  BasicSet bs(1, no_params);
  bs.add_bounds(0, bs.expr_const(5), bs.expr_const(3));
  EXPECT_EQ(Set(bs).cardinality({}), 0u);
}

TEST(Cardinality, SinglePoint) {
  BasicSet bs(2, no_params);
  bs.add_eq(0, bs.expr_const(7));
  bs.add_eq(1, bs.expr_const(-2));
  EXPECT_EQ(Set(bs).cardinality({}), 1u);
}

TEST(Cardinality, IntervalAndBox) {
  EXPECT_EQ(interval(3, 9).cardinality({}), 7u);
  EXPECT_EQ(box2(0, 4, 10, 12).cardinality({}), 15u);
}

TEST(Cardinality, UnionWithOverlapNotDoubleCounted) {
  // [0,9] ∪ [5,14]: 15 distinct points, 5 shared between the parts.
  const Set u = interval(0, 9).unite(interval(5, 14));
  EXPECT_EQ(u.cardinality({}), 15u);
  // A part fully swallowed by an earlier part adds nothing.
  const Set v = interval(0, 9).unite(interval(2, 5));
  EXPECT_EQ(v.cardinality({}), 10u);
  // Three-way overlap in 2D.
  const Set w = box2(0, 5, 0, 5).unite(box2(3, 8, 3, 8)).unite(box2(0, 8, 4, 4));
  EXPECT_EQ(w.cardinality({}), points_of(w).size());
}

TEST(Cardinality, ParametricBlockBounds) {
  // Owned block [lb, ub] of a 1..N template: cardinality tracks the
  // parameter values exactly, including empty trailing blocks.
  Params ps({"N", "lb", "ub"});
  BasicSet bs(1, ps);
  bs.add_bounds(0, bs.expr_const(1), bs.expr_param("N"));
  bs.add(Constraint::ge0(bs.expr_var(0) - bs.expr_param("lb")));
  bs.add(Constraint::ge0(bs.expr_param("ub") - bs.expr_var(0)));
  const Set owned(bs);
  EXPECT_EQ(owned.cardinality({10, 1, 4}), 4u);
  EXPECT_EQ(owned.cardinality({10, 9, 12}), 2u);   // clipped at N
  EXPECT_EQ(owned.cardinality({10, 11, 14}), 0u);  // block past the extent
}

TEST(Cardinality, RandomizedAgreementWithEnumeration) {
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<i64> bound(-6, 6);
  for (int trial = 0; trial < 200; ++trial) {
    // Union of 1-3 random (possibly empty, possibly overlapping) 2D boxes,
    // sometimes sliced by a random diagonal constraint.
    Set u = Set::empty(2, no_params);
    const int parts = 1 + static_cast<int>(rng() % 3);
    for (int p = 0; p < parts; ++p) {
      BasicSet bs(2, no_params);
      bs.add_bounds(0, bs.expr_const(bound(rng)), bs.expr_const(bound(rng)));
      bs.add_bounds(1, bs.expr_const(bound(rng)), bs.expr_const(bound(rng)));
      if (rng() % 2 == 0)
        bs.add(Constraint::ge0(bs.expr_var(0) + bs.expr_var(1) - bs.expr_const(bound(rng))));
      u.add_part(std::move(bs));
    }
    EXPECT_EQ(u.cardinality({}), points_of(u).size()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dhpf::iset
