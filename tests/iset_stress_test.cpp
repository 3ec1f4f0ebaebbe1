// Property-style stress tests for the integer-set framework: randomized
// algebra in three dimensions checked against brute force, projection
// soundness, parametric behaviour, and map laws.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

#include "iset/set.hpp"
#include "support/diagnostics.hpp"

namespace dhpf::iset {
namespace {

Params no_params;

Set box3(i64 x0, i64 x1, i64 y0, i64 y1, i64 z0, i64 z1) {
  BasicSet bs(3, no_params);
  bs.add_bounds(0, bs.expr_const(x0), bs.expr_const(x1));
  bs.add_bounds(1, bs.expr_const(y0), bs.expr_const(y1));
  bs.add_bounds(2, bs.expr_const(z0), bs.expr_const(z1));
  return Set(bs);
}

/// Random half-space constraint with small coefficients.
Constraint random_halfspace(std::mt19937& rng, std::size_t nvars) {
  std::uniform_int_distribution<i64> coef(-2, 2), cst(-3, 8);
  LinExpr e = LinExpr::zero(nvars, 0);
  for (auto& c : e.var) c = coef(rng);
  e.cst = cst(rng);
  return Constraint::ge0(std::move(e));
}

TEST(IsetStress, RandomPolyhedraAlgebraMatchesBruteForce3D) {
  std::mt19937 rng(29);
  for (int trial = 0; trial < 30; ++trial) {
    // A: a box intersected with 2 random half-spaces; B: another.
    auto make = [&]() {
      BasicSet bs(3, no_params);
      bs.add_bounds(0, bs.expr_const(0), bs.expr_const(5));
      bs.add_bounds(1, bs.expr_const(0), bs.expr_const(5));
      bs.add_bounds(2, bs.expr_const(0), bs.expr_const(5));
      bs.add(random_halfspace(rng, 3));
      bs.add(random_halfspace(rng, 3));
      return Set(bs);
    };
    Set A = make(), B = make();
    Set I = A.intersect(B), U = A.unite(B), D = A.subtract(B);
    for (i64 x = -1; x <= 6; ++x)
      for (i64 y = -1; y <= 6; ++y)
        for (i64 z = -1; z <= 6; ++z) {
          const std::vector<i64> p{x, y, z};
          const bool a = A.contains(p, {}), b = B.contains(p, {});
          ASSERT_EQ(I.contains(p, {}), a && b);
          ASSERT_EQ(U.contains(p, {}), a || b);
          ASSERT_EQ(D.contains(p, {}), a && !b);
        }
    // subset laws
    EXPECT_TRUE(I.subset_of(A));
    EXPECT_TRUE(I.subset_of(B));
    EXPECT_TRUE(A.subset_of(U));
    EXPECT_TRUE(D.subset_of(A));
    EXPECT_TRUE(D.intersect(B).is_empty());
  }
}

TEST(IsetStress, ProjectionIsExactShadowForRandomPolyhedra) {
  // project_out must produce exactly the set of prefixes that extend to a
  // full point (for these small sets, where FM's rational relaxation has
  // integral vertices often enough; we check soundness: projection contains
  // the true shadow).
  std::mt19937 rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    BasicSet bs(2, no_params);
    bs.add_bounds(0, bs.expr_const(0), bs.expr_const(7));
    bs.add_bounds(1, bs.expr_const(0), bs.expr_const(7));
    bs.add(random_halfspace(rng, 2));
    Set s(bs);
    Set proj = s.project_out(1);
    std::set<i64> shadow;
    s.enumerate({}, [&](const std::vector<i64>& p) { shadow.insert(p[0]); });
    for (i64 x : shadow) EXPECT_TRUE(proj.contains({x}, {}));
    // and the projection of an empty set is empty
    if (shadow.empty()) {
      EXPECT_TRUE(proj.is_empty());
    }
  }
}

TEST(IsetStress, TriangularAndDiagonalSets) {
  // { (x,y,z) : 0<=x<=6, x<=y<=6, y<=z<=6 } — count = C(9,3) = 84? No:
  // number of non-decreasing triples from [0,6] = C(7+2,3) = 84.
  BasicSet bs(3, no_params);
  bs.add_bounds(0, bs.expr_const(0), bs.expr_const(6));
  bs.add_bounds(1, bs.expr_var(0), bs.expr_const(6));
  bs.add_bounds(2, bs.expr_var(1), bs.expr_const(6));
  EXPECT_EQ(Set(bs).cardinality({}), 84u);
}

TEST(IsetStress, EqualityPlanesEnumerateExactly) {
  // { (x,y) : x + y == 7, 0<=x<=10, 0<=y<=5 } -> x in [2,7]
  BasicSet bs(2, no_params);
  bs.add_bounds(0, bs.expr_const(0), bs.expr_const(10));
  bs.add_bounds(1, bs.expr_const(0), bs.expr_const(5));
  bs.add(Constraint::eq0(bs.expr_var(0) + bs.expr_var(1) - bs.expr_const(7)));
  Set s(bs);
  EXPECT_EQ(s.cardinality({}), 6u);
  EXPECT_TRUE(s.contains({2, 5}, {}));
  EXPECT_FALSE(s.contains({1, 6}, {}));
}

TEST(IsetStress, StridedEqualityDetectsIntegerInfeasibility) {
  // { x : 2x == 5 } — projection through the equality is integer-exact and
  // must prove emptiness.
  BasicSet bs(1, no_params);
  bs.add(Constraint::eq0(bs.expr_var(0) * 2 - bs.expr_const(5)));
  EXPECT_EQ(Set(bs).cardinality({}), 0u);  // the innermost solve checks divisibility
}

TEST(IsetStress, MultiParameterSets) {
  Params ps({"lb0", "ub0", "lb1", "ub1"});
  BasicSet bs(2, ps);
  bs.add(Constraint::ge0(bs.expr_var(0) - bs.expr_param("lb0")));
  bs.add(Constraint::ge0(bs.expr_param("ub0") - bs.expr_var(0)));
  bs.add(Constraint::ge0(bs.expr_var(1) - bs.expr_param("lb1")));
  bs.add(Constraint::ge0(bs.expr_param("ub1") - bs.expr_var(1)));
  Set s(bs);
  EXPECT_EQ(s.cardinality({0, 3, 10, 11}), 8u);   // 4 x 2
  EXPECT_EQ(s.cardinality({5, 4, 0, 0}), 0u);     // empty block
  EXPECT_FALSE(s.is_empty());               // satisfiable for SOME params
}

TEST(IsetStress, SubsetWithParametersIsSymbolic) {
  // [lb, ub] ⊆ [lb-1, ub+1] for every lb, ub; not vice versa.
  Params ps({"lb", "ub"});
  auto band = [&](i64 lo_off, i64 hi_off) {
    BasicSet bs(1, ps);
    bs.add(Constraint::ge0(bs.expr_var(0) - bs.expr_param("lb") - bs.expr_const(lo_off)));
    bs.add(Constraint::ge0(bs.expr_param("ub") + bs.expr_const(hi_off) - bs.expr_var(0)));
    return Set(bs);
  };
  EXPECT_TRUE(band(0, 0).subset_of(band(-1, 1)));
  EXPECT_FALSE(band(-1, 1).subset_of(band(0, 0)));
}

TEST(IsetStress, MapCompositionAssociativity) {
  std::mt19937 rng(41);
  std::uniform_int_distribution<i64> c(-2, 2);
  for (int trial = 0; trial < 20; ++trial) {
    auto rand_map = [&]() {
      AffineMap m(2, 2, no_params);
      for (std::size_t o = 0; o < 2; ++o)
        m.out(o) = m.expr_var(0, c(rng)) + m.expr_var(1, c(rng)) + m.expr_const(c(rng));
      return m;
    };
    AffineMap f = rand_map(), g = rand_map(), h = rand_map();
    AffineMap fg_h = f.compose(g).compose(h);
    AffineMap f_gh = f.compose(g.compose(h));
    for (i64 x = -2; x <= 2; ++x)
      for (i64 y = -2; y <= 2; ++y)
        EXPECT_EQ(fg_h.eval({x, y}, {}), f_gh.eval({x, y}, {}));
  }
}

TEST(IsetStress, PreimageIsExactInverseOfTranslationImage) {
  std::mt19937 rng(43);
  std::uniform_int_distribution<i64> c(-5, 5);
  for (int trial = 0; trial < 20; ++trial) {
    AffineMap shift(3, 3, no_params);
    for (std::size_t o = 0; o < 3; ++o) shift.out(o) = shift.expr_var(o) + shift.expr_const(c(rng));
    Set s = box3(0, 4, 1, 5, 2, 6);
    Set round = s.apply(shift).preimage(shift);
    // round trip must equal s exactly
    EXPECT_TRUE(round.subset_of(s));
    EXPECT_TRUE(s.subset_of(round));
  }
}

TEST(IsetStress, SubtractEverythingLeavesNothing) {
  Set s = box3(0, 3, 0, 3, 0, 3);
  EXPECT_TRUE(s.subtract(Set::universe(3, no_params)).is_empty());
  EXPECT_TRUE(Set::empty(3, no_params).subtract(s).is_empty());
  // s - s == empty
  EXPECT_TRUE(s.subtract(s).is_empty());
}

TEST(IsetStress, UniteWithEmptyIsIdentity) {
  Set s = box3(0, 2, 0, 2, 0, 2);
  Set u = s.unite(Set::empty(3, no_params));
  EXPECT_TRUE(u.subset_of(s));
  EXPECT_TRUE(s.subset_of(u));
  EXPECT_EQ(u.cardinality({}), 27u);
}

TEST(IsetStress, EmptySetPrintsAndEnumerates) {
  Set e = Set::empty(2, no_params);
  EXPECT_EQ(e.to_string(), "{ }");
  EXPECT_EQ(e.cardinality({}), 0u);
  EXPECT_TRUE(e.is_empty());
}

TEST(IsetStress, DeepProjectionCascade) {
  // Project a 5-D simplex down to 1-D; the shadow must be the full interval.
  Params ps;
  BasicSet bs(5, ps);
  for (std::size_t d = 0; d < 5; ++d)
    bs.add_bounds(d, bs.expr_const(0), bs.expr_const(9));
  // x0 + x1 + x2 + x3 + x4 <= 9
  LinExpr sum = bs.expr_zero();
  for (std::size_t d = 0; d < 5; ++d) sum += bs.expr_var(d);
  bs.add(Constraint::ge0(bs.expr_const(9) - sum));
  Set s(bs);
  Set shadow = s;
  for (int d = 4; d >= 1; --d) shadow = shadow.project_out(static_cast<std::size_t>(d));
  EXPECT_EQ(shadow.cardinality({}), 10u);
}

TEST(IsetStress, EnumerateLargeRangeGuard) {
  // Unbounded-by-construction variable ranges must trip the safety check
  // rather than looping forever.
  BasicSet bs(1, no_params);
  bs.add(Constraint::ge0(bs.expr_var(0)));  // x >= 0, no upper bound
  bs.add(Constraint::ge0(bs.expr_const(1000000000) * 1 - bs.expr_var(0) * 0 +
                         bs.expr_zero()));  // tautology, still unbounded
  Set s(bs);
  // var_bounds() reports failure (no upper bound) and the point is skipped:
  // enumerate returns nothing rather than hanging.
  EXPECT_EQ(s.cardinality({}), 0u);
}

TEST(IsetStress, GcdNormalizationInConstraints) {
  BasicSet bs(1, no_params);
  // 4x - 8 >= 0 is x >= 2 after normalization.
  bs.add(Constraint::ge0(bs.expr_var(0, 4) - bs.expr_const(8)));
  bs.add(Constraint::ge0(bs.expr_const(5) - bs.expr_var(0)));
  bs.simplify();
  Set s(bs);
  EXPECT_EQ(s.cardinality({}), 4u);  // 2..5
}

}  // namespace
}  // namespace dhpf::iset
