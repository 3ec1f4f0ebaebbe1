// Property tests for the integer-set core, pinning the hash-consing /
// memoization work (see src/iset/intern.hpp). Two layers of assurance:
//
//  * Algebraic laws checked point-wise on seeded random sets: De Morgan
//    over a bounding box, difference = intersect-with-complement,
//    image/preimage adjunction, cardinality additivity on disjoint
//    unions. These hold for ANY correct implementation, cached or not.
//
//  * Bitwise differential against the pre-optimization reference path:
//    the same operation chain is evaluated with memoization on (twice, so
//    the second run is served from the tables) and with
//    memo::set_cache_enabled(false), and the exact representations
//    (rep_bytes: part order, constraint order, everything observable)
//    must agree. A memo hit that differs from recomputation in any bit
//    fails here.
//
// Plus the canonicalization pins: structurally equal sets built in
// different constraint/part orders intern() to the same node (pointer
// equality), and sample() witnesses survive interning; and the point-query
// pins: enumerate(), the run walk, the folded box walk, cardinality() and
// sample() agree with a brute-force scan of the bounding box, and the
// verifier's co-walk residue agrees with a point-by-point difference.
//
// Every case is seeded; a failure reports its seed via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "iset/intern.hpp"
#include "iset/set.hpp"
#include "verify/verify.hpp"

namespace dhpf::iset {
namespace {

Params no_params;

using PointSet = std::set<std::vector<i64>>;

PointSet points_of(const Set& s) {
  PointSet pts;
  s.enumerate({}, [&](const std::vector<i64>& p) { pts.insert(p); });
  return pts;
}

/// Restores the memo-enabled state on scope exit (tests share a process).
struct CacheGuard {
  ~CacheGuard() {
    memo::set_cache_enabled(true);
    memo::clear_caches();
  }
};

/// Seeded generator of small bounded sets: every part carries a full
/// bounding box inside [base-8, base+8]^rank plus an optional extra
/// half-plane, so enumerate() always terminates and any two sets with
/// different `base` 20 apart are disjoint by construction.
struct Gen {
  std::mt19937_64 eng;
  explicit Gen(std::uint64_t seed) : eng(seed) {}

  i64 pick(i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(eng);
  }

  BasicSet basic(std::size_t rank, i64 base) {
    BasicSet bs(rank, no_params);
    for (std::size_t v = 0; v < rank; ++v) {
      const i64 lo = base + pick(-5, 1);
      const i64 hi = lo + pick(0, 5);
      bs.add_bounds(v, bs.expr_const(lo), bs.expr_const(hi));
    }
    if (pick(0, 1) == 1) {
      LinExpr e = bs.expr_zero();
      i64 at_base = 0;  // value of the variable part at (base, ..., base)
      for (std::size_t v = 0; v < rank; ++v) {
        const i64 c = pick(-2, 2);
        e = e + bs.expr_var(v, c);
        at_base += c * base;
      }
      // Center the threshold near the box so the half-plane actually cuts.
      e = e + bs.expr_const(pick(-6, 6) - at_base);
      bs.add(Constraint::ge0(e));
    }
    return bs;
  }

  Set set(std::size_t rank, i64 base = 0) {
    Set s(rank, no_params);
    const int parts = static_cast<int>(pick(1, 2));
    for (int k = 0; k < parts; ++k) s.add_part(basic(rank, base));
    return s;
  }

  /// A part that exercises what the run walk must get right, inside the
  /// box [-8, 8]^rank: a parameter-dependent block bound (the owned-set
  /// shape, n in [-2, 2]), an equality with a non-unit coefficient (a
  /// divisibility condition on one variable), and a random half-plane.
  BasicSet rich(std::size_t rank, const Params& params) {
    BasicSet bs(rank, params);
    for (std::size_t v = 0; v < rank; ++v)
      bs.add_bounds(v, bs.expr_const(pick(-8, -2)), bs.expr_const(pick(2, 8)));
    if (pick(0, 1) == 1) {
      const std::size_t v = static_cast<std::size_t>(pick(0, static_cast<i64>(rank) - 1));
      const i64 width = pick(1, 4);
      bs.add_bounds(v, bs.expr_param("n", 4) - bs.expr_const(width - 1),
                    bs.expr_param("n", 4) + bs.expr_const(width));
    }
    if (pick(0, 2) == 0) {
      const std::size_t v = static_cast<std::size_t>(pick(0, static_cast<i64>(rank) - 1));
      LinExpr e = bs.expr_var(v, pick(2, 3)) + bs.expr_const(pick(-2, 2));
      for (std::size_t u = 0; u < rank; ++u)
        if (u != v) e = e - bs.expr_var(u, pick(-1, 1));
      bs.add(Constraint::eq0(e));
    }
    if (pick(0, 1) == 1) {
      LinExpr e = bs.expr_const(pick(-4, 4)) + bs.expr_param("n", pick(-1, 1));
      for (std::size_t v = 0; v < rank; ++v) e = e + bs.expr_var(v, pick(-2, 2));
      bs.add(Constraint::ge0(e));
    }
    return bs;
  }

  /// One to three rich parts, so unions overlap more often than not.
  Set rich_set(std::size_t rank, const Params& params) {
    Set s(rank, params);
    const int parts = static_cast<int>(pick(1, 3));
    for (int k = 0; k < parts; ++k) s.add_part(rich(rank, params));
    return s;
  }

  /// The box every `base`-centered set lives in (the local universe).
  Set box(std::size_t rank, i64 base = 0) {
    BasicSet bs(rank, no_params);
    for (std::size_t v = 0; v < rank; ++v)
      bs.add_bounds(v, bs.expr_const(base - 8), bs.expr_const(base + 8));
    return Set(bs);
  }

  AffineMap map(std::size_t n_in, std::size_t n_out) {
    AffineMap m(n_in, n_out, no_params);
    for (std::size_t o = 0; o < n_out; ++o) {
      LinExpr e = m.expr_const(pick(-3, 3));
      for (std::size_t v = 0; v < n_in; ++v) e = e + m.expr_var(v, pick(-1, 2));
      m.out(o) = e;
    }
    return m;
  }
};

std::size_t rank_for(std::uint64_t seed) { return 1 + seed % 2; }

TEST(IsetProp, DeMorganOverBoundingBox) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r);
    const Set c = g.set(r);
    const Set b = g.box(r);

    // B \ (A ∪ C) == (B \ A) ∩ (B \ C)
    ASSERT_EQ(points_of(b.subtract(a.unite(c))),
              points_of(b.subtract(a).intersect(b.subtract(c))));
    // B \ (A ∩ C) == (B \ A) ∪ (B \ C)
    ASSERT_EQ(points_of(b.subtract(a.intersect(c))),
              points_of(b.subtract(a).unite(b.subtract(c))));
  }
}

TEST(IsetProp, DifferenceIsIntersectWithComplement) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 7919);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r);
    const Set c = g.set(r);
    const Set b = g.box(r);  // A ⊆ B by construction

    ASSERT_EQ(points_of(a.subtract(c)), points_of(a.intersect(b.subtract(c))));
  }
}

TEST(IsetProp, ImagePreimageAdjunction) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 104729);
    const std::size_t r_in = rank_for(seed);
    const std::size_t r_out = 1 + (seed / 2) % 2;
    const Set s = g.set(r_in);
    const Set t = g.set(r_out);
    const AffineMap f = g.map(r_in, r_out);

    // apply() projects rationally (no dark shadow), so the image is a
    // sound SUPERSET of {f(p) : p ∈ S} — e.g. x -> 2x keeps odd points.
    // Soundness is the direction the compiler relies on.
    PointSet mapped;
    for (const auto& p : points_of(s)) mapped.insert(f.eval(p, {}));
    const PointSet image = points_of(s.apply(f));
    for (const auto& q : mapped) ASSERT_TRUE(image.count(q) != 0);
    if (mapped.empty() != image.empty()) {
      // An empty exact image may still leave rational residue only when
      // the domain itself was empty-free; an empty S must map to empty.
      ASSERT_FALSE(points_of(s).empty());
    }

    // Adjunction, point-wise: p ∈ S ∩ f⁻¹(T)  ⟺  p ∈ S and f(p) ∈ T.
    const PointSet restricted = points_of(s.intersect(t.preimage(f)));
    for (const auto& p : points_of(s)) {
      const bool in_t = t.contains(f.eval(p, {}), {});
      ASSERT_EQ(restricted.count(p) != 0, in_t);
    }
    for (const auto& p : restricted) ASSERT_TRUE(t.contains(f.eval(p, {}), {}));
  }
}

TEST(IsetProp, CardinalityAdditiveOnDisjointUnions) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 15485863);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r, /*base=*/0);
    const Set d = g.set(r, /*base=*/20);  // disjoint: boxes 20 apart

    const std::size_t ca = a.cardinality({});
    const std::size_t cd = d.cardinality({});
    ASSERT_EQ(a.unite(d).cardinality({}), ca + cd);
    // cardinality() never materializes points; enumerate() does. Agree.
    ASSERT_EQ(ca, points_of(a).size());
    ASSERT_EQ(cd, points_of(d).size());
  }
}

/// Ground truth for point queries that never goes through the run walk:
/// every point of [-lim, lim]^rank the set contains, in lexicographic order.
std::vector<std::vector<i64>> brute_points(const Set& s, const std::vector<i64>& params,
                                           i64 lim) {
  std::vector<std::vector<i64>> pts;
  std::vector<i64> p(s.nvars(), -lim);
  while (true) {
    if (s.contains(p, params)) pts.push_back(p);
    std::size_t d = s.nvars();
    while (d > 0 && p[d - 1] == lim) p[--d] = -lim;
    if (d == 0) return pts;
    ++p[d - 1];
  }
}

/// The run walk expanded point by point, checking the run contract on the
/// way: prefixes strictly increasing, runs sorted, disjoint, non-adjacent.
std::vector<std::vector<i64>> run_points(const Set& s, const std::vector<i64>& params) {
  std::vector<std::vector<i64>> pts;
  std::optional<std::vector<i64>> last_prefix;
  s.for_each_run(params, [&](const std::vector<i64>& prefix, const std::vector<Interval>& runs) {
    EXPECT_FALSE(runs.empty());
    EXPECT_TRUE(!last_prefix || *last_prefix < prefix);
    last_prefix = prefix;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      EXPECT_LE(runs[k].lo, runs[k].hi);
      if (k > 0) {
        EXPECT_GT(runs[k].lo, runs[k - 1].hi + 1);
      }
      for (i64 x = runs[k].lo; x <= runs[k].hi; ++x) {
        pts.push_back(prefix);
        pts.back().push_back(x);
      }
    }
    return true;
  });
  return pts;
}

TEST(IsetProp, PointQueriesMatchBruteForce) {
  // enumerate(), the expanded run walk, cardinality() and sample() against a
  // scan of the bounding box, on overlapping unions, their differences and
  // (rank <= 2) their affine images, at several parameter values.
  const Params params({"n"});
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 2654435761u);
    const std::size_t r = 1 + seed % 3;
    const Set a = g.rich_set(r, params);
    const Set c = g.rich_set(r, params);
    std::vector<std::pair<Set, i64>> cases{{a, 8}, {a.unite(c), 8}, {a.subtract(c), 8}};
    if (r <= 2) {
      AffineMap f(r, r, params);
      for (std::size_t o = 0; o < r; ++o) {
        f.out(o) = f.expr_const(g.pick(-3, 3));
        for (std::size_t v = 0; v < r; ++v) f.out(o) = f.out(o) + f.expr_var(v, g.pick(-1, 2));
      }
      cases.emplace_back(a.apply(f), 60);
    }
    for (const auto& [s, lim] : cases) {
      for (i64 n : {-2, 0, 1}) {
        const std::vector<i64> pv{n};
        const auto truth = brute_points(s, pv, lim);
        std::vector<std::vector<i64>> enumerated;
        s.enumerate(pv, [&](const std::vector<i64>& p) { enumerated.push_back(p); });
        ASSERT_EQ(enumerated, truth) << s.to_string() << " n=" << n;
        ASSERT_EQ(run_points(s, pv), truth) << s.to_string() << " n=" << n;
        ASSERT_EQ(s.cardinality(pv), truth.size()) << s.to_string() << " n=" << n;
        const auto first = s.sample(pv);
        ASSERT_EQ(first.has_value(), !truth.empty());
        if (first) {
          ASSERT_EQ(*first, truth.front());
        }
        if (!truth.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 1000u) << "generator collapsed to empty sets — vacuous test";
}

TEST(IsetProp, ZeroAryRunWalk) {
  // A 0-ary set has one point (the empty tuple) or none: the walk reports it
  // as the unit run at the empty prefix.
  const Params params({"n"});
  BasicSet bs(0, params);
  bs.add(Constraint::ge0(bs.expr_param("n") - bs.expr_const(1)));
  const Set s(bs);
  ASSERT_EQ(s.cardinality({2}), 1u);
  ASSERT_EQ(s.cardinality({0}), 0u);
  ASSERT_EQ(s.sample({2}), std::vector<i64>{});
  ASSERT_FALSE(s.sample({0}).has_value());
  std::vector<std::pair<std::vector<i64>, std::vector<Interval>>> walked;
  s.for_each_run({2}, [&](const std::vector<i64>& prefix, const std::vector<Interval>& rs) {
    walked.emplace_back(prefix, rs);
    return true;
  });
  ASSERT_EQ(walked.size(), 1u);
  EXPECT_TRUE(walked[0].first.empty());
  ASSERT_EQ(walked[0].second.size(), 1u);
  EXPECT_EQ(walked[0].second[0].lo, 0);
  EXPECT_EQ(walked[0].second[0].hi, 0);
}

/// Every point of a folded box walk (fold_from = 0), checking the box
/// contract on the way: least corners strictly increasing, runs sorted,
/// disjoint and non-adjacent. Adds the boxes visited to `boxes` and the
/// closed-form point count (runs times box volume) to `counted`.
std::vector<std::vector<i64>> box_points(const Set& s, const std::vector<i64>& params,
                                         std::size_t& boxes, std::size_t& counted) {
  std::vector<std::vector<i64>> pts;
  std::optional<std::vector<i64>> last_corner;
  walk_boxes({{&s, &params}}, 0,
             [&](const std::vector<Interval>& box, const std::vector<std::vector<Interval>>& runs) {
               std::vector<i64> corner;
               std::size_t volume = 1;
               for (const Interval& iv : box) {
                 EXPECT_LE(iv.lo, iv.hi);
                 corner.push_back(iv.lo);
                 volume *= static_cast<std::size_t>(iv.hi - iv.lo + 1);
               }
               EXPECT_TRUE(!last_corner || *last_corner < corner);
               last_corner = corner;
               ++boxes;
               const std::vector<Interval>& rs = runs.front();
               EXPECT_FALSE(rs.empty());
               for (std::size_t k = 0; k < rs.size(); ++k) {
                 if (k > 0) {
                   EXPECT_GT(rs[k].lo, rs[k - 1].hi + 1);
                 }
                 counted += static_cast<std::size_t>(rs[k].hi - rs[k].lo + 1) * volume;
               }
               // Expand the box: every prefix in it, each with the same runs.
               std::vector<i64> prefix = corner;
               while (true) {
                 for (const Interval& r : rs)
                   for (i64 x = r.lo; x <= r.hi; ++x) {
                     pts.push_back(prefix);
                     if (s.nvars() > 0) pts.back().push_back(x);
                   }
                 std::size_t d = box.size();
                 while (d > 0 && prefix[d - 1] == box[d - 1].hi) {
                   prefix[d - 1] = box[d - 1].lo;
                   --d;
                 }
                 if (d == 0) break;
                 ++prefix[d - 1];
               }
               return true;
             });
  std::sort(pts.begin(), pts.end());
  return pts;
}

TEST(IsetProp, FoldedBoxWalkMatchesRunWalk) {
  // The folded walk visits each box of invariant prefixes once; expanding
  // its boxes must give exactly the brute-force points, and the folded
  // cardinality must equal the expanded run walk's count.
  const Params params({"n"});
  std::size_t prefixes = 0, boxes = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 40503u);
    const std::size_t r = 1 + seed % 3;
    const Set a = g.rich_set(r, params);
    const Set c = g.rich_set(r, params);
    for (const Set& s : {a, a.unite(c), a.subtract(c)}) {
      for (i64 n : {-2, 0, 1}) {
        const std::vector<i64> pv{n};
        const auto truth = brute_points(s, pv, 8);
        std::size_t counted = 0;
        ASSERT_EQ(box_points(s, pv, boxes, counted), truth) << s.to_string() << " n=" << n;
        const std::size_t run_count = run_points(s, pv).size();
        ASSERT_EQ(counted, run_count) << s.to_string() << " n=" << n;
        ASSERT_EQ(s.cardinality(pv), run_count) << s.to_string() << " n=" << n;
        s.for_each_run(pv, [&](const std::vector<i64>&, const std::vector<Interval>&) {
          ++prefixes;
          return true;
        });
      }
    }
  }
  EXPECT_LT(boxes * 4, prefixes * 3) << "folding rarely merged prefixes — vacuous test";
}

/// need minus covers, point by point: the ground truth for verify::residue.
verify::Residue brute_residue(const Set& need, const std::vector<i64>& v,
                              const std::vector<verify::Cover>& covers, i64 lim) {
  verify::Residue r;
  for (const auto& p : brute_points(need, v, lim)) {
    if (std::any_of(covers.begin(), covers.end(),
                    [&](const verify::Cover& c) { return c.set->contains(p, *c.params); }))
      continue;
    ++r.count;
    if (!r.least) r.least = p;
  }
  return r;
}

TEST(IsetProp, CoWalkResidueMatchesPointDifference) {
  // verify::residue is one folded co-walk of need and covers; each cover is
  // read at its own parameter values, which differ from the need's here.
  const Params params({"n"});
  std::size_t left = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 2246822519u);
    const std::size_t r = 1 + seed % 3;
    const Set need = g.rich_set(r, params);
    const Set c1 = g.rich_set(r, params);
    const Set c2 = g.rich_set(r, params).unite(g.rich_set(r, params));
    const std::vector<i64> vn{g.pick(-2, 1)}, v1{g.pick(-2, 1)}, v2{g.pick(-2, 1)};
    for (const auto& covers : {std::vector<verify::Cover>{},
                               std::vector<verify::Cover>{{&c1, &v1}},
                               std::vector<verify::Cover>{{&c1, &v1}, {&c2, &v2}},
                               std::vector<verify::Cover>{{&c2, &v2}, {&need, &vn}}}) {
      const verify::Residue fast = verify::residue(need, vn, covers);
      const verify::Residue truth = brute_residue(need, vn, covers, 8);
      ASSERT_EQ(fast.count, truth.count) << need.to_string();
      ASSERT_EQ(fast.least, truth.least) << need.to_string();
      left += truth.count;
    }
  }
  EXPECT_GT(left, 1000u) << "covers swallowed everything — vacuous test";
}

TEST(IsetProp, CoverBoundedOnlyThroughADeeperVariable) {
  // A cover's outer variable may have no bound of its own: its range comes
  // from the projection cascade (x0 through x1 here), and a side nothing
  // bounds is open, never "infeasible".
  const Params params({"n"});
  const std::vector<i64> v{0};
  BasicSet nb(2, params);
  nb.add_bounds(0, nb.expr_const(0), nb.expr_const(9));
  nb.add_bounds(1, nb.expr_const(0), nb.expr_const(9));
  const Set need(nb);

  BasicSet through(2, params);  // x1 - 2 <= x0 <= x1, 0 <= x1 <= n + 5
  through.add_bounds(1, through.expr_const(0), through.expr_param("n") + through.expr_const(5));
  through.add_bounds(0, through.expr_var(1) - through.expr_const(2), through.expr_var(1));
  BasicSet open(2, params);  // x0 >= 3, x1 <= 4: x0 open above, x1 below
  open.add(Constraint::ge0(open.expr_var(0) - open.expr_const(3)));
  open.add(Constraint::ge0(open.expr_const(4) - open.expr_var(1)));
  BasicSet diag(2, params);  // x0 <= x1: x0 open below, x1 open above
  diag.add(Constraint::ge0(diag.expr_var(1) - diag.expr_var(0)));

  const std::vector<i64> wide{3};
  for (const Set& cover : {Set(through), Set(open), Set(diag)})
    for (const std::vector<i64>* cv : {&v, &wide}) {
      SCOPED_TRACE(cover.to_string());
      const std::vector<verify::Cover> covers{{&cover, cv}};
      const verify::Residue fast = verify::residue(need, v, covers);
      const verify::Residue truth = brute_residue(need, v, covers, 9);
      EXPECT_EQ(fast.count, truth.count);
      EXPECT_EQ(fast.least, truth.least);
    }
  // The open sides cover: need minus {x0 >= 3, x1 <= 4} keeps x0 < 3 or x1 > 4.
  const Set open_cover(open);
  const verify::Residue r = verify::residue(need, v, {{&open_cover, &v}});
  EXPECT_EQ(r.count, 3u * 10 + 7 * 5);
  EXPECT_EQ(r.least, (std::vector<i64>{0, 0}));
}

/// One operation chain's observable results, captured bit-exactly.
struct ChainResult {
  std::string inter, uni, diff, proj;
  bool empty = false;
  std::size_t card = 0;
  std::optional<std::vector<i64>> witness;

  bool operator==(const ChainResult& o) const {
    return inter == o.inter && uni == o.uni && diff == o.diff &&
           proj == o.proj && empty == o.empty && card == o.card &&
           witness == o.witness;
  }
};

ChainResult run_chain(const Set& a, const Set& c, const AffineMap& f) {
  ChainResult r;
  const Set inter = a.intersect(c);
  const Set uni = a.unite(c);
  const Set diff = uni.subtract(inter);
  r.inter = rep_bytes(inter);
  r.uni = rep_bytes(uni);
  r.diff = rep_bytes(diff);
  r.proj = rep_bytes(diff.project_out(0));
  r.empty = diff.is_empty();
  r.card = diff.cardinality({});
  r.witness = diff.sample({});
  // Image/preimage round through the map memo key path too.
  r.inter += rep_bytes(a.apply(f));
  r.uni += rep_bytes(c.preimage(f));
  return r;
}

TEST(IsetProp, CachedPathBitwiseEqualsReferencePath) {
  CacheGuard guard;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 32452843);
    const std::size_t r = rank_for(seed);
    const Set a = g.set(r);
    const Set c = g.set(r);
    const AffineMap f = g.map(r, r);

    memo::set_cache_enabled(true);
    memo::clear_caches();
    const ChainResult cold = run_chain(a, c, f);   // populates the tables
    const ChainResult warm = run_chain(a, c, f);   // served by the tables

    memo::set_cache_enabled(false);
    const ChainResult reference = run_chain(a, c, f);

    ASSERT_TRUE(cold == reference);  // miss path == pre-optimization path
    ASSERT_TRUE(warm == reference);  // hit path == recomputation, bitwise
  }
}

TEST(IsetProp, MemoizationActuallyHits) {
  CacheGuard guard;
  memo::set_cache_enabled(true);
  memo::clear_caches();
  Gen g(42);
  const Set a = g.set(2);
  const Set c = g.set(2);
  const auto before = memo::cache_stats();
  const Set first = a.intersect(c);
  const Set again = a.intersect(c);
  const auto after = memo::cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(rep_bytes(first), rep_bytes(again));
}

TEST(IsetProp, InternPinsConstraintAndPartOrder) {
  // Deterministic pin first: the same box built lo-then-hi and hi-then-lo.
  {
    BasicSet fwd(2, no_params);
    fwd.add(Constraint::ge0(fwd.expr_var(0) - fwd.expr_const(1)));
    fwd.add(Constraint::ge0(fwd.expr_const(4) - fwd.expr_var(0)));
    fwd.add(Constraint::ge0(fwd.expr_var(1)));
    BasicSet rev(2, no_params);
    rev.add(Constraint::ge0(rev.expr_const(4) - rev.expr_var(0)));
    rev.add(Constraint::ge0(rev.expr_var(1)));
    rev.add(Constraint::ge0(rev.expr_var(0) - rev.expr_const(1)));
    ASSERT_NE(rep_bytes(fwd), rep_bytes(rev));  // different representations...
    ASSERT_EQ(intern(Set(fwd)).get(), intern(Set(rev)).get());  // ...same node
  }

  // Seeded: shuffle the constraint insertion order within each part and the
  // part order of the union; every permutation must intern to the one node.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 49979687);
    const std::size_t r = rank_for(seed);
    const Set s = g.set(r);

    std::vector<BasicSet> parts(s.parts().begin(), s.parts().end());
    std::shuffle(parts.begin(), parts.end(), g.eng);
    Set shuffled(s.nvars(), s.params());
    for (const BasicSet& part : parts) {
      std::vector<Constraint> cs(part.constraints().begin(),
                                 part.constraints().end());
      std::shuffle(cs.begin(), cs.end(), g.eng);
      BasicSet rebuilt(part.nvars(), part.params());
      for (const Constraint& c : cs) rebuilt.add(c);
      shuffled.add_part(std::move(rebuilt));
    }

    const auto node_a = intern(s);
    const auto node_b = intern(shuffled);
    ASSERT_EQ(node_a.get(), node_b.get());
    // The canonical node denotes the same mathematical set.
    ASSERT_EQ(points_of(*node_a), points_of(s));
  }
}

TEST(IsetProp, SampleWitnessSurvivesInterning) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Gen g(seed * 86028121);
    const std::size_t r = rank_for(seed);
    const Set s = g.set(r);

    const std::optional<std::vector<i64>> witness = s.sample({});
    const auto node = intern(s);
    ASSERT_EQ(node->sample({}), witness);
    if (witness) {
      ASSERT_TRUE(s.contains(*witness, {}));
      ASSERT_TRUE(node->contains(*witness, {}));
    }
  }
}

}  // namespace
}  // namespace dhpf::iset
