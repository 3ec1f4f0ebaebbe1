#include "iset/set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "iset/intern.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"

namespace dhpf::iset {

// ------------------------------------------------------------- BasicSet

void BasicSet::add(Constraint c) {
  require(c.e.var.size() == nvars_ && c.e.param.size() == params_.size(), "iset",
          "constraint space mismatch");
  cs_.push_back(std::move(c));
  rep_.store(0, std::memory_order_relaxed);
}

void BasicSet::add_bounds(std::size_t v, const LinExpr& lo, const LinExpr& hi) {
  add(Constraint::ge0(expr_var(v) - lo));
  add(Constraint::ge0(hi - expr_var(v)));
}

void BasicSet::add_eq(std::size_t v, const LinExpr& value) {
  add(Constraint::eq0(expr_var(v) - value));
}

BasicSet BasicSet::intersect(const BasicSet& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "intersect: space mismatch");
  BasicSet r = *this;
  for (const auto& c : o.cs_) r.cs_.push_back(c);
  r.rep_.store(0, std::memory_order_relaxed);
  return r;
}

namespace {

/// Remove dimension v from an expression (its coefficient must be zero).
LinExpr drop_var(const LinExpr& e, std::size_t v) {
  LinExpr r = e;
  r.var.erase(r.var.begin() + static_cast<std::ptrdiff_t>(v));
  return r;
}

}  // namespace

BasicSet BasicSet::project_out(std::size_t v) const {
  require(v < nvars_, "iset", "project_out: variable out of range");
  DHPF_COUNTER("iset.projections");
  BasicSet out(nvars_ - 1, params_);

  // Split constraints on whether they mention v.
  std::vector<Constraint> eqs, lowers, uppers, rest;
  for (const auto& c : cs_) {
    const i64 a = c.e.var[v];
    if (a == 0)
      rest.push_back(c);
    else if (c.is_eq)
      eqs.push_back(c);
    else if (a > 0)
      lowers.push_back(c);  // a*v + f >= 0 -> lower bound on v
    else
      uppers.push_back(c);  // a*v + f >= 0, a<0 -> upper bound on v
  }

  if (!eqs.empty()) {
    DHPF_COUNTER("iset.eq_substitutions");
    // Integer-exact substitution through an equality: normalize a > 0, then
    // for any constraint b*v + f (>=|==) 0, replace with a*f - b*g where
    // a*v + g == 0 (scaling an inequality by a > 0 preserves it).
    Constraint eq = eqs.front();
    if (eq.e.var[v] < 0) eq.e *= -1;
    const i64 a = eq.e.var[v];
    LinExpr g = eq.e;  // a*v + g_rest; we use the whole expr and cancel v
    auto substitute = [&](const Constraint& c) {
      const i64 b = c.e.var[v];
      LinExpr r = c.e * a - g * b;  // coefficient of v: b*a - a*b = 0
      Constraint nc{drop_var(r, v), c.is_eq};
      nc.e.normalize_gcd();
      return nc;
    };
    for (std::size_t i = 1; i < eqs.size(); ++i) out.cs_.push_back(substitute(eqs[i]));
    for (const auto& c : lowers) out.cs_.push_back(substitute(c));
    for (const auto& c : uppers) out.cs_.push_back(substitute(c));
    for (const auto& c : rest) out.cs_.push_back(Constraint{drop_var(c.e, v), c.is_eq});
    return out;
  }

  // Fourier-Motzkin pairs (rational).
  DHPF_COUNTER("iset.fm_projections");
  DHPF_COUNTER_ADD("iset.fm_pair_constraints", lowers.size() * uppers.size());
  for (const auto& lo : lowers)
    for (const auto& up : uppers) {
      const i64 a = lo.e.var[v];    // > 0
      const i64 b = -up.e.var[v];   // > 0
      LinExpr r = lo.e * b + up.e * a;  // v-coefficient: a*b - b*a = 0
      Constraint nc{drop_var(r, v), false};
      nc.e.normalize_gcd();
      out.cs_.push_back(std::move(nc));
    }
  for (const auto& c : rest) out.cs_.push_back(Constraint{drop_var(c.e, v), c.is_eq});
  out.simplify();
  return out;
}

bool BasicSet::simplify() {
  std::vector<Constraint> kept;
  for (auto c : cs_) {
    c.e.normalize_gcd();
    if (c.e.is_constant()) {
      const bool ok = c.is_eq ? (c.e.cst == 0) : (c.e.cst >= 0);
      if (!ok) {
        // Statically infeasible: mark by a canonical false constraint.
        cs_.clear();
        cs_.push_back(Constraint::ge0(expr_const(-1)));
        rep_.store(0, std::memory_order_relaxed);
        return false;
      }
      continue;  // tautology
    }
    bool dup = false;
    for (const auto& k : kept)
      if (k == c) {
        dup = true;
        break;
      }
    if (!dup) kept.push_back(std::move(c));
  }
  cs_ = std::move(kept);
  rep_.store(0, std::memory_order_relaxed);
  return true;
}

bool BasicSet::is_empty() const {
  DHPF_COUNTER("iset.emptiness_tests");
  std::uint64_t key = 0;
  const bool cache = memo::enabled();
  if (cache) {
    key = rep_id();
    if (auto hit = memo::bool_lookup(key)) return *hit;
  }
  const bool result = [&] {
    BasicSet work = *this;
    if (!work.simplify()) return true;
    // Eliminate all tuple variables...
    while (work.nvars_ > 0) {
      work = work.project_out(work.nvars_ - 1);
      if (!work.simplify()) return true;
    }
    // ...then treat parameters as variables and eliminate them too.
    BasicSet ground(params_.size(), Params{});
    for (const auto& c : work.cs_) {
      LinExpr e = LinExpr::zero(params_.size(), 0);
      e.var = c.e.param;
      e.cst = c.e.cst;
      ground.cs_.push_back(Constraint{std::move(e), c.is_eq});
    }
    if (!ground.simplify()) return true;
    while (ground.nvars_ > 0) {
      ground = ground.project_out(ground.nvars_ - 1);
      if (!ground.simplify()) return true;
    }
    for (const auto& c : ground.cs_) {
      if (c.is_eq ? (c.e.cst != 0) : (c.e.cst < 0)) return true;
    }
    return false;
  }();
  if (cache) memo::bool_store(key, result);
  return result;
}

bool BasicSet::contains(const std::vector<i64>& vars, const std::vector<i64>& params) const {
  for (const auto& c : cs_)
    if (!c.satisfied(vars, params)) return false;
  return true;
}

std::string BasicSet::to_string(const std::vector<std::string>& var_names) const {
  std::ostringstream out;
  out << "{ ";
  for (std::size_t v = 0; v < nvars_; ++v) {
    if (v) out << ", ";
    out << (v < var_names.size() ? var_names[v] : "x" + std::to_string(v));
  }
  out << " : ";
  for (std::size_t i = 0; i < cs_.size(); ++i) {
    if (i) out << " and ";
    out << cs_[i].to_string(params_, var_names);
  }
  if (cs_.empty()) out << "true";
  out << " }";
  return out.str();
}

// ------------------------------------------------------------------ Set

namespace {

/// High-water mark of union fragmentation (parts in any Set an algebra
/// operation produced or consumed) — the before-picture for the planned
/// hash-consing/simplification work. Published as a gauge only when the
/// maximum actually moves, so the hot path stays a relaxed load.
void note_fragmentation(std::size_t parts) {
  static std::atomic<std::size_t> high{0};
  std::size_t cur = high.load(std::memory_order_relaxed);
  while (parts > cur &&
         !high.compare_exchange_weak(cur, parts, std::memory_order_relaxed)) {
  }
  if (parts > cur)
    obs::Registry::current().set_gauge("iset.max_fragmentation", static_cast<double>(parts));
}

}  // namespace

Set::Set(BasicSet bs) : nvars_(bs.nvars()), params_(bs.params()) {
  parts_.push_back(std::move(bs));
}

void Set::add_part(BasicSet bs) {
  require(bs.nvars() == nvars_ && bs.params() == params_, "iset", "add_part: space mismatch");
  DHPF_COUNTER("iset.polyhedra_created");
  if (bs.simplify() && !bs.is_empty()) parts_.push_back(std::move(bs));
  rep_.store(0, std::memory_order_relaxed);
  reset_plan();
}

Set Set::unite(const Set& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "unite: space mismatch");
  DHPF_COUNTER("iset.op.unions");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size() + o.parts_.size());
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = o.rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Unite, ka, kb)) return *hit;
  }
  Set r = *this;
  for (const auto& p : o.parts_) r.parts_.push_back(p);
  r.rep_.store(0, std::memory_order_relaxed);
  note_fragmentation(r.parts_.size());
  if (cache) memo::set_store(memo::Op::Unite, ka, kb, r);
  return r;
}

Set Set::intersect(const Set& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "intersect: space mismatch");
  DHPF_COUNTER("iset.op.intersections");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size() + o.parts_.size());
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = o.rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Intersect, ka, kb)) return *hit;
  }
  Set r(nvars_, params_);
  for (const auto& a : parts_)
    for (const auto& b : o.parts_) r.add_part(a.intersect(b));
  note_fragmentation(r.parts_.size());
  if (cache) memo::set_store(memo::Op::Intersect, ka, kb, r);
  return r;
}

Set Set::subtract(const Set& o) const {
  require(nvars_ == o.nvars_ && params_ == o.params_, "iset", "subtract: space mismatch");
  DHPF_COUNTER("iset.op.differences");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size() + o.parts_.size());
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = o.rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Subtract, ka, kb)) return *hit;
  }
  // A - (B1 ∪ B2 ∪ ...) = A ∩ ¬B1 ∩ ¬B2 ∩ ...; each ¬Bi is a union over its
  // negated constraints (integer-exact: ¬(e >= 0) is -e-1 >= 0).
  std::vector<BasicSet> acc = parts_;
  for (const auto& b : o.parts_) {
    std::vector<BasicSet> next;
    for (const auto& a : acc) {
      for (const auto& c : b.constraints()) {
        if (c.is_eq) {
          BasicSet lt = a;
          lt.add(Constraint::ge0(c.e * -1 - lt.expr_const(1) + lt.expr_zero()));
          if (lt.simplify() && !lt.is_empty()) next.push_back(std::move(lt));
          BasicSet gt = a;
          gt.add(Constraint::ge0(c.e - gt.expr_const(1) + gt.expr_zero()));
          if (gt.simplify() && !gt.is_empty()) next.push_back(std::move(gt));
        } else {
          BasicSet neg = a;
          neg.add(Constraint::ge0(c.e * -1 - neg.expr_const(1) + neg.expr_zero()));
          if (neg.simplify() && !neg.is_empty()) next.push_back(std::move(neg));
        }
      }
      if (b.constraints().empty()) {
        // Subtracting the universe annihilates everything.
      }
    }
    acc = std::move(next);
    if (acc.empty()) break;
  }
  Set r(nvars_, params_);
  for (auto& bs : acc) r.parts_.push_back(std::move(bs));
  note_fragmentation(r.parts_.size());
  if (cache) memo::set_store(memo::Op::Subtract, ka, kb, r);
  return r;
}

Set Set::project_out(std::size_t v) const {
  std::uint64_t ka = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    if (auto hit = memo::set_lookup(memo::Op::Project, ka, v)) return *hit;
  }
  Set r(nvars_ - 1, params_);
  for (const auto& p : parts_) r.add_part(p.project_out(v));
  if (cache) memo::set_store(memo::Op::Project, ka, v, r);
  return r;
}

bool Set::is_empty() const {
  for (const auto& p : parts_)
    if (!p.is_empty()) return false;
  return true;
}

bool Set::contains(const std::vector<i64>& vars, const std::vector<i64>& params) const {
  for (const auto& p : parts_)
    if (p.contains(vars, params)) return true;
  return false;
}

Set Set::apply(const AffineMap& map) const {
  require(map.n_in() == nvars_ && map.params() == params_, "iset", "apply: space mismatch");
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = memo::intern_key(rep_bytes(map));
    if (auto hit = memo::set_lookup(memo::Op::Apply, ka, kb)) return *hit;
  }
  const std::size_t m = map.n_out();
  Set r(m, params_);
  for (const auto& p : parts_) {
    // Variables: [y_0..y_{m-1}, x_0..x_{n-1}]; add y_i == f_i(x), then
    // eliminate the x block.
    BasicSet ext(m + nvars_, params_);
    for (const auto& c : p.constraints()) {
      LinExpr e = LinExpr::zero(m + nvars_, params_.size());
      for (std::size_t i = 0; i < nvars_; ++i) e.var[m + i] = c.e.var[i];
      e.param = c.e.param;
      e.cst = c.e.cst;
      ext.add(Constraint{std::move(e), c.is_eq});
    }
    for (std::size_t o = 0; o < m; ++o) {
      LinExpr e = LinExpr::zero(m + nvars_, params_.size());
      e.var[o] = 1;
      const LinExpr& f = map.out(o);
      for (std::size_t i = 0; i < nvars_; ++i) e.var[m + i] -= f.var[i];
      for (std::size_t j = 0; j < params_.size(); ++j) e.param[j] -= f.param[j];
      e.cst -= f.cst;
      ext.add(Constraint::eq0(std::move(e)));
    }
    BasicSet proj = ext;
    for (std::size_t i = 0; i < nvars_; ++i) proj = proj.project_out(proj.nvars() - 1);
    r.add_part(std::move(proj));
  }
  if (cache) memo::set_store(memo::Op::Apply, ka, kb, r);
  return r;
}

Set Set::preimage(const AffineMap& map) const {
  require(map.n_out() == nvars_ && map.params() == params_, "iset",
          "preimage: space mismatch");
  std::uint64_t ka = 0, kb = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ka = rep_id();
    kb = memo::intern_key(rep_bytes(map));
    if (auto hit = memo::set_lookup(memo::Op::Preimage, ka, kb)) return *hit;
  }
  Set r(map.n_in(), params_);
  for (const auto& p : parts_) {
    BasicSet bs(map.n_in(), params_);
    for (const auto& c : p.constraints()) {
      LinExpr e = LinExpr::constant(map.n_in(), params_.size(), c.e.cst);
      for (std::size_t j = 0; j < params_.size(); ++j) e.param[j] += c.e.param[j];
      for (std::size_t i = 0; i < nvars_; ++i) e += map.out(i) * c.e.var[i];
      bs.add(Constraint{std::move(e), c.is_eq});
    }
    r.add_part(std::move(bs));
  }
  if (cache) memo::set_store(memo::Op::Preimage, ka, kb, r);
  return r;
}

// ------------------------------------------------------------- box walk

namespace {

constexpr i64 kOpenLo = std::numeric_limits<i64>::min();
constexpr i64 kOpenHi = std::numeric_limits<i64>::max();

/// Range of the last variable of `bs` once the parameters and the other
/// variables (`outer`, values for vars [0, nvars-1)) are concrete: each
/// constraint is then a bound or a divisibility test on it, so the range is
/// exact. A side no constraint bounds is open (kOpenLo / kOpenHi); nullopt
/// when infeasible there.
std::optional<Interval> last_var_range(const BasicSet& bs, const std::vector<i64>& params,
                                       const std::vector<i64>& outer) {
  const std::size_t v = bs.nvars() - 1;
  Interval iv{kOpenLo, kOpenHi};
  for (const auto& c : bs.constraints()) {
    const i64 a = c.e.var[v];
    // residual = contribution of fixed vars + params + cst
    i64 res = c.e.cst;
    for (std::size_t i = 0; i < v; ++i) res += c.e.var[i] * outer[i];
    for (std::size_t j = 0; j < params.size(); ++j) res += c.e.param[j] * params[j];
    if (a == 0) {
      if (c.is_eq ? (res != 0) : (res < 0)) return std::nullopt;  // infeasible here
      continue;
    }
    // a*v + res >= 0 (or == 0)
    if (c.is_eq) {
      // a*v == -res must have an integer solution.
      if ((-res) % a != 0) return std::nullopt;
      const i64 val = -res / a;
      iv.lo = std::max(iv.lo, val);
      iv.hi = std::min(iv.hi, val);
    } else if (a > 0) {
      // v >= ceil(-res / a); C++ division truncates toward zero.
      const i64 num = -res;
      i64 q = num / a;
      if (num % a != 0 && num > 0) ++q;
      iv.lo = std::max(iv.lo, q);
    } else {
      // v <= floor(res / -a)
      const i64 na = -a;
      i64 q = res / na;
      if (res % na != 0 && res < 0) --q;
      iv.hi = std::min(iv.hi, q);
    }
  }
  if (iv.lo > iv.hi) return std::nullopt;
  return iv;
}

bool bounded(const Interval& iv) { return iv.lo != kOpenLo && iv.hi != kOpenHi; }

/// Sort and merge overlapping or adjacent intervals in place.
void merge_runs(std::vector<Interval>& runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t n = 0;
  for (const Interval& iv : runs) {
    if (n > 0 && iv.lo <= runs[n - 1].hi + 1)
      runs[n - 1].hi = std::max(runs[n - 1].hi, iv.hi);
    else
      runs[n++] = iv;
  }
  runs.resize(n);
}

}  // namespace

/// Per part: level[d] is the part projected onto variables 0..d, for the
/// outer levels d < nvars-1 (the last level is the part itself, read from
/// the set), and fold[d] says no constraint below level d ties variable d
/// to a deeper one, so every value of d in a stretch where the part stays
/// alive leads to the same subtree.
struct WalkPlan {
  struct Part {
    std::vector<BasicSet> level;
    std::vector<bool> fold;
  };
  std::vector<Part> parts;
};

void Set::reset_plan(const WalkPlan* p) {
  const WalkPlan* old = plan_.load(std::memory_order_relaxed);
  plan_.store(p, std::memory_order_relaxed);
  delete old;
}

const WalkPlan& Set::walk_plan() const {
  if (const WalkPlan* built = plan_.load(std::memory_order_acquire)) return *built;
  auto plan = std::make_unique<WalkPlan>();
  for (const BasicSet& part : parts_) {
    WalkPlan::Part wp;
    for (std::size_t d = nvars_ > 0 ? nvars_ - 1 : 0; d > 0; --d)
      wp.level.push_back((wp.level.empty() ? part : wp.level.back()).project_out(d));
    std::reverse(wp.level.begin(), wp.level.end());
    // A constraint that reads d and nothing deeper also sits in level d
    // (projection keeps it), so it holds on the whole stretch; only one
    // that ties d to a deeper variable breaks the fold.
    wp.fold.assign(nvars_, true);
    for (std::size_t l = 1; l < nvars_; ++l)
      for (const auto& c : (l + 1 == nvars_ ? part : wp.level[l]).constraints()) {
        std::size_t deepest = l + 1;
        while (deepest > 0 && c.e.var[deepest - 1] == 0) --deepest;
        for (std::size_t d = 0; d + 1 < deepest; ++d)
          if (c.e.var[d] != 0) wp.fold[d] = false;
      }
    plan->parts.push_back(std::move(wp));
  }
  const WalkPlan* raced = nullptr;  // a concurrent first walk may win
  if (!plan_.compare_exchange_strong(raced, plan.get(), std::memory_order_acq_rel)) return *raced;
  return *plan.release();
}

/// The descent behind walk_boxes. Level d < nvars-1 sweeps the values of
/// variable d inside the driver's alive ranges in increasing order, cutting
/// them into stretches at every alive range boundary of any operand, and
/// recurses once per stretch (once per value where folding is off or an
/// alive part ties d to a deeper variable). The last level asks the alive
/// parts for their exact innermost intervals.
class BoxWalker {
 public:
  BoxWalker(const std::vector<WalkOperand>& operands, std::size_t fold_from, const BoxFn& cb)
      : fold_from_(fold_from), cb_(cb), nvars_(operands.front().set->nvars()),
        levels_(std::max<std::size_t>(nvars_, 1)), at_(levels_ - 1), box_(levels_ - 1),
        ranges_(levels_), runs_(operands.size()) {
    for (const WalkOperand& o : operands) {
      require(o.set->nvars() == nvars_ && o.params->size() == o.set->params().size(), "iset",
              "box walk: operand space mismatch");
      Operand op{o.set, &o.set->walk_plan(), o.params,
                 std::vector<std::vector<std::size_t>>(levels_)};
      for (std::size_t i = 0; i < op.plan->parts.size(); ++i) op.alive[0].push_back(i);
      ops_.push_back(std::move(op));
    }
  }

  /// Walks, and returns the number of boxes visited.
  std::size_t run() {
    descend(0);
    return boxes_;
  }

 private:
  struct Operand {
    const Set* set;
    const WalkPlan* plan;
    const std::vector<i64>* params;
    std::vector<std::vector<std::size_t>> alive;  ///< alive parts per level
  };
  struct Range {
    Interval iv;
    std::size_t op;
    std::size_t part;
  };

  bool descend(std::size_t d) {
    if (d + 1 == levels_) return leaf();
    std::vector<Range>& ranges = ranges_[d];
    ranges.clear();
    bool any = false;
    i64 v = 0, end = -1;
    for (std::size_t k = 0; k < ops_.size(); ++k)
      for (std::size_t i : ops_[k].alive[d]) {
        const WalkPlan::Part& part = ops_[k].plan->parts[i];
        const auto iv = last_var_range(part.level[d], *ops_[k].params, at_);
        if (!iv) continue;
        if (k == 0) {
          if (!bounded(*iv)) continue;
          require((d >= fold_from_ && part.fold[d]) || iv->hi - iv->lo < 100000000, "iset",
                  "box walk: variable range too large");
          v = any ? std::min(v, iv->lo) : iv->lo;
          end = any ? std::max(end, iv->hi) : iv->hi;
          any = true;
        }
        ranges.push_back({*iv, k, i});
      }
    if (!any) return true;
    while (v <= end) {
      for (Operand& op : ops_) op.alive[d + 1].clear();
      i64 w = end;             // last value of the stretch starting at v
      i64 next_lo = kOpenHi;   // next driver range start when none holds v
      bool fold = d >= fold_from_;
      for (const Range& r : ranges) {
        if (r.iv.lo > v) {
          w = std::min(w, r.iv.lo - 1);
          if (r.op == 0) next_lo = std::min(next_lo, r.iv.lo);
        } else if (r.iv.hi >= v) {
          ops_[r.op].alive[d + 1].push_back(r.part);
          w = std::min(w, r.iv.hi);
          fold = fold && ops_[r.op].plan->parts[r.part].fold[d];
        }
      }
      if (ops_[0].alive[d + 1].empty()) {
        if (next_lo == kOpenHi) break;
        v = next_lo;
        continue;
      }
      if (!fold) w = v;
      box_[d] = {v, w};
      at_[d] = v;
      if (!descend(d + 1)) return false;
      v = w + 1;
    }
    return true;
  }

  bool leaf() {
    const std::size_t d = levels_ - 1;
    i64 lo = 0, hi = -1;  // the driver's hull, which clips the others
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      std::vector<Interval>& runs = runs_[k];
      runs.clear();
      for (std::size_t i : ops_[k].alive[d]) {
        const BasicSet& bs = ops_[k].set->parts()[i];
        std::optional<Interval> iv;
        if (nvars_ == 0) {
          if (bs.contains({}, *ops_[k].params)) iv = Interval{0, 0};
        } else {
          iv = last_var_range(bs, *ops_[k].params, at_);
        }
        if (!iv) continue;
        if (k == 0) {
          if (!bounded(*iv)) continue;
        } else {
          iv->lo = std::max(iv->lo, lo);
          iv->hi = std::min(iv->hi, hi);
          if (iv->lo > iv->hi) continue;
        }
        runs.push_back(*iv);
      }
      merge_runs(runs);
      if (k == 0) {
        if (runs.empty()) return true;
        lo = runs.front().lo;
        hi = runs.back().hi;
      }
    }
    ++boxes_;
    return cb_(box_, runs_);
  }

  std::size_t fold_from_;
  const BoxFn& cb_;
  std::size_t nvars_;
  std::size_t levels_;  ///< max(nvars, 1): a 0-ary walk is one leaf
  std::vector<Operand> ops_;
  std::vector<i64> at_;        ///< least corner of the current box
  std::vector<Interval> box_;
  std::vector<std::vector<Range>> ranges_;  ///< scratch per level
  std::vector<std::vector<Interval>> runs_;
  std::size_t boxes_ = 0;
};

void walk_boxes(const std::vector<WalkOperand>& operands, std::size_t fold_from,
                const BoxFn& cb) {
  require(!operands.empty(), "iset", "box walk: no operands");
  if (operands.front().set->parts().empty()) return;
  DHPF_COUNTER_ADD("iset.walk_boxes", BoxWalker(operands, fold_from, cb).run());
}

void Set::for_each_run(const std::vector<i64>& param_values, const RunFn& cb) const {
  require(param_values.size() == params_.size(), "iset", "run walk: wrong param count");
  std::vector<i64> prefix;
  walk_boxes({{this, &param_values}}, nvars_,
             [&](const std::vector<Interval>& box, const std::vector<std::vector<Interval>>& runs) {
               prefix.clear();
               for (const Interval& iv : box) prefix.push_back(iv.lo);
               return cb(prefix, runs.front());
             });
}

void Set::enumerate(const std::vector<i64>& param_values,
                    const std::function<void(const std::vector<i64>&)>& cb) const {
  DHPF_COUNTER("iset.enumerations");
  for_each_run(param_values, [&](const std::vector<i64>& prefix,
                                 const std::vector<Interval>& runs) {
    if (nvars_ == 0) {
      cb(prefix);
      return true;
    }
    std::vector<i64> point = prefix;
    point.push_back(0);
    for (const Interval& iv : runs) {
      require(iv.hi - iv.lo < 100000000, "iset", "enumerate: variable range too large");
      for (i64 x = iv.lo; x <= iv.hi; ++x) {
        point.back() = x;
        cb(point);
      }
    }
    return true;
  });
}

std::size_t Set::cardinality(const std::vector<i64>& param_values) const {
  require(param_values.size() == params_.size(), "iset", "cardinality: wrong param count");
  DHPF_COUNTER("iset.cardinalities");
  DHPF_COUNTER_ADD("iset.op.operand_parts", parts_.size());
  std::uint64_t ks = 0, kp = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ks = rep_id();
    kp = memo::intern_point(param_values);
    if (auto hit = memo::count_lookup(ks, kp)) return *hit;
  }
  std::size_t total = 0;
  walk_boxes({{this, &param_values}}, 0,
             [&](const std::vector<Interval>& box, const std::vector<std::vector<Interval>>& runs) {
               std::size_t points = 0;
               for (const Interval& iv : runs.front())
                 points += static_cast<std::size_t>(iv.hi - iv.lo + 1);
               for (const Interval& iv : box) points *= static_cast<std::size_t>(iv.hi - iv.lo + 1);
               total += points;
               return true;
             });
  if (cache) memo::count_store(ks, kp, total);
  return total;
}

std::optional<std::vector<i64>> Set::sample(const std::vector<i64>& param_values) const {
  std::uint64_t ks = 0, kp = 0;
  const bool cache = memo::enabled();
  if (cache) {
    ks = rep_id();
    kp = memo::intern_point(param_values);
    if (auto hit = memo::sample_lookup(ks, kp)) {
      if (!hit->has) return std::nullopt;
      return hit->point;
    }
  }
  std::optional<std::vector<i64>> first;
  walk_boxes({{this, &param_values}}, 0,
             [&](const std::vector<Interval>& box, const std::vector<std::vector<Interval>>& runs) {
               first.emplace();
               for (const Interval& iv : box) first->push_back(iv.lo);
               if (nvars_ > 0) first->push_back(runs.front().front().lo);
               return false;
             });
  if (cache) {
    memo::SampleResult r;
    r.has = first.has_value();
    if (first) r.point = *first;
    memo::sample_store(ks, kp, r);
  }
  return first;
}

std::string Set::to_string(const std::vector<std::string>& var_names) const {
  if (parts_.empty()) return "{ }";
  std::ostringstream out;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i) out << " union ";
    out << parts_[i].to_string(var_names);
  }
  return out.str();
}

// ------------------------------------------------------------ AffineMap

AffineMap::AffineMap(std::size_t n_in, std::size_t n_out, Params params)
    : n_in_(n_in), params_(std::move(params)),
      outs_(n_out, LinExpr::zero(n_in, params_.size())) {}

AffineMap AffineMap::identity(std::size_t n, Params params) {
  AffineMap m(n, n, std::move(params));
  for (std::size_t i = 0; i < n; ++i) m.outs_[i].var[i] = 1;
  return m;
}

AffineMap AffineMap::compose(const AffineMap& inner) const {
  require(inner.n_out() == n_in_ && inner.params() == params_, "iset",
          "compose: map mismatch");
  AffineMap r(inner.n_in(), n_out(), params_);
  for (std::size_t o = 0; o < n_out(); ++o) {
    LinExpr e = LinExpr::constant(inner.n_in(), params_.size(), outs_[o].cst);
    for (std::size_t j = 0; j < params_.size(); ++j) e.param[j] += outs_[o].param[j];
    for (std::size_t i = 0; i < n_in_; ++i) e += inner.out(i) * outs_[o].var[i];
    r.outs_[o] = std::move(e);
  }
  return r;
}

std::vector<i64> AffineMap::eval(const std::vector<i64>& in,
                                 const std::vector<i64>& params) const {
  std::vector<i64> out(n_out());
  for (std::size_t o = 0; o < n_out(); ++o) out[o] = outs_[o].eval(in, params);
  return out;
}

}  // namespace dhpf::iset
