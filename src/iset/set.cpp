#include "iset/set.hpp"

#include <algorithm>
#include <cmath>
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

namespace {

/// Bounds of variable v in bs once params and the outer variables (`fixed`,
/// values for vars [0, v)) are concrete; constraints on vars above v are
/// skipped (the caller projected them away, or v is the last variable, in
/// which case the interval is exact). nullopt when infeasible or unbounded.
std::optional<Interval> var_bounds(const BasicSet& bs, const std::vector<i64>& params,
                                   std::size_t v, const std::vector<i64>& fixed) {
  bool has_lo = false, has_hi = false;
  Interval iv;
  for (const auto& c : bs.constraints()) {
    const i64 a = c.e.var[v];
    // residual = contribution of fixed vars + params + cst
    i64 res = c.e.cst;
    for (std::size_t i = 0; i < v; ++i) res += c.e.var[i] * fixed[i];
    for (std::size_t j = 0; j < params.size(); ++j) res += c.e.param[j] * params[j];
    bool higher_vars = false;
    for (std::size_t i = v + 1; i < c.e.var.size(); ++i)
      if (c.e.var[i] != 0) higher_vars = true;
    if (higher_vars) continue;  // handled by the projected copies
    if (a == 0) {
      if (c.is_eq ? (res != 0) : (res < 0)) return std::nullopt;  // infeasible here
      continue;
    }
    // a*v + res >= 0 (or == 0)
    if (c.is_eq) {
      // a*v == -res must have an integer solution.
      if ((-res) % a != 0) return std::nullopt;
      const i64 val = -res / a;
      if (!has_lo || val > iv.lo) iv.lo = val, has_lo = true;
      if (!has_hi || val < iv.hi) iv.hi = val, has_hi = true;
    } else if (a > 0) {
      // v >= ceil(-res / a); C++ division truncates toward zero.
      const i64 num = -res;
      i64 q = num / a;
      if (num % a != 0 && num > 0) ++q;
      if (!has_lo || q > iv.lo) iv.lo = q, has_lo = true;
    } else {
      // v <= floor(res / -a)
      const i64 na = -a;
      i64 q = res / na;
      if (res % na != 0 && res < 0) --q;
      if (!has_hi || q < iv.hi) iv.hi = q, has_hi = true;
    }
  }
  if (!has_lo || !has_hi || iv.lo > iv.hi) return std::nullopt;
  return iv;
}

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

/// The descent behind Set::for_each_run. Level d < nvars-1 sweeps the
/// values of variable d inside the alive parts' projected ranges in
/// increasing order and recurses with the parts whose range holds the
/// value; the last level asks the alive parts for their exact innermost
/// intervals.
class RunWalker {
 public:
  RunWalker(const std::vector<BasicSet>& parts, const std::vector<i64>& params,
            const Set::RunFn& cb)
      : parts_(parts), params_(params), cb_(cb), nvars_(parts.front().nvars()),
        prefix_(nvars_ - 1), alive_(nvars_) {
    // Projection cascade per part: proj[d] keeps variables 0..d (the last
    // level reads the part itself).
    for (const BasicSet& part : parts) {
      std::vector<BasicSet> proj(nvars_ - 1, BasicSet(0, part.params()));
      for (std::size_t d = nvars_ - 1; d > 0; --d)
        proj[d - 1] = (d + 1 == nvars_ ? part : proj[d]).project_out(d);
      proj_.push_back(std::move(proj));
    }
    for (std::size_t i = 0; i < parts.size(); ++i) alive_[0].push_back(i);
  }

  void run() { descend(0); }

 private:
  bool descend(std::size_t d) {
    if (d + 1 == nvars_) {
      runs_.clear();
      for (std::size_t i : alive_[d])
        if (auto iv = parts_[i].inner_interval(prefix_, params_)) runs_.push_back(*iv);
      merge_runs(runs_);
      return runs_.empty() || cb_(prefix_, runs_);
    }
    std::vector<std::pair<Interval, std::size_t>> ranges;
    i64 v = 0, end = -1;
    for (std::size_t i : alive_[d]) {
      const auto iv = var_bounds(proj_[i][d], params_, d, prefix_);
      if (!iv) continue;
      require(iv->hi - iv->lo < 100000000, "iset", "run walk: variable range too large");
      v = ranges.empty() ? iv->lo : std::min(v, iv->lo);
      end = ranges.empty() ? iv->hi : std::max(end, iv->hi);
      ranges.emplace_back(*iv, i);
    }
    std::vector<std::size_t>& next = alive_[d + 1];
    while (v <= end) {
      next.clear();
      i64 gap_end = end + 1;  // next range start when no range holds v
      for (const auto& [iv, i] : ranges) {
        if (iv.lo <= v && v <= iv.hi)
          next.push_back(i);
        else if (iv.lo > v)
          gap_end = std::min(gap_end, iv.lo);
      }
      if (next.empty()) {
        v = gap_end;
        continue;
      }
      prefix_[d] = v;
      if (!descend(d + 1)) return false;
      ++v;
    }
    return true;
  }

  const std::vector<BasicSet>& parts_;
  const std::vector<i64>& params_;
  const Set::RunFn& cb_;
  std::size_t nvars_;
  std::vector<std::vector<BasicSet>> proj_;
  std::vector<i64> prefix_;
  std::vector<std::vector<std::size_t>> alive_;  ///< parts alive per level
  std::vector<Interval> runs_;
};

}  // namespace

std::optional<Interval> BasicSet::inner_interval(const std::vector<i64>& prefix,
                                                 const std::vector<i64>& params) const {
  if (nvars_ == 0) return contains({}, params) ? std::optional<Interval>({0, 0}) : std::nullopt;
  return var_bounds(*this, params, nvars_ - 1, prefix);
}

std::vector<Interval> Set::inner_intervals(const std::vector<i64>& prefix,
                                           const std::vector<i64>& params) const {
  std::vector<Interval> runs;
  for (const auto& p : parts_)
    if (auto iv = p.inner_interval(prefix, params)) runs.push_back(*iv);
  merge_runs(runs);
  return runs;
}

void Set::for_each_run(const std::vector<i64>& param_values, const RunFn& cb) const {
  require(param_values.size() == params_.size(), "iset", "run walk: wrong param count");
  if (parts_.empty()) return;
  if (nvars_ == 0) {
    if (contains({}, param_values)) cb({}, {Interval{0, 0}});
    return;
  }
  RunWalker(parts_, param_values, cb).run();
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
  for_each_run(param_values, [&](const std::vector<i64>&, const std::vector<Interval>& runs) {
    for (const Interval& iv : runs) total += static_cast<std::size_t>(iv.hi - iv.lo + 1);
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
  for_each_run(param_values, [&](const std::vector<i64>& prefix,
                                 const std::vector<Interval>& runs) {
    first = prefix;
    if (nvars_ > 0) first->push_back(runs.front().lo);
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
