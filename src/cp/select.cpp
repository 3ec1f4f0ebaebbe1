#include "cp/select.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/dependence.hpp"
#include "analysis/sets.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "support/scc.hpp"
#include "support/union_find.hpp"
#include "trace/trace.hpp"

namespace dhpf::cp {

using analysis::IterSpace;
using hpf::Array;
using hpf::Assign;
using hpf::Loop;
using hpf::Ref;
using hpf::Stmt;
using hpf::Subscript;
using iset::Set;

namespace {

// ------------------------------------------------- subscript arithmetic

Subscript sub_add(const Subscript& a, const Subscript& b, int bscale = 1) {
  Subscript r = a;
  r.cst += static_cast<long>(bscale) * b.cst;
  for (const auto& [n, c] : b.coef) {
    r.coef[n] += bscale * c;
    if (r.coef[n] == 0) r.coef.erase(n);
  }
  return r;
}

Subscript sub_scale(const Subscript& a, int s) {
  Subscript r;
  r.cst = a.cst * s;
  for (const auto& [n, c] : a.coef)
    if (c * s != 0) r.coef[n] = c * s;
  return r;
}

/// The unique non-common variable of `s` with |coef| == 1, if any.
/// Returns false when `s` has no non-common variables; throws `ambiguous`
/// out-param when the subscript cannot provide a 1-1 mapping.
bool single_noncommon_var(const Subscript& s, const std::set<std::string>& common,
                          std::string* var, int* coef, bool* usable) {
  *usable = true;
  bool found = false;
  for (const auto& [n, c] : s.coef) {
    if (c == 0 || common.count(n)) continue;
    if (found || (c != 1 && c != -1)) {
      *usable = false;
      return false;
    }
    *var = n;
    *coef = c;
    found = true;
  }
  return found;
}

std::set<std::string> loop_var_names(const std::vector<const Loop*>& path, std::size_t upto) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < upto && i < path.size(); ++i) names.insert(path[i]->var);
  return names;
}

std::size_t common_prefix(const std::vector<const Loop*>& a,
                          const std::vector<const Loop*>& b) {
  std::size_t d = 0;
  while (d < a.size() && d < b.size() && a[d] == b[d]) ++d;
  return d;
}

bool range_uses_var(const SubRange& r, const std::string& var) {
  return r.lo.coef.count(var) || r.hi.coef.count(var);
}

}  // namespace

OnHomeTerm translate_term_use_to_def(const OnHomeTerm& term,
                                     const std::vector<const Loop*>& use_path,
                                     const Ref& use_ref,
                                     const std::vector<const Loop*>& def_path,
                                     const Ref& def_lhs) {
  const std::size_t nc = common_prefix(use_path, def_path);
  const std::set<std::string> common = loop_var_names(use_path, nc);

  // Step 1: per-dimension 1-1 mappings use-var -> def-frame expression.
  // Fresh placeholder names avoid capture when use and def loops share
  // variable names (the paper's "two different induction variables that
  // just happen to have the same name").
  std::map<std::string, Subscript> subst;         // use var -> expr in $fresh
  std::map<std::string, Subscript> fresh_expand;  // $fresh -> def-frame expr
  int fresh_id = 0;
  require(use_ref.subs.size() == def_lhs.subs.size(), "cp",
          "use/def rank mismatch in CP translation");
  for (std::size_t d = 0; d < use_ref.subs.size(); ++d) {
    std::string x, y;
    int cu = 0, cd = 0;
    bool ok_u = false, ok_d = false;
    if (!single_noncommon_var(use_ref.subs[d], common, &x, &cu, &ok_u) || !ok_u) continue;
    if (!single_noncommon_var(def_lhs.subs[d], common, &y, &cd, &ok_d) || !ok_d) continue;
    if (subst.count(x)) continue;  // first established mapping wins
    // Solve cu*x + restU == cd*y + restD  =>  x = cu * (fD - restU), where
    // restU = fU - cu*x (affine in common vars).
    const std::string fresh = "$t" + std::to_string(fresh_id++);
    Subscript fD_fresh = def_lhs.subs[d];
    {
      // rename y -> fresh inside fD
      auto it = fD_fresh.coef.find(y);
      const int cy = it->second;
      fD_fresh.coef.erase(it);
      fD_fresh.coef[fresh] = cy;
    }
    Subscript restU = use_ref.subs[d];
    restU.coef.erase(x);
    subst[x] = sub_scale(sub_add(fD_fresh, restU, -1), cu);
    fresh_expand[fresh] = Subscript::var(y);
  }

  // Step 2: apply the inverse mapping to the term's subscripts.
  OnHomeTerm out = term;
  for (auto& sr : out.subs) {
    sr.lo = substitute(sr.lo, subst);
    sr.hi = substitute(sr.hi, subst);
  }

  // Step 3: vectorize any remaining non-common use variables through their
  // loops (innermost first, so bounds that mention outer use variables get
  // vectorized by later iterations).
  for (std::size_t idx = use_path.size(); idx-- > nc;) {
    const Loop* l = use_path[idx];
    for (auto& sr : out.subs)
      if (range_uses_var(sr, l->var)) sr = vectorize(sr, l->var, l->lo, l->hi);
  }

  // Step 4: expand the fresh placeholders into def-frame variables.
  for (auto& sr : out.subs) {
    sr.lo = substitute(sr.lo, fresh_expand);
    sr.hi = substitute(sr.hi, fresh_expand);
  }
  return out;
}

// ----------------------------------------------------------- candidates

namespace {

/// Canonical key of a term's induced processor assignment, for the §5
/// equivalence ("references with the same data partition are identical").
std::string term_class_key(const OnHomeTerm& t) {
  if (!t.array || !t.array->dist.grid) return "@replicated";
  std::ostringstream key;
  key << t.array->dist.grid->name;
  for (std::size_t d = 0; d < t.subs.size(); ++d) {
    const auto& dim = t.array->dist.dims[d];
    if (dim.kind != hpf::DistKind::Block) continue;
    const long off = t.array->dist.offset(d);
    key << "|g" << dim.proc_dim << ":" << t.subs[d].lo.plus(off).to_string() << ":"
        << t.subs[d].hi.plus(off).to_string();
  }
  return key.str();
}

struct CandidateCp {
  CP cp;
  std::string key;  // class key (single-term candidates); unions use the joined key
};

std::string cp_class_key(const CP& cp) {
  if (cp.is_replicated()) return "@replicated";
  std::string key;
  for (const auto& t : cp.terms) key += term_class_key(t) + "&";
  return key;
}

std::vector<CandidateCp> assign_candidates(const Assign& a,
                                           const std::set<const Array*>& deferred) {
  std::vector<CandidateCp> cands;
  auto push = [&](const Ref& r) {
    if (!r.array->distributed()) return;
    if (deferred.count(r.array)) return;  // private/localized refs are not anchors
    DHPF_COUNTER("cp.candidates_enumerated");
    CandidateCp c{CP::on_home(r), {}};
    c.key = cp_class_key(c.cp);
    for (const auto& e : cands)
      if (e.key == c.key) {
        DHPF_COUNTER("cp.candidates_pruned");
        return;
      }
    cands.push_back(std::move(c));
  };
  push(a.lhs);
  for (const auto& r : a.rhs) push(r);
  if (cands.empty()) cands.push_back(CandidateCp{CP::replicated(), "@replicated"});
  return cands;
}

// ------------------------------------------------------------ cost model

constexpr double kMsgCost = 50.0;
constexpr double kElemCost = 1.0;

}  // namespace

Set iterations_on_home(const IterSpace& is, const CP& cp, const iset::Params& params) {
  if (cp.is_replicated()) return Set(is.bounds);
  Set guard = Set::empty(is.depth(), params);
  for (const auto& t : cp.terms) {
    iset::BasicSet bs = is.bounds;
    for (std::size_t d = 0; d < t.subs.size(); ++d) {
      const auto& dim = t.array->dist.dims[d];
      if (dim.kind != hpf::DistKind::Block) continue;
      const std::string g = std::to_string(dim.proc_dim);
      const long off = t.array->dist.offset(d);
      const iset::LinExpr lo = analysis::subscript_expr(is, t.subs[d].lo, params);
      const iset::LinExpr hi = analysis::subscript_expr(is, t.subs[d].hi, params);
      // Range [lo+off, hi+off] overlaps the owned block [lb, ub].
      bs.add(iset::Constraint::ge0(bs.expr_param("ub" + g) - lo - bs.expr_const(off)));
      bs.add(iset::Constraint::ge0(hi + bs.expr_const(off) - bs.expr_param("lb" + g)));
    }
    guard.add_part(std::move(bs));
  }
  return guard;
}

namespace {

/// Non-local data the representative processor touches through `ref` when
/// executing `iters`: image(iters) minus the owned section.
Set nonlocal_data(const IterSpace& is, const Set& iters, const Ref& ref,
                  const iset::Params& params) {
  const auto m = analysis::subscript_map(is, ref.subs, params);
  return iters.apply(m).subtract(analysis::owned_set(*ref.array, params));
}

double cost_of_choice(const hpf::Program& prog, const iset::Params& params,
                      const std::vector<iset::i64>& rep_vals, const StmtCp& sc,
                      const CP& choice, const std::set<const Array*>& deferred) {
  DHPF_COUNTER("cp.cost_evaluations");
  if (!sc.stmt->is_assign()) return 0.0;
  const Assign& a = sc.stmt->assign();
  const IterSpace is = analysis::iteration_space(sc.path, params);
  const Set iters = iterations_on_home(is, choice, params);
  double cost = 0.0;
  auto add_ref = [&](const Ref& r) {
    if (!r.array->distributed() || deferred.count(r.array)) return;
    const Set nl = nonlocal_data(is, iters, r, params);
    if (nl.is_empty()) return;
    cost += kMsgCost + kElemCost * static_cast<double>(nl.cardinality(rep_vals));
  };
  for (const auto& r : a.rhs) add_ref(r);
  add_ref(a.lhs);  // non-owner writes must be sent back to the owner (§2)
  (void)prog;
  return cost;
}

}  // namespace

// ----------------------------------------- §5 grouping and distribution

namespace {

struct GroupingOutcome {
  LoopDistInfo info;
  /// stmt id -> allowed class keys after restriction
  std::map<int, std::set<std::string>> allowed;
  /// stmt id -> union-find root stmt id (group identity)
  std::map<int, int> group_of;
};

GroupingOutcome run_grouping(const Loop& loop, const std::vector<const Loop*>& outer_path,
                             const std::set<const Array*>& deferred) {
  GroupingOutcome out;
  out.info.loop = &loop;

  // Direct assignment children.
  std::vector<const Stmt*> stmts;
  for (const auto& sp : loop.body)
    if (sp->is_assign()) stmts.push_back(sp.get());
  out.info.num_stmts = stmts.size();
  if (stmts.empty()) return out;

  auto id_of = [&](const Stmt* s) { return s->assign().id; };
  std::map<const Stmt*, std::size_t> index;
  for (std::size_t i = 0; i < stmts.size(); ++i) index[stmts[i]] = i;

  // Candidate class keys per statement.
  std::vector<std::set<std::string>> keys(stmts.size());
  for (std::size_t i = 0; i < stmts.size(); ++i)
    for (const auto& c : assign_candidates(stmts[i]->assign(), deferred))
      keys[i].insert(c.key);

  const auto deps = analysis::dependences_in_loop(loop, outer_path);

  UnionFind uf(stmts.size());
  std::vector<std::set<std::string>> group_keys = keys;
  for (const auto& e : deps) {
    if (!e.loop_independent || e.src == e.dst) continue;
    auto is_ = index.find(e.src);
    auto id_ = index.find(e.dst);
    if (is_ == index.end() || id_ == index.end()) continue;
    if (deferred.count(e.array)) continue;  // §4 arrays: handled by propagation
    const std::size_t ra = uf.find(is_->second), rb = uf.find(id_->second);
    if (ra == rb) continue;
    std::set<std::string> inter;
    std::set_intersection(group_keys[ra].begin(), group_keys[ra].end(),
                          group_keys[rb].begin(), group_keys[rb].end(),
                          std::inserter(inter, inter.begin()));
    if (!inter.empty()) {
      DHPF_COUNTER("cp.group_merges");
      const std::size_t root = uf.unite(ra, rb);
      group_keys[root] = std::move(inter);
    } else {
      out.info.separated.emplace_back(id_of(e.src), id_of(e.dst));
    }
  }

  std::set<std::size_t> roots;
  for (std::size_t i = 0; i < stmts.size(); ++i) roots.insert(uf.find(i));
  out.info.num_groups = roots.size();
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    out.allowed[id_of(stmts[i])] = group_keys[uf.find(i)];
    out.group_of[id_of(stmts[i])] = id_of(stmts[uf.find(i)]);
  }

  // ---- selective distribution (SCCs + greedy minimal fusion) ----
  Digraph g(stmts.size());
  for (const auto& e : deps) {
    auto is_ = index.find(e.src);
    auto id_ = index.find(e.dst);
    if (is_ == index.end() || id_ == index.end() || is_->second == id_->second) continue;
    g.add_edge(is_->second, id_->second);
  }
  const SccResult scc = strongly_connected_components(g);
  DHPF_COUNTER_ADD("cp.scc_components", scc.count);
  std::set<std::pair<std::size_t, std::size_t>> sep_comps;
  for (const auto& [sa, sb] : out.info.separated) {
    std::size_t ia = 0, ib = 0;
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      if (id_of(stmts[i]) == sa) ia = i;
      if (id_of(stmts[i]) == sb) ib = i;
    }
    const std::size_t ca = scc.comp[ia], cb = scc.comp[ib];
    if (ca != cb) {
      sep_comps.insert({std::min(ca, cb), std::max(ca, cb)});
    }
  }

  // Greedy fusion over the condensation in topological order.
  const auto topo = condensation_topo_order(g, scc);
  std::map<std::size_t, std::size_t> part_of;  // comp -> partition
  std::vector<std::vector<std::size_t>> partitions;
  auto conflicts = [&](std::size_t comp, const std::vector<std::size_t>& members) {
    for (std::size_t m : members) {
      if (sep_comps.count({std::min(comp, m), std::max(comp, m)})) return true;
    }
    return false;
  };
  for (std::size_t comp : topo) {
    std::size_t kmin = 0;
    for (std::size_t v = 0; v < stmts.size(); ++v)
      for (std::size_t w : g.succ(v))
        if (scc.comp[w] == comp && scc.comp[v] != comp && part_of.count(scc.comp[v]))
          kmin = std::max(kmin, part_of[scc.comp[v]]);
    std::size_t k = kmin;
    while (k < partitions.size() && conflicts(comp, partitions[k])) ++k;
    if (k == partitions.size()) partitions.emplace_back();
    partitions[k].push_back(comp);
    part_of[comp] = k;
  }
  if (partitions.size() > 1) DHPF_COUNTER("cp.loops_distributed");
  out.info.num_partitions = std::max<std::size_t>(1, partitions.size());
  out.info.partitions.assign(out.info.num_partitions, {});
  for (std::size_t i = 0; i < stmts.size(); ++i)
    out.info.partitions[part_of[scc.comp[i]]].push_back(id_of(stmts[i]));
  for (auto& p : out.info.partitions) std::sort(p.begin(), p.end());
  return out;
}

}  // namespace

LoopDistInfo comm_sensitive_distribution(const Loop& loop,
                                         const std::vector<const Loop*>& outer_path) {
  return run_grouping(loop, outer_path, {}).info;
}

// ------------------------------------------------------------ selection

namespace {

struct ProcContext {
  const hpf::Program* prog;
  const SelectOptions* opt;
  iset::Params params;
  std::vector<iset::i64> rep_vals;
  CpResult* res;
  std::map<std::string, CP>* entry_cps;
};

/// All loops in a body, deepest-first.
void collect_loops(const std::vector<hpf::StmtPtr>& body,
                   std::vector<const Loop*> path,
                   std::vector<std::pair<const Loop*, std::vector<const Loop*>>>* out) {
  for (const auto& sp : body) {
    if (!sp->is_loop()) continue;
    auto inner_path = path;
    inner_path.push_back(&sp->loop());
    collect_loops(sp->loop().body, inner_path, out);
    out->push_back({&sp->loop(), path});
  }
}

CP vectorize_through_path(const CP& cp, const std::vector<const Loop*>& path) {
  if (cp.is_replicated()) return cp;
  CP out;
  for (OnHomeTerm t : cp.terms) {
    for (std::size_t idx = path.size(); idx-- > 0;) {
      const Loop* l = path[idx];
      for (auto& sr : t.subs)
        if (range_uses_var(sr, l->var)) sr = vectorize(sr, l->var, l->lo, l->hi);
    }
    out.add_term(std::move(t));
  }
  return out;
}

/// Translate a callee entry CP through the formal->actual binding at a call.
CP translate_entry_cp(const CP& entry, const hpf::Procedure& callee, const hpf::Call& call) {
  if (entry.is_replicated()) return entry;
  CP out;
  for (const auto& t : entry.terms) {
    // Formal arrays map to the positional actual reference; globals pass
    // through unchanged.
    std::size_t fi = callee.formals.size();
    for (std::size_t i = 0; i < callee.formals.size(); ++i)
      if (callee.formals[i] == t.array) fi = i;
    if (fi == callee.formals.size()) {
      out.add_term(t);
      continue;
    }
    require(fi < call.args.size(), "cp", "call argument count mismatch for " + call.callee);
    const Ref& actual = call.args[fi];
    require(actual.subs.size() == t.subs.size(), "cp",
            "formal/actual rank mismatch at call of " + call.callee);
    OnHomeTerm nt;
    nt.array = actual.array;
    for (std::size_t d = 0; d < t.subs.size(); ++d) {
      require(t.subs[d].lo.coef.empty() && t.subs[d].hi.coef.empty(), "cp",
              "callee entry CP must be fully vectorized before translation");
      nt.subs.push_back(SubRange{actual.subs[d].plus(t.subs[d].lo.cst),
                                 actual.subs[d].plus(t.subs[d].hi.cst)});
    }
    out.add_term(std::move(nt));
  }
  return out;
}

void select_for_procedure(const hpf::Procedure& proc, ProcContext& ctx) {
  CpResult& res = *ctx.res;
  const SelectOptions& opt = *ctx.opt;

  // Sub-phase spans: sequential sections of this pass, so one optional
  // re-emplaced at each boundary (ending the previous phase) keeps the
  // surrounding control flow untouched.
  std::optional<trace::Span> phase;

  // ---- gather statements and the NEW/LOCALIZE sets -----------------------
  std::vector<int> ids;
  std::set<const Array*> private_arrays, localize_arrays;
  phase.emplace(std::string_view("cp.gather"), trace::Kind::Phase);
  hpf::walk(proc.body, [&](Stmt& s, const std::vector<const Loop*>& path) {
    if (s.is_loop()) {
      for (const auto& n : s.loop().new_vars) {
        const Array* a = ctx.prog->find_array(n);
        require(a != nullptr, "cp", "NEW names unknown array " + n);
        private_arrays.insert(a);
      }
      for (const auto& n : s.loop().localize_vars) {
        const Array* a = ctx.prog->find_array(n);
        require(a != nullptr, "cp", "LOCALIZE names unknown array " + n);
        localize_arrays.insert(a);
      }
      return;
    }
    StmtCp sc;
    sc.stmt = &s;
    sc.path = path;
    const int id = s.id();
    res.stmts[id] = std::move(sc);
    ids.push_back(id);
  });
  phase.reset();

  std::set<const Array*> deferred = private_arrays;
  deferred.insert(localize_arrays.begin(), localize_arrays.end());

  // ---- §5: grouping per loop, deepest first ------------------------------
  std::vector<std::pair<const Loop*, std::vector<const Loop*>>> loops;
  collect_loops(proc.body, {}, &loops);
  std::map<int, std::set<std::string>> allowed;  // stmt -> allowed class keys
  std::map<int, int> group_of;
  if (opt.comm_sensitive) {
    DHPF_TRACE_SPAN("cp.grouping", trace::Kind::Phase);
    for (const auto& [loop, outer] : loops) {
      GroupingOutcome g = run_grouping(*loop, outer, deferred);
      if (g.info.num_stmts >= 2) res.loop_dist.push_back(g.info);
      for (const auto& [id, keys] : g.allowed) {
        auto it = allowed.find(id);
        if (it == allowed.end()) {
          allowed[id] = keys;
        } else {
          std::set<std::string> inter;
          std::set_intersection(it->second.begin(), it->second.end(), keys.begin(),
                                keys.end(), std::inserter(inter, inter.begin()));
          if (!inter.empty()) it->second = std::move(inter);
        }
      }
      for (const auto& [id, root] : g.group_of)
        if (!group_of.count(id)) group_of[id] = root;
    }
  }

  // ---- base selection for non-deferred assignments and calls -------------
  // Group statements by their §5 group root and pick, per group, the class
  // minimizing the summed communication-cost estimate.
  phase.emplace(std::string_view("cp.base_select"), trace::Kind::Phase);
  std::map<int, std::vector<CandidateCp>> cands;
  for (int id : ids) {
    StmtCp& sc = res.stmts[id];
    if (sc.stmt->is_call()) {
      const auto* callee = ctx.prog->find_procedure(sc.stmt->call().callee);
      require(callee != nullptr, "cp", "unknown callee");
      CP cp = CP::replicated();
      if (opt.interprocedural) {
        auto it = ctx.entry_cps->find(callee->name);
        require(it != ctx.entry_cps->end(), "cp", "callee processed out of order");
        cp = translate_entry_cp(it->second, *callee, sc.stmt->call());
      }
      cands[id] = {CandidateCp{cp, cp_class_key(cp)}};
      continue;
    }
    const Assign& a = sc.stmt->assign();
    if (deferred.count(a.lhs.array)) continue;  // §4 handled below
    auto cs = assign_candidates(a, deferred);
    // Restrict to the §5-allowed classes when that leaves something.
    auto it = allowed.find(id);
    if (it != allowed.end()) {
      std::vector<CandidateCp> kept;
      for (auto& c : cs)
        if (it->second.count(c.key)) kept.push_back(std::move(c));
      if (!kept.empty()) cs = std::move(kept);
    }
    cands[id] = std::move(cs);
  }

  // Build groups (stmts sharing a §5 root, or singleton).
  std::map<int, std::vector<int>> groups;
  for (const auto& [id, cs] : cands) {
    const int root = group_of.count(id) ? group_of[id] : id;
    groups[root].push_back(id);
  }
  for (auto& [root, members] : groups) {
    // Classes available to every member, in the first member's candidate
    // order (lhs first) so cost ties resolve to owner-computes.
    std::vector<std::string> classes;
    for (const auto& c : cands[members.front()]) classes.push_back(c.key);
    for (int id : members) {
      std::set<std::string> mine;
      for (const auto& c : cands[id]) mine.insert(c.key);
      std::vector<std::string> inter;
      for (const auto& k : classes)
        if (mine.count(k)) inter.push_back(k);
      if (!inter.empty()) classes = std::move(inter);
    }
    std::string best_class;
    double best_cost = 0.0;
    bool first = true;
    for (const auto& cls : classes) {
      double total = 0.0;
      for (int id : members) {
        const StmtCp& sc = res.stmts[id];
        for (const auto& c : cands[id])
          if (c.key == cls) {
            total += cost_of_choice(*ctx.prog, ctx.params, ctx.rep_vals, sc, c.cp, deferred);
            break;
          }
      }
      if (first || total < best_cost) {
        best_cost = total;
        best_class = cls;
        first = false;
      }
    }
    for (int id : members) {
      StmtCp& sc = res.stmts[id];
      bool assigned = false;
      for (const auto& c : cands[id])
        if (c.key == best_class) {
          sc.cp = c.cp;
          assigned = true;
          break;
        }
      if (!assigned) sc.cp = cands[id].front().cp;  // class not available here
      res.log.push_back(proc.name + ": S" + std::to_string(id) + " <- " +
                        sc.cp.to_string());
    }
  }

  // ---- §4.1 / §4.2: CPs for definitions of NEW / LOCALIZE'd arrays -------
  phase.emplace(std::string_view("cp.private_cps"), trace::Kind::Phase);
  struct UseSite {
    int stmt;
    const Ref* ref;
  };
  std::map<const Array*, std::vector<UseSite>> uses;
  std::map<const Array*, std::vector<int>> defs;
  for (int id : ids) {
    const StmtCp& sc = res.stmts[id];
    if (!sc.stmt->is_assign()) continue;
    const Assign& a = sc.stmt->assign();
    if (deferred.count(a.lhs.array)) defs[a.lhs.array].push_back(id);
    for (const auto& r : a.rhs)
      if (deferred.count(r.array)) uses[r.array].push_back(UseSite{id, &r});
  }

  std::set<int> unresolved;
  for (const auto& [arr, ds] : defs)
    for (int d : ds) unresolved.insert(d);

  bool progress = true;
  while (!unresolved.empty() && progress) {
    progress = false;
    for (const auto& [arr, ds] : defs) {
      const bool is_localize = localize_arrays.count(arr) > 0;
      for (int did : ds) {
        if (!unresolved.count(did)) continue;
        // All uses must have CPs already (private-to-private chains resolve
        // over multiple rounds, e.g. ru1 feeding cv in Figure 4.1).
        bool ready = true;
        for (const auto& u : uses[arr])
          if (unresolved.count(u.stmt)) ready = false;
        if (!ready) continue;

        StmtCp& dsc = res.stmts[did];
        const Assign& da = dsc.stmt->assign();
        CP cp;
        if (is_localize && !opt.localize) {
          cp = CP::on_home(da.lhs);  // plain owner-computes: comm reappears
        } else if (!is_localize && opt.priv_mode == PrivMode::Replicate) {
          cp = CP::replicated();
        } else if (!is_localize && opt.priv_mode == PrivMode::OwnerComputes) {
          cp = da.lhs.array->distributed() ? CP::on_home(da.lhs) : CP::replicated();
        } else {
          for (const auto& u : uses[arr]) {
            const StmtCp& usc = res.stmts[u.stmt];
            for (const auto& t : usc.cp.terms)
              cp.add_term(
                  translate_term_use_to_def(t, usc.path, *u.ref, dsc.path, da.lhs));
            if (usc.cp.is_replicated()) cp = CP::replicated();
          }
          if (is_localize) cp.add_term(OnHomeTerm::from_ref(da.lhs));
        }
        dsc.cp = cp;
        res.log.push_back(proc.name + ": S" + std::to_string(did) + " (" + arr->name +
                          " def) <- " + cp.to_string());
        unresolved.erase(did);
        progress = true;
      }
    }
  }
  // Cyclic private chains: fall back to replication (always correct for
  // non-distributed temporaries).
  for (int did : unresolved) {
    res.stmts[did].cp = CP::replicated();
    res.log.push_back(proc.name + ": S" + std::to_string(did) +
                      " <- REPLICATED (cyclic private chain)");
  }

  // ---- entry CP (for callers; §6) ----------------------------------------
  phase.emplace(std::string_view("cp.entry_cp"), trace::Kind::Phase);
  CP entry;
  bool any_replicated = false;
  for (int id : ids) {
    const StmtCp& sc = res.stmts[id];
    if (sc.cp.is_replicated()) {
      any_replicated = true;
      break;
    }
    entry = entry.unite(vectorize_through_path(sc.cp, sc.path));
  }
  (*ctx.entry_cps)[proc.name] = any_replicated ? CP::replicated() : entry;
}

}  // namespace

const CP& CpResult::cp_of(int id) const {
  auto it = stmts.find(id);
  require(it != stmts.end(), "cp", "no CP for statement " + std::to_string(id));
  return it->second.cp;
}

CpResult select_cps(const hpf::Program& prog, const SelectOptions& opt) {
  obs::ScopedTimer timer("cp.select");
  CpResult res;
  ProcContext ctx;
  ctx.prog = &prog;
  ctx.opt = &opt;
  ctx.params = analysis::make_params(prog);
  // Representative processor: the middle of the grid (has neighbors on both
  // sides in every dimension, so boundary communication is visible).
  int rep_rank = 0;
  if (!prog.grids().empty()) {
    const auto& g = *prog.grids().front();
    int rank = 0;
    for (std::size_t d = 0; d < g.extents.size(); ++d) rank = rank * g.extents[d] +
                                                             g.extents[d] / 2;
    rep_rank = rank;
  }
  ctx.rep_vals = analysis::param_values_for_rank(prog, rep_rank);
  ctx.res = &res;
  ctx.entry_cps = &res.entry_cp;

  for (const auto* proc : analysis::bottom_up_procedures(prog))
    select_for_procedure(*proc, ctx);
  return res;
}

}  // namespace dhpf::cp
