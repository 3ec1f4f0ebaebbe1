#include "verify/plan.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/sets.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"

namespace dhpf::verify {

using analysis::IterSpace;
using hpf::Array;
using iset::BasicSet;
using iset::Constraint;
using iset::i64;
using iset::Params;
using iset::Set;

std::string OverlapDecl::to_string() const {
  std::ostringstream out;
  out << "overlap " << array->name << "(";
  for (std::size_t d = 0; d < width.size(); ++d) out << (d ? "," : "") << width[d];
  out << ")";
  return out.str();
}

std::string Message::to_string() const {
  std::ostringstream out;
  out << "msg#" << id << " ev#" << event_id << " " << array->name << " " << from << "->" << to
      << " (" << elems << " elems)";
  return out.str();
}

const Message& Schedule::message(int id) const {
  for (const auto& m : messages)
    if (m.id == id) return m;
  fail("verify", "unknown message id " + std::to_string(id));
}

std::string Schedule::to_string() const {
  std::ostringstream out;
  for (const auto& m : messages) out << m.to_string() << "\n";
  return out.str();
}

int CompiledPlan::nprocs() const {
  if (!prog || prog->grids().empty()) return 1;
  return prog->grids().front()->nprocs();
}

Set extended_owned(const Array& a, const std::vector<int>& widths, const Params& params) {
  if (!a.distributed()) return analysis::index_set(a, params);
  BasicSet bs(a.extents.size(), params);
  for (std::size_t d = 0; d < a.extents.size(); ++d) {
    bs.add_bounds(d, bs.expr_const(0), bs.expr_const(a.extents[d] - 1));
    const auto& dim = a.dist.dims[d];
    if (dim.kind != hpf::DistKind::Block) continue;
    const std::string g = std::to_string(dim.proc_dim);
    const i64 off = a.dist.offset(d);
    const i64 w = d < widths.size() ? widths[d] : 0;
    // lb<g> - w <= x_d + off <= ub<g> + w
    bs.add(Constraint::ge0(bs.expr_var(d) + bs.expr_const(off + w) - bs.expr_param("lb" + g)));
    bs.add(Constraint::ge0(bs.expr_param("ub" + g) - bs.expr_var(d) + bs.expr_const(w - off)));
  }
  return Set(bs);
}

namespace {

/// Union over every statement of the elements it can touch (reads and the
/// write) through `array` on the representative processor's iterations.
Set access_footprint(const hpf::Program& prog, const cp::CpResult& cps, const Array& array,
                     const Params& params) {
  Set fp = Set::empty(array.extents.size(), params);
  for (const auto& [id, sc] : cps.stmts) {
    (void)id;
    if (!sc.stmt->is_assign()) continue;
    const hpf::Assign& a = sc.stmt->assign();
    const IterSpace is = analysis::iteration_space(sc.path, params);
    const Set iters = cp::iterations_on_home(is, sc.cp, params);
    auto add_ref = [&](const hpf::Ref& r) {
      if (r.array != &array) return;
      fp = fp.unite(iters.apply(analysis::subscript_map(is, r.subs, params)));
    };
    add_ref(a.lhs);
    for (const auto& r : a.rhs) add_ref(r);
  }
  (void)prog;
  return fp;
}

/// Minimal per-dim overlap widths whose slab contains the footprint. Each
/// BLOCK dim is independent: the slab constrains only that dimension, so the
/// intersection over dims (extended_owned) contains the footprint iff every
/// per-dim test passes.
std::vector<int> derive_widths(const Array& a, const Set& footprint, const Params& params) {
  std::vector<int> widths(a.extents.size(), 0);
  for (std::size_t d = 0; d < a.extents.size(); ++d) {
    const auto& dim = a.dist.dims[d];
    if (dim.kind != hpf::DistKind::Block) continue;
    const std::string g = std::to_string(dim.proc_dim);
    const i64 off = a.dist.offset(d);
    for (int w = 0; w <= a.extents[d]; ++w) {
      BasicSet slab(a.extents.size(), params);
      slab.add(Constraint::ge0(slab.expr_var(d) + slab.expr_const(off + w) -
                               slab.expr_param("lb" + g)));
      slab.add(Constraint::ge0(slab.expr_param("ub" + g) - slab.expr_var(d) +
                               slab.expr_const(w - off)));
      if (footprint.subtract(Set(slab)).is_empty()) {
        widths[d] = w;
        break;
      }
      widths[d] = w + 1;  // keep growing; loop bound caps at the extent
    }
  }
  return widths;
}

}  // namespace

Schedule derive_schedule(const hpf::Program& prog, const comm::CommPlan& plan) {
  Schedule sched;
  const int n = prog.grids().empty() ? 1 : prog.grids().front()->nprocs();
  sched.rank_ops.resize(static_cast<std::size_t>(n));
  if (prog.grids().empty()) return sched;

  const analysis::OwnerMap owners(prog);
  std::vector<std::vector<i64>> vals;
  for (int q = 0; q < n; ++q) vals.push_back(analysis::param_values_for_rank(prog, q));

  for (const auto& ev : plan.events) {
    if (ev.eliminated) continue;
    // Aggregate the event's element traffic into (from, to) pair counts.
    std::map<std::pair<int, int>, std::size_t> pairs;
    for (int q = 0; q < n; ++q)
      comm::for_each_peer_count(owners, ev, q, vals[static_cast<std::size_t>(q)],
                                [&](const std::vector<i64>&, int peer, std::size_t elems,
                                    const std::vector<iset::Interval>&) {
                                  if (ev.kind == comm::EventKind::Fetch)
                                    pairs[{peer, q}] += elems;
                                  else
                                    pairs[{q, peer}] += elems;
                                });
    // One message per (from, to) pair, summed over the event's prefixes, in
    // the (from, to) order of codegen's transfer tables. Ops per event follow
    // codegen::exec_event: every rank makes its sends (ascending `to`), then
    // its receives (ascending `from`); the run tags them 2000 + event_id.
    std::vector<int> event_msgs;
    for (const auto& [ft, elems] : pairs) {
      Message m;
      m.id = static_cast<int>(sched.messages.size());
      m.event_id = ev.id;
      m.array = ev.array;
      m.from = ft.first;
      m.to = ft.second;
      m.elems = elems;
      event_msgs.push_back(m.id);
      sched.messages.push_back(m);
    }
    for (int r = 0; r < n; ++r) {
      for (int id : event_msgs)
        if (sched.messages[static_cast<std::size_t>(id)].from == r)
          sched.rank_ops[static_cast<std::size_t>(r)].push_back(
              ScheduleOp{ScheduleOp::Kind::Send, id});
    }
    for (int r = 0; r < n; ++r) {
      // Intentionally a second pass: recvs come after *all* of the rank's
      // sends for this event, never interleaved.
      for (int id : event_msgs)
        if (sched.messages[static_cast<std::size_t>(id)].to == r)
          sched.rank_ops[static_cast<std::size_t>(r)].push_back(
              ScheduleOp{ScheduleOp::Kind::Recv, id});
    }
  }
  return sched;
}

CompiledPlan bind(const hpf::Program& prog, cp::CpResult cps, comm::CommPlan plan) {
  obs::ScopedTimer timer("verify.bind");
  CompiledPlan bound;
  bound.prog = &prog;
  bound.cps = std::move(cps);
  bound.plan = std::move(plan);

  const Params params = analysis::make_params(prog);
  for (const auto& a : prog.arrays()) {
    if (!a->distributed()) continue;
    OverlapDecl decl;
    decl.array = a.get();
    decl.width = derive_widths(*a, access_footprint(prog, bound.cps, *a, params), params);
    bound.overlaps.push_back(std::move(decl));
  }
  bound.schedule = derive_schedule(prog, bound.plan);
  return bound;
}

}  // namespace dhpf::verify
