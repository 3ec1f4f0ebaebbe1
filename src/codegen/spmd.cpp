#include "codegen/spmd.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "analysis/sets.hpp"
#include "exec/parallel.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace dhpf::codegen {

using comm::CommEvent;
using comm::EventKind;
using hpf::Array;
using hpf::Assign;
using hpf::Call;
using hpf::Loop;
using hpf::Ref;
using hpf::Stmt;
using iset::i64;

namespace {

using Env = std::map<std::string, long>;

std::size_t flat_index(const Array& a, const std::vector<long>& idx) {
  require(idx.size() == a.extents.size(), "codegen", "rank mismatch in index");
  std::size_t flat = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    require(idx[d] >= 0 && idx[d] < a.extents[d], "codegen",
            "index out of bounds for " + a.name + " dim " + std::to_string(d));
    flat = flat * static_cast<std::size_t>(a.extents[d]) + static_cast<std::size_t>(idx[d]);
  }
  return flat;
}

std::size_t array_size(const Array& a) {
  std::size_t n = 1;
  for (int e : a.extents) n *= static_cast<std::size_t>(e);
  return n;
}

/// Active formal->actual binding for inlined call execution.
struct Binding {
  const Array* target = nullptr;
  std::vector<long> offset;
};
using Frame = std::map<const Array*, Binding>;

/// Resolve a reference through the current call frame.
void resolve(const Frame& frame, const Array*& arr, std::vector<long>& idx) {
  auto it = frame.find(arr);
  if (it == frame.end()) return;
  for (std::size_t d = 0; d < idx.size(); ++d) idx[d] += it->second.offset[d];
  arr = it->second.target;
}

std::vector<long> eval_subs(const std::vector<hpf::Subscript>& subs, const Env& env) {
  std::vector<long> idx;
  idx.reserve(subs.size());
  for (const auto& s : subs) idx.push_back(s.eval(env));
  return idx;
}

}  // namespace

double init_value(const Array& a, std::size_t flat) {
  // Deterministic, array-dependent, irregular enough that any misrouted
  // element is visible.
  std::size_t h = flat * 2654435761u;
  for (char c : a.name) h = h * 31 + static_cast<unsigned char>(c);
  return 1.0 + static_cast<double>(h % 9973) * 1e-4;
}

// ------------------------------------------------------ serial reference

namespace {

struct SerialInterp {
  const hpf::Program& prog;
  Store store;

  explicit SerialInterp(const hpf::Program& p) : prog(p) {
    for (const auto& a : prog.arrays()) {
      auto& v = store[a.get()];
      v.resize(array_size(*a));
      for (std::size_t i = 0; i < v.size(); ++i) v[i] = init_value(*a, i);
    }
  }

  double& at(const Ref& r, const Env& env, const Frame& frame) {
    const Array* a = r.array;
    std::vector<long> idx = eval_subs(r.subs, env);
    resolve(frame, a, idx);
    return store[a][flat_index(*a, idx)];
  }

  void exec_body(const std::vector<hpf::StmtPtr>& body, Env& env, const Frame& frame) {
    for (const auto& sp : body) {
      if (sp->is_assign()) {
        const Assign& a = sp->assign();
        double v = a.cst;
        for (const auto& r : a.rhs) v += at(r, env, frame);
        at(a.lhs, env, frame) = v;
      } else if (sp->is_loop()) {
        const Loop& l = sp->loop();
        const long lo = l.lo.eval(env), hi = l.hi.eval(env);
        for (long t = lo; t <= hi; ++t) {
          env[l.var] = t;
          exec_body(l.body, env, frame);
        }
        env.erase(l.var);
      } else {
        const Call& c = sp->call();
        const auto* callee = prog.find_procedure(c.callee);
        require(callee != nullptr, "codegen", "unknown callee " + c.callee);
        Frame inner;
        for (std::size_t i = 0; i < callee->formals.size(); ++i) {
          const Ref& actual = c.args[i];
          const Array* target = actual.array;
          std::vector<long> off = eval_subs(actual.subs, env);
          resolve(frame, target, off);  // compose through the caller's frame
          inner[callee->formals[i]] = Binding{target, std::move(off)};
        }
        Env fresh;
        exec_body(callee->body, fresh, inner);
      }
    }
  }
};

}  // namespace

Store interpret_serial(const hpf::Program& prog) {
  SerialInterp interp(prog);
  Env env;
  Frame frame;
  const hpf::Procedure* main_proc = prog.find_procedure("main");
  require(main_proc != nullptr, "codegen", "program must define procedure main");
  interp.exec_body(main_proc->body, env, frame);
  return std::move(interp.store);
}

// -------------------------------------------------------- SPMD execution

namespace {

/// Calls fn(flat) for every element of `box` (one [lo, hi] per dim of `a`
/// from `d` on), in row-major order.
template <class Fn>
void for_each_flat(const Array& a, const std::vector<iset::Interval>& box, Fn&& fn,
                   std::size_t d = 0, std::size_t row = 0) {
  if (box[d].lo < 0 || box[d].hi >= a.extents[d]) fail("codegen", "box out of bounds for " + a.name);
  for (i64 x = box[d].lo; x <= box[d].hi; ++x) {
    const std::size_t f = row * static_cast<std::size_t>(a.extents[d]) + static_cast<std::size_t>(x);
    if (d + 1 == box.size())
      fn(f);
    else
      for_each_flat(a, box, fn, d + 1, f);
  }
}

/// Calls fn(owner, flat) for every element of the distributed array `a`,
/// one owner block at a time.
template <class Fn>
void for_each_owned(const Array& a, const analysis::ArrayOwner& owner, Fn&& fn) {
  std::vector<iset::Interval> box;
  for (int e : a.extents) box.push_back({0, e - 1});
  owner.for_each_block(box, [&](int rank, std::size_t, const std::vector<iset::Interval>& piece) {
    for_each_flat(a, piece, [&](std::size_t f) { fn(rank, f); });
  });
}

/// Where the plan's events run in main: each live fetch before, and each
/// live write-back after, its anchor, the ancestor of its statement at
/// placement_depth (the statement itself when that is deeper). Events of
/// callee statements are not placed: callee-side communication is out of
/// scope (see the module comment).
struct Placement {
  std::map<const Stmt*, std::vector<const CommEvent*>> before, after;
  std::vector<const CommEvent*> eliminated;  ///< by §7, on statements of main
};

Placement place_events(const hpf::Procedure& main_proc, const comm::CommPlan& plan) {
  std::map<int, std::vector<const Stmt*>> chains;  // statement id -> ancestors in main
  std::vector<const Stmt*> stack;
  const std::function<void(const std::vector<hpf::StmtPtr>&)> rec =
      [&](const std::vector<hpf::StmtPtr>& body) {
        for (const auto& sp : body) {
          stack.push_back(sp.get());
          if (sp->is_loop())
            rec(sp->loop().body);
          else
            chains[sp->id()] = stack;
          stack.pop_back();
        }
      };
  rec(main_proc.body);
  Placement out;
  for (const auto& ev : plan.events) {
    const auto it = chains.find(ev.stmt_id);
    if (it == chains.end()) continue;
    const auto depth = static_cast<std::size_t>(ev.placement_depth);
    require(depth <= it->second.size(), "codegen", "placement depth beyond nest");
    const Stmt* anchor = it->second[std::min(depth, it->second.size() - 1)];
    if (ev.eliminated)
      out.eliminated.push_back(&ev);
    else
      (ev.kind == EventKind::Fetch ? out.before : out.after)[anchor].push_back(&ev);
  }
  return out;
}

/// One event's traffic at one outer-iteration prefix, the same for both
/// directions: (from, to) -> flat offsets of the event's array that `from`
/// sends `to` (on shm: that `to` reads from `from`'s store). Fetch: owner to
/// the rank that needs the elements; write-back: producer to owner.
using Transfers = std::map<std::pair<int, int>, std::vector<std::size_t>>;

/// A placed event's transfers per outer-iteration prefix. The table is
/// read-only once built and the same for every rank.
using EventTable = std::map<std::vector<i64>, Transfers>;

struct SpmdContext {
  const hpf::Program* prog = nullptr;
  const cp::CpResult* cps = nullptr;
  std::vector<std::vector<i64>> rank_params;
  Placement placement;
  std::map<const CommEvent*, EventTable> tables;  ///< per placed event
  SpmdOptions opt;

  // per-run state and outputs, one slot per rank
  std::vector<Env> envs;
  std::vector<Store> stores;
  std::vector<std::size_t> instances;
};

/// True iff `rank` executes this statement instance under `cp`.
bool guard_holds(const SpmdContext& ctx, const cp::CP& cp, const Env& env, int rank) {
  if (cp.is_replicated()) return true;
  const auto& vals = ctx.rank_params[static_cast<std::size_t>(rank)];
  for (const auto& t : cp.terms) {
    bool ok = true;
    for (std::size_t d = 0; d < t.subs.size(); ++d) {
      const auto& dim = t.array->dist.dims[d];
      if (dim.kind != hpf::DistKind::Block) continue;
      const long off = t.array->dist.offset(d);
      const long lo = t.subs[d].lo.eval(env) + off;
      const long hi = t.subs[d].hi.eval(env) + off;
      const i64 lb = vals[static_cast<std::size_t>(2 * dim.proc_dim)];
      const i64 ub = vals[static_cast<std::size_t>(2 * dim.proc_dim + 1)];
      if (hi < lb || lo > ub) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

/// Build one event's transfer table from every rank's box walk. Pieces of
/// one (prefix, from, to) are merged into one transfer.
void build_table(const SpmdContext& ctx, const CommEvent& ev, const analysis::OwnerMap& owners,
                 EventTable& table) {
  for (std::size_t q = 0; q < ctx.rank_params.size(); ++q) {
    const int me = static_cast<int>(q);
    comm::for_each_peer_count(
        owners, ev, me, ctx.rank_params[q],
        [&](const std::vector<i64>& prefix, int peer, std::size_t,
            const std::vector<iset::Interval>& piece) {
          auto& offsets =
              table[prefix][ev.kind == EventKind::Fetch ? std::pair{peer, me} : std::pair{me, peer}];
          for_each_flat(*ev.array, piece, [&](std::size_t f) { offsets.push_back(f); });
        });
  }
}

/// Execute one event instance on rank `me`: the transfers of the current
/// outer-iteration prefix. Sends go out in ascending `to`; receives and shm
/// pulls come in ascending `from`, the last-writer order write-back needs.
exec::Task exec_event(exec::Channel& p, SpmdContext& ctx, const CommEvent& ev, const Env& env) {
  const EventTable& table = ctx.tables.at(&ev);
  const auto& path = ctx.cps->stmts.at(ev.stmt_id).path;  // ev's outer loops lead it
  std::vector<i64> prefix;
  for (int d = 0; d < ev.placement_depth; ++d)
    prefix.push_back(env.at(path[static_cast<std::size_t>(d)]->var));
  const auto it = table.find(prefix);
  if (it == table.end()) co_return;
  const int me = p.rank();
  auto& mine = ctx.stores[static_cast<std::size_t>(me)].at(ev.array);

  if (ctx.opt.backend == exec::Backend::Shm) {
    // Shared-memory lowering: no message copies. Every rank reaches every
    // event instance (the placement is rank-neutral) and reads the same
    // table, so all take the early return above together, and the model's
    // barrier_episodes (prefixes with traffic) stay exact. A barrier pair
    // brackets the exchange: the leading barrier orders the senders' writes
    // before the loads, the trailing one keeps later writes from racing
    // ahead of a peer still reading. In between, each rank pulls its
    // transfers straight out of the peer stores; ownership keeps the touched
    // locations disjoint across ranks. Peer stores are read with .at(): the
    // maps were fully populated before the threads started, and operator[]
    // insertion would be a data race.
    shm::barrier(p);
    std::size_t shared_bytes = 0;
    for (const auto& [ft, offsets] : it->second) {
      if (ft.second != me) continue;
      const auto& src = ctx.stores[static_cast<std::size_t>(ft.first)].at(ev.array);
      for (const std::size_t f : offsets) mine[f] = src[f];
      shared_bytes += offsets.size() * sizeof(double);
    }
    shm::note_shared_read(p, shared_bytes);
    shm::barrier(p);
    co_return;
  }

  // Tagged by plan event id, so a trace's tags join the plan, the
  // verifier's messages and the model's per-event costs.
  const int tag = 2000 + ev.id;
  for (const auto& [ft, offsets] : it->second) {
    if (ft.first != me) continue;
    std::vector<double> buf;
    buf.reserve(offsets.size());
    for (const std::size_t f : offsets) buf.push_back(mine[f]);
    p.send(ft.second, tag, std::move(buf));
  }
  for (const auto& [ft, offsets] : it->second) {
    if (ft.second != me) continue;
    const auto buf = co_await p.recv(ft.first, tag);
    require(buf.size() == offsets.size(), "codegen", "transfer size mismatch");
    for (std::size_t i = 0; i < buf.size(); ++i) mine[offsets[i]] = buf[i];
  }
}

/// Run `body` on rank p.rank(). In main (`frame` null) every statement runs
/// under its CP's guard, with the placed events around it. Callee bodies
/// (whose statements are never anchors) run unguarded under the call
/// statement's CP, their references resolved through the call frame; their
/// data accesses must be local by construction (the §6 alignment) — a
/// violation surfaces as NaN in verification.
exec::Task exec_body(exec::Channel& p, SpmdContext& ctx, const std::vector<hpf::StmtPtr>& body,
                    Env& env, const Frame* frame) {
  const int me = p.rank();
  const bool in_main = frame == nullptr;
  auto& store = ctx.stores[static_cast<std::size_t>(me)];
  const auto at = [&](const Ref& r) -> double& {
    const Array* a = r.array;
    std::vector<long> idx = eval_subs(r.subs, env);
    if (!in_main) resolve(*frame, a, idx);
    return store[a][flat_index(*a, idx)];
  };
  for (const auto& sp : body) {
    const auto bit = ctx.placement.before.find(sp.get());
    if (bit != ctx.placement.before.end())
      for (const auto* ev : bit->second) co_await exec_event(p, ctx, *ev, env);

    if (sp->is_loop()) {
      const Loop& l = sp->loop();
      const long lo = l.lo.eval(env), hi = l.hi.eval(env);
      for (long t = lo; t <= hi; ++t) {
        env[l.var] = t;
        co_await exec_body(p, ctx, l.body, env, frame);
      }
      env.erase(l.var);
    } else if (!in_main || guard_holds(ctx, ctx.cps->cp_of(sp->id()), env, me)) {
      if (sp->is_assign()) {
        const Assign& a = sp->assign();
        double v = a.cst;
        for (const auto& r : a.rhs) v += at(r);
        at(a.lhs) = v;
        ++ctx.instances[static_cast<std::size_t>(me)];
        p.compute(ctx.opt.flops_per_instance);
      } else {
        const Call& c = sp->call();
        const auto* callee = ctx.prog->find_procedure(c.callee);
        Frame inner;
        for (std::size_t i = 0; i < callee->formals.size(); ++i) {
          const Array* target = c.args[i].array;
          std::vector<long> off = eval_subs(c.args[i].subs, env);
          if (!in_main) resolve(*frame, target, off);  // compose through the caller's frame
          inner[callee->formals[i]] = Binding{target, std::move(off)};
        }
        Env fresh;
        co_await exec_body(p, ctx, callee->body, fresh, &inner);
      }
    }

    const auto ait = ctx.placement.after.find(sp.get());
    if (ait != ctx.placement.after.end())
      for (const auto* ev : ait->second) co_await exec_event(p, ctx, *ev, env);
  }
}

}  // namespace

std::size_t SpmdResult::total_instances() const {
  std::size_t n = 0;
  for (auto v : instances_per_rank) n += v;
  return n;
}

SpmdResult run_spmd(const hpf::Program& prog, const cp::CpResult& cps,
                    const comm::CommPlan& plan, const exec::Machine& machine,
                    const SpmdOptions& opt) {
  const hpf::Procedure* main_proc = prog.find_procedure("main");
  require(main_proc != nullptr, "codegen", "program must define procedure main");

  SpmdContext ctx;
  ctx.prog = &prog;
  ctx.cps = &cps;
  ctx.opt = opt;
  const analysis::OwnerMap owners(prog);
  const int nprocs = prog.grids().empty() ? 1 : prog.grids().front()->nprocs();
  for (int r = 0; r < nprocs; ++r)
    ctx.rank_params.push_back(analysis::param_values_for_rank(prog, r));

  // Place the plan's events, then build their tables: each is independent
  // of every other, so the builds fan out across the pass driver.
  ctx.placement = place_events(*main_proc, plan);
  std::vector<const CommEvent*> placed;
  for (const auto* side : {&ctx.placement.before, &ctx.placement.after})
    for (const auto& [stmt, evs] : *side) placed.insert(placed.end(), evs.begin(), evs.end());
  if (!placed.empty()) DHPF_COUNTER_ADD("codegen.comm_events_placed", placed.size());
  for (const auto* ev : placed) ctx.tables[ev];  // the builds only fill entries
  exec::parallel_for(placed.size(), [&](std::size_t i) {
    build_table(ctx, *placed[i], owners, ctx.tables.at(placed[i]));
  });

  // Storage: owned (or replicated-array) elements get the initial value;
  // everything else is NaN-poisoned.
  ctx.envs.resize(static_cast<std::size_t>(nprocs));
  ctx.stores.resize(static_cast<std::size_t>(nprocs));
  ctx.instances.assign(static_cast<std::size_t>(nprocs), 0);
  for (const auto& a : prog.arrays()) {
    std::vector<double> init(array_size(*a));
    for (std::size_t f = 0; f < init.size(); ++f) init[f] = init_value(*a, f);
    std::vector<std::vector<double>*> copies;
    for (auto& st : ctx.stores) {
      auto& v = st[a.get()];
      v = a->distributed() ? std::vector<double>(init.size(), std::numeric_limits<double>::quiet_NaN())
                           : init;
      copies.push_back(&v);
    }
    if (a->distributed())
      for_each_owned(*a, owners.of(*a), [&](int r, std::size_t f) {
        (*copies[static_cast<std::size_t>(r)])[f] = init[f];
      });
  }

  const auto body = [&](exec::Channel& p) -> exec::Task {
    return exec_body(p, ctx, main_proc->body, ctx.envs[static_cast<std::size_t>(p.rank())],
                     nullptr);
  };

  // Real threads are safe here because every rank touches only its own
  // slot of ctx.envs / ctx.stores / ctx.instances, the tables are read-only, and
  // the cross-rank store reads of exec_event's shm path are bracketed by
  // barriers and disjoint by ownership.
  SpmdResult result;
  sim::run_backend(opt, nprocs, machine, body, result);
  result.instances_per_rank = ctx.instances;

  // The owner copies of the distributed arrays, for the result and the check.
  Store gathered;
  if (opt.collect_result || opt.verify) {
    for (const auto& a : prog.arrays()) {
      if (!a->distributed()) continue;
      auto& out = gathered[a.get()];
      out.resize(array_size(*a));
      for_each_owned(*a, owners.of(*a), [&](int r, std::size_t f) {
        out[f] = ctx.stores[static_cast<std::size_t>(r)].at(a.get())[f];
      });
    }
  }

  if (opt.verify) {
    const Store serial = interpret_serial(prog);
    double worst = 0.0;
    for (const auto& [a, got] : gathered) {
      const auto& ref = serial.at(a);
      for (std::size_t f = 0; f < ref.size(); ++f) {
        const double d = std::fabs(got[f] - ref[f]);
        if (!(d <= worst)) worst = std::isnan(d) ? 1e30 : std::max(worst, d);
      }
    }
    result.max_err = worst;
    require(worst < 1e-9, "codegen",
            "SPMD verification failed: max |err| = " + std::to_string(worst) +
                " (NaN indicates missing communication)");
  }
  if (opt.collect_result) result.gathered = std::move(gathered);
  return result;
}

// --------------------------------------------------------------- emitter

namespace {

void emit_body(std::ostringstream& out, const cp::CpResult& cps, const Placement& placement,
               const std::vector<hpf::StmtPtr>& body, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const auto& sp : body) {
    const auto bit = placement.before.find(sp.get());
    if (bit != placement.before.end())
      for (const auto* ev : bit->second)
        out << pad << "! RECV " << ev->to_string() << "\n";
    if (sp->is_loop()) {
      const Loop& l = sp->loop();
      out << pad << "do " << l.var << " = " << l.lo.to_string() << ", " << l.hi.to_string()
          << "\n";
      emit_body(out, cps, placement, l.body, indent + 1);
      out << pad << "enddo\n";
    } else {
      DHPF_COUNTER("codegen.guards_emitted");
      out << pad << "if (myid in [" << cps.cp_of(sp->id()).to_string() << "]) S" << sp->id() << ": "
          << (sp->is_assign() ? hpf::assign_to_string(sp->assign())
                              : "call " + sp->call().callee + "(...)")
          << "\n";
    }
    const auto ait = placement.after.find(sp.get());
    if (ait != placement.after.end())
      for (const auto* ev : ait->second)
        out << pad << "! SEND " << ev->to_string() << "\n";
  }
}

}  // namespace

std::string emit_spmd(const hpf::Program& prog, const cp::CpResult& cps,
                      const comm::CommPlan& plan) {
  obs::ScopedTimer timer("codegen.emit");
  const hpf::Procedure* main_proc = prog.find_procedure("main");
  require(main_proc != nullptr, "codegen", "program must define procedure main");

  const Placement placement = place_events(*main_proc, plan);
  std::ostringstream out;
  out << "! SPMD node program (representative processor myid)\n";
  if (!placement.eliminated.empty())
    out << "! communication eliminated by data availability analysis (sec 7):\n";
  for (const auto* ev : placement.eliminated) out << "!   " << ev->to_string() << "\n";
  emit_body(out, cps, placement, main_proc->body, 0);
  return out.str();
}

}  // namespace dhpf::codegen
