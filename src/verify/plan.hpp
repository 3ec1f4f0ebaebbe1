// The verifier's view of a fully lowered SPMD program: the compiled plan
// (CP assignments + communication events) bound together with two derived
// declarations that the checks in verify.hpp validate against each other:
//
//   * OverlapDecl — the declared overlap (halo) widths per distributed
//     array dimension, the minimal widths whose extended ownership region
//     contains every access footprint (paper §4.2 overlap areas);
//   * Schedule   — the concrete per-rank send/recv schedule the plan
//     implies: one message per (event, sender, receiver) pair, and each
//     rank's program-ordered op list (sends before receives per event,
//     mirroring codegen's event execution).
//
// bind() derives both from a compile result. The fault-injection harness
// (mutate.hpp) edits copies of this structure; the checks must catch every
// such edit, which is why the declarations are explicit data rather than
// something recomputed on the fly inside the checks.
#pragma once

#include <vector>

#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "hpf/ir.hpp"
#include "iset/set.hpp"

namespace dhpf::verify {

/// Declared overlap-area widths of one distributed array (per array dim;
/// zero on non-BLOCK dims). Derived as the minimal widths containing every
/// access footprint, so a clean compile verifies by construction and any
/// later shrink is a seeded defect.
struct OverlapDecl {
  const hpf::Array* array = nullptr;
  std::vector<int> width;

  [[nodiscard]] std::string to_string() const;
};

/// One point-to-point message of the SPMD schedule (aggregated over the
/// outer-loop instances of its event).
struct Message {
  int id = -1;        ///< schedule-unique message id (witness currency)
  int event_id = -1;  ///< CommEvent::id this message implements
  const hpf::Array* array = nullptr;
  int from = -1;
  int to = -1;
  std::size_t elems = 0;

  [[nodiscard]] std::string to_string() const;
};

/// A send or receive in one rank's program-ordered op list.
struct ScheduleOp {
  enum class Kind { Send, Recv };
  Kind kind = Kind::Send;
  int msg = -1;  ///< Message::id
};

/// The per-rank communication schedule implied by the plan: events in plan
/// order; within an event every rank first serves its sends, then blocks on
/// its receives (codegen::exec_event's order, which is what makes the
/// schedule deadlock-free — the acyclicity check proves it).
struct Schedule {
  std::vector<Message> messages;
  std::vector<std::vector<ScheduleOp>> rank_ops;  ///< indexed by rank

  [[nodiscard]] const Message& message(int id) const;
  [[nodiscard]] std::string to_string() const;
};

/// A fully lowered program bound for verification. Owns copies of the CP
/// assignment and communication plan so fault injection can edit them
/// without touching the compiler's output.
struct CompiledPlan {
  const hpf::Program* prog = nullptr;
  cp::CpResult cps;
  comm::CommPlan plan;
  std::vector<OverlapDecl> overlaps;
  Schedule schedule;

  [[nodiscard]] int nprocs() const;
};

/// Bind a compile result for verification: derive the overlap declarations
/// and the concrete message schedule.
CompiledPlan bind(const hpf::Program& prog, cp::CpResult cps, comm::CommPlan plan);

/// Re-derive only the schedule (after a mutation edited the plan's events).
Schedule derive_schedule(const hpf::Program& prog, const comm::CommPlan& plan);

/// The representative processor's owned region of `a` widened by the given
/// per-dim overlap widths (the slab  lb<g> − w ≤ x + off ≤ ub<g> + w  on
/// every BLOCK dim, intersected with the array bounds). The halo check
/// tests access footprints against this.
iset::Set extended_owned(const hpf::Array& a, const std::vector<int>& widths,
                         const iset::Params& params);

}  // namespace dhpf::verify
