// dhpf::verify — set-based static verification and linting of compiled
// SPMD plans.
//
// The compiler derives communication as set differences (paper §2, §7);
// this pass proves, in the same integer-set algebra but from the plan's
// *declared* artifacts, that the lowered program is safe to execute:
//
//   1. Read coverage     — per phase, reads − owned − received − locally
//                          produced == ∅ for the representative processor;
//                          a non-empty difference yields a concrete element
//                          tuple witness.
//   2. Replicated-write consistency — every statement instance executes on
//                          at least one rank, and non-owner writes either
//                          come from the §4.1/§4.2 partial-replication
//                          shape (owner-computes term included, replicas
//                          provably identical) or are written back to the
//                          owner; otherwise a cross-rank write-write race /
//                          lost update is flagged.
//   3. Halo sufficiency  — the declared overlap widths contain the access
//                          footprint of every localized loop.
//   4. Schedule safety   — every schedule message has exactly one matching
//                          send and receive, and the wait-for graph of the
//                          per-rank op lists is acyclic (support/scc), so
//                          an mp-backend deadlock is a compile-time error.
//   5. Dead communication lint — fetched payload no consumer's non-local
//                          read needs is reported as a warning with byte
//                          counts (also accumulated into dhpf::obs).
//
// Exactness: every difference question ("need minus what covers it") is
// answered per rank for the configured grid, over boxes of one folded
// co-walk of the sets (iset::walk_boxes), so each finding carries the
// lexicographically least concrete element left over — there is no
// symbolic residue to report as a warning.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"
#include "verify/plan.hpp"

namespace dhpf::verify {

enum class Check {
  ReadCoverage,
  ReplicaConsistency,
  HaloSufficiency,
  ScheduleSafety,
  DeadComm,
};

enum class Severity { Error, Warning };

const char* to_string(Check c);
const char* to_string(Severity s);

/// Concrete counterexample attached to a diagnostic. Which fields are
/// meaningful depends on the check: element tuple + rank for coverage /
/// replica / halo violations, message id (and cycle) for schedule
/// violations, event id + bytes for dead communication.
struct Witness {
  const hpf::Array* array = nullptr;
  std::vector<iset::i64> element;  ///< array element tuple
  int rank = -1;                   ///< rank the violation manifests on
  int stmt_id = -1;
  int event_id = -1;               ///< comm::CommEvent::id
  int message_id = -1;             ///< Schedule Message::id
  std::vector<int> cycle;          ///< message ids of a wait-for cycle
  std::size_t bytes = 0;           ///< dead payload size

  [[nodiscard]] std::string to_string() const;
};

struct Diagnostic {
  Check check = Check::ReadCoverage;
  Severity severity = Severity::Error;
  std::string message;
  Witness witness;

  [[nodiscard]] std::string to_string() const;
};

/// Structured diagnostic as a throwable error: dhpf::Error extended with
/// severity and witness, for callers that want violations to propagate as
/// exceptions (check_or_throw).
class VerifyError : public dhpf::Error {
 public:
  explicit VerifyError(const Diagnostic& d)
      : dhpf::Error("verify", d.to_string()), diagnostic_(d) {}

  [[nodiscard]] const Diagnostic& diagnostic() const { return diagnostic_; }
  [[nodiscard]] Severity severity() const { return diagnostic_.severity; }
  [[nodiscard]] const Witness& witness() const { return diagnostic_.witness; }

 private:
  Diagnostic diagnostic_;
};

struct Report {
  std::vector<Diagnostic> diagnostics;
  std::size_t checks_run = 0;  ///< individual (statement/event/...) checks

  [[nodiscard]] bool clean() const { return errors() == 0; }
  [[nodiscard]] std::size_t errors() const;
  [[nodiscard]] std::size_t warnings() const;
  [[nodiscard]] std::vector<const Diagnostic*> by_check(Check c) const;

  [[nodiscard]] std::string to_string() const;
  /// Machine-readable form (embedded in dhpfc's --report-json document).
  [[nodiscard]] std::string to_json() const;
};

struct VerifyOptions {
  bool lint_dead_comm = true;
};

/// Run all five check classes over a bound plan.
Report check(const CompiledPlan& plan, const VerifyOptions& opt = {});

/// One (set, parameter values) pair that covers points of a difference.
using Cover = iset::WalkOperand;

/// What is left of a difference at one rank.
struct Residue {
  std::size_t count = 0;
  std::optional<std::vector<iset::i64>> least;  ///< lexicographically least point
};

/// The difference primitive under every check: the points of `need` at
/// parameter values `v` that no cover contains. One folded co-walk of need
/// and the covers (iset::walk_boxes) gives, per box, need's runs and the
/// covers' runs; what the covers leave counts once per prefix in the box,
/// and the first box with a residue holds the least point at its corner.
Residue residue(const iset::Set& need, const std::vector<iset::i64>& v,
                const std::vector<Cover>& covers);

/// check() with the difference primitive swapped; the differential tests
/// run a point-enumeration oracle through the same checks.
using ResidueFn = Residue (*)(const iset::Set&, const std::vector<iset::i64>&,
                              const std::vector<Cover>&);
Report check_with(const CompiledPlan& plan, ResidueFn diff, const VerifyOptions& opt = {});

/// As check(), but throws VerifyError on the first error-severity
/// diagnostic (warnings never throw).
Report check_or_throw(const CompiledPlan& plan, const VerifyOptions& opt = {});

}  // namespace dhpf::verify
