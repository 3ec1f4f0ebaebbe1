// HPF-lite intermediate representation.
//
// Captures the program class the paper's techniques operate on: Fortran-like
// loop nests over multi-dimensional arrays with affine subscripts, plus the
// HPF directives that matter here — PROCESSORS, DISTRIBUTE (BLOCK),
// TEMPLATE/ALIGN (as a shared distribution identity with per-dim offsets,
// used by the §6 interprocedural CP translation), INDEPENDENT, NEW
// (privatizable variables), and LOCALIZE (the dHPF extension of §4.2).
//
// Statements carry "sum" semantics (lhs = Σ rhs + stmt constant): enough to
// verify that generated SPMD code moves every value it must move — a wrong
// or missing communication shows up as a wrong (or NaN) value when the
// generated code's results are compared against serial interpretation.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "support/diagnostics.hpp"

namespace dhpf::hpf {

/// Source position of a construct in the HPF-lite text (1-based). The
/// parser fills these; IR built programmatically (builders, tests) leaves
/// them at the invalid default, and diagnostics degrade gracefully.
struct SrcLoc {
  int line = 0;
  int col = 0;

  [[nodiscard]] bool valid() const { return line > 0; }
  [[nodiscard]] std::string to_string() const {
    return valid() ? std::to_string(line) + ":" + std::to_string(col) : "?:?";
  }
  [[nodiscard]] bool operator==(const SrcLoc&) const = default;
};

// --------------------------------------------------------------- symbols

/// A PROCESSORS grid; ranks are linearized row-major.
struct ProcGrid {
  std::string name;
  std::vector<int> extents;

  [[nodiscard]] int nprocs() const {
    int n = 1;
    for (int e : extents) n *= e;
    return n;
  }
  /// Coordinates of a linear rank.
  [[nodiscard]] std::vector<int> coords(int rank) const;
};

enum class DistKind { Replicated, Block };

/// Distribution of one array: per array dimension, BLOCK onto a processor
/// grid dimension or replicated (*). `template_name`/`template_offset` give
/// the array an identity in a shared HPF template: two arrays aligned to the
/// same template with offsets o1, o2 have element a1[i + o1] co-located with
/// a2[i + o2] (per dim).
struct DistSpec {
  const ProcGrid* grid = nullptr;  // null: fully replicated / sequential
  struct Dim {
    DistKind kind = DistKind::Replicated;
    int proc_dim = -1;  // valid when kind == Block
  };
  std::vector<Dim> dims;           // size = array rank (when grid != null)
  std::string template_name;       // empty: no template identity
  std::vector<int> template_offset;  // per dim; empty = all zeros

  [[nodiscard]] bool distributed() const;
  [[nodiscard]] int offset(std::size_t dim) const {
    return dim < template_offset.size() ? template_offset[dim] : 0;
  }
};

struct Array {
  std::string name;
  std::vector<int> extents;  // index range per dim: 0 .. extent-1
  DistSpec dist;
  /// Declared `local`: scratch storage with no live-in/live-out values.
  /// Every read must be preceded by a write (dhpf::lint checks this), and
  /// its final values are not program outputs.
  bool local_scratch = false;
  SrcLoc loc;  ///< declaration site

  [[nodiscard]] int rank() const { return static_cast<int>(extents.size()); }
  [[nodiscard]] bool distributed() const { return dist.distributed(); }
};

// ------------------------------------------------------------------ code

/// Affine subscript: sum of (loop-var * coef) + constant.
struct Subscript {
  std::map<std::string, int> coef;
  long cst = 0;

  static Subscript constant(long c) { return Subscript{{}, c}; }
  static Subscript var(const std::string& v, int a = 1, long c = 0) {
    return Subscript{{{v, a}}, c};
  }
  [[nodiscard]] Subscript plus(long c) const {
    Subscript s = *this;
    s.cst += c;
    return s;
  }
  [[nodiscard]] bool operator==(const Subscript&) const = default;
  [[nodiscard]] long eval(const std::map<std::string, long>& env) const;
  [[nodiscard]] std::string to_string() const;
};

struct Ref {
  const Array* array = nullptr;
  std::vector<Subscript> subs;
  SrcLoc loc;  ///< position of the array name in the source text

  [[nodiscard]] std::string to_string() const;
};

struct Assign;
/// "lhs = r1 + r2 + c" rendering shared by the program printer and the
/// SPMD emitter.
std::string assign_to_string(const Assign& a);

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// lhs = sum(rhs refs) + constant. `id` is unique within the procedure.
struct Assign {
  Ref lhs;
  std::vector<Ref> rhs;
  double cst = 0.0;  // distinguishes statements in verification
  int id = -1;
  SrcLoc loc;
};

/// Call of a leaf procedure with array-reference arguments (the paper's
/// Figure 6.1 pattern: pointwise/linewise kernels invoked inside the
/// parallel loops). The callee's formals are matched positionally.
struct Call {
  std::string callee;
  std::vector<Ref> args;
  int id = -1;
  SrcLoc loc;
};

struct Loop {
  std::string var;
  Subscript lo, hi;  // inclusive bounds, affine in enclosing loop variables
  bool independent = false;
  std::vector<std::string> new_vars;       // HPF NEW: privatizable in this loop
  std::vector<std::string> localize_vars;  // dHPF LOCALIZE (paper §4.2)
  std::vector<StmtPtr> body;
  SrcLoc loc;
};

struct Stmt {
  std::variant<Assign, Loop, Call> node;

  [[nodiscard]] bool is_assign() const { return std::holds_alternative<Assign>(node); }
  [[nodiscard]] bool is_loop() const { return std::holds_alternative<Loop>(node); }
  [[nodiscard]] bool is_call() const { return std::holds_alternative<Call>(node); }
  [[nodiscard]] Assign& assign() { return std::get<Assign>(node); }
  [[nodiscard]] const Assign& assign() const { return std::get<Assign>(node); }
  [[nodiscard]] Loop& loop() { return std::get<Loop>(node); }
  [[nodiscard]] const Loop& loop() const { return std::get<Loop>(node); }
  [[nodiscard]] Call& call() { return std::get<Call>(node); }
  [[nodiscard]] const Call& call() const { return std::get<Call>(node); }
  /// Id of an assignment or call (loops have none).
  [[nodiscard]] int id() const { return is_assign() ? assign().id : call().id; }
};

/// Source location of whatever kind of statement this is.
SrcLoc stmt_loc(const Stmt& s);

struct Procedure {
  std::string name;
  /// Formal array parameters (owned by the Program's array pool, with their
  /// own declared distributions, possibly via templates).
  std::vector<Array*> formals;
  std::vector<StmtPtr> body;
};

class Program {
 public:
  ProcGrid* add_grid(std::string name, std::vector<int> extents);
  Array* add_array(std::string name, std::vector<int> extents, DistSpec dist = {});
  Procedure* add_procedure(std::string name);

  [[nodiscard]] Array* find_array(const std::string& name);
  [[nodiscard]] const Array* find_array(const std::string& name) const;
  [[nodiscard]] Procedure* find_procedure(const std::string& name);
  [[nodiscard]] const Procedure* find_procedure(const std::string& name) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Array>>& arrays() const { return arrays_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Procedure>>& procedures() const {
    return procs_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ProcGrid>>& grids() const { return grids_; }

  /// Main entry procedure (the first added, by convention).
  [[nodiscard]] Procedure* main() { return procs_.empty() ? nullptr : procs_.front().get(); }

  /// Assign unique ids to all Assign/Call statements (pre-order). Call after
  /// construction and after any transformation that adds statements.
  void number_statements();

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::unique_ptr<ProcGrid>> grids_;
  std::vector<std::unique_ptr<Array>> arrays_;
  std::vector<std::unique_ptr<Procedure>> procs_;
};

// ------------------------------------------------------------- builders

/// Fluent construction helpers for tests/examples.
StmtPtr make_assign(Ref lhs, std::vector<Ref> rhs, double cst = 0.0);
StmtPtr make_call(std::string callee, std::vector<Ref> args);
StmtPtr make_loop(std::string var, Subscript lo, Subscript hi, std::vector<StmtPtr> body);

/// Walk all statements in a body (pre-order), with current loop-nest path.
/// (Accepts lambdas taking `Stmt&` or `const Stmt&`.)
void walk(const std::vector<StmtPtr>& body,
          const std::function<void(Stmt&, const std::vector<const Loop*>&)>& fn);

}  // namespace dhpf::hpf
