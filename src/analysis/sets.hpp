// Bridge between the HPF-lite IR and the integer-set framework.
//
// Parameter convention (following the paper's §7 formulation): the analyses
// reason about a *representative processor* `myid`; for each dimension g of
// the processor grid, the symbolic parameters lb<g> and ub<g> are the
// inclusive template-index bounds of myid's BLOCK in that grid dimension
// (the paper's  Mj*Bj  and  Mj*Bj + Bj - 1, introduced as derived
// parameters so the sets stay affine).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "hpf/ir.hpp"
#include "iset/set.hpp"

namespace dhpf::analysis {

/// Parameters for a program's (single) processor grid: lb0, ub0, lb1, ...
/// Programs without a grid get empty Params.
iset::Params make_params(const hpf::Program& prog);

/// Concrete lb/ub values for a given linear rank (HPF BLOCK semantics:
/// block size = ceil(extent / procs); trailing blocks may be empty).
std::vector<iset::i64> param_values_for_rank(const hpf::Program& prog, int rank);

/// The template extent along each grid dimension (derived from the
/// distributed arrays; all arrays mapped to a grid dim must agree).
std::vector<int> template_extents(const hpf::Program& prog);

/// HPF BLOCK ownership of one array's elements, with its block sizes
/// precomputed: owner coordinate min(P-1, (x + offset) / B) per BLOCK dim,
/// B = ceil(template extent / P), ranks linearized row-major. This is the
/// one owner function behind codegen's stores and messages, the verifier's
/// schedule and witnesses, and the model.
class ArrayOwner {
 public:
  ArrayOwner() = default;  ///< a replicated array: everything on rank 0
  ArrayOwner(const hpf::Array& a, const hpf::ProcGrid& grid, const std::vector<int>& template_ext);

  [[nodiscard]] int rank(const std::vector<iset::i64>& elem) const;

  /// Splits a box of elements (one [lo, hi] per array dim) at block
  /// boundaries and gives each piece's owner rank, element count and box.
  using BlockFn =
      std::function<void(int rank, std::size_t elems, const std::vector<iset::Interval>& piece)>;
  void for_each_block(const std::vector<iset::Interval>& box, const BlockFn& cb) const;

 private:
  struct Dim {
    std::size_t dim = 0;    ///< array dimension
    iset::i64 offset = 0;   ///< template alignment offset
    iset::i64 block = 1;    ///< B
    iset::i64 last = 0;     ///< P - 1 (trailing coordinates clamp here)
    int stride = 1;         ///< rank weight of this grid dimension
  };
  [[nodiscard]] static iset::i64 coord(const Dim& g, iset::i64 x);
  /// Last index y >= x of g's array dim with coord(y) == coord(x).
  [[nodiscard]] static iset::i64 block_end(const Dim& g, iset::i64 x);
  /// for_each_block over dims_[k..], the piece so far at `rank`/`elems`/`piece`.
  void split(std::size_t k, std::vector<iset::Interval>& piece, iset::i64 rank, std::size_t elems,
             const BlockFn& cb) const;

  std::vector<Dim> dims_;  ///< one per grid dim an array dim is BLOCK onto
};

/// Every array's ArrayOwner (template extents computed once).
class OwnerMap {
 public:
  explicit OwnerMap(const hpf::Program& prog);

  /// The owner map of an array of this program.
  [[nodiscard]] const ArrayOwner& of(const hpf::Array& a) const;

 private:
  std::map<const hpf::Array*, ArrayOwner> arrays_;
};

/// An iteration space: the loop variables of a loop path plus their bounds.
struct IterSpace {
  std::vector<const hpf::Loop*> path;      // outermost .. innermost
  std::vector<std::string> var_names;      // loop variables, same order
  iset::BasicSet bounds;                   // over those variables

  [[nodiscard]] std::size_t depth() const { return var_names.size(); }
  /// Index of a loop variable by name; throws if absent.
  [[nodiscard]] std::size_t var_index(const std::string& name) const;
};

/// Build the iteration space of a loop path. Loop bounds may reference
/// enclosing loop variables. Variable names along a path must be distinct.
IterSpace iteration_space(const std::vector<const hpf::Loop*>& path,
                          const iset::Params& params);

/// Convert a subscript (affine in the space's loop vars) to a LinExpr over
/// the space's variables.
iset::LinExpr subscript_expr(const IterSpace& is, const hpf::Subscript& sub,
                             const iset::Params& params);

/// Affine map from the iteration space to an array's index space.
iset::AffineMap subscript_map(const IterSpace& is, const std::vector<hpf::Subscript>& subs,
                              const iset::Params& params);

/// Elements of `a` owned by the representative processor: in-bounds indices
/// whose template index (array index + alignment offset) falls in
/// [lb<g>, ub<g>] for every BLOCK dimension.
iset::Set owned_set(const hpf::Array& a, const iset::Params& params);

/// Full index set of an array (bounds only).
iset::Set index_set(const hpf::Array& a, const iset::Params& params);

}  // namespace dhpf::analysis
