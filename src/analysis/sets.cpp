#include "analysis/sets.hpp"

#include <algorithm>
#include <limits>

#include "support/diagnostics.hpp"

namespace dhpf::analysis {

using iset::AffineMap;
using iset::BasicSet;
using iset::Constraint;
using iset::i64;
using iset::LinExpr;
using iset::Params;
using iset::Set;

namespace {

const hpf::ProcGrid* single_grid(const hpf::Program& prog) {
  require(prog.grids().size() <= 1, "analysis",
          "programs with multiple processor grids are not supported");
  return prog.grids().empty() ? nullptr : prog.grids().front().get();
}

}  // namespace

Params make_params(const hpf::Program& prog) {
  const hpf::ProcGrid* g = single_grid(prog);
  std::vector<std::string> names;
  if (g) {
    for (std::size_t d = 0; d < g->extents.size(); ++d) {
      names.push_back("lb" + std::to_string(d));
      names.push_back("ub" + std::to_string(d));
    }
  }
  return Params(names);
}

std::vector<int> template_extents(const hpf::Program& prog) {
  const hpf::ProcGrid* g = single_grid(prog);
  if (!g) return {};
  std::vector<int> ext(g->extents.size(), -1);
  for (const auto& a : prog.arrays()) {
    if (!a->dist.grid) continue;
    for (std::size_t d = 0; d < a->dist.dims.size(); ++d) {
      const auto& dim = a->dist.dims[d];
      if (dim.kind != hpf::DistKind::Block) continue;
      const int e = a->extents[d] + a->dist.offset(d);
      auto& slot = ext[static_cast<std::size_t>(dim.proc_dim)];
      if (slot < 0)
        slot = e;
      else
        require(slot == e, "analysis",
                "arrays distributed on the same grid dimension must have equal "
                "template extents (array " + a->name + ")");
    }
  }
  for (auto& e : ext)
    if (e < 0) e = 1;  // grid dim unused by any array
  return ext;
}

std::vector<i64> param_values_for_rank(const hpf::Program& prog, int rank) {
  const hpf::ProcGrid* g = single_grid(prog);
  if (!g) return {};
  const std::vector<int> ext = template_extents(prog);
  const std::vector<int> coords = g->coords(rank);
  std::vector<i64> vals;
  for (std::size_t d = 0; d < g->extents.size(); ++d) {
    const int p = g->extents[d];
    const int e = ext[d];
    const int b = (e + p - 1) / p;  // HPF BLOCK: ceil division
    const i64 lb = static_cast<i64>(coords[d]) * b;
    const i64 ub = std::min<i64>(e - 1, lb + b - 1);
    vals.push_back(lb);
    vals.push_back(ub);
  }
  return vals;
}

ArrayOwner::ArrayOwner(const hpf::Array& a, const hpf::ProcGrid& grid,
                       const std::vector<int>& template_ext) {
  if (!a.distributed()) return;
  int stride = 1;
  for (std::size_t g = grid.extents.size(); g-- > 0;) {
    // The last array dim BLOCK onto grid dim g picks its coordinate.
    for (std::size_t d = a.dist.dims.size(); d-- > 0;) {
      const auto& dim = a.dist.dims[d];
      if (dim.kind != hpf::DistKind::Block || dim.proc_dim != static_cast<int>(g)) continue;
      const int e = template_ext[g];
      const int p = grid.extents[g];
      dims_.push_back(Dim{d, a.dist.offset(d), (e + p - 1) / p, p - 1, stride});
      break;
    }
    stride *= grid.extents[g];
  }
}

i64 ArrayOwner::coord(const Dim& g, i64 x) {
  return std::min(g.last, (x + g.offset) / g.block);
}

i64 ArrayOwner::block_end(const Dim& g, i64 x) {
  const i64 t = x + g.offset;
  const i64 q = t / g.block;  // truncates toward zero, as coord() does
  if (q >= g.last) return std::numeric_limits<i64>::max();
  i64 end = 0;  // last t with the same quotient
  if (t >= 0)
    end = (q + 1) * g.block - 1;
  else if (q == 0)
    end = g.block - 1;  // (-B, B) all truncate to 0
  else
    end = q * g.block;
  return end - g.offset;
}

int ArrayOwner::rank(const std::vector<i64>& elem) const {
  i64 r = 0;
  for (const Dim& g : dims_) r += coord(g, elem[g.dim]) * g.stride;
  return static_cast<int>(r);
}

void ArrayOwner::for_each_block(const std::vector<iset::Interval>& box, const BlockFn& cb) const {
  std::size_t flat = 1;  // volume of the dims that do not pick the owner
  for (std::size_t d = 0; d < box.size(); ++d)
    if (std::none_of(dims_.begin(), dims_.end(), [&](const Dim& g) { return g.dim == d; }))
      flat *= static_cast<std::size_t>(box[d].hi - box[d].lo + 1);
  std::vector<iset::Interval> piece = box;
  split(0, piece, 0, flat, cb);
}

void ArrayOwner::split(std::size_t k, std::vector<iset::Interval>& piece, i64 rank,
                       std::size_t elems, const BlockFn& cb) const {
  if (k == dims_.size()) {
    cb(static_cast<int>(rank), elems, piece);
    return;
  }
  const Dim& g = dims_[k];
  const iset::Interval iv = piece[g.dim];
  for (i64 x = iv.lo; x <= iv.hi;) {
    const i64 y = std::min(iv.hi, block_end(g, x));
    piece[g.dim] = {x, y};
    split(k + 1, piece, rank + coord(g, x) * g.stride, elems * static_cast<std::size_t>(y - x + 1),
          cb);
    x = y + 1;
  }
  piece[g.dim] = iv;
}

OwnerMap::OwnerMap(const hpf::Program& prog) {
  const hpf::ProcGrid* grid = single_grid(prog);
  const std::vector<int> ext = template_extents(prog);
  for (const auto& a : prog.arrays())
    arrays_.emplace(a.get(), grid ? ArrayOwner(*a, *grid, ext) : ArrayOwner());
}

const ArrayOwner& OwnerMap::of(const hpf::Array& a) const {
  const auto it = arrays_.find(&a);
  require(it != arrays_.end(), "analysis", "owner map: array " + a.name + " is not in the program");
  return it->second;
}

std::size_t IterSpace::var_index(const std::string& name) const {
  for (std::size_t i = 0; i < var_names.size(); ++i)
    if (var_names[i] == name) return i;
  fail("analysis", "unknown loop variable: " + name);
}

IterSpace iteration_space(const std::vector<const hpf::Loop*>& path, const Params& params) {
  IterSpace is{path, {}, BasicSet(path.size(), params)};
  for (const auto* l : path) {
    for (const auto& existing : is.var_names)
      require(existing != l->var, "analysis", "shadowed loop variable: " + l->var);
    is.var_names.push_back(l->var);
  }
  for (std::size_t d = 0; d < path.size(); ++d) {
    // Bounds may reference enclosing loop variables only.
    auto to_expr = [&](const hpf::Subscript& s) {
      LinExpr e = LinExpr::constant(path.size(), params.size(), s.cst);
      for (const auto& [name, a] : s.coef) {
        const std::size_t v = is.var_index(name);
        require(v < d, "analysis", "loop bound uses non-enclosing variable: " + name);
        e.var[v] += a;
      }
      return e;
    };
    is.bounds.add_bounds(d, to_expr(path[d]->lo), to_expr(path[d]->hi));
  }
  return is;
}

LinExpr subscript_expr(const IterSpace& is, const hpf::Subscript& sub, const Params& params) {
  LinExpr e = LinExpr::constant(is.depth(), params.size(), sub.cst);
  for (const auto& [name, a] : sub.coef) e.var[is.var_index(name)] += a;
  return e;
}

AffineMap subscript_map(const IterSpace& is, const std::vector<hpf::Subscript>& subs,
                        const Params& params) {
  AffineMap m(is.depth(), subs.size(), params);
  for (std::size_t d = 0; d < subs.size(); ++d) m.out(d) = subscript_expr(is, subs[d], params);
  return m;
}

Set index_set(const hpf::Array& a, const Params& params) {
  BasicSet bs(a.extents.size(), params);
  for (std::size_t d = 0; d < a.extents.size(); ++d)
    bs.add_bounds(d, bs.expr_const(0), bs.expr_const(a.extents[d] - 1));
  return Set(bs);
}

Set owned_set(const hpf::Array& a, const Params& params) {
  if (!a.distributed()) return index_set(a, params);  // replicated: all local
  BasicSet bs(a.extents.size(), params);
  for (std::size_t d = 0; d < a.extents.size(); ++d) {
    bs.add_bounds(d, bs.expr_const(0), bs.expr_const(a.extents[d] - 1));
    const auto& dim = a.dist.dims[d];
    if (dim.kind != hpf::DistKind::Block) continue;
    const std::string g = std::to_string(dim.proc_dim);
    const i64 off = a.dist.offset(d);
    // lb<g> <= x_d + off <= ub<g>
    bs.add(Constraint::ge0(bs.expr_var(d) + bs.expr_const(off) - bs.expr_param("lb" + g)));
    bs.add(Constraint::ge0(bs.expr_param("ub" + g) - bs.expr_var(d) - bs.expr_const(off)));
  }
  return Set(bs);
}

}  // namespace dhpf::analysis
