// Communication generation from computation partitionings (paper §2, §7).
//
// For every reference of every statement, the non-local data set of the
// representative processor is derived with the integer-set framework:
//
//   iters(S)      = iteration set of S restricted to myid's CP guard
//   data(r)       = image of iters(S) under r's subscript map
//   nonlocal(r)   = data(r) - owned(array)
//
// Reads with a non-empty non-local set become *fetch* events (receive the
// values from their owners); non-owner writes become *write-back* events
// (the dHPF communication model requires the owner to always hold the
// current value). Events are vectorized: they are placed at the outermost
// loop level at which the consumed values are already available (message
// coalescing merges references to the same array at the same placement).
//
// §7 data availability: a fetch whose non-local read set is a subset of the
// non-local data *produced by the same processor* in the last preceding
// write is eliminated — the values are already locally available.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/sets.hpp"
#include "cp/select.hpp"
#include "hpf/ir.hpp"
#include "iset/set.hpp"

namespace dhpf::comm {

enum class EventKind { Fetch, WriteBack };

struct CommEvent {
  EventKind kind = EventKind::Fetch;
  const hpf::Array* array = nullptr;
  int id = -1;               ///< plan-unique event id (assigned by generate_comm)
  int stmt_id = -1;          ///< consuming (fetch) / producing (write-back) stmt
  /// Every statement this event serves. Starts as {stmt_id}; message
  /// coalescing appends the absorbed events' consumers. The verifier keys
  /// read-coverage on this, so it survives cross-statement coalescing.
  std::vector<int> consumers;
  int placement_depth = 0;   ///< # enclosing loops the event stays inside
  /// Non-local elements, as a set over
  /// [outer loop vars (placement_depth)] + [array dims].
  iset::Set data = iset::Set(0, iset::Params{});
  bool eliminated = false;   ///< true when §7 removed this fetch
  std::string note;          ///< human-readable explanation
  /// Loop path of the consuming/producing statement (for anchoring and for
  /// cross-statement coalescing of events at the same placement point).
  std::vector<const hpf::Loop*> path;

  [[nodiscard]] std::string to_string() const;
};

struct CommOptions {
  bool coalesce = true;           ///< merge same-array fetches per statement
  bool data_availability = true;  ///< §7
};

struct CommPlan {
  std::vector<CommEvent> events;

  [[nodiscard]] std::size_t active_fetches() const;
  [[nodiscard]] std::size_t eliminated_fetches() const;
  [[nodiscard]] std::string to_string() const;
};

/// Derive the communication plan for a program under the given CPs.
CommPlan generate_comm(const hpf::Program& prog, const cp::CpResult& cps,
                       const CommOptions& opt = {});

/// One event's element traffic at one rank, walked in boxes rather than
/// listed: `ev.data` at `params` (the rank's parameter values) is walked in
/// boxes, folded below the outer-loop prefix, and each box is split at
/// BLOCK boundaries. cb gets (outer-loop prefix, peer rank, element count,
/// element box) for every piece whose owner is not `rank` (fetch: the peer
/// sends to `rank`; write-back: `rank` sends to the peer). One (prefix,
/// peer) may arrive in several disjoint pieces, which callers add up.
using PeerCountFn = std::function<void(const std::vector<iset::i64>& prefix, int peer,
                                       std::size_t elems,
                                       const std::vector<iset::Interval>& piece)>;
void for_each_peer_count(const analysis::OwnerMap& owners, const CommEvent& ev, int rank,
                         const std::vector<iset::i64>& params, const PeerCountFn& cb);

/// Total non-local elements a given rank must receive (fetch events) /
/// send back (write-back events), by concrete instantiation — used by the
/// benches to report communication volume without executing.
struct VolumeReport {
  std::size_t fetch_elems = 0;
  std::size_t writeback_elems = 0;
  std::size_t fetch_events_nonempty = 0;
};
VolumeReport count_volume(const hpf::Program& prog, const CommPlan& plan, int rank);

}  // namespace dhpf::comm
