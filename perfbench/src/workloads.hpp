// The four workloads. Each sets itself up several times (set-up time is a
// median; see SetupReps), measures for Options::seconds, checks every
// output against a known answer, and fills a Result. See
// perfbench/README.md.
#pragma once

#include <cstddef>
#include <string>

#include "bench.hpp"
#include "iset/intern.hpp"
#include "support/json.hpp"

namespace perfbench {

/// Set-up repetitions per run (svc_mixed: its own count); setup_s is their
/// median.
constexpr int kSetupReps = 9;

Result run_checked_compile(const Options& opt, const dhpf::json::Value& known);
Result run_large_extent(const Options& opt, const dhpf::json::Value& known);
Result run_svc_mixed(const Options& opt, const dhpf::json::Value& known);
Result run_spmd_run(const Options& opt, const dhpf::json::Value& known);

/// Work summary of one checked compile; equal across runs of one program.
struct Digest {
  std::size_t events = 0;      ///< comm events planned
  std::size_t stmts = 0;       ///< statements given a CP
  std::size_t instances = 0;   ///< statement instances the model counts
  std::size_t checks_run = 0;  ///< verifier checks
  bool operator==(const Digest&) const = default;
  [[nodiscard]] std::string str() const;
};

/// The digest recorded under `key` in the known-answer document (throws
/// when absent); `corrupt` perturbs it, as the self-test demands.
Digest known_digest(const dhpf::json::Value& known, const std::string& section,
                    const std::string& key, bool corrupt);

/// Per-operation iset memo/intern metrics over a measurement window.
void add_iset_metrics(Result& r, const dhpf::iset::memo::CacheStats& before,
                      const dhpf::iset::memo::CacheStats& after, double ops);

/// trace.overhead_share from paired traced/untraced latencies, and the
/// per-layer self times (seconds per traced operation) from the spans.
void add_trace_metrics(Result& r, const Tracer& tracer, double traced_ops);

}  // namespace perfbench
