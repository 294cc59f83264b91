// Uniform request / report envelopes of the Service API.
//
// Every entry point takes one value-type request and returns one value-type
// report stamped with a stable request id. By default ids are
// service-assigned ("batch-000007", "sweep-000012", "stream-000003") from
// one counter per service, so a report is attributable across modes; a
// request may instead carry its own `request_id`, which the service adopts
// verbatim — the hook out-of-process front ends (and the replay harness,
// which must reproduce recorded ids) use to control attribution. Failures
// travel through the Status / Result taxonomy of src/common/status.h —
// kInvalidArgument for malformed envelopes, kNotFound for unknown registry
// or model names, kInfeasible for well-formed problems without a solution.
//
// Envelopes are serialization-ready value types: every struct here is
// deep-comparable (operator==) and round-trips through the stratrec::wire
// codec (src/api/codec.h) to line-delimited JSON with stable field names —
// the journal format of src/common/journal.h and the wire format a future
// gRPC/HTTP front end shares.
#ifndef STRATREC_API_ENVELOPE_H_
#define STRATREC_API_ENVELOPE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/api/availability.h"
#include "src/core/online.h"
#include "src/core/stratrec.h"

namespace stratrec::api {

// ---------------------------------------------------------------------------
// Batch mode (wraps core::StratRec).
// ---------------------------------------------------------------------------

/// One batch of deployment requests. Optional fields override the service's
/// BatchDefaults for this call only.
struct BatchRequest {
  std::vector<core::DeploymentRequest> requests;
  AvailabilitySpec availability;  ///< kDefault -> service config
  std::optional<std::string> algorithm;
  std::optional<core::Objective> objective;
  std::optional<core::AggregationMode> aggregation;
  std::optional<core::WorkforcePolicy> policy;
  std::optional<bool> recommend_alternatives;
  std::optional<std::string> adpar_solver;
  /// Time budget in milliseconds, relative to submission (relative so a
  /// replayed journal grants the recorded request a fresh budget). 0 (the
  /// default) means no deadline. Work still queued when the budget runs out
  /// completes with kDeadlineExceeded instead of executing; the serving tier
  /// maps that to HTTP 504 and fills it from the X-Stratrec-Deadline-Ms
  /// header.
  double deadline_ms = 0.0;
  /// Caller-assigned report id; empty (the default) means service-assigned.
  /// Uniqueness is the caller's responsibility. Declared last so aggregate
  /// initialization of the workload fields stays source-compatible.
  std::string request_id;

  bool operator==(const BatchRequest&) const = default;
};

/// Outcome of one SubmitBatch call.
struct BatchReport {
  std::string request_id;  ///< stable; caller- or service-assigned
  std::string algorithm;   ///< resolved backend name
  double availability = 0.0;  ///< resolved expected W
  /// Figure-1 pipeline output: aggregator stage, batch outcome, alternatives.
  core::StratRecReport result;

  bool operator==(const BatchReport&) const = default;
};

// ---------------------------------------------------------------------------
// Sweep mode (wraps the ADPaR solver family, including the paper's literal
// sweep from src/core/adpar_paper_sweep.h).
// ---------------------------------------------------------------------------

/// Solve every target with every named adpar backend at one availability —
/// the alternative-recommendation counterpart of SubmitBatch, and the
/// machinery behind the Figure 17 quality comparison.
struct SweepRequest {
  /// Each target supplies thresholds + k; ids label the report rows
  /// (empty ids are replaced by "target-<index>").
  std::vector<core::DeploymentRequest> targets;
  /// Registry names; empty -> the service's default adpar solver.
  std::vector<std::string> solvers;
  AvailabilitySpec availability;  ///< kDefault -> service config
  /// Time budget in ms relative to submission; 0 = none. See
  /// BatchRequest::deadline_ms.
  double deadline_ms = 0.0;
  /// Caller-assigned report id; empty (the default) means service-assigned.
  /// Declared last: see BatchRequest::request_id.
  std::string request_id;

  bool operator==(const SweepRequest&) const = default;
};

/// One (target, solver) cell of a sweep.
struct SweepOutcome {
  std::string target_id;
  std::string solver;
  /// kInfeasible when k exceeds the catalog; the envelope records it per
  /// cell rather than failing the whole sweep.
  Status status;
  core::AdparResult result;  ///< valid iff status.ok()

  bool operator==(const SweepOutcome&) const = default;
};

/// Outcome of one RunSweep call: |targets| x |solvers| cells.
struct SweepReport {
  std::string request_id;
  double availability = 0.0;
  /// Catalog parameters estimated at `availability` — the space the solvers
  /// searched, index-aligned with the service catalog.
  std::vector<core::ParamVector> strategy_params;
  std::vector<SweepOutcome> outcomes;

  bool operator==(const SweepReport&) const = default;
};

// ---------------------------------------------------------------------------
// Shard scan (the scatter half of the router's scatter/gather).
// ---------------------------------------------------------------------------

/// Everything the shard router needs from one shard to reassemble the
/// unsharded answer: per-request workforce-row views, the shard's estimated
/// parameter block at W, and the per-k ADPaR candidate orderings
/// (skyline-pruned skybands in shard-local sorted order). The router merges
/// these across shards with the global tie rules — (requirement, global
/// index) for rows, (cost, global index) / (quality desc, global index) for
/// skybands — which reproduces the single-shard orderings exactly.
///
/// Unlike the public envelopes these never travel the wire codec: the
/// router and its shards share one process.
struct ShardScanRequest {
  /// Rows of the workforce matrix to scan; `requests[i].k` bounds row i's
  /// top list. Empty for a sweep-only scan.
  std::vector<core::DeploymentRequest> requests;
  /// Resolved + quantized expected availability W. The shard uses it
  /// verbatim for its snapshot — resolution and quantization already
  /// happened on the router, exactly once, like the unsharded path.
  double availability = 0.0;
  core::WorkforcePolicy policy = core::WorkforcePolicy::kMinimalWorkforce;
  /// Distinct cardinalities needing ADPaR candidate orderings.
  std::vector<int> skyband_ks;
  /// Return the shard's full parameter block. The router asks for it on
  /// every alternatives or sweep scan and merges the shard blocks afresh
  /// each time; batch-only row scans turn it off.
  bool want_params = true;
  /// Caller-assigned report id; empty (the default) means service-assigned.
  std::string request_id;

  bool operator==(const ShardScanRequest&) const = default;
};

/// One workforce-matrix row, shard-locally folded (see
/// core::WorkforceMatrix::TopStrategies): the shard's feasible count plus
/// its min(k, feasible) cheapest strategies ascending by (requirement,
/// local index).
struct ShardRequestScan {
  size_t feasible_count = 0;
  std::vector<size_t> strategies;    ///< shard-local strategy indices
  std::vector<double> requirements;  ///< index-aligned with `strategies`

  bool operator==(const ShardRequestScan&) const = default;
};

/// The shard's ADPaR candidate orderings for one cardinality k: the
/// skyline-pruned (or full, when pruning is a no-op) by-cost and
/// by-quality-descending index lists, in shard-local sorted order.
struct ShardSkyband {
  int k = 0;
  std::vector<size_t> by_cost;          ///< ascending (cost, local index)
  std::vector<size_t> by_quality_desc;  ///< descending quality, ties by index

  bool operator==(const ShardSkyband&) const = default;
};

/// Outcome of one ScanShardAsync call.
struct ShardScanReport {
  std::string request_id;
  double availability = 0.0;
  /// The shard's estimated ParamVector block at W (bit-identical to the
  /// corresponding slice of the unsharded block); empty unless requested.
  std::vector<core::ParamVector> params;
  std::vector<ShardRequestScan> rows;  ///< index-aligned with the requests
  std::vector<ShardSkyband> skybands;  ///< one per requested cardinality

  bool operator==(const ShardScanReport&) const = default;
};

// ---------------------------------------------------------------------------
// Stream mode (wraps stream::StreamScheduler behind a session handle).
// ---------------------------------------------------------------------------

/// Per-session overrides of the service's StreamDefaults plus the session's
/// starting availability.
struct StreamOptions {
  AvailabilitySpec availability;  ///< kDefault -> service config
  std::optional<size_t> max_pending;
  std::optional<bool> readmit_on_release;
  std::optional<core::Objective> objective;
  std::optional<core::AggregationMode> aggregation;
  std::optional<core::WorkforcePolicy> policy;
  /// Serve an ADPaR alternative (paper Section 4) for ineligible arrivals —
  /// the stream twin of BatchRequest::recommend_alternatives. Unset falls
  /// back to StreamDefaults (off).
  std::optional<bool> recommend_alternatives;
  /// Time budget in ms for opening the session, relative to the open call;
  /// 0 = none. See BatchRequest::deadline_ms. (Individual stream events are
  /// synchronous and carry no budget of their own.)
  double deadline_ms = 0.0;
  /// Caller-assigned session id; empty (the default) means service-assigned
  /// ("stream-000003"). The hook the replay harness uses to reproduce
  /// recorded session ids, mirroring BatchRequest::request_id. Declared
  /// last so aggregate initialization stays source-compatible.
  std::string session_id;

  bool operator==(const StreamOptions&) const = default;
};

/// One event of a stream session — the Section 7 open problem's vocabulary:
/// arrivals, revocations, completions, and availability (window) changes.
struct StreamEvent {
  enum class Kind {
    kArrival,
    kRevocation,
    kCompletion,
    kAvailabilityChange,
  };
  Kind kind = Kind::kArrival;
  core::DeploymentRequest request;  ///< kArrival
  std::string request_id;           ///< kRevocation / kCompletion
  AvailabilitySpec availability;    ///< kAvailabilityChange

  static StreamEvent Arrival(core::DeploymentRequest request);
  static StreamEvent Revocation(std::string request_id);
  static StreamEvent Completion(std::string request_id);
  static StreamEvent AvailabilityChange(AvailabilitySpec availability);

  bool operator==(const StreamEvent&) const = default;
};

/// "arrival", "revocation", "completion", "availability-change".
const char* StreamEventKindName(StreamEvent::Kind kind);

/// "admitted", "queued", "rejected" — display helper for admission outcomes.
const char* AdmissionKindName(core::AdmissionDecision::Kind kind);

/// What one stream event did, plus a post-event capacity snapshot. Round-
/// trips the wire codec (the "stream-event" journal record pairs it with
/// its StreamEvent), so replay can assert byte-identical updates.
struct StreamUpdate {
  std::string session_id;
  StreamEvent::Kind kind = StreamEvent::Kind::kArrival;
  std::string request_id;            ///< the affected request ("" for window changes)
  core::AdmissionDecision decision;  ///< meaningful for kArrival only
  /// ADPaR alternative for an ineligible arrival; only set when the session
  /// runs with recommend_alternatives and the solve succeeded.
  bool has_alternative = false;
  core::AdparResult alternative;  ///< valid iff has_alternative
  double availability = 0.0;
  double used_workforce = 0.0;
  size_t active = 0;
  size_t pending = 0;

  bool operator==(const StreamUpdate&) const = default;
};

// ---------------------------------------------------------------------------
// Service-level accounting.
// ---------------------------------------------------------------------------

/// The size_t members of ServiceStats, in wire order, as X(name, rule).
/// This list is the one place a counter is spelled out apart from the code
/// that moves it: the struct members below, the striped atomics of the
/// Service and the shard router, the router's sum over its shards, and the
/// wire codec's field list are all generated from it. Adding a counter is
/// one line here plus its increment site. `rule` is the codec presence
/// rule: kRequired, or kDefaulted for the fault-tolerance counters of
/// journal format v7 (always written; a v6 record without them reads 0).
///
///   batches .. snapshot_rebuilds   per-mode work. stream_reschedules counts
///       pending stream requests re-admitted by density-order drains after
///       a revocation, completion, or availability raise freed capacity;
///       snapshot_delta_updates / snapshot_rebuilds count stream events
///       absorbed in O(1) vs availability changes that moved the quantized
///       W and re-estimated the per-W block.
///   requests_processed    deployment requests across batches and stream
///       arrivals.
///   cancelled             async tickets withdrawn via Cancel() before a
///       worker claimed them.
///   queue_depth, active_workers   instantaneous executor gauges sampled at
///       stats() time: tasks waiting across the pool's queues, and workers
///       running a task (Executor::QueueDepth / ActiveWorkers), surfaced so
///       load shedding has service-level data.
///   steals, local_hits    work-stealing counters (Executor::StealCount /
///       LocalHitCount): a high steal share means the pool is rebalancing,
///       a high local share that fan-out stayed on the spawning worker.
///   cache_hits, cache_misses   availability-snapshot cache lookups that
///       found per-W state vs built it; a low hit share on a repeated-W
///       workload means the cache is undersized (see ServiceConfig::cache).
///   index_build_nanos     wall-clock time spent building the catalog's SoA
///       index at Service::Create (core::CatalogIndex; a one-time cost).
///   rejected_requests, retry_after_hints   admission control: requests
///       turned away because the queue gauge exceeded the configured
///       ceiling, and how many of those carried a back-off hint (HTTP 429 +
///       Retry-After). The router and HTTP tier maintain them; a bare
///       Service reports 0.
///   deadline_exceeded     work abandoned because its deadline_ms budget ran
///       out (Service and ShardRouter both).
///   failovers             router scans re-dispatched to another replica
///       after a replica failed or timed out.
///   hedges_won            hedged duplicate scans that beat the primary.
#define STRATREC_SERVICE_STATS_COUNTERS(X) \
  X(batches, kRequired)                    \
  X(sweeps, kRequired)                     \
  X(streams_opened, kRequired)             \
  X(stream_events, kRequired)              \
  X(stream_reschedules, kRequired)         \
  X(snapshot_delta_updates, kRequired)     \
  X(snapshot_rebuilds, kRequired)          \
  X(requests_processed, kRequired)         \
  X(cancelled, kRequired)                  \
  X(queue_depth, kRequired)                \
  X(active_workers, kRequired)             \
  X(steals, kRequired)                     \
  X(local_hits, kRequired)                 \
  X(cache_hits, kRequired)                 \
  X(cache_misses, kRequired)               \
  X(index_build_nanos, kRequired)          \
  X(rejected_requests, kRequired)          \
  X(retry_after_hints, kRequired)          \
  X(deadline_exceeded, kDefaulted)         \
  X(failovers, kDefaulted)                 \
  X(hedges_won, kDefaulted)

/// Lifetime counters of one Service (snapshot; see Service::stats()).
///
/// Counters are maintained on a striped atomic path (no shared lock), so
/// concurrent requests never contend on stats accounting; stats() folds the
/// stripes into this snapshot.
struct ServiceStats {
#define STRATREC_STATS_MEMBER(name, rule) size_t name = 0;
  STRATREC_SERVICE_STATS_COUNTERS(STRATREC_STATS_MEMBER)
#undef STRATREC_STATS_MEMBER
  /// Active SIMD dispatch level of the SoA kernels ("avx2" or "scalar";
  /// core::kernels::DispatchLevelName), sampled at stats() time. Surfaced on
  /// /v1/stats so a fleet can verify which code path each box runs — a
  /// binary on pre-AVX2 hardware or started with STRATREC_FORCE_SCALAR=1
  /// reports "scalar".
  std::string kernel_dispatch;

  bool operator==(const ServiceStats&) const = default;
};

}  // namespace stratrec::api

#endif  // STRATREC_API_ENVELOPE_H_
