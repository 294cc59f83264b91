// ShardRouter — one logical catalog partitioned across N in-process
// Service shards, behind the same envelope API as a single Service.
//
// The catalog is split into N contiguous strategy ranges (sizes differing
// by at most one); each range backs its own Service with its own worker
// pool, catalog index, and availability-snapshot cache. A batch or sweep is
// answered by scatter/gather:
//
//   scatter  every shard runs Service::ScanShardAsync at the router-resolved
//            (and quantized) availability W — per-request workforce-row
//            views, the shard's parameter block, and skyline-pruned ADPaR
//            skybands, all in shard-local order,
//   gather   the router k-way-merges the shard results back into global
//            order — rows by (requirement, global index), skybands by
//            (cost, global index) / (quality desc, global index) — runs the
//            selection half of the batch solve (core::SolveBatchAggregated)
//            or the merged-ordering ADPaR funnel
//            (core::AdparExactOverOrderings), and assembles the report.
//
// The merge rules are exactly the tie rules of the unsharded pipeline, and
// every floating-point fold visits values in the same order, so a router
// over {1, 2, 4} shards returns *byte-identical* reports to one unsharded
// Service for the same request trace (property-tested in
// tests/router_property_test.cc). Custom registry batch solvers (anything
// beyond batchstrat / baseline-g / brute-force) cannot be scattered — the
// router keeps one full catalog copy and runs them unsharded, still behind
// the same API.
//
// Admission control for the serving tier: TryAdmit() compares the summed
// executor queue-depth gauges (router + shards) against
// RouterConfig::max_queue_depth; the HTTP front end maps a refusal to
// 429 + Retry-After. The router never journals — point the shard template's
// journal at a path and it is deliberately stripped (N writers would
// clobber one file, and scans are a transport, not a workload record).
//
// Fault tolerance (PR 10): RouterConfig::replicas runs R identical copies
// of every shard's Service. Scatter picks a starting replica per request
// (seeded, deterministic), fails over to the next replica when an attempt
// errors, exceeds replica_timeout_ms, or is killed by the installed
// fault::FaultPlan ("router.shard.<s>.replica.<r>" sites), and optionally
// hedges a straggling first attempt after hedge_after_ms. Replicas hold
// identical state, so any replica's report is THE shard report and the
// byte-identity property is preserved under arbitrary failover (extended
// property test: replicas {1,2,3} x injected failures). Requests whose
// deadline_ms budget expires while queued complete with kDeadlineExceeded
// through the ticket cancel path instead of scattering.
#ifndef STRATREC_ROUTER_SHARD_ROUTER_H_
#define STRATREC_ROUTER_SHARD_ROUTER_H_

#include <memory>
#include <string>

#include "src/api/config.h"
#include "src/api/envelope.h"
#include "src/api/service.h"
#include "src/api/ticket.h"

namespace stratrec::router {

namespace internal {
struct RouterState;
}  // namespace internal

/// Configuration of one ShardRouter.
struct RouterConfig {
  /// Shard count; Create fails when it exceeds the catalog size (every
  /// shard needs at least one strategy).
  size_t shards = 2;
  /// Copies of each shard's Service. Replicas are built from the identical
  /// catalog slice and config, so any replica's scan report *is* the
  /// shard's report — failover and hedging cannot perturb byte-identity.
  /// Scatter picks a starting replica per request deterministically (seeded
  /// by `replica_seed` and a router-local sequence number) and fails over
  /// to the next replica on error, injected fault, or timeout. 1 (the
  /// default) reproduces the unreplicated router exactly.
  size_t replicas = 1;
  /// Seed of the deterministic replica picks; two routers with the same
  /// seed route the same request sequence to the same replicas.
  uint64_t replica_seed = 0;
  /// Per-attempt timeout in ms on one replica's scan before failing over to
  /// the next replica (the abandoned scan still completes on its shard pool;
  /// its result is dropped). 0 = wait forever, so a dead-slow replica can
  /// only be routed around via fault injection or hedging.
  double replica_timeout_ms = 0.0;
  /// Hedging: when > 0 (and replicas > 1), a first attempt still pending
  /// after this many ms gets a duplicate scan on the next replica, and the
  /// shard takes whichever finishes first (stats().hedges_won counts hedge
  /// wins). 0 disables hedging.
  double hedge_after_ms = 0.0;
  /// Template for the shard services *and* the router's own request
  /// handling: `batch` defaults, the default `availability` spec, and the
  /// cache quantum apply on the router (resolution happens exactly once,
  /// like the unsharded path); `execution` and `cache` size every shard.
  /// The journal block is stripped from shards — see the file comment.
  api::ServiceConfig service;
  /// Worker threads of the router's gather pool (the pool tickets run on
  /// and the ADPaR fan-out partitions across); 0 = hardware concurrency.
  size_t router_threads = 0;
  /// Admission ceiling: TryAdmit() refuses when the summed queue-depth
  /// gauges (router + shards) reach this. 0 = admit everything.
  size_t max_queue_depth = 0;
};

/// The sharded counterpart of api::Service. Value-semantic handle over
/// shared state; copies address the same router, every method is
/// thread-safe.
class ShardRouter {
 public:
  /// Validates the config, partitions the catalog, and spins up the shard
  /// services plus the router pool.
  static Result<ShardRouter> Create(core::Catalog catalog,
                                    RouterConfig config = {});

  /// Batch mode: scatter/gather over the shards, same envelope and ticket
  /// semantics as Service::SubmitBatchAsync, byte-identical reports.
  api::Ticket<api::BatchReport> SubmitBatchAsync(
      api::BatchRequest request) const;
  /// Sweep mode: every target x every named adpar backend at one W over the
  /// merged catalog view.
  api::Ticket<api::SweepReport> RunSweepAsync(api::SweepRequest request) const;

  /// Synchronous wrappers, mirroring Service.
  Result<api::BatchReport> SubmitBatch(api::BatchRequest request) const;
  Result<api::SweepReport> RunSweep(api::SweepRequest request) const;

  /// Named availability models resolve on the router (shards never resolve
  /// — they receive W verbatim), so registration is router-local.
  Status RegisterAvailabilityModel(std::string name,
                                   core::AvailabilityModel model) const;

  /// Admission probe for the serving tier: true admits one request; false
  /// means the summed queue gauges reached `max_queue_depth` (the refusal
  /// is counted in stats().rejected_requests).
  bool TryAdmit() const;
  /// Counts one Retry-After back-off hint handed to a rejected client
  /// (stats().retry_after_hints); the HTTP layer calls this when it
  /// attaches the header.
  void NoteRetryAfterHint() const;

  size_t shards() const;
  /// Replicas per shard (RouterConfig::replicas after validation).
  size_t replicas() const;
  const RouterConfig& config() const;
  /// The router's own counters and pool gauges plus every counter and gauge
  /// of every shard replica, summed. Shards only run scans, so no counter is
  /// counted twice.
  api::ServiceStats stats() const;

 private:
  explicit ShardRouter(std::shared_ptr<internal::RouterState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::RouterState> state_;
};

}  // namespace stratrec::router

namespace stratrec {
using router::RouterConfig;
using router::ShardRouter;
}  // namespace stratrec

#endif  // STRATREC_ROUTER_SHARD_ROUTER_H_
