#include "src/router/shard_router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/api/registry.h"
#include "src/api/service_internal.h"
#include "src/common/executor.h"
#include "src/common/fault.h"
#include "src/core/adpar.h"
#include "src/core/kernels/kernels.h"

namespace stratrec::router {

namespace internal {

/// Shared state behind every ShardRouter handle. The gather pool is
/// declared last on purpose: its destructor drains still-queued tickets
/// while the shard services (which those tickets scatter onto) are alive.
struct RouterState {
  RouterConfig config;
  /// Full profile list, for registry batch solvers the router cannot
  /// scatter (anything beyond the three built-in algorithms).
  std::vector<core::StrategyProfile> full_profiles;
  /// offsets[s] = global index of shard s's first strategy; offsets[N] =
  /// catalog size. Shard-local index j on shard s is global offsets[s] + j.
  std::vector<size_t> offsets;
  /// shards[s][r] = replica r of shard s. Replicas of one shard are built
  /// from the identical catalog slice and config; any replica's scan report
  /// is the shard's report.
  std::vector<std::vector<api::Service>> shards;

  api::internal::IdSequence ids;
  api::internal::AvailabilityModels models;
  /// The router's own counters; stats() adds every shard's on top.
  api::internal::StripedStats stats;
  /// Scatter sequence number feeding the deterministic replica picks.
  std::atomic<uint64_t> scatter_seq{0};

  Executor executor;

  RouterState(RouterConfig config_in,
              std::vector<core::StrategyProfile> full_profiles_in,
              std::vector<size_t> offsets_in,
              std::vector<std::vector<api::Service>> shards_in)
      : config(std::move(config_in)),
        full_profiles(std::move(full_profiles_in)),
        offsets(std::move(offsets_in)),
        shards(std::move(shards_in)),
        executor(config.router_threads) {}

  /// Resolution happens once, on the router, exactly as a Service would.
  Result<double> Resolve(const api::AvailabilitySpec& spec) const {
    return models.Resolve(spec, config.service.availability);
  }
};

namespace {

using api::internal::QuantizeAvailability;

/// The three algorithms whose solve can run over merged row aggregates.
/// Registry names beyond these (e.g. "weighted", user registrations) take
/// the unsharded fallback over the router's full profile copy.
std::optional<core::BatchAlgorithm> BuiltinAlgorithm(const std::string& name) {
  if (name == "batchstrat") return core::BatchAlgorithm::kBatchStrat;
  if (name == "baseline-g") return core::BatchAlgorithm::kBaselineG;
  if (name == "brute-force") return core::BatchAlgorithm::kBruteForce;
  return std::nullopt;
}

/// SplitMix64 whitening for the deterministic replica picks (local copy —
/// the fault layer and sim keep their own so the schedules cannot couple).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The starting replica of shard `s` for scatter number `sequence`: a pure
/// function of (replica_seed, sequence, shard), so two routers with the
/// same seed spread the same request sequence identically.
size_t PickReplica(const RouterState* state, uint64_t sequence, size_t s) {
  const size_t n = state->config.replicas;
  if (n <= 1) return 0;
  return static_cast<size_t>(
      SplitMix64(state->config.replica_seed ^ SplitMix64(sequence) ^
                 (0x517cc1b727220a95ull * (s + 1))) %
      n);
}

/// Whether the installed fault plan kills this dispatch. The per-replica
/// site ("router.shard.<s>.replica.<r>") wins over the generic
/// "router.replica" site when both are registered.
bool ReplicaKilled(size_t s, size_t r) {
  auto plan = fault::GlobalFaultPlan();
  if (plan == nullptr) return false;
  const std::string site = fault::ReplicaSiteName(s, r);
  if (plan->HasSite(site)) return plan->Visit(site).inject;
  if (plan->HasSite(fault::kSiteRouterReplica)) {
    return plan->Visit(fault::kSiteRouterReplica).inject;
  }
  return false;
}

/// Deterministic outcome of an injected replica failure. The "[injected]"
/// tag is the classifier the chaos bench uses to separate scheduled faults
/// from real ones (a non-injected 5xx fails the bench).
Status InjectedFailure(size_t s, size_t r) {
  return Status::Internal("[injected] shard " + std::to_string(s) +
                          " replica " + std::to_string(r) + " failed");
}

using ScanTicket = api::Ticket<api::ShardScanReport>;

/// Resolves one shard's report from `primary` (nullopt when the dispatch
/// was killed), failing over through the remaining replicas on error,
/// injected fault, or replica_timeout_ms, and hedging the first live
/// attempt after hedge_after_ms. Runs on a router pool worker; abandoned
/// attempts still complete on their shard pools and are dropped.
Result<api::ShardScanReport> GatherShard(RouterState* state, size_t s,
                                         size_t first_replica,
                                         std::optional<ScanTicket> primary,
                                         const api::ShardScanRequest& scan) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  const std::vector<api::Service>& replicas = state->shards[s];
  const size_t n = replicas.size();
  const double timeout_ms = state->config.replica_timeout_ms;
  const double hedge_ms = state->config.hedge_after_ms;

  Status last = Status::Internal("shard " + std::to_string(s) +
                                 ": every replica attempt failed");
  for (size_t attempt = 0; attempt < n; ++attempt) {
    const size_t r = (first_replica + attempt) % n;
    if (attempt > 0) {
      state->stats.Local().failovers.fetch_add(1, std::memory_order_relaxed);
    }
    std::optional<ScanTicket> ticket;
    if (attempt == 0) {
      ticket = std::move(primary);
    } else if (!ReplicaKilled(s, r)) {
      ticket = replicas[r].ScanShardAsync(scan);
    }
    if (!ticket.has_value()) {
      last = InjectedFailure(s, r);
      continue;
    }

    std::optional<Result<api::ShardScanReport>> outcome;
    if (attempt == 0 && hedge_ms > 0.0 && n > 1) {
      // Hedge a straggling first attempt: give the primary hedge_ms, then
      // race a duplicate on the next replica and take the first finisher.
      outcome = ticket->WaitFor(Ms(hedge_ms));
      if (!outcome.has_value()) {
        const size_t hr = (r + 1) % n;
        std::optional<ScanTicket> hedge;
        if (!ReplicaKilled(s, hr)) hedge = replicas[hr].ScanShardAsync(scan);
        const Clock::time_point hedged_at = Clock::now();
        while (!outcome.has_value()) {
          outcome = ticket->WaitFor(Ms(0.5));
          if (outcome.has_value()) break;
          if (hedge.has_value()) {
            outcome = hedge->WaitFor(Ms(0.5));
            if (outcome.has_value()) {
              state->stats.Local().hedges_won.fetch_add(
                  1, std::memory_order_relaxed);
              break;
            }
          }
          if (timeout_ms > 0.0 &&
              Ms(Clock::now() - hedged_at).count() > timeout_ms) {
            break;  // both the primary and its hedge are stuck: fail over
          }
        }
      }
    } else if (timeout_ms > 0.0) {
      outcome = ticket->WaitFor(Ms(timeout_ms));
    } else {
      outcome = ticket->Wait();
    }

    if (!outcome.has_value()) {
      last = Status::Internal("shard " + std::to_string(s) + " replica " +
                              std::to_string(r) + " timed out");
      continue;
    }
    if (outcome->ok()) return std::move(*outcome);
    last = outcome->status();
  }
  return last;
}

/// Fans one scan out to every shard (one starting replica each, picked
/// deterministically) and collects the reports in shard order, failing over
/// per shard as needed. Runs on a router pool worker; shard pools never
/// wait on router jobs, so blocking here cannot deadlock.
Result<std::vector<api::ShardScanReport>> Scatter(
    RouterState* state, const api::ShardScanRequest& scan) {
  const size_t n_shards = state->shards.size();
  const uint64_t sequence =
      state->scatter_seq.fetch_add(1, std::memory_order_relaxed);
  // Dispatch phase: one primary attempt per shard, so all shards work
  // concurrently before any gather blocks.
  std::vector<size_t> first(n_shards, 0);
  std::vector<std::optional<ScanTicket>> primaries(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    first[s] = PickReplica(state, sequence, s);
    if (!ReplicaKilled(s, first[s])) {
      primaries[s] = state->shards[s][first[s]].ScanShardAsync(scan);
    }
  }
  std::vector<api::ShardScanReport> reports;
  reports.reserve(n_shards);
  Status failed = Status::OK();
  for (size_t s = 0; s < n_shards; ++s) {
    // Gather every shard even after a failure, draining the fan-out.
    auto report =
        GatherShard(state, s, first[s], std::move(primaries[s]), scan);
    if (!report.ok()) {
      if (failed.ok()) failed = report.status();
      continue;
    }
    reports.push_back(std::move(*report));
  }
  if (!failed.ok()) return failed;
  return reports;
}

/// Merges one request's per-shard row views into the unsharded
/// AggregatedRequest: eligible iff the summed feasible counts reach k, the
/// k-best list k-way-merged by (requirement, global index), and the
/// requirement folded over exactly that order — bit-identical to
/// WorkforceMatrix::KBestStrategies + AggregateRequirement on the whole
/// catalog, because the global k-best is contained in the union of
/// per-shard k-bests and every shard list is already in merge order.
core::AggregatedRequest MergeRow(const std::vector<api::ShardScanReport>& scans,
                                 const std::vector<size_t>& offsets, size_t i,
                                 int k, core::AggregationMode mode) {
  core::AggregatedRequest row;
  if (k < 1) return row;  // rejected by ValidateRequest before any read
  size_t feasible = 0;
  for (const api::ShardScanReport& scan : scans) {
    feasible += scan.rows[i].feasible_count;
  }
  if (feasible < static_cast<size_t>(k)) return row;
  row.eligible = true;
  row.strategies.reserve(static_cast<size_t>(k));
  std::vector<size_t> cursor(scans.size(), 0);
  double last = 0.0;
  for (int taken = 0; taken < k; ++taken) {
    size_t best = scans.size();
    for (size_t s = 0; s < scans.size(); ++s) {
      const api::ShardRequestScan& r = scans[s].rows[i];
      if (cursor[s] >= r.strategies.size()) continue;
      if (best == scans.size()) {
        best = s;
        continue;
      }
      const api::ShardRequestScan& b = scans[best].rows[i];
      const double wa = r.requirements[cursor[s]];
      const double wb = b.requirements[cursor[best]];
      const size_t ga = offsets[s] + r.strategies[cursor[s]];
      const size_t gb = offsets[best] + b.strategies[cursor[best]];
      if (wa < wb || (wa == wb && ga < gb)) best = s;
    }
    // `best` is always valid: the union of per-shard top-k lists holds at
    // least min(k, total feasible) entries.
    const api::ShardRequestScan& r = scans[best].rows[i];
    const double requirement = r.requirements[cursor[best]];
    row.strategies.push_back(offsets[best] + r.strategies[cursor[best]]);
    if (mode == core::AggregationMode::kSum) row.requirement += requirement;
    last = requirement;
    ++cursor[best];
  }
  if (mode == core::AggregationMode::kMax) row.requirement = last;
  return row;
}

/// Concatenates the per-shard parameter blocks in shard order — the global
/// index-aligned block, bit-identical to the unsharded snapshot's.
std::vector<core::ParamVector> MergeParams(
    const std::vector<api::ShardScanReport>& scans) {
  size_t total = 0;
  for (const api::ShardScanReport& scan : scans) total += scan.params.size();
  std::vector<core::ParamVector> params;
  params.reserve(total);
  for (const api::ShardScanReport& scan : scans) {
    params.insert(params.end(), scan.params.begin(), scan.params.end());
  }
  return params;
}

/// K-way merge of per-shard skyband orderings into one global ordering with
/// the single-shard tie rules: ascending (cost, global index) or descending
/// quality with ascending-index ties. Every surviving strategy has >= k
/// dominators confined to its own shard, hence >= k global dominators — the
/// same soundness condition AvailabilitySnapshot::PrunedFor relies on — so
/// AdparExactOverOrderings returns the identical result over the merge.
std::vector<size_t> MergeOrdering(const std::vector<api::ShardScanReport>& scans,
                                  const std::vector<size_t>& offsets,
                                  size_t band, bool by_cost,
                                  const std::vector<core::ParamVector>& params) {
  std::vector<size_t> cursor(scans.size(), 0);
  size_t total = 0;
  for (const api::ShardScanReport& scan : scans) {
    total += by_cost ? scan.skybands[band].by_cost.size()
                     : scan.skybands[band].by_quality_desc.size();
  }
  std::vector<size_t> merged;
  merged.reserve(total);
  while (merged.size() < total) {
    size_t best = scans.size();
    size_t best_global = 0;
    for (size_t s = 0; s < scans.size(); ++s) {
      const api::ShardSkyband& skyband = scans[s].skybands[band];
      const std::vector<size_t>& order =
          by_cost ? skyband.by_cost : skyband.by_quality_desc;
      if (cursor[s] >= order.size()) continue;
      const size_t global = offsets[s] + order[cursor[s]];
      if (best == scans.size()) {
        best = s;
        best_global = global;
        continue;
      }
      bool wins;
      if (by_cost) {
        const double ca = params[global].cost;
        const double cb = params[best_global].cost;
        wins = ca < cb || (ca == cb && global < best_global);
      } else {
        const double qa = params[global].quality;
        const double qb = params[best_global].quality;
        wins = qa > qb || (qa == qb && global < best_global);
      }
      if (wins) {
        best = s;
        best_global = global;
      }
    }
    merged.push_back(best_global);
    ++cursor[best];
  }
  return merged;
}

/// Distinct cardinalities (ascending) among `indices`' requests; only valid
/// (k >= 1) cardinalities qualify for a skyband.
std::vector<int> DistinctKs(const std::vector<core::DeploymentRequest>& requests,
                            const std::vector<size_t>& indices) {
  std::vector<int> ks;
  for (size_t index : indices) {
    if (requests[index].k >= 1) ks.push_back(requests[index].k);
  }
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

/// Merged per-k orderings, indexed by the position of k in the scan's
/// skyband_ks list.
struct MergedSkyband {
  int k = 0;
  std::vector<size_t> by_cost;
  std::vector<size_t> by_quality_desc;
};

std::vector<MergedSkyband> MergeSkybands(
    const std::vector<api::ShardScanReport>& scans,
    const std::vector<size_t>& offsets, const std::vector<int>& ks,
    const std::vector<core::ParamVector>& params) {
  std::vector<MergedSkyband> bands;
  bands.reserve(ks.size());
  for (size_t b = 0; b < ks.size(); ++b) {
    MergedSkyband band;
    band.k = ks[b];
    band.by_cost = MergeOrdering(scans, offsets, b, /*by_cost=*/true, params);
    band.by_quality_desc =
        MergeOrdering(scans, offsets, b, /*by_cost=*/false, params);
    bands.push_back(std::move(band));
  }
  return bands;
}

const MergedSkyband* FindSkyband(const std::vector<MergedSkyband>& bands,
                                 int k) {
  for (const MergedSkyband& band : bands) {
    if (band.k == k) return &band;
  }
  return nullptr;
}

/// The routed batch pipeline: the gather counterpart of
/// internal::ExecuteBatch in service.cc — same resolution order, same
/// failure taxonomy, byte-identical reports.
Result<api::BatchReport> ExecuteRoutedBatch(RouterState* state,
                                            const api::BatchRequest& request,
                                            const std::string& id) {
  const api::BatchDefaults& defaults = state->config.service.batch;
  const std::string algorithm = request.algorithm.value_or(defaults.algorithm);
  auto solver = api::AlgorithmRegistry::Global().FindBatch(algorithm);
  if (!solver.ok()) return solver.status();
  auto availability = state->Resolve(request.availability);
  if (!availability.ok()) return availability.status();
  const double w = QuantizeAvailability(
      *availability, state->config.service.cache.availability_quantum);

  core::BatchOptions options;
  options.objective = request.objective.value_or(defaults.objective);
  options.aggregation = request.aggregation.value_or(defaults.aggregation);
  options.policy = request.policy.value_or(defaults.policy);
  options.executor = &state->executor;
  options.parallel_grain = state->config.service.execution.parallel_grain;

  const bool alternatives =
      request.recommend_alternatives.value_or(defaults.recommend_alternatives);
  core::AdparSolverFn adpar_fn;
  std::string adpar_name;
  if (alternatives) {
    // Resolved before any scatter, so a typo'd name fails fast without
    // touching a shard — the ordering the unsharded path guarantees.
    adpar_name = request.adpar_solver.value_or(defaults.adpar_solver);
    auto adpar = api::AlgorithmRegistry::Global().FindAdpar(adpar_name);
    if (!adpar.ok()) return adpar.status();
    if (adpar_name != "exact") adpar_fn = std::move(*adpar);
  }
  if (w < 0.0 || w > 1.0) {
    // Aggregator::RunAtAvailability's check, hoisted before the scatter.
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }

  // Batch solve: built-in algorithms scatter row scans and run the shared
  // selection funnel over the merged aggregates; anything else (a custom
  // registry solver) runs unsharded over the full profile copy.
  core::BatchResult batch;
  const std::optional<core::BatchAlgorithm> builtin =
      BuiltinAlgorithm(algorithm);
  if (builtin.has_value()) {
    std::vector<core::AggregatedRequest> aggregated(request.requests.size());
    if (!request.requests.empty()) {
      api::ShardScanRequest scan;
      scan.requests = request.requests;
      scan.availability = w;
      scan.policy = options.policy;
      scan.want_params = false;
      auto scans = Scatter(state, scan);
      if (!scans.ok()) return scans.status();
      for (size_t i = 0; i < request.requests.size(); ++i) {
        aggregated[i] = MergeRow(*scans, state->offsets, i,
                                 request.requests[i].k, options.aggregation);
      }
    }
    auto solved = core::SolveBatchAggregated(request.requests, aggregated, w,
                                             options, *builtin);
    if (!solved.ok()) return solved.status();
    batch = std::move(*solved);
  } else {
    auto solved = (*solver)(request.requests, state->full_profiles, w, options);
    if (!solved.ok()) return solved.status();
    batch = std::move(*solved);
  }

  api::BatchReport report;
  report.request_id = id;
  report.algorithm = algorithm;
  report.availability = w;
  report.result.aggregator.availability = w;

  if (alternatives) {
    // The alternatives leg reads per-W parameters (and, for the built-in
    // exact solver, skybands for every unsatisfied cardinality); one more
    // scatter fetches both. Like the unsharded path, the parameter block is
    // materialized even when nothing ended up unsatisfied.
    api::ShardScanRequest scan;
    scan.availability = w;
    std::vector<int> ks;
    if (adpar_name == "exact") {
      ks = DistinctKs(request.requests, batch.unsatisfied);
      scan.skyband_ks = ks;
    }
    auto scans = Scatter(state, scan);
    if (!scans.ok()) return scans.status();
    std::vector<core::ParamVector> params = MergeParams(*scans);
    const std::vector<MergedSkyband> bands =
        MergeSkybands(*scans, state->offsets, ks, params);

    const std::vector<size_t>& unsatisfied = batch.unsatisfied;
    std::vector<Result<core::AdparResult>> solved(
        unsatisfied.size(),
        Result<core::AdparResult>(Status::Internal("unset")));
    state->executor.ParallelFor(
        unsatisfied.size(), /*grain=*/1, [&](size_t begin, size_t end) {
          for (size_t u = begin; u < end; ++u) {
            const core::DeploymentRequest& target =
                request.requests[unsatisfied[u]];
            if (adpar_fn) {
              solved[u] = adpar_fn(params, target.thresholds, target.k);
            } else {
              const MergedSkyband* band = FindSkyband(bands, target.k);
              // Unsatisfied requests passed ValidateRequest, so a band
              // exists for every one of them.
              solved[u] = core::AdparExactOverOrderings(
                  params, band->by_cost, band->by_quality_desc,
                  target.thresholds, target.k);
            }
          }
        });
    for (size_t u = 0; u < unsatisfied.size(); ++u) {
      if (solved[u].ok()) {
        report.result.alternatives.push_back(core::AlternativeRecommendation{
            unsatisfied[u], std::move(*solved[u])});
      } else {
        report.result.adpar_failures.push_back(unsatisfied[u]);
      }
    }
    report.result.aggregator.strategy_params = std::move(params);
  }
  report.result.aggregator.batch = std::move(batch);

  api::internal::StatsStripe& stripe = state->stats.Local();
  stripe.batches.fetch_add(1, std::memory_order_relaxed);
  stripe.requests_processed.fetch_add(request.requests.size(),
                                      std::memory_order_relaxed);
  return report;
}

/// The routed sweep: internal::ExecuteSweep over the merged catalog view.
Result<api::SweepReport> ExecuteRoutedSweep(RouterState* state,
                                            const api::SweepRequest& request,
                                            const std::string& id) {
  auto availability = state->Resolve(request.availability);
  if (!availability.ok()) return availability.status();
  const double w = QuantizeAvailability(
      *availability, state->config.service.cache.availability_quantum);

  std::vector<std::string> solvers = request.solvers;
  if (solvers.empty()) {
    solvers.push_back(state->config.service.batch.adpar_solver);
  }
  // Validate every name before the scatter (same fail-fast contract as the
  // unsharded sweep); a null slot marks the built-in exact solver, served
  // from the merged skybands below.
  std::vector<core::AdparSolverFn> solver_fns;
  solver_fns.reserve(solvers.size());
  bool any_exact = false;
  for (const std::string& name : solvers) {
    if (name == "exact") {
      solver_fns.emplace_back();
      any_exact = true;
      continue;
    }
    auto solver = api::AlgorithmRegistry::Global().FindAdpar(name);
    if (!solver.ok()) return solver.status();
    solver_fns.push_back(std::move(*solver));
  }

  api::ShardScanRequest scan;
  scan.availability = w;
  std::vector<int> ks;
  if (any_exact) {
    std::vector<size_t> all(request.targets.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    ks = DistinctKs(request.targets, all);
    scan.skyband_ks = ks;
  }
  auto scans = Scatter(state, scan);
  if (!scans.ok()) return scans.status();

  api::SweepReport report;
  report.request_id = id;
  report.availability = w;
  report.strategy_params = MergeParams(*scans);
  const std::vector<MergedSkyband> bands =
      MergeSkybands(*scans, state->offsets, ks, report.strategy_params);

  report.outcomes.resize(request.targets.size() * solvers.size());
  state->executor.ParallelFor(
      report.outcomes.size(), /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t i = cell / solvers.size();
          const size_t s = cell % solvers.size();
          const core::DeploymentRequest& target = request.targets[i];
          api::SweepOutcome& outcome = report.outcomes[cell];
          outcome.target_id =
              target.id.empty() ? "target-" + std::to_string(i) : target.id;
          outcome.solver = solvers[s];
          Result<core::AdparResult> solved = Status::Internal("unset");
          if (solver_fns[s]) {
            solved = solver_fns[s](report.strategy_params, target.thresholds,
                                   target.k);
          } else {
            // Invalid cardinalities carry no band; the funnel's own k < 1 /
            // |S| < k checks fire before the orderings are touched, so the
            // empty lists are never read.
            static const std::vector<size_t> kEmpty;
            const MergedSkyband* band = FindSkyband(bands, target.k);
            solved = core::AdparExactOverOrderings(
                report.strategy_params, band != nullptr ? band->by_cost : kEmpty,
                band != nullptr ? band->by_quality_desc : kEmpty,
                target.thresholds, target.k);
          }
          if (solved.ok()) {
            outcome.result = std::move(*solved);
          } else {
            outcome.status = solved.status();
          }
        }
      });
  state->stats.Local().sweeps.fetch_add(1, std::memory_order_relaxed);
  return report;
}

}  // namespace

}  // namespace internal

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

Result<ShardRouter> ShardRouter::Create(core::Catalog catalog,
                                        RouterConfig config) {
  if (config.shards < 1) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  if (config.replicas < 1) {
    return Status::InvalidArgument(
        "router needs at least one replica per shard");
  }
  if (catalog.strategies.size() != catalog.profiles.size()) {
    return Status::InvalidArgument(
        "strategy and profile lists must be index-aligned");
  }
  if (catalog.strategies.size() < config.shards) {
    return Status::InvalidArgument(
        "more shards than strategies (every shard needs at least one)");
  }
  STRATREC_RETURN_NOT_OK(api::ValidateConfig(config.service));

  // Contiguous ranges with sizes differing by at most one.
  const size_t total = catalog.strategies.size();
  const size_t base = total / config.shards;
  const size_t remainder = total % config.shards;
  std::vector<size_t> offsets(config.shards + 1, 0);
  for (size_t s = 0; s < config.shards; ++s) {
    offsets[s + 1] = offsets[s] + base + (s < remainder ? 1 : 0);
  }

  api::ServiceConfig shard_config = config.service;
  shard_config.journal = api::JournalConfig{};  // see the header comment
  std::vector<std::vector<api::Service>> shards;
  shards.reserve(config.shards);
  for (size_t s = 0; s < config.shards; ++s) {
    std::vector<api::Service> replicas;
    replicas.reserve(config.replicas);
    for (size_t r = 0; r < config.replicas; ++r) {
      core::Catalog slice;
      slice.strategies.assign(catalog.strategies.begin() + offsets[s],
                              catalog.strategies.begin() + offsets[s + 1]);
      slice.profiles.assign(catalog.profiles.begin() + offsets[s],
                            catalog.profiles.begin() + offsets[s + 1]);
      auto replica = api::Service::Create(std::move(slice), shard_config);
      if (!replica.ok()) return replica.status();
      replicas.push_back(std::move(*replica));
    }
    shards.push_back(std::move(replicas));
  }

  return ShardRouter(std::make_shared<internal::RouterState>(
      std::move(config), std::move(catalog.profiles), std::move(offsets),
      std::move(shards)));
}

api::Ticket<api::BatchReport> ShardRouter::SubmitBatchAsync(
    api::BatchRequest request) const {
  auto shared = std::make_shared<api::internal::TicketShared<api::BatchReport>>(
      request.request_id.empty() ? state_->ids.Next("batch")
                                 : request.request_id);
  internal::RouterState* state = state_.get();
  const auto submitted = std::chrono::steady_clock::now();
  state_->executor.Submit(
      [state, shared, submitted, request = std::move(request)]() mutable {
        if (!shared->BeginRun()) {
          state->stats.Local().cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
          return;
        }
        // Counter before Finish, so stats read after Wait() see it.
        if (api::internal::DeadlineExpired(request.deadline_ms, submitted)) {
          state->stats.Local().deadline_exceeded.fetch_add(
              1, std::memory_order_relaxed);
          shared->Finish(api::internal::ExpiredStatus(shared->id));
          return;
        }
        auto outcome = api::internal::GuardJob([&]() {
          return internal::ExecuteRoutedBatch(state, request, shared->id);
        });
        shared->Finish(std::move(outcome));
      });
  return api::internal::MakeTicket(std::move(shared));
}

api::Ticket<api::SweepReport> ShardRouter::RunSweepAsync(
    api::SweepRequest request) const {
  auto shared = std::make_shared<api::internal::TicketShared<api::SweepReport>>(
      request.request_id.empty() ? state_->ids.Next("sweep")
                                 : request.request_id);
  internal::RouterState* state = state_.get();
  const auto submitted = std::chrono::steady_clock::now();
  state_->executor.Submit(
      [state, shared, submitted, request = std::move(request)]() mutable {
        if (!shared->BeginRun()) {
          state->stats.Local().cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
          return;
        }
        if (api::internal::DeadlineExpired(request.deadline_ms, submitted)) {
          state->stats.Local().deadline_exceeded.fetch_add(
              1, std::memory_order_relaxed);
          shared->Finish(api::internal::ExpiredStatus(shared->id));
          return;
        }
        auto outcome = api::internal::GuardJob([&]() {
          return internal::ExecuteRoutedSweep(state, request, shared->id);
        });
        shared->Finish(std::move(outcome));
      });
  return api::internal::MakeTicket(std::move(shared));
}

Result<api::BatchReport> ShardRouter::SubmitBatch(
    api::BatchRequest request) const {
  return SubmitBatchAsync(std::move(request)).Wait();
}

Result<api::SweepReport> ShardRouter::RunSweep(api::SweepRequest request) const {
  return RunSweepAsync(std::move(request)).Wait();
}

Status ShardRouter::RegisterAvailabilityModel(
    std::string name, core::AvailabilityModel model) const {
  return state_->models.Register(std::move(name), std::move(model));
}

bool ShardRouter::TryAdmit() const {
  if (state_->config.max_queue_depth == 0) return true;
  size_t depth = state_->executor.QueueDepth();
  for (const std::vector<api::Service>& replicas : state_->shards) {
    for (const api::Service& replica : replicas) {
      depth += replica.stats().queue_depth;
    }
  }
  if (depth < state_->config.max_queue_depth) return true;
  state_->stats.Local().rejected_requests.fetch_add(
      1, std::memory_order_relaxed);
  return false;
}

void ShardRouter::NoteRetryAfterHint() const {
  state_->stats.Local().retry_after_hints.fetch_add(
      1, std::memory_order_relaxed);
}

size_t ShardRouter::shards() const { return state_->shards.size(); }

size_t ShardRouter::replicas() const { return state_->config.replicas; }

const RouterConfig& ShardRouter::config() const { return state_->config; }

api::ServiceStats ShardRouter::stats() const {
  api::ServiceStats out = state_->stats.Snapshot();
  api::internal::SampleExecutor(state_->executor, &out);
  // Every counter sums over the shards too: a shard only ever runs scans,
  // so it moves no router-owned counter and nothing is counted twice.
  for (const std::vector<api::Service>& replicas : state_->shards) {
    for (const api::Service& replica : replicas) {
      api::internal::AddCounters(replica.stats(), &out);
    }
  }
  // All shards run in-process, so the router reports the process-wide level.
  out.kernel_dispatch =
      core::kernels::DispatchLevelName(core::kernels::ActiveDispatchLevel());
  return out;
}

}  // namespace stratrec::router
