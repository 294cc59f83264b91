#include "src/api/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/api/codec.h"
#include "src/api/registry.h"
#include "src/api/service_internal.h"
#include "src/common/executor.h"
#include "src/common/journal.h"
#include "src/common/logging.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/core/workforce.h"
#include "src/stream/stream_scheduler.h"

namespace stratrec::api {

namespace internal {

/// Sharded LRU of availability snapshots (core::AvailabilitySnapshot),
/// keyed on the bit pattern of the (already quantized) availability. Every
/// batch and sweep at one W shares a single snapshot, so the O(|S|)
/// parameter estimation — and ADPaR's sorts/pruning tables — are paid once
/// per distinct availability instead of once per job. Builds happen
/// outside the shard lock; a racing duplicate build keeps the first
/// inserted entry so callers converge on one shared block.
class SnapshotCache {
 public:
  /// Shard count is clamped to the capacity so floor division keeps the
  /// total resident snapshots <= snapshot_capacity (a snapshot at |S|=1M
  /// is tens of MB; the bound is the point of the knob).
  explicit SnapshotCache(const CacheConfig& config)
      : capacity_(config.snapshot_capacity),
        shards_(std::max<size_t>(
            size_t{1},
            std::min(config.shards, std::max<size_t>(size_t{1}, capacity_)))) {
    per_shard_capacity_ = std::max<size_t>(1, capacity_ / shards_.size());
  }

  bool enabled() const { return capacity_ > 0; }

  /// The cached snapshot for `w`, or null on a miss (the caller builds and
  /// offers it back via Insert).
  std::shared_ptr<const core::AvailabilitySnapshot> Find(double w) {
    if (!enabled()) return nullptr;
    Shard& shard = ShardFor(w);
    const uint64_t key = KeyFor(w);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return nullptr;
    // Move to the LRU front.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.position);
    return it->second.snapshot;
  }

  /// Offers a freshly built snapshot; returns the canonical entry (the
  /// existing one if another worker won the race).
  std::shared_ptr<const core::AvailabilitySnapshot> Insert(
      double w, std::shared_ptr<const core::AvailabilitySnapshot> snapshot) {
    if (!enabled()) return snapshot;
    Shard& shard = ShardFor(w);
    const uint64_t key = KeyFor(w);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.position);
      return it->second.snapshot;
    }
    shard.lru.push_front(key);
    shard.entries.emplace(key,
                          Entry{std::move(snapshot), shard.lru.begin()});
    while (shard.entries.size() > per_shard_capacity_) {
      shard.entries.erase(shard.lru.back());
      shard.lru.pop_back();
    }
    return shard.entries.find(key)->second.snapshot;
  }

 private:
  struct Entry {
    std::shared_ptr<const core::AvailabilitySnapshot> snapshot;
    std::list<uint64_t>::iterator position;
  };
  struct alignas(64) Shard {
    std::mutex mutex;
    std::list<uint64_t> lru;  ///< most-recent first
    std::unordered_map<uint64_t, Entry> entries;
  };

  static uint64_t KeyFor(double w) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(w));
    std::memcpy(&bits, &w, sizeof(bits));
    return bits;
  }

  Shard& ShardFor(double w) {
    // splitmix64 finalizer: the exponent-heavy double bits spread poorly
    // by themselves.
    uint64_t x = KeyFor(w);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return shards_[x % shards_.size()];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

/// Shared state behind every Service handle and its sessions. No single
/// service mutex: the named-model table is read-mostly behind a shared
/// mutex, counters are striped atomics, and sessions carry their own lock.
struct ServiceState {
  ServiceConfig config;
  /// The wrapped batch pipeline; its aggregator owns the catalog (the
  /// service keeps no second copy). ProcessBatch is const and therefore
  /// safe under concurrent jobs without locking.
  core::StratRec stratrec;

  IdSequence ids;
  AvailabilityModels models;
  StripedStats stats;

  /// Availability-keyed snapshot cache (ServiceConfig::cache).
  SnapshotCache snapshots;

  /// Record/replay tap (null when JournalConfig::path is empty). Workers
  /// encode their own records and append under the writer's short file
  /// lock; declared before `executor` so it outlives the queue drain.
  std::shared_ptr<JournalWriter> journal;

  /// The worker pool every async ticket runs on and the pipeline stages
  /// partition across. Declared last on purpose: it is destroyed first, and
  /// its destructor drains still-queued tickets while the rest of this
  /// state is alive.
  Executor executor;

  ServiceState(ServiceConfig config_in, core::StratRec stratrec_in,
               std::shared_ptr<JournalWriter> journal_in)
      : config(std::move(config_in)),
        stratrec(std::move(stratrec_in)),
        snapshots(config.cache),
        journal(std::move(journal_in)),
        executor(config.execution.worker_threads) {
    // Build the catalog's SoA index once, up front, partitioned across the
    // fresh pool — every batch/sweep hot loop rides it from the first job.
    stratrec.aggregator().index(&executor, config.execution.parallel_grain);
  }

  /// The shared per-W snapshot: cache hit, or build (outside any shard
  /// lock) and insert. Counts hits/misses on the caller's stats stripe.
  std::shared_ptr<const core::AvailabilitySnapshot> SnapshotFor(double w) {
    if (auto cached = snapshots.Find(w)) {
      stats.Local().cache_hits.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    stats.Local().cache_misses.fetch_add(1, std::memory_order_relaxed);
    auto built = stratrec.aggregator().index().BuildSnapshot(
        w, &executor, config.execution.parallel_grain);
    return snapshots.Insert(w, std::move(built));
  }

  /// Appends one already-encoded record, demoting I/O failures to an error
  /// log: a full disk must not fail the request whose work succeeded.
  void Record(const std::string& line) const {
    const Status appended = journal->Append(line);
    if (!appended.ok()) {
      LogMessage(LogLevel::kError,
                 "journal record dropped: " + appended.ToString());
    }
  }

  const std::vector<core::StrategyProfile>& profiles() const {
    return stratrec.aggregator().profiles();
  }

  Result<double> Resolve(const AvailabilitySpec& spec) const {
    return models.Resolve(spec, config.availability);
  }
};

/// One stream session: the (not thread-safe) stream scheduler plus its own
/// lock and a reference keeping the owning service alive. The scheduler's
/// ParallelFor fan-out (pricing rows, snapshot re-estimation) runs on the
/// service executor from under the session mutex — safe, because the
/// executor's callers participate in their own fan-out.
struct SessionState {
  std::shared_ptr<ServiceState> service;
  std::string id;
  mutable std::mutex mutex;  ///< serializes the wrapped scheduler
  stream::StreamScheduler scheduler;
  /// Per-session submission index, stamped on every journaled stream-event
  /// record (failures included) so replay can detect a compacted-away
  /// prefix as a gap. Guarded by `mutex`.
  size_t seq = 0;
  /// Last-synced scheduler counters, so each Submit adds only its delta to
  /// the service-wide stripes. Guarded by `mutex`.
  size_t synced_reschedules = 0;
  size_t synced_delta_updates = 0;
  size_t synced_rebuilds = 0;

  SessionState(std::shared_ptr<ServiceState> service_in, std::string id_in,
               stream::StreamScheduler scheduler_in)
      : service(std::move(service_in)),
        id(std::move(id_in)),
        scheduler(std::move(scheduler_in)) {}
};

namespace {

/// The batch pipeline body, run on a pool worker. `state` outlives every
/// job: workers are joined (and the queue drained) before the rest of
/// ServiceState is torn down.
Result<BatchReport> ExecuteBatch(ServiceState* state,
                                 const BatchRequest& request,
                                 const std::string& id) {
  const BatchDefaults& defaults = state->config.batch;
  const std::string algorithm = request.algorithm.value_or(defaults.algorithm);
  auto solver = AlgorithmRegistry::Global().FindBatch(algorithm);
  if (!solver.ok()) return solver.status();
  auto availability = state->Resolve(request.availability);
  if (!availability.ok()) return availability.status();
  // The pipeline (and the report) run at the quantized W, so nearby
  // availabilities share one cached snapshot when the knob is on.
  const double w = QuantizeAvailability(
      *availability, state->config.cache.availability_quantum);

  core::StratRecOptions options;
  options.batch.objective = request.objective.value_or(defaults.objective);
  options.batch.aggregation =
      request.aggregation.value_or(defaults.aggregation);
  options.batch.policy = request.policy.value_or(defaults.policy);
  // The embarrassingly-parallel stages (workforce matrix, ADPaR fan-out)
  // partition across the same pool this job runs on; ParallelFor's caller
  // participates, so this is safe even on a single-threaded pool.
  options.batch.executor = &state->executor;
  options.batch.parallel_grain = state->config.execution.parallel_grain;
  options.recommend_alternatives =
      request.recommend_alternatives.value_or(defaults.recommend_alternatives);
  options.batch_solver = std::move(*solver);
  if (options.recommend_alternatives) {
    // Only resolved when it will run, so an unknown adpar name cannot fail
    // a batch that never invokes it — and resolved before the O(|S|)
    // snapshot build, so a typo'd name fails fast without touching the
    // cache.
    const std::string adpar_name =
        request.adpar_solver.value_or(defaults.adpar_solver);
    auto adpar = AlgorithmRegistry::Global().FindAdpar(adpar_name);
    if (!adpar.ok()) return adpar.status();
    // Only the alternatives leg reads per-W parameters, so only it fetches
    // a snapshot; batch-only jobs skip the whole O(|S|) block.
    options.snapshot = state->SnapshotFor(w);
    // The built-in exact solver has a snapshot-riding overload (prebuilt
    // orderings + skyline pruning, bit-identical results); leaving the
    // solver unset makes StratRec pick it. Every other backend gets the
    // registry entry as before. Dispatching on the name is sound because
    // the registry refuses duplicate registrations — "exact" always means
    // the built-in.
    if (adpar_name != "exact") options.adpar_solver = std::move(*adpar);
  }

  auto result = state->stratrec.ProcessBatchAtAvailability(
      request.requests, w, options);
  if (!result.ok()) return result.status();

  BatchReport report;
  report.request_id = id;
  report.algorithm = algorithm;
  report.availability = w;
  report.result = std::move(*result);
  StatsStripe& stripe = state->stats.Local();
  stripe.batches.fetch_add(1, std::memory_order_relaxed);
  stripe.requests_processed.fetch_add(request.requests.size(),
                                      std::memory_order_relaxed);
  return report;
}

/// The sweep body, run on a pool worker; the |targets| x |solvers| cells
/// are independent jobs fanned out across the pool, each writing its own
/// pre-sized slot (deterministic regardless of scheduling).
Result<SweepReport> ExecuteSweep(ServiceState* state,
                                 const SweepRequest& request,
                                 const std::string& id) {
  auto availability = state->Resolve(request.availability);
  if (!availability.ok()) return availability.status();
  const double w = QuantizeAvailability(
      *availability, state->config.cache.availability_quantum);

  std::vector<std::string> solvers = request.solvers;
  if (solvers.empty()) solvers.push_back(state->config.batch.adpar_solver);
  // Validate every solver name before the (potentially O(|S|)) snapshot
  // build, so a typo fails fast and touches neither the cache nor the
  // index. A null slot marks the built-in exact solver, filled in below
  // once the snapshot exists.
  std::vector<core::AdparSolverFn> solver_fns;
  solver_fns.reserve(solvers.size());
  for (const std::string& name : solvers) {
    if (name == "exact") {
      solver_fns.emplace_back();
      continue;
    }
    auto solver = AlgorithmRegistry::Global().FindAdpar(name);
    if (!solver.ok()) return solver.status();
    solver_fns.push_back(std::move(*solver));
  }
  // The shared per-W block: every cell searches it, the report carries it.
  auto snapshot = state->SnapshotFor(w);
  for (core::AdparSolverFn& fn : solver_fns) {
    if (fn) continue;
    // The built-in exact solver rides the snapshot's prebuilt orderings
    // and skyline pruning (bit-identical to the registry entry).
    fn = [snapshot](const std::vector<core::ParamVector>&,
                    const core::ParamVector& d, int k) {
      return core::AdparExact(*snapshot, d, k);
    };
  }

  SweepReport report;
  report.request_id = id;
  report.availability = w;
  report.strategy_params = snapshot->params();

  report.outcomes.resize(request.targets.size() * solvers.size());
  state->executor.ParallelFor(
      report.outcomes.size(), /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t i = cell / solvers.size();
          const size_t s = cell % solvers.size();
          const core::DeploymentRequest& target = request.targets[i];
          SweepOutcome& outcome = report.outcomes[cell];
          outcome.target_id =
              target.id.empty() ? "target-" + std::to_string(i) : target.id;
          outcome.solver = solvers[s];
          auto solved = solver_fns[s](report.strategy_params,
                                      target.thresholds, target.k);
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

/// The shard-scan body: the scatter half of the router's scatter/gather.
/// The availability arrives pre-resolved and pre-quantized from the router,
/// so the snapshot cache key matches the unsharded path bit for bit.
Result<ShardScanReport> ExecuteShardScan(ServiceState* state,
                                         const ShardScanRequest& request,
                                         const std::string& id) {
  ShardScanReport report;
  report.request_id = id;
  report.availability = request.availability;

  if (!request.requests.empty()) {
    const core::WorkforceMatrix matrix = core::WorkforceMatrix::Compute(
        request.requests, state->stratrec.aggregator().index(), request.policy,
        &state->executor, state->config.execution.parallel_grain);
    report.rows.reserve(request.requests.size());
    for (size_t i = 0; i < request.requests.size(); ++i) {
      ShardRequestScan row;
      // k < 1 rows stay empty: the gather rejects them via ValidateRequest
      // before reading any shard data, exactly like the unsharded path.
      if (request.requests[i].k >= 1) {
        auto top = matrix.TopStrategies(i, request.requests[i].k);
        if (!top.ok()) return top.status();
        row.feasible_count = top->feasible_count;
        row.strategies = std::move(top->strategies);
        row.requirements = std::move(top->requirements);
      }
      report.rows.push_back(std::move(row));
    }
  }

  if (request.want_params || !request.skyband_ks.empty()) {
    auto snapshot = state->SnapshotFor(request.availability);
    if (request.want_params) report.params = snapshot->params();
    report.skybands.reserve(request.skyband_ks.size());
    for (int k : request.skyband_ks) {
      ShardSkyband band;
      band.k = k;
      if (auto pruned = snapshot->PrunedFor(k)) {
        band.by_cost = pruned->by_cost;
        band.by_quality_desc = pruned->by_quality_desc;
      } else {
        // Pruning was a no-op for this k; serve the full orderings.
        const core::AdparOrderings& orderings = snapshot->orderings();
        band.by_cost = orderings.by_cost;
        band.by_quality_desc = orderings.by_quality_desc;
      }
      report.skybands.push_back(std::move(band));
    }
  }
  return report;
}

}  // namespace

}  // namespace internal

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

Result<Service> Service::Create(core::Catalog catalog, ServiceConfig config) {
  STRATREC_RETURN_NOT_OK(ValidateConfig(config));

  // Journal taps: open the file and persist the config + catalog records up
  // front, so even a trace with zero pairs is replayable (the trace alone
  // reconstructs an identical service).
  std::shared_ptr<JournalWriter> journal;
  if (!config.journal.path.empty()) {
    JournalWriter::Options journal_options;
    journal_options.flush_every_record = config.journal.flush_every_record;
    journal_options.max_segment_bytes = config.journal.max_segment_bytes;
    journal_options.compact_after_segments =
        config.journal.compact_after_segments;
    journal_options.retain_segments = config.journal.retain_segments;
    // The folding policy lives in the codec (the journal layer stays
    // byte-oriented): keep the records a compacted chain still needs.
    journal_options.compact = wire::CompactRecords;
    auto writer =
        JournalWriter::Open(config.journal.path, std::move(journal_options));
    if (!writer.ok()) return writer.status();
    journal = std::move(*writer);
    STRATREC_RETURN_NOT_OK(journal->Append(wire::EncodeConfigRecord(config)));
    STRATREC_RETURN_NOT_OK(
        journal->Append(wire::EncodeCatalogRecord(catalog)));
  }

  auto stratrec = core::StratRec::Create(std::move(catalog));
  if (!stratrec.ok()) return stratrec.status();
  return Service(std::make_shared<internal::ServiceState>(
      std::move(config), std::move(*stratrec), std::move(journal)));
}

Result<Service> Service::Create(std::vector<core::Strategy> strategies,
                                std::vector<core::StrategyProfile> profiles,
                                ServiceConfig config) {
  return Create(
      core::Catalog{std::move(strategies), std::move(profiles)},
      std::move(config));
}

Ticket<BatchReport> Service::SubmitBatchAsync(BatchRequest request) const {
  auto shared = std::make_shared<internal::TicketShared<BatchReport>>(
      request.request_id.empty() ? state_->ids.Next("batch")
                                 : request.request_id);
  internal::ServiceState* state = state_.get();
  const auto submitted = std::chrono::steady_clock::now();
  state_->executor.Submit(
      [state, shared, submitted, request = std::move(request)]() mutable {
        if (!shared->BeginRun()) {
          state->stats.Local().cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
          if (state->journal && state->config.journal.record_cancelled) {
            state->Record(wire::EncodeBatchRecord(
                shared->id, request,
                Status::Cancelled("ticket " + shared->id +
                                  " cancelled before execution")));
          }
          return;
        }
        // Deadline check after the claim: expired work completes with
        // kDeadlineExceeded instead of executing, and the counter/journal
        // side effects land before Finish wakes the waiter.
        if (internal::DeadlineExpired(request.deadline_ms, submitted)) {
          state->stats.Local().deadline_exceeded.fetch_add(
              1, std::memory_order_relaxed);
          if (state->journal && state->config.journal.record_cancelled) {
            state->Record(wire::EncodeBatchRecord(
                shared->id, request, internal::ExpiredStatus(shared->id)));
          }
          shared->Finish(internal::ExpiredStatus(shared->id));
          return;
        }
        auto outcome = internal::GuardJob([&]() {
          return internal::ExecuteBatch(state, request, shared->id);
        });
        // Tap before Finish: once the ticket is retrievable, its pair is in
        // the journal. Encoding runs here on the worker, lock-free.
        if (state->journal) {
          state->Record(wire::EncodeBatchRecord(shared->id, request, outcome));
        }
        shared->Finish(std::move(outcome));
      });
  return Ticket<BatchReport>(std::move(shared));
}

Ticket<SweepReport> Service::RunSweepAsync(SweepRequest request) const {
  auto shared = std::make_shared<internal::TicketShared<SweepReport>>(
      request.request_id.empty() ? state_->ids.Next("sweep")
                                 : request.request_id);
  internal::ServiceState* state = state_.get();
  const auto submitted = std::chrono::steady_clock::now();
  state_->executor.Submit(
      [state, shared, submitted, request = std::move(request)]() mutable {
        if (!shared->BeginRun()) {
          state->stats.Local().cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
          if (state->journal && state->config.journal.record_cancelled) {
            state->Record(wire::EncodeSweepRecord(
                shared->id, request,
                Status::Cancelled("ticket " + shared->id +
                                  " cancelled before execution")));
          }
          return;
        }
        if (internal::DeadlineExpired(request.deadline_ms, submitted)) {
          state->stats.Local().deadline_exceeded.fetch_add(
              1, std::memory_order_relaxed);
          if (state->journal && state->config.journal.record_cancelled) {
            state->Record(wire::EncodeSweepRecord(
                shared->id, request, internal::ExpiredStatus(shared->id)));
          }
          shared->Finish(internal::ExpiredStatus(shared->id));
          return;
        }
        auto outcome = internal::GuardJob([&]() {
          return internal::ExecuteSweep(state, request, shared->id);
        });
        if (state->journal) {
          state->Record(wire::EncodeSweepRecord(shared->id, request, outcome));
        }
        shared->Finish(std::move(outcome));
      });
  return Ticket<SweepReport>(std::move(shared));
}

Ticket<ShardScanReport> Service::ScanShardAsync(ShardScanRequest request) const {
  auto shared = std::make_shared<internal::TicketShared<ShardScanReport>>(
      request.request_id.empty() ? state_->ids.Next("scan")
                                 : request.request_id);
  internal::ServiceState* state = state_.get();
  state_->executor.Submit(
      [state, shared, request = std::move(request)]() mutable {
        if (!shared->BeginRun()) {
          state->stats.Local().cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
          return;
        }
        auto outcome = internal::GuardJob([&]() {
          return internal::ExecuteShardScan(state, request, shared->id);
        });
        // No journal tap: scans are a router-internal transport, and the
        // router's own requests are what replay needs to reproduce.
        shared->Finish(std::move(outcome));
      });
  return Ticket<ShardScanReport>(std::move(shared));
}

Result<BatchReport> Service::SubmitBatch(BatchRequest request) const {
  return SubmitBatchAsync(std::move(request)).Wait();
}

Result<SweepReport> Service::RunSweep(SweepRequest request) const {
  return RunSweepAsync(std::move(request)).Wait();
}

Result<StreamSession> Service::OpenStream(const StreamOptions& options) const {
  auto availability = state_->Resolve(options.availability);
  if (!availability.ok()) return availability.status();

  const ServiceConfig& config = state_->config;
  stream::StreamSchedulerOptions scheduler_options;
  scheduler_options.objective =
      options.objective.value_or(config.batch.objective);
  scheduler_options.aggregation =
      options.aggregation.value_or(config.batch.aggregation);
  scheduler_options.policy = options.policy.value_or(config.batch.policy);
  scheduler_options.max_pending =
      options.max_pending.value_or(config.stream.max_pending);
  scheduler_options.readmit_on_release =
      options.readmit_on_release.value_or(config.stream.readmit_on_release);
  scheduler_options.recommend_alternatives =
      options.recommend_alternatives.value_or(
          config.stream.recommend_alternatives);
  // The session's snapshot rides the same availability grid as the batch
  // cache, so a session at a cached W agrees with the batch path bit for
  // bit.
  scheduler_options.availability_quantum = config.cache.availability_quantum;
  scheduler_options.parallel_grain = config.execution.parallel_grain;

  auto scheduler = stream::StreamScheduler::Create(
      &state_->stratrec.aggregator().index(), &state_->executor,
      *availability, scheduler_options);
  if (!scheduler.ok()) return scheduler.status();

  std::string session_id =
      options.session_id.empty() ? state_->ids.Next("stream")
                                 : options.session_id;
  // Session-open tap: with the session id pinned into the recorded options
  // and the resolved availability alongside, replay rebuilds this session
  // byte-for-byte even when the original spec was named or default.
  if (state_->journal) {
    wire::StreamOpenRecord open;
    open.session_id = session_id;
    open.options = options;
    open.options.session_id = session_id;
    open.availability = *availability;
    state_->Record(wire::EncodeStreamOpenRecord(open));
  }

  auto session = std::make_shared<internal::SessionState>(
      state_, std::move(session_id), std::move(*scheduler));
  state_->stats.Local().streams_opened.fetch_add(1, std::memory_order_relaxed);
  return StreamSession(std::move(session));
}

Status Service::RegisterAvailabilityModel(std::string name,
                                          core::AvailabilityModel model) const {
  return state_->models.Register(std::move(name), std::move(model));
}

const std::vector<core::Strategy>& Service::strategies() const {
  return state_->stratrec.aggregator().strategies();
}

const std::vector<core::StrategyProfile>& Service::profiles() const {
  return state_->profiles();
}

const ServiceConfig& Service::config() const { return state_->config; }

size_t Service::worker_threads() const { return state_->executor.threads(); }

ServiceStats Service::stats() const {
  ServiceStats out = state_->stats.Snapshot();
  internal::SampleExecutor(state_->executor, &out);
  out.index_build_nanos = static_cast<size_t>(
      state_->stratrec.aggregator().index_build_nanos());
  out.kernel_dispatch =
      core::kernels::DispatchLevelName(core::kernels::ActiveDispatchLevel());
  return out;
}

Status Service::RecordStatsSnapshot() const {
  if (!state_->journal) {
    return Status::FailedPrecondition(
        "stats snapshot requested but journaling is not configured");
  }
  return state_->journal->Append(wire::EncodeStatsRecord(stats()));
}

Status Service::RecordStatsSnapshot(double sim_time) const {
  if (!state_->journal) {
    return Status::FailedPrecondition(
        "stats snapshot requested but journaling is not configured");
  }
  return state_->journal->Append(wire::EncodeStatsRecord(stats(), sim_time));
}

// ---------------------------------------------------------------------------
// StreamSession
// ---------------------------------------------------------------------------

const std::string& StreamSession::id() const { return state_->id; }

Result<StreamUpdate> StreamSession::Submit(const StreamEvent& event) {
  StreamUpdate update;
  update.session_id = state_->id;
  update.kind = event.kind;

  internal::ServiceState* service = state_->service.get();
  std::lock_guard<std::mutex> lock(state_->mutex);
  stream::StreamScheduler& scheduler = state_->scheduler;
  Status status = Status::OK();
  switch (event.kind) {
    case StreamEvent::Kind::kArrival: {
      auto outcome = scheduler.OnArrival(event.request);
      if (!outcome.ok()) {
        status = outcome.status();
        break;
      }
      update.request_id = event.request.id;
      update.decision = std::move(outcome->decision);
      update.has_alternative = outcome->has_alternative;
      if (outcome->has_alternative) {
        update.alternative = std::move(outcome->alternative);
      }
      break;
    }
    case StreamEvent::Kind::kRevocation:
      status = scheduler.OnRevocation(event.request_id);
      update.request_id = event.request_id;
      break;
    case StreamEvent::Kind::kCompletion:
      status = scheduler.OnCompletion(event.request_id);
      update.request_id = event.request_id;
      break;
    case StreamEvent::Kind::kAvailabilityChange: {
      auto resolved = service->Resolve(event.availability);
      if (!resolved.ok()) {
        status = resolved.status();
        break;
      }
      status = scheduler.SetAvailability(*resolved);
      break;
    }
  }
  if (status.ok()) {
    update.availability = scheduler.availability();
    update.used_workforce = scheduler.used_workforce();
    update.active = scheduler.active();
    update.pending = scheduler.pending();
  }

  // Journal tap: every submitted event (failures included) gets a record
  // stamped with the session's submission index, encoded here on the
  // submitting thread — the session mutex makes seq order and journal
  // order agree per session, and the append itself only takes the
  // journal's short file lock.
  if (service->journal) {
    wire::StreamEventRecord record;
    record.session_id = state_->id;
    record.seq = state_->seq;
    record.event = event;
    record.status = status;
    if (status.ok()) record.update = update;
    service->Record(wire::EncodeStreamEventRecord(record));
  }
  state_->seq += 1;

  if (!status.ok()) return status;

  internal::StatsStripe& stripe = service->stats.Local();
  stripe.stream_events.fetch_add(1, std::memory_order_relaxed);
  if (event.kind == StreamEvent::Kind::kArrival) {
    stripe.requests_processed.fetch_add(1, std::memory_order_relaxed);
  }
  // Fold this event's scheduler-counter movement into the service stripes
  // (the scheduler keeps totals; the session remembers what it last
  // synced).
  const size_t reschedules = scheduler.reschedules();
  const size_t delta_updates = scheduler.snapshot_delta_updates();
  const size_t rebuilds = scheduler.snapshot_rebuilds();
  stripe.stream_reschedules.fetch_add(
      reschedules - state_->synced_reschedules, std::memory_order_relaxed);
  stripe.snapshot_delta_updates.fetch_add(
      delta_updates - state_->synced_delta_updates, std::memory_order_relaxed);
  stripe.snapshot_rebuilds.fetch_add(rebuilds - state_->synced_rebuilds,
                                     std::memory_order_relaxed);
  state_->synced_reschedules = reschedules;
  state_->synced_delta_updates = delta_updates;
  state_->synced_rebuilds = rebuilds;
  return update;
}

Result<core::AdmissionDecision> StreamSession::Arrive(
    const core::DeploymentRequest& request) {
  auto update = Submit(StreamEvent::Arrival(request));
  if (!update.ok()) return update.status();
  return std::move(update->decision);
}

Status StreamSession::Revoke(const std::string& request_id) {
  auto update = Submit(StreamEvent::Revocation(request_id));
  return update.ok() ? Status::OK() : update.status();
}

Status StreamSession::Complete(const std::string& request_id) {
  auto update = Submit(StreamEvent::Completion(request_id));
  return update.ok() ? Status::OK() : update.status();
}

Status StreamSession::SetAvailability(const AvailabilitySpec& availability) {
  auto update = Submit(StreamEvent::AvailabilityChange(availability));
  return update.ok() ? Status::OK() : update.status();
}

double StreamSession::availability() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.availability();
}

double StreamSession::used_workforce() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.used_workforce();
}

size_t StreamSession::active() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.active();
}

size_t StreamSession::pending() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.pending();
}

core::OnlineStats StreamSession::stats() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.stats();
}

}  // namespace stratrec::api
