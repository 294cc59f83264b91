// Internals shared by the Service (src/api/service.cc) and the shard router
// (src/router/shard_router.cc). Not part of the public API.
//
// The sharded == unsharded byte-identity contract rests on both tiers
// resolving and quantizing an availability the same way, bit for bit, and
// on both failing a job the same way; keeping one copy of that code here is
// what guarantees it. The striped counters are generated from the one
// ServiceStats counter list (STRATREC_SERVICE_STATS_COUNTERS).
#ifndef STRATREC_API_SERVICE_INTERNAL_H_
#define STRATREC_API_SERVICE_INTERNAL_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "src/api/availability.h"
#include "src/api/envelope.h"
#include "src/common/executor.h"
#include "src/common/status.h"

namespace stratrec::api::internal {

/// One slot per ServiceStats counter, on its own cache lines. Each thread
/// sticks to one stripe, so concurrent requests never bounce a shared line.
struct alignas(64) StatsStripe {
#define STRATREC_STRIPE_COUNTER(name, rule) std::atomic<uint64_t> name{0};
  STRATREC_SERVICE_STATS_COUNTERS(STRATREC_STRIPE_COUNTER)
#undef STRATREC_STRIPE_COUNTER
};

class StripedStats {
 public:
  /// The calling thread's stripe.
  StatsStripe& Local();
  /// Every counter summed over the stripes (kernel_dispatch stays empty).
  ServiceStats Snapshot() const;

 private:
  static constexpr size_t kStripes = 16;
  std::array<StatsStripe, kStripes> stripes_;
};

/// Adds every counter of `from` into `out` — the router's fold over its
/// shards' stats.
void AddCounters(const ServiceStats& from, ServiceStats* out);

/// Overwrites the executor gauges (queue depth, active workers) and
/// work-stealing counters of `out` with `executor`'s.
void SampleExecutor(const Executor& executor, ServiceStats* out);

/// Named availability models behind a read-mostly lock.
class AvailabilityModels {
 public:
  /// Fails on an empty or already-registered name.
  Status Register(std::string name, core::AvailabilityModel model);
  /// Resolves `spec` to W. A kDefault spec falls back to `configured` (the
  /// service config's default spec), or to 0.5 when that is kDefault too.
  Result<double> Resolve(const AvailabilitySpec& spec,
                         const AvailabilitySpec& configured) const;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, core::AvailabilityModel> models_;
};

/// Service-assigned ids: "<prefix>-000001", "<prefix>-000002", ...
class IdSequence {
 public:
  std::string Next(const char* prefix);

 private:
  std::atomic<uint64_t> next_{1};
};

/// Snaps `w` onto the configured availability grid (no-op for quantum 0).
/// Applied before the pipeline runs, so cache keys and reports agree.
double QuantizeAvailability(double w, double quantum);

/// Whether a request's relative deadline_ms budget ran out between
/// submission and the moment a worker claimed its ticket. 0 = no deadline.
bool DeadlineExpired(double deadline_ms,
                     std::chrono::steady_clock::time_point submitted);

/// The deterministic outcome of an expired ticket (no elapsed time in the
/// message, so journaled outcomes replay byte-identically).
Status ExpiredStatus(const std::string& id);

/// Runs one job body, converting an escaping exception (a throwing
/// user-registered solver, std::bad_alloc mid-pipeline) into a kInternal
/// ticket outcome; on a pool worker it would otherwise terminate the
/// process.
template <typename Fn>
auto GuardJob(Fn&& body) -> decltype(body()) {
  try {
    return body();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("job threw: ") + e.what());
  } catch (...) {
    return Status::Internal("job threw a non-std exception");
  }
}

}  // namespace stratrec::api::internal

#endif  // STRATREC_API_SERVICE_INTERNAL_H_
