#include "src/api/service_internal.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <utility>

namespace stratrec::api::internal {

StatsStripe& StripedStats::Local() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripes_[slot];
}

ServiceStats StripedStats::Snapshot() const {
  ServiceStats out;
  for (const StatsStripe& stripe : stripes_) {
#define STRATREC_SUM_STRIPE(name, rule) \
  out.name += stripe.name.load(std::memory_order_relaxed);
    STRATREC_SERVICE_STATS_COUNTERS(STRATREC_SUM_STRIPE)
#undef STRATREC_SUM_STRIPE
  }
  return out;
}

void AddCounters(const ServiceStats& from, ServiceStats* out) {
#define STRATREC_ADD_COUNTER(name, rule) out->name += from.name;
  STRATREC_SERVICE_STATS_COUNTERS(STRATREC_ADD_COUNTER)
#undef STRATREC_ADD_COUNTER
}

void SampleExecutor(const Executor& executor, ServiceStats* out) {
  out->queue_depth = executor.QueueDepth();
  out->active_workers = executor.ActiveWorkers();
  out->steals = static_cast<size_t>(executor.StealCount());
  out->local_hits = static_cast<size_t>(executor.LocalHitCount());
}

Status AvailabilityModels::Register(std::string name,
                                    core::AvailabilityModel model) {
  if (name.empty()) {
    return Status::InvalidArgument("availability model name is empty");
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!models_.emplace(std::move(name), std::move(model)).second) {
    return Status::FailedPrecondition(
        "availability model name is already registered");
  }
  return Status::OK();
}

Result<double> AvailabilityModels::Resolve(
    const AvailabilitySpec& spec, const AvailabilitySpec& configured) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  double fallback = 0.5;
  if (configured.kind != AvailabilitySpec::Kind::kDefault &&
      spec.kind == AvailabilitySpec::Kind::kDefault) {
    auto resolved = ResolveAvailability(configured, models_, 0.5);
    if (!resolved.ok()) return resolved.status();
    fallback = *resolved;
  }
  return ResolveAvailability(spec, models_, fallback);
}

std::string IdSequence::Next(const char* prefix) {
  const uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s-%06llu", prefix,
                static_cast<unsigned long long>(id));
  return buffer;
}

double QuantizeAvailability(double w, double quantum) {
  if (quantum <= 0.0) return w;
  const double snapped = std::round(w / quantum) * quantum;
  return snapped < 0.0 ? 0.0 : (snapped > 1.0 ? 1.0 : snapped);
}

bool DeadlineExpired(double deadline_ms,
                     std::chrono::steady_clock::time_point submitted) {
  if (deadline_ms <= 0.0) return false;
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - submitted)
                                .count();
  return elapsed_ms > deadline_ms;
}

Status ExpiredStatus(const std::string& id) {
  return Status::DeadlineExceeded("ticket " + id +
                                  " deadline expired before execution");
}

}  // namespace stratrec::api::internal
