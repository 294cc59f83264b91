// Wire codec tests: decode(encode(x)) == x property over randomized
// envelopes (all three request kinds plus reports, specs, config, catalog,
// status), byte-stable re-encoding, stable field names, and strict decode
// errors. Randomness rides the repo Rng, so every failure reproduces from
// the seed.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "src/api/codec.h"
#include "src/common/rng.h"

namespace stratrec::wire {
namespace {

// ---------------------------------------------------------------------------
// Random envelope generators. Values stay NaN-free (the parameter space is
// finite by construction); strings exercise escaping.
// ---------------------------------------------------------------------------

std::string RandomString(Rng& rng, size_t max_len = 10) {
  static constexpr char kAlphabet[] =
      "abcXYZ019 _-/\\\"\n\t{}:,[]\x01";
  const size_t len = static_cast<size_t>(rng.UniformInt(0, max_len));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(
        kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)]);
  }
  return out;
}

double RandomDouble(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    case 2:
      return 1.0 / 3.0;  // no finite decimal expansion
    case 3:
      return rng.Uniform() * 1e-12;  // tiny magnitudes
    default:
      return rng.Uniform();
  }
}

core::ParamVector RandomParams(Rng& rng) {
  return {RandomDouble(rng), RandomDouble(rng), RandomDouble(rng)};
}

core::DeploymentRequest RandomRequest(Rng& rng) {
  core::DeploymentRequest request;
  request.id = RandomString(rng);
  request.thresholds = RandomParams(rng);
  request.k = static_cast<int>(rng.UniformInt(1, 5));
  return request;
}

std::vector<size_t> RandomIndices(Rng& rng) {
  std::vector<size_t> out(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (size_t& v : out) v = static_cast<size_t>(rng.UniformInt(0, 1000));
  return out;
}

api::AvailabilitySpec RandomSpec(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return api::AvailabilitySpec::Default();
    case 1:
      return api::AvailabilitySpec::Fixed(RandomDouble(rng));
    case 2: {
      std::vector<stats::PmfAtom> atoms(
          static_cast<size_t>(rng.UniformInt(0, 3)));
      for (stats::PmfAtom& atom : atoms) {
        atom = {RandomDouble(rng), RandomDouble(rng)};
      }
      return api::AvailabilitySpec::FromPmf(std::move(atoms));
    }
    case 3: {
      std::vector<double> samples(static_cast<size_t>(rng.UniformInt(0, 3)));
      for (double& s : samples) s = RandomDouble(rng);
      return api::AvailabilitySpec::FromSamples(std::move(samples));
    }
    default:
      return api::AvailabilitySpec::Named(RandomString(rng));
  }
}

Status RandomStatus(Rng& rng) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,        StatusCode::kInvalidArgument,
      StatusCode::kNotFound,  StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kInfeasible,
      StatusCode::kCancelled, StatusCode::kInternal,
      StatusCode::kDeadlineExceeded,
  };
  const StatusCode code = kCodes[rng.UniformInt(0, 8)];
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, RandomString(rng));
}

api::BatchRequest RandomBatchRequest(Rng& rng) {
  api::BatchRequest request;
  request.requests.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (core::DeploymentRequest& r : request.requests) r = RandomRequest(rng);
  request.availability = RandomSpec(rng);
  if (rng.Bernoulli(0.5)) request.algorithm = RandomString(rng);
  if (rng.Bernoulli(0.5)) {
    request.objective = rng.Bernoulli(0.5) ? core::Objective::kThroughput
                                           : core::Objective::kPayoff;
  }
  if (rng.Bernoulli(0.5)) {
    request.aggregation = rng.Bernoulli(0.5) ? core::AggregationMode::kSum
                                             : core::AggregationMode::kMax;
  }
  if (rng.Bernoulli(0.5)) {
    request.policy = rng.Bernoulli(0.5)
                         ? core::WorkforcePolicy::kMinimalWorkforce
                         : core::WorkforcePolicy::kPaperMaxOfThree;
  }
  if (rng.Bernoulli(0.5)) request.recommend_alternatives = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) request.adpar_solver = RandomString(rng);
  if (rng.Bernoulli(0.5)) request.request_id = RandomString(rng);
  if (rng.Bernoulli(0.5)) request.deadline_ms = 1.0 + 1000.0 * rng.Uniform();
  return request;
}

core::AdparResult RandomAdparResult(Rng& rng) {
  core::AdparResult result;
  result.alternative = RandomParams(rng);
  result.strategies = RandomIndices(rng);
  result.squared_distance = RandomDouble(rng);
  result.distance = RandomDouble(rng);
  return result;
}

api::BatchReport RandomBatchReport(Rng& rng) {
  api::BatchReport report;
  report.request_id = RandomString(rng);
  report.algorithm = RandomString(rng);
  report.availability = RandomDouble(rng);
  report.result.aggregator.availability = RandomDouble(rng);
  report.result.aggregator.strategy_params.resize(
      static_cast<size_t>(rng.UniformInt(0, 3)));
  for (core::ParamVector& p : report.result.aggregator.strategy_params) {
    p = RandomParams(rng);
  }
  core::BatchResult& batch = report.result.aggregator.batch;
  batch.outcomes.resize(static_cast<size_t>(rng.UniformInt(0, 3)));
  for (core::RequestOutcome& outcome : batch.outcomes) {
    outcome.request_index = static_cast<size_t>(rng.UniformInt(0, 99));
    outcome.satisfied = rng.Bernoulli(0.5);
    outcome.eligible = rng.Bernoulli(0.5);
    outcome.workforce = RandomDouble(rng);
    outcome.objective_value = RandomDouble(rng);
    outcome.strategies = RandomIndices(rng);
  }
  batch.total_objective = RandomDouble(rng);
  batch.workforce_used = RandomDouble(rng);
  batch.satisfied = RandomIndices(rng);
  batch.unsatisfied = RandomIndices(rng);
  report.result.alternatives.resize(
      static_cast<size_t>(rng.UniformInt(0, 2)));
  for (core::AlternativeRecommendation& alt : report.result.alternatives) {
    alt.request_index = static_cast<size_t>(rng.UniformInt(0, 99));
    alt.result = RandomAdparResult(rng);
  }
  report.result.adpar_failures = RandomIndices(rng);
  return report;
}

api::SweepRequest RandomSweepRequest(Rng& rng) {
  api::SweepRequest request;
  request.targets.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (core::DeploymentRequest& target : request.targets) {
    target = RandomRequest(rng);
  }
  request.solvers.resize(static_cast<size_t>(rng.UniformInt(0, 3)));
  for (std::string& solver : request.solvers) solver = RandomString(rng);
  request.availability = RandomSpec(rng);
  if (rng.Bernoulli(0.5)) request.request_id = RandomString(rng);
  if (rng.Bernoulli(0.5)) request.deadline_ms = 1.0 + 1000.0 * rng.Uniform();
  return request;
}

api::SweepReport RandomSweepReport(Rng& rng) {
  api::SweepReport report;
  report.request_id = RandomString(rng);
  report.availability = RandomDouble(rng);
  report.strategy_params.resize(static_cast<size_t>(rng.UniformInt(0, 3)));
  for (core::ParamVector& p : report.strategy_params) p = RandomParams(rng);
  report.outcomes.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (api::SweepOutcome& outcome : report.outcomes) {
    outcome.target_id = RandomString(rng);
    outcome.solver = RandomString(rng);
    outcome.status = RandomStatus(rng);
    // The codec only carries a result for OK cells; error cells round-trip
    // as default-constructed.
    if (outcome.status.ok()) outcome.result = RandomAdparResult(rng);
  }
  return report;
}

api::StreamOptions RandomStreamOptions(Rng& rng) {
  api::StreamOptions options;
  options.availability = RandomSpec(rng);
  if (rng.Bernoulli(0.5)) {
    options.max_pending = static_cast<size_t>(rng.UniformInt(0, 128));
  }
  if (rng.Bernoulli(0.5)) options.readmit_on_release = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) {
    options.objective = rng.Bernoulli(0.5) ? core::Objective::kThroughput
                                           : core::Objective::kPayoff;
  }
  if (rng.Bernoulli(0.5)) options.recommend_alternatives = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) options.deadline_ms = 1.0 + 1000.0 * rng.Uniform();
  if (rng.Bernoulli(0.5)) options.session_id = RandomString(rng);
  return options;
}

core::AdmissionDecision RandomAdmissionDecision(Rng& rng) {
  core::AdmissionDecision decision;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      decision.kind = core::AdmissionDecision::Kind::kAdmitted;
      break;
    case 1:
      decision.kind = core::AdmissionDecision::Kind::kQueued;
      break;
    default:
      decision.kind = core::AdmissionDecision::Kind::kRejected;
      break;
  }
  decision.strategies = RandomIndices(rng);
  decision.workforce = RandomDouble(rng);
  return decision;
}

api::StreamUpdate RandomStreamUpdate(Rng& rng) {
  api::StreamUpdate update;
  update.session_id = RandomString(rng);
  switch (rng.UniformInt(0, 3)) {
    case 0:
      update.kind = api::StreamEvent::Kind::kArrival;
      break;
    case 1:
      update.kind = api::StreamEvent::Kind::kRevocation;
      break;
    case 2:
      update.kind = api::StreamEvent::Kind::kCompletion;
      break;
    default:
      update.kind = api::StreamEvent::Kind::kAvailabilityChange;
      break;
  }
  update.request_id = RandomString(rng);
  update.decision = RandomAdmissionDecision(rng);
  if (rng.Bernoulli(0.5)) {
    update.has_alternative = true;
    update.alternative = RandomAdparResult(rng);
  }
  update.availability = RandomDouble(rng);
  update.used_workforce = RandomDouble(rng);
  update.active = static_cast<size_t>(rng.UniformInt(0, 1000));
  update.pending = static_cast<size_t>(rng.UniformInt(0, 1000));
  return update;
}

api::StreamEvent RandomStreamEvent(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return api::StreamEvent::Arrival(RandomRequest(rng));
    case 1:
      return api::StreamEvent::Revocation(RandomString(rng));
    case 2:
      return api::StreamEvent::Completion(RandomString(rng));
    default:
      return api::StreamEvent::AvailabilityChange(RandomSpec(rng));
  }
}

api::ServiceConfig RandomConfig(Rng& rng) {
  api::ServiceConfig config;
  config.batch.algorithm = RandomString(rng);
  config.batch.objective = rng.Bernoulli(0.5) ? core::Objective::kThroughput
                                              : core::Objective::kPayoff;
  config.batch.aggregation = rng.Bernoulli(0.5) ? core::AggregationMode::kSum
                                                : core::AggregationMode::kMax;
  config.batch.policy = rng.Bernoulli(0.5)
                            ? core::WorkforcePolicy::kMinimalWorkforce
                            : core::WorkforcePolicy::kPaperMaxOfThree;
  config.batch.recommend_alternatives = rng.Bernoulli(0.5);
  config.batch.adpar_solver = RandomString(rng);
  config.stream.max_pending = static_cast<size_t>(rng.UniformInt(0, 1000));
  config.stream.readmit_on_release = rng.Bernoulli(0.5);
  config.stream.recommend_alternatives = rng.Bernoulli(0.5);
  config.execution.worker_threads = static_cast<size_t>(rng.UniformInt(0, 64));
  config.execution.parallel_grain =
      static_cast<size_t>(rng.UniformInt(1, 10000));
  config.cache.snapshot_capacity =
      static_cast<size_t>(rng.UniformInt(0, 128));
  config.cache.shards = static_cast<size_t>(rng.UniformInt(1, 16));
  config.cache.availability_quantum =
      rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 1.0);
  config.journal.path = RandomString(rng);
  config.journal.record_cancelled = rng.Bernoulli(0.5);
  config.journal.flush_every_record = rng.Bernoulli(0.5);
  config.journal.max_segment_bytes =
      rng.Bernoulli(0.5) ? 0 : static_cast<size_t>(rng.UniformInt(1, 1 << 20));
  config.journal.compact_after_segments =
      static_cast<size_t>(rng.UniformInt(0, 64));
  config.journal.retain_segments = static_cast<size_t>(rng.UniformInt(0, 8));
  config.availability = RandomSpec(rng);
  return config;
}

api::ServiceStats RandomServiceStats(Rng& rng) {
  api::ServiceStats stats;
  stats.batches = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.sweeps = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.streams_opened = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.stream_events = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.stream_reschedules = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.snapshot_delta_updates =
      static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.snapshot_rebuilds = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.requests_processed = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.cancelled = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.queue_depth = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.active_workers = static_cast<size_t>(rng.UniformInt(0, 64));
  stats.steals = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.local_hits = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.cache_hits = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.cache_misses = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.index_build_nanos = static_cast<size_t>(rng.UniformInt(0, 1 << 30));
  stats.rejected_requests = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.retry_after_hints = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.deadline_exceeded = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.failovers = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.hedges_won = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.kernel_dispatch = rng.Bernoulli(0.5) ? "avx2" : "scalar";
  return stats;
}

core::Catalog RandomCatalog(Rng& rng) {
  core::Catalog catalog;
  const size_t n = static_cast<size_t>(rng.UniformInt(0, 5));
  const std::vector<core::StageSpec> specs = core::AllStageSpecs();
  for (size_t j = 0; j < n; ++j) {
    std::vector<core::StageSpec> stages(
        static_cast<size_t>(rng.UniformInt(1, 3)));
    for (core::StageSpec& stage : stages) {
      stage = specs[rng.UniformInt(0, specs.size() - 1)];
    }
    catalog.strategies.emplace_back("s" + std::to_string(j),
                                    std::move(stages));
    core::StrategyProfile profile;
    profile.quality = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    profile.cost = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    profile.latency = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    catalog.profiles.push_back(profile);
  }
  return catalog;
}

/// decode(encode(x)) == x, and re-encoding the decoded value is
/// byte-identical (the stability the replay bit-match relies on).
template <typename T, typename DecodeFn>
void ExpectRoundTrip(const T& value, DecodeFn decode, const char* what) {
  const std::string encoded = json::Dump(Encode(value));
  auto parsed = json::Parse(encoded);
  ASSERT_TRUE(parsed.ok()) << what << ": " << parsed.status().ToString()
                           << "\n" << encoded;
  auto decoded = decode(*parsed);
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString()
                            << "\n" << encoded;
  EXPECT_TRUE(value == *decoded) << what << " round-trip changed the value\n"
                                 << encoded;
  EXPECT_EQ(json::Dump(Encode(*decoded)), encoded)
      << what << " re-encoding is not byte-stable";
}

constexpr int kIterations = 300;

TEST(CodecProperty, BatchRequestRoundTrips) {
  Rng rng(0xC0DEC'0001ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomBatchRequest(rng), DecodeBatchRequest,
                    "BatchRequest");
  }
}

TEST(CodecProperty, SweepRequestRoundTrips) {
  Rng rng(0xC0DEC'0002ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomSweepRequest(rng), DecodeSweepRequest,
                    "SweepRequest");
  }
}

TEST(CodecProperty, StreamEnvelopesRoundTrip) {
  Rng rng(0xC0DEC'0003ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomStreamOptions(rng), DecodeStreamOptions,
                    "StreamOptions");
    ExpectRoundTrip(RandomStreamEvent(rng), DecodeStreamEvent, "StreamEvent");
    ExpectRoundTrip(RandomStreamUpdate(rng), DecodeStreamUpdate,
                    "StreamUpdate");
  }
}

TEST(CodecProperty, ReportsRoundTrip) {
  Rng rng(0xC0DEC'0004ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomBatchReport(rng), DecodeBatchReport, "BatchReport");
    ExpectRoundTrip(RandomSweepReport(rng), DecodeSweepReport, "SweepReport");
  }
}

TEST(CodecProperty, ConfigCatalogAndSpecRoundTrip) {
  Rng rng(0xC0DEC'0005ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomConfig(rng), DecodeServiceConfig, "ServiceConfig");
    ExpectRoundTrip(RandomCatalog(rng), DecodeCatalog, "Catalog");
    ExpectRoundTrip(RandomSpec(rng), DecodeAvailabilitySpec,
                    "AvailabilitySpec");
  }
}

TEST(CodecProperty, ServiceStatsRoundTrip) {
  Rng rng(0xC0DEC'0008ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomServiceStats(rng), DecodeServiceStats,
                    "ServiceStats");
  }
}

TEST(CodecProperty, StatusRoundTrips) {
  Rng rng(0xC0DEC'0006ull);
  for (int i = 0; i < kIterations; ++i) {
    const Status status = RandomStatus(rng);
    auto parsed = json::Parse(json::Dump(Encode(status)));
    ASSERT_TRUE(parsed.ok());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(*parsed, &decoded).ok());
    EXPECT_TRUE(status == decoded);
  }
}

// ---------------------------------------------------------------------------
// Format stability and strictness.
// ---------------------------------------------------------------------------

TEST(Codec, FieldNamesAreStable) {
  core::DeploymentRequest request{"d1", {0.5, 0.25, 0.75}, 2};
  EXPECT_EQ(json::Dump(Encode(request)),
            "{\"id\":\"d1\",\"thresholds\":{\"quality\":0.5,\"cost\":0.25,"
            "\"latency\":0.75},\"k\":2}");

  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::Fixed(0.5))),
            "{\"kind\":\"fixed\",\"value\":0.5}");
  EXPECT_EQ(json::Dump(Encode(Status::Infeasible("k > |S|"))),
            "{\"code\":\"Infeasible\",\"message\":\"k > |S|\"}");
  EXPECT_EQ(json::Dump(Encode(Status::DeadlineExceeded("too slow"))),
            "{\"code\":\"DeadlineExceeded\",\"message\":\"too slow\"}");

  // The stats block the journal checkpoints ride on. Renaming a field here
  // silently breaks every recorded trace — update the format version too.
  api::ServiceStats stats;
  stats.batches = 1;
  stats.sweeps = 2;
  stats.streams_opened = 3;
  stats.stream_events = 4;
  stats.stream_reschedules = 16;
  stats.snapshot_delta_updates = 17;
  stats.snapshot_rebuilds = 18;
  stats.requests_processed = 5;
  stats.cancelled = 6;
  stats.queue_depth = 7;
  stats.active_workers = 8;
  stats.steals = 9;
  stats.local_hits = 10;
  stats.cache_hits = 11;
  stats.cache_misses = 12;
  stats.index_build_nanos = 13;
  stats.rejected_requests = 14;
  stats.retry_after_hints = 15;
  stats.deadline_exceeded = 19;
  stats.failovers = 21;
  stats.hedges_won = 22;
  stats.kernel_dispatch = "avx2";
  EXPECT_EQ(json::Dump(Encode(stats)),
            "{\"batches\":1,\"sweeps\":2,\"streams_opened\":3,"
            "\"stream_events\":4,\"stream_reschedules\":16,"
            "\"snapshot_delta_updates\":17,\"snapshot_rebuilds\":18,"
            "\"requests_processed\":5,\"cancelled\":6,"
            "\"queue_depth\":7,\"active_workers\":8,\"steals\":9,"
            "\"local_hits\":10,\"cache_hits\":11,\"cache_misses\":12,"
            "\"index_build_nanos\":13,\"rejected_requests\":14,"
            "\"retry_after_hints\":15,\"deadline_exceeded\":19,"
            "\"failovers\":21,\"hedges_won\":22,"
            "\"kernel_dispatch\":\"avx2\"}");
}

// v6 journals predate the fault-tolerance counters: a stats block without
// them must still decode, defaulting the new fields to zero.
TEST(Codec, V6StatsWithoutFaultCountersStillDecode) {
  const std::string v6 =
      "{\"batches\":1,\"sweeps\":2,\"streams_opened\":3,"
      "\"stream_events\":4,\"stream_reschedules\":16,"
      "\"snapshot_delta_updates\":17,\"snapshot_rebuilds\":18,"
      "\"requests_processed\":5,\"cancelled\":6,"
      "\"queue_depth\":7,\"active_workers\":8,\"steals\":9,"
      "\"local_hits\":10,\"cache_hits\":11,\"cache_misses\":12,"
      "\"index_build_nanos\":13,\"rejected_requests\":14,"
      "\"retry_after_hints\":15,\"kernel_dispatch\":\"avx2\"}";
  auto decoded = DecodeServiceStats(*json::Parse(v6));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->batches, 1u);
  EXPECT_EQ(decoded->retry_after_hints, 15u);
  EXPECT_EQ(decoded->deadline_exceeded, 0u);
  EXPECT_EQ(decoded->failovers, 0u);
  EXPECT_EQ(decoded->hedges_won, 0u);
}

// Earlier v7 writers also wrote a "retries" counter (always 0); readers
// ignore it, and the counters around it decode as before.
TEST(Codec, EarlierV7StatsWithRetriesStillDecode) {
  const std::string earlier_v7 =
      "{\"batches\":1,\"sweeps\":2,\"streams_opened\":3,"
      "\"stream_events\":4,\"stream_reschedules\":16,"
      "\"snapshot_delta_updates\":17,\"snapshot_rebuilds\":18,"
      "\"requests_processed\":5,\"cancelled\":6,"
      "\"queue_depth\":7,\"active_workers\":8,\"steals\":9,"
      "\"local_hits\":10,\"cache_hits\":11,\"cache_misses\":12,"
      "\"index_build_nanos\":13,\"rejected_requests\":14,"
      "\"retry_after_hints\":15,\"deadline_exceeded\":19,"
      "\"retries\":0,\"failovers\":21,\"hedges_won\":22,"
      "\"kernel_dispatch\":\"avx2\"}";
  auto decoded = DecodeServiceStats(*json::Parse(earlier_v7));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->deadline_exceeded, 19u);
  EXPECT_EQ(decoded->failovers, 21u);
  EXPECT_EQ(decoded->hedges_won, 22u);
  EXPECT_EQ(json::Dump(Encode(*decoded)).find("retries"), std::string::npos);
}

// deadline_ms is emitted only when set: a request without a deadline must
// encode byte-identically to its pre-v7 form, and a set deadline must
// round-trip on all three envelope kinds.
TEST(Codec, DeadlineMsIsOmittedWhenUnsetAndRoundTripsWhenSet) {
  api::BatchRequest batch;
  batch.availability = api::AvailabilitySpec::Fixed(0.5);
  EXPECT_EQ(json::Dump(Encode(batch)).find("deadline_ms"), std::string::npos);
  batch.deadline_ms = 250.0;
  const std::string encoded = json::Dump(Encode(batch));
  EXPECT_NE(encoded.find("\"deadline_ms\":250"), std::string::npos) << encoded;
  auto decoded = DecodeBatchRequest(*json::Parse(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline_ms, 250.0);

  api::SweepRequest sweep;
  sweep.availability = api::AvailabilitySpec::Fixed(0.5);
  EXPECT_EQ(json::Dump(Encode(sweep)).find("deadline_ms"), std::string::npos);
  sweep.deadline_ms = 80.5;
  auto sweep_decoded =
      DecodeSweepRequest(*json::Parse(json::Dump(Encode(sweep))));
  ASSERT_TRUE(sweep_decoded.ok());
  EXPECT_EQ(sweep_decoded->deadline_ms, 80.5);

  api::StreamOptions options;
  EXPECT_EQ(json::Dump(Encode(options)).find("deadline_ms"),
            std::string::npos);
  options.deadline_ms = 12.25;
  auto options_decoded =
      DecodeStreamOptions(*json::Parse(json::Dump(Encode(options))));
  ASSERT_TRUE(options_decoded.ok());
  EXPECT_EQ(options_decoded->deadline_ms, 12.25);
}

TEST(Codec, StatsRecordDecodesIntoTheTrace) {
  api::ServiceStats stats;
  stats.batches = 3;
  stats.queue_depth = 12;
  stats.active_workers = 4;
  stats.steals = 17;
  stats.local_hits = 23;
  const std::string record = EncodeStatsRecord(stats);
  EXPECT_EQ(record.rfind("{\"kind\":\"stats\",\"stats\":", 0), 0u) << record;
  // A stats checkpoint decodes next to the pairs without disturbing them.
  auto trace = DecodeTrace({record, record});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->pairs.empty());
  ASSERT_EQ(trace->stats.size(), 2u);
  EXPECT_TRUE(trace->stats[0].stats == stats);
  EXPECT_FALSE(trace->stats[0].has_sim_time);
  EXPECT_TRUE(trace->stats[1].stats == stats);
  // Encoding is byte-deterministic: two identical snapshots, two identical
  // record lines.
  EXPECT_EQ(EncodeStatsRecord(stats), record);

  // The v6 virtual-time-stamped variant round-trips the stamp.
  const std::string stamped = EncodeStatsRecord(stats, 42.5);
  EXPECT_EQ(stamped.rfind("{\"kind\":\"stats\",\"sim_time\":", 0), 0u)
      << stamped;
  auto stamped_trace = DecodeTrace({stamped});
  ASSERT_TRUE(stamped_trace.ok()) << stamped_trace.status().ToString();
  ASSERT_EQ(stamped_trace->stats.size(), 1u);
  EXPECT_TRUE(stamped_trace->stats[0].has_sim_time);
  EXPECT_EQ(stamped_trace->stats[0].sim_time, 42.5);
  EXPECT_TRUE(stamped_trace->stats[0].stats == stats);
}

TEST(Codec, StreamRecordsDecodeIntoTheTrace) {
  Rng rng(0xC0DEC'0007ull);
  StreamOpenRecord open;
  open.session_id = "stream-000001";
  open.options = RandomStreamOptions(rng);
  open.availability = 0.625;

  StreamEventRecord succeeded;
  succeeded.session_id = open.session_id;
  succeeded.seq = 0;
  succeeded.event = api::StreamEvent::Arrival(RandomRequest(rng));
  succeeded.update = RandomStreamUpdate(rng);

  StreamEventRecord failed;
  failed.session_id = open.session_id;
  failed.seq = 1;
  failed.event = api::StreamEvent::Revocation("ghost");
  failed.status = Status::NotFound("unknown request id: ghost");

  const std::string open_line = EncodeStreamOpenRecord(open);
  EXPECT_EQ(open_line.rfind("{\"kind\":\"stream-open\",", 0), 0u)
      << open_line;
  const std::string ok_line = EncodeStreamEventRecord(succeeded);
  EXPECT_EQ(ok_line.rfind("{\"kind\":\"stream-event\",", 0), 0u) << ok_line;
  const std::string failed_line = EncodeStreamEventRecord(failed);

  auto trace = DecodeTrace({open_line, ok_line, failed_line});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->stream_opens.size(), 1u);
  EXPECT_TRUE(trace->stream_opens[0] == open);
  ASSERT_EQ(trace->stream_events.size(), 2u);
  EXPECT_TRUE(trace->stream_events[0] == succeeded);
  EXPECT_TRUE(trace->stream_events[1] == failed);
  // Byte-determinism is what replay's bit-match stands on.
  EXPECT_EQ(EncodeStreamOpenRecord(trace->stream_opens[0]), open_line);
  EXPECT_EQ(EncodeStreamEventRecord(trace->stream_events[0]), ok_line);
  EXPECT_EQ(EncodeStreamEventRecord(trace->stream_events[1]), failed_line);
}

TEST(Codec, CompactRecordsKeepsTheSelfContainedCore) {
  Rng rng(0xC0DEC'0009ull);
  const std::string config_a = EncodeConfigRecord(RandomConfig(rng));
  const std::string config_b = EncodeConfigRecord(RandomConfig(rng));
  const std::string catalog = EncodeCatalogRecord(RandomCatalog(rng));
  const std::string stats_a = EncodeStatsRecord(RandomServiceStats(rng));
  const std::string stats_b = EncodeStatsRecord(RandomServiceStats(rng));
  api::BatchRequest batch_request = RandomBatchRequest(rng);
  const std::string pair =
      EncodeBatchRecord("b1", batch_request, RandomBatchReport(rng));
  StreamOpenRecord open;
  open.session_id = "stream-000001";
  open.availability = 0.5;
  const std::string open_line = EncodeStreamOpenRecord(open);
  StreamEventRecord event;
  event.session_id = open.session_id;
  event.event = api::StreamEvent::Completion("d1");
  event.update = RandomStreamUpdate(rng);
  const std::string event_line = EncodeStreamEventRecord(event);
  const std::string unknown = "{\"kind\":\"future-record\",\"x\":1}";

  const auto folded = CompactRecords({config_a, stats_a, pair, open_line,
                                      unknown, event_line, config_b, catalog,
                                      stats_b});
  // Last config/catalog/stats survive; opens and unknown records survive in
  // order; the pair and the stream event are dropped.
  ASSERT_EQ(folded.size(), 5u);
  EXPECT_EQ(folded[0], config_b);
  EXPECT_EQ(folded[1], catalog);
  EXPECT_EQ(folded[2], open_line);
  EXPECT_EQ(folded[3], unknown);
  EXPECT_EQ(folded[4], stats_b);

  // Folding is idempotent: re-compacting the survivors changes nothing.
  EXPECT_EQ(CompactRecords(folded), folded);
}

TEST(Codec, OptionalFieldsAreOmittedAndRestoredUnset) {
  api::BatchRequest request;
  request.availability = api::AvailabilitySpec::Fixed(0.5);
  const std::string encoded = json::Dump(Encode(request));
  EXPECT_EQ(encoded.find("algorithm"), std::string::npos);
  EXPECT_EQ(encoded.find("request_id"), std::string::npos);
  auto decoded = DecodeBatchRequest(*json::Parse(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->algorithm.has_value());
  EXPECT_TRUE(decoded->request_id.empty());
}

TEST(Codec, DecodeRejectsMalformedEnvelopes) {
  const auto decode = [](const std::string& text) {
    auto parsed = json::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return DecodeBatchRequest(*parsed);
  };
  // Missing required fields.
  EXPECT_EQ(decode("{}").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode("{\"requests\":[]}").status().code(),
            StatusCode::kInvalidArgument);
  // Wrong types.
  EXPECT_EQ(decode("{\"requests\":7,\"availability\":{\"kind\":\"default\"}}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Unknown enum names.
  EXPECT_EQ(decode("{\"requests\":[],\"availability\":{\"kind\":\"default\"},"
                   "\"objective\":\"profit\"}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Golden encodings: one deterministic value of every envelope and journal
// record kind, pinned byte for byte. The round-trip properties above would
// still pass a change that renamed or reordered a field on both sides; these
// would not. A diff here breaks every recorded trace and every HTTP client.
// ---------------------------------------------------------------------------

core::AdparResult GoldenAdparResult() {
  core::AdparResult result;
  result.alternative = {0.75, 0.5, 0.25};
  result.strategies = {3, 1};
  result.squared_distance = 0.125;
  result.distance = 1.0 / 3.0;
  return result;
}

api::BatchRequest GoldenBatchRequest() {
  api::BatchRequest request;
  request.requests = {{"d1", {0.5, 0.25, 0.75}, 2}, {"d2", {0.9, 0.1, 0.3}, 1}};
  request.availability = api::AvailabilitySpec::Fixed(0.6);
  request.algorithm = "batchstrat";
  request.objective = core::Objective::kPayoff;
  request.aggregation = core::AggregationMode::kMax;
  request.policy = core::WorkforcePolicy::kPaperMaxOfThree;
  request.recommend_alternatives = false;
  request.adpar_solver = "exact";
  request.deadline_ms = 250.5;
  request.request_id = "req-1";
  return request;
}

api::BatchReport GoldenBatchReport() {
  api::BatchReport report;
  report.request_id = "batch-000001";
  report.algorithm = "batchstrat";
  report.availability = 0.5;
  report.result.aggregator.availability = 0.5;
  report.result.aggregator.strategy_params = {{0.8, 0.2, 0.4},
                                              {0.6, 0.1, 0.9}};
  core::BatchResult& batch = report.result.aggregator.batch;
  core::RequestOutcome served;
  served.request_index = 0;
  served.satisfied = true;
  served.eligible = true;
  served.workforce = 0.25;
  served.objective_value = 1.0;
  served.strategies = {0, 1};
  core::RequestOutcome unserved;
  unserved.request_index = 1;
  batch.outcomes = {served, unserved};
  batch.total_objective = 1.0;
  batch.workforce_used = 0.25;
  batch.satisfied = {0};
  batch.unsatisfied = {1, 2};
  report.result.alternatives = {{1, GoldenAdparResult()}};
  report.result.adpar_failures = {2};
  return report;
}

api::SweepRequest GoldenSweepRequest() {
  api::SweepRequest request;
  request.targets = {{"t1", {0.7, 0.3, 0.5}, 2}};
  request.solvers = {"exact", "baseline"};
  request.availability = api::AvailabilitySpec::FromSamples({0.25, 0.75});
  request.deadline_ms = 80.0;
  request.request_id = "sweep-9";
  return request;
}

api::SweepReport GoldenSweepReport() {
  api::SweepReport report;
  report.request_id = "sweep-000002";
  report.availability = 0.5;
  report.strategy_params = {{0.8, 0.2, 0.4}};
  api::SweepOutcome solved;
  solved.target_id = "t1";
  solved.solver = "exact";
  solved.result = GoldenAdparResult();
  api::SweepOutcome failed;
  failed.target_id = "t1";
  failed.solver = "baseline";
  failed.status = Status::Infeasible("k > |S|");
  report.outcomes = {solved, failed};
  return report;
}

api::StreamOptions GoldenStreamOptions() {
  api::StreamOptions options;
  options.availability = api::AvailabilitySpec::Named("window-a");
  options.max_pending = 8;
  options.readmit_on_release = false;
  options.objective = core::Objective::kThroughput;
  options.aggregation = core::AggregationMode::kSum;
  options.policy = core::WorkforcePolicy::kMinimalWorkforce;
  options.recommend_alternatives = true;
  options.deadline_ms = 12.25;
  options.session_id = "stream-000007";
  return options;
}

api::StreamUpdate GoldenStreamUpdate(bool with_alternative) {
  api::StreamUpdate update;
  update.session_id = "stream-000007";
  update.kind = api::StreamEvent::Kind::kArrival;
  update.request_id = "d1";
  update.decision.kind = with_alternative
                             ? core::AdmissionDecision::Kind::kRejected
                             : core::AdmissionDecision::Kind::kAdmitted;
  if (!with_alternative) update.decision.strategies = {4, 2};
  update.decision.workforce = with_alternative ? 0.0 : 0.125;
  update.has_alternative = with_alternative;
  if (with_alternative) update.alternative = GoldenAdparResult();
  update.availability = 0.5;
  update.used_workforce = 0.125;
  update.active = 1;
  update.pending = 0;
  return update;
}

core::Catalog GoldenCatalog() {
  const std::vector<core::StageSpec> specs = core::AllStageSpecs();
  core::Catalog catalog;
  catalog.strategies.emplace_back("s1",
                                  std::vector<core::StageSpec>{specs[0]});
  catalog.strategies.emplace_back(
      "s2", std::vector<core::StageSpec>{specs[3], specs[6]});
  core::StrategyProfile first;
  first.quality = {0.5, 0.25};
  first.cost = {-0.5, 1.0};
  first.latency = {0.125, 0.0};
  core::StrategyProfile second;
  second.quality = {1.0, 0.0};
  second.cost = {0.25, 0.5};
  second.latency = {-1.0, 1.0};
  catalog.profiles = {first, second};
  return catalog;
}

api::ServiceConfig GoldenConfig() {
  api::ServiceConfig config;
  config.journal.path = "trace.journal";
  config.journal.max_segment_bytes = 1 << 20;
  config.cache.availability_quantum = 0.05;
  return config;
}

api::ServiceStats GoldenStats() {
  api::ServiceStats stats;
  stats.batches = 1;
  stats.sweeps = 2;
  stats.requests_processed = 5;
  stats.cache_hits = 11;
  stats.hedges_won = 22;
  stats.kernel_dispatch = "scalar";
  return stats;
}

TEST(CodecGolden, BatchEnvelopes) {
  EXPECT_EQ(json::Dump(Encode(GoldenBatchRequest())),
            R"({"request_id":"req-1","requests":[{"id":"d1","thresholds":{")"
            R"(quality":0.5,"cost":0.25,"latency":0.75},"k":2},{"id":"d2",")"
            R"(thresholds":{"quality":0.9,"cost":0.1,"latency":0.3},"k":1}])"
            R"(,"availability":{"kind":"fixed","value":0.6},"algorithm":"ba)"
            R"(tchstrat","objective":"payoff","aggregation":"max","policy":)"
            R"("paper-max-of-three","recommend_alternatives":false,"adpar_s)"
            R"(olver":"exact","deadline_ms":250.5})");
  api::BatchRequest unset;
  unset.requests = {{"d1", {0.5, 0.25, 0.75}, 2}};
  EXPECT_EQ(json::Dump(Encode(unset)),
            R"({"requests":[{"id":"d1","thresholds":{"quality":0.5,"cost":0)"
            R"(.25,"latency":0.75},"k":2}],"availability":{"kind":"default")"
            R"(}})");
  EXPECT_EQ(json::Dump(Encode(GoldenBatchReport())),
            R"({"request_id":"batch-000001","algorithm":"batchstrat","avail)"
            R"(ability":0.5,"result":{"aggregator":{"availability":0.5,"str)"
            R"(ategy_params":[{"quality":0.8,"cost":0.2,"latency":0.4},{"qu)"
            R"(ality":0.6,"cost":0.1,"latency":0.9}],"batch":{"outcomes":[{)"
            R"("request_index":0,"satisfied":true,"eligible":true,"workforc)"
            R"(e":0.25,"objective_value":1,"strategies":[0,1]},{"request_in)"
            R"(dex":1,"satisfied":false,"eligible":false,"workforce":0,"obj)"
            R"(ective_value":0,"strategies":[]}],"total_objective":1,"workf)"
            R"(orce_used":0.25,"satisfied":[0],"unsatisfied":[1,2]}},"alter)"
            R"(natives":[{"request_index":1,"result":{"alternative":{"quali)"
            R"(ty":0.75,"cost":0.5,"latency":0.25},"strategies":[3,1],"squa)"
            R"(red_distance":0.125,"distance":0.3333333333333333}}],"adpar_)"
            R"(failures":[2]}})");
}

TEST(CodecGolden, SweepEnvelopes) {
  EXPECT_EQ(json::Dump(Encode(GoldenSweepRequest())),
            R"({"request_id":"sweep-9","targets":[{"id":"t1","thresholds":{)"
            R"("quality":0.7,"cost":0.3,"latency":0.5},"k":2}],"solvers":[")"
            R"(exact","baseline"],"availability":{"kind":"samples","samples)"
            R"(":[0.25,0.75]},"deadline_ms":80})");
  EXPECT_EQ(json::Dump(Encode(GoldenSweepReport())),
            R"({"request_id":"sweep-000002","availability":0.5,"strategy_pa)"
            R"(rams":[{"quality":0.8,"cost":0.2,"latency":0.4}],"outcomes":)"
            R"([{"target_id":"t1","solver":"exact","status":{"code":"OK"},")"
            R"(result":{"alternative":{"quality":0.75,"cost":0.5,"latency":)"
            R"(0.25},"strategies":[3,1],"squared_distance":0.125,"distance")"
            R"(:0.3333333333333333}},{"target_id":"t1","solver":"baseline",)"
            R"("status":{"code":"Infeasible","message":"k > |S|"}}]})");
}

TEST(CodecGolden, StreamEnvelopes) {
  EXPECT_EQ(json::Dump(Encode(GoldenStreamOptions())),
            R"({"availability":{"kind":"named","name":"window-a"},"max_pend)"
            R"(ing":8,"readmit_on_release":false,"objective":"throughput",")"
            R"(aggregation":"sum","policy":"minimal-workforce","recommend_a)"
            R"(lternatives":true,"deadline_ms":12.25,"session_id":"stream-0)"
            R"(00007"})");
  EXPECT_EQ(json::Dump(Encode(api::StreamOptions{})),
            R"({"availability":{"kind":"default"}})");
  EXPECT_EQ(json::Dump(Encode(api::StreamEvent::Arrival(
                {"d1", {0.5, 0.25, 0.75}, 2}))),
            R"({"kind":"arrival","request":{"id":"d1","thresholds":{"qualit)"
            R"(y":0.5,"cost":0.25,"latency":0.75},"k":2}})");
  EXPECT_EQ(json::Dump(Encode(api::StreamEvent::Revocation("d1"))),
            R"({"kind":"revocation","request_id":"d1"})");
  EXPECT_EQ(json::Dump(Encode(api::StreamEvent::Completion("d2"))),
            R"({"kind":"completion","request_id":"d2"})");
  EXPECT_EQ(json::Dump(Encode(api::StreamEvent::AvailabilityChange(
                api::AvailabilitySpec::Fixed(0.75)))),
            R"({"kind":"availability-change","availability":{"kind":"fixed")"
            R"(,"value":0.75}})");
  EXPECT_EQ(json::Dump(Encode(GoldenStreamUpdate(false))),
            R"({"session_id":"stream-000007","kind":"arrival","request_id":)"
            R"("d1","decision":{"kind":"admitted","strategies":[4,2],"workf)"
            R"(orce":0.125},"availability":0.5,"used_workforce":0.125,"acti)"
            R"(ve":1,"pending":0})");
  EXPECT_EQ(json::Dump(Encode(GoldenStreamUpdate(true))),
            R"({"session_id":"stream-000007","kind":"arrival","request_id":)"
            R"("d1","decision":{"kind":"rejected","strategies":[],"workforc)"
            R"(e":0},"alternative":{"alternative":{"quality":0.75,"cost":0.)"
            R"(5,"latency":0.25},"strategies":[3,1],"squared_distance":0.12)"
            R"(5,"distance":0.3333333333333333},"availability":0.5,"used_wo)"
            R"(rkforce":0.125,"active":1,"pending":0})");
}

TEST(CodecGolden, ConfigCatalogAndSpecs) {
  EXPECT_EQ(json::Dump(Encode(GoldenConfig())),
            R"({"batch":{"algorithm":"batchstrat","objective":"throughput",)"
            R"("aggregation":"sum","policy":"minimal-workforce","recommend_)"
            R"(alternatives":true,"adpar_solver":"exact"},"stream":{"max_pe)"
            R"(nding":64,"readmit_on_release":true,"recommend_alternatives")"
            R"(:false},"execution":{"worker_threads":0,"parallel_grain":409)"
            R"(6},"cache":{"snapshot_capacity":16,"shards":4,"availability_)"
            R"(quantum":0.05},"journal":{"path":"trace.journal","record_can)"
            R"(celled":true,"flush_every_record":true,"max_segment_bytes":1)"
            R"(048576,"compact_after_segments":0,"retain_segments":1},"avai)"
            R"(lability":{"kind":"fixed","value":0.5}})");
  EXPECT_EQ(json::Dump(Encode(GoldenCatalog())),
            R"({"strategies":[{"id":"s1","stages":["SEQ-IND-CRO"]},{"id":"s)"
            R"(2","stages":["SEQ-COL-HYB","SIM-COL-CRO"]}],"profiles":[{"qu)"
            R"(ality":{"alpha":0.5,"beta":0.25},"cost":{"alpha":-0.5,"beta")"
            R"(:1},"latency":{"alpha":0.125,"beta":0}},{"quality":{"alpha":)"
            R"(1,"beta":0},"cost":{"alpha":0.25,"beta":0.5},"latency":{"alp)"
            R"(ha":-1,"beta":1}}]})");
  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::Default())),
            R"({"kind":"default"})");
  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::Fixed(0.5))),
            R"({"kind":"fixed","value":0.5})");
  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::FromPmf(
                {{0.25, 0.5}, {0.75, 0.5}}))),
            R"({"kind":"pmf","atoms":[{"value":0.25,"probability":0.5},{"va)"
            R"(lue":0.75,"probability":0.5}]})");
  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::FromSamples(
                {0.2, 0.4, 0.9}))),
            R"({"kind":"samples","samples":[0.2,0.4,0.9]})");
  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::Named("window-a"))),
            R"({"kind":"named","name":"window-a"})");
}

TEST(CodecGolden, JournalRecords) {
  EXPECT_EQ(EncodeConfigRecord(api::ServiceConfig{}),
            R"({"kind":"config","config":{"batch":{"algorithm":"batchstrat")"
            R"(,"objective":"throughput","aggregation":"sum","policy":"mini)"
            R"(mal-workforce","recommend_alternatives":true,"adpar_solver":)"
            R"("exact"},"stream":{"max_pending":64,"readmit_on_release":tru)"
            R"(e,"recommend_alternatives":false},"execution":{"worker_threa)"
            R"(ds":0,"parallel_grain":4096},"cache":{"snapshot_capacity":16)"
            R"(,"shards":4,"availability_quantum":0},"journal":{"path":"",")"
            R"(record_cancelled":true,"flush_every_record":true,"max_segmen)"
            R"(t_bytes":0,"compact_after_segments":0,"retain_segments":1},")"
            R"(availability":{"kind":"fixed","value":0.5}}})");
  EXPECT_EQ(EncodeCatalogRecord(GoldenCatalog()),
            R"({"kind":"catalog","catalog":{"strategies":[{"id":"s1","stage)"
            R"(s":["SEQ-IND-CRO"]},{"id":"s2","stages":["SEQ-COL-HYB","SIM-)"
            R"(COL-CRO"]}],"profiles":[{"quality":{"alpha":0.5,"beta":0.25})"
            R"(,"cost":{"alpha":-0.5,"beta":1},"latency":{"alpha":0.125,"be)"
            R"(ta":0}},{"quality":{"alpha":1,"beta":0},"cost":{"alpha":0.25)"
            R"(,"beta":0.5},"latency":{"alpha":-1,"beta":1}}]}})");
  EXPECT_EQ(EncodeBatchRecord("batch-000001", GoldenBatchRequest(),
                              GoldenBatchReport()),
            R"({"kind":"batch","request_id":"batch-000001","request":{"requ)"
            R"(est_id":"req-1","requests":[{"id":"d1","thresholds":{"qualit)"
            R"(y":0.5,"cost":0.25,"latency":0.75},"k":2},{"id":"d2","thresh)"
            R"(olds":{"quality":0.9,"cost":0.1,"latency":0.3},"k":1}],"avai)"
            R"(lability":{"kind":"fixed","value":0.6},"algorithm":"batchstr)"
            R"(at","objective":"payoff","aggregation":"max","policy":"paper)"
            R"(-max-of-three","recommend_alternatives":false,"adpar_solver")"
            R"(:"exact","deadline_ms":250.5},"status":{"code":"OK"},"report)"
            R"(":{"request_id":"batch-000001","algorithm":"batchstrat","ava)"
            R"(ilability":0.5,"result":{"aggregator":{"availability":0.5,"s)"
            R"(trategy_params":[{"quality":0.8,"cost":0.2,"latency":0.4},{")"
            R"(quality":0.6,"cost":0.1,"latency":0.9}],"batch":{"outcomes":)"
            R"([{"request_index":0,"satisfied":true,"eligible":true,"workfo)"
            R"(rce":0.25,"objective_value":1,"strategies":[0,1]},{"request_)"
            R"(index":1,"satisfied":false,"eligible":false,"workforce":0,"o)"
            R"(bjective_value":0,"strategies":[]}],"total_objective":1,"wor)"
            R"(kforce_used":0.25,"satisfied":[0],"unsatisfied":[1,2]}},"alt)"
            R"(ernatives":[{"request_index":1,"result":{"alternative":{"qua)"
            R"(lity":0.75,"cost":0.5,"latency":0.25},"strategies":[3,1],"sq)"
            R"(uared_distance":0.125,"distance":0.3333333333333333}}],"adpa)"
            R"(r_failures":[2]}}})");
  EXPECT_EQ(EncodeBatchRecord("batch-000002", GoldenBatchRequest(),
                              Status::NotFound("unknown algorithm 'x'")),
            R"({"kind":"batch","request_id":"batch-000002","request":{"requ)"
            R"(est_id":"req-1","requests":[{"id":"d1","thresholds":{"qualit)"
            R"(y":0.5,"cost":0.25,"latency":0.75},"k":2},{"id":"d2","thresh)"
            R"(olds":{"quality":0.9,"cost":0.1,"latency":0.3},"k":1}],"avai)"
            R"(lability":{"kind":"fixed","value":0.6},"algorithm":"batchstr)"
            R"(at","objective":"payoff","aggregation":"max","policy":"paper)"
            R"(-max-of-three","recommend_alternatives":false,"adpar_solver")"
            R"(:"exact","deadline_ms":250.5},"status":{"code":"NotFound","m)"
            R"(essage":"unknown algorithm 'x'"}})");
  EXPECT_EQ(EncodeSweepRecord("sweep-000002", GoldenSweepRequest(),
                              GoldenSweepReport()),
            R"({"kind":"sweep","request_id":"sweep-000002","request":{"requ)"
            R"(est_id":"sweep-9","targets":[{"id":"t1","thresholds":{"quali)"
            R"(ty":0.7,"cost":0.3,"latency":0.5},"k":2}],"solvers":["exact")"
            R"(,"baseline"],"availability":{"kind":"samples","samples":[0.2)"
            R"(5,0.75]},"deadline_ms":80},"status":{"code":"OK"},"report":{)"
            R"("request_id":"sweep-000002","availability":0.5,"strategy_par)"
            R"(ams":[{"quality":0.8,"cost":0.2,"latency":0.4}],"outcomes":[)"
            R"({"target_id":"t1","solver":"exact","status":{"code":"OK"},"r)"
            R"(esult":{"alternative":{"quality":0.75,"cost":0.5,"latency":0)"
            R"(.25},"strategies":[3,1],"squared_distance":0.125,"distance":)"
            R"(0.3333333333333333}},{"target_id":"t1","solver":"baseline",")"
            R"(status":{"code":"Infeasible","message":"k > |S|"}}]}})");
  EXPECT_EQ(EncodeSweepRecord("sweep-000003", GoldenSweepRequest(),
                              Status::DeadlineExceeded(
                                  "ticket sweep-000003 deadline expired "
                                  "before execution")),
            R"({"kind":"sweep","request_id":"sweep-000003","request":{"requ)"
            R"(est_id":"sweep-9","targets":[{"id":"t1","thresholds":{"quali)"
            R"(ty":0.7,"cost":0.3,"latency":0.5},"k":2}],"solvers":["exact")"
            R"(,"baseline"],"availability":{"kind":"samples","samples":[0.2)"
            R"(5,0.75]},"deadline_ms":80},"status":{"code":"DeadlineExceede)"
            R"(d","message":"ticket sweep-000003 deadline expired before ex)"
            R"(ecution"}})");
  EXPECT_EQ(EncodeStatsRecord(GoldenStats()),
            R"({"kind":"stats","stats":{"batches":1,"sweeps":2,"streams_ope)"
            R"(ned":0,"stream_events":0,"stream_reschedules":0,"snapshot_de)"
            R"(lta_updates":0,"snapshot_rebuilds":0,"requests_processed":5,)"
            R"("cancelled":0,"queue_depth":0,"active_workers":0,"steals":0,)"
            R"("local_hits":0,"cache_hits":11,"cache_misses":0,"index_build)"
            R"(_nanos":0,"rejected_requests":0,"retry_after_hints":0,"deadl)"
            R"(ine_exceeded":0,"failovers":0,"hedges_won":22,"k)"
            R"(ernel_dispatch":"scalar"}})");
  EXPECT_EQ(EncodeStatsRecord(GoldenStats(), 42.5),
            R"({"kind":"stats","sim_time":42.5,"stats":{"batches":1,"sweeps)"
            R"(":2,"streams_opened":0,"stream_events":0,"stream_reschedules)"
            R"(":0,"snapshot_delta_updates":0,"snapshot_rebuilds":0,"reques)"
            R"(ts_processed":5,"cancelled":0,"queue_depth":0,"active_worker)"
            R"(s":0,"steals":0,"local_hits":0,"cache_hits":11,"cache_misses)"
            R"(":0,"index_build_nanos":0,"rejected_requests":0,"retry_after)"
            R"(_hints":0,"deadline_exceeded":0,"failovers":0,"h)"
            R"(edges_won":22,"kernel_dispatch":"scalar"}})");

  StreamOpenRecord open;
  open.session_id = "stream-000007";
  open.options = GoldenStreamOptions();
  open.availability = 0.625;
  EXPECT_EQ(EncodeStreamOpenRecord(open),
            R"({"kind":"stream-open","session_id":"stream-000007","options")"
            R"(:{"availability":{"kind":"named","name":"window-a"},"max_pen)"
            R"(ding":8,"readmit_on_release":false,"objective":"throughput",)"
            R"("aggregation":"sum","policy":"minimal-workforce","recommend_)"
            R"(alternatives":true,"deadline_ms":12.25,"session_id":"stream-)"
            R"(000007"},"availability":0.625})");

  StreamEventRecord succeeded;
  succeeded.session_id = "stream-000007";
  succeeded.seq = 3;
  succeeded.event = api::StreamEvent::Arrival({"d1", {0.5, 0.25, 0.75}, 2});
  succeeded.update = GoldenStreamUpdate(false);
  EXPECT_EQ(EncodeStreamEventRecord(succeeded),
            R"({"kind":"stream-event","session_id":"stream-000007","seq":3,)"
            R"("event":{"kind":"arrival","request":{"id":"d1","thresholds":)"
            R"({"quality":0.5,"cost":0.25,"latency":0.75},"k":2}},"status":)"
            R"({"code":"OK"},"update":{"session_id":"stream-000007","kind":)"
            R"("arrival","request_id":"d1","decision":{"kind":"admitted","s)"
            R"(trategies":[4,2],"workforce":0.125},"availability":0.5,"used)"
            R"(_workforce":0.125,"active":1,"pending":0}})");

  StreamEventRecord failed;
  failed.session_id = "stream-000007";
  failed.seq = 4;
  failed.event = api::StreamEvent::Revocation("ghost");
  failed.status = Status::NotFound("unknown request id: ghost");
  EXPECT_EQ(EncodeStreamEventRecord(failed),
            R"({"kind":"stream-event","session_id":"stream-000007","seq":4,)"
            R"("event":{"kind":"revocation","request_id":"ghost"},"status":)"
            R"({"code":"NotFound","message":"unknown request id: ghost"}})");
}

// The exact text of the decode errors /v1/batch returns in its 400 bodies.
TEST(CodecGolden, DecodeErrorMessages) {
  const auto error = [](const std::string& text) {
    auto parsed = json::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return DecodeBatchRequest(*parsed).status().ToString();
  };
  EXPECT_EQ(error(R"({"availability":{"kind":"default"}})"),
            "InvalidArgument: missing field 'requests'");
  EXPECT_EQ(error(R"({"requests":7,"availability":{"kind":"default"}})"),
            "InvalidArgument: field 'requests' must be an array");
  EXPECT_EQ(error(R"([])"),
            "InvalidArgument: batch request must be a JSON object");
  EXPECT_EQ(error(R"({"requests":[],"availability":{"kind":"default"},)"
                  R"("objective":"profit"})"),
            "InvalidArgument: unknown objective 'profit'");
  EXPECT_EQ(error(R"({"requests":[{"id":"d","thresholds":{"quality":0,)"
                  R"("cost":0,"latency":0},"k":3000000000}],)"
                  R"("availability":{"kind":"default"}})"),
            "InvalidArgument: field 'k' must be an integer");
}

TEST(Codec, JsonParserIsStrict) {
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("[1 2]").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("nan").ok());
  EXPECT_FALSE(json::Parse("1e999").ok());  // overflows to infinity
  EXPECT_TRUE(json::Parse(" { \"a\" : [ 1 , true , null ] } ").ok());
}

TEST(Codec, NumbersRoundTripBitExactly) {
  Rng rng(0xC0DEC'0007ull);
  for (int i = 0; i < 1000; ++i) {
    const double value =
        (rng.Uniform() - 0.5) * std::pow(10.0, rng.UniformInt(-300, 300));
    auto parsed = json::Parse(json::FormatNumber(value));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->AsNumber(), value);
  }
  EXPECT_EQ(json::Parse(json::FormatNumber(1.0 / 3.0))->AsNumber(), 1.0 / 3.0);
  EXPECT_EQ(json::FormatNumber(0.5), "0.5");
  EXPECT_EQ(json::FormatNumber(1.0), "1");
}

TEST(Codec, NonFiniteNumbersDumpAsNullNotInvalidJson) {
  // JSON has no NaN literal; a non-finite double must not corrupt the
  // document (one bad value used to make a whole journal unparseable).
  EXPECT_EQ(json::FormatNumber(std::nan("")), "null");
  EXPECT_EQ(json::FormatNumber(1.0 / 0.0), "null");
  json::Value obj = json::Value::Object();
  obj.Add("x", std::nan(""));
  auto reparsed = json::Parse(json::Dump(obj));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->Find("x")->is_null());
  // The loss surfaces as a clean field-level decode error.
  core::ParamVector params{std::nan(""), 0.5, 0.5};
  EXPECT_EQ(DecodeParamVector(*json::Parse(json::Dump(Encode(params))))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Codec, IntegerDecodeRejectsOutOfRangeValues) {
  // Casting an unrepresentable double to int/size_t is UB; a corrupt or
  // hand-edited journal must fail cleanly instead.
  auto request = DecodeDeploymentRequest(*json::Parse(
      "{\"id\":\"d\",\"thresholds\":{\"quality\":0,\"cost\":0,"
      "\"latency\":0},\"k\":1e300}"));
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  auto result = DecodeAdparResult(*json::Parse(
      "{\"alternative\":{\"quality\":0,\"cost\":0,\"latency\":0},"
      "\"strategies\":[1e300],\"squared_distance\":0,\"distance\":0}"));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stratrec::wire
