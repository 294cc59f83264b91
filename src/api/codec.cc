#include "src/api/codec.h"

#include <cmath>
#include <limits>
#include <optional>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/common/journal.h"
#include "src/core/strategy.h"

namespace stratrec::wire {

namespace {

using json::Value;
/// The name of the member being decoded, as decode errors cite it.
using Key = std::string_view;

// Decode errors: every message names the field or the value it rejects.
Status NotAnObject(const char* what) {
  return Status::InvalidArgument(std::string(what) +
                                 " must be a JSON object");
}

Status MissingField(Key key) {
  return Status::InvalidArgument(
      std::string("missing field '").append(key).append("'"));
}

Status WrongType(Key key, const char* expected) {
  return Status::InvalidArgument(
      std::string("field '").append(key).append("' must be ").append(expected));
}

/// Largest double-exact integer (2^53): every size_t the encoder can have
/// emitted lies below it, and casting anything above would be UB.
constexpr double kMaxExactInteger = 9007199254740992.0;

// ---------------------------------------------------------------------------
// Enum wire names: one {value, name} table per enum drives both WireName and
// its parse. The codec owns these names: they are part of the format, so
// renaming an enumerator (or its display name, e.g. StatusCodeName) must not
// change the wire string without a format-version bump.
// ---------------------------------------------------------------------------

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// Per enum: kNoun (as in "unknown <noun> 'x'") and the kNames table.
template <typename E>
struct EnumTable;

#define STRATREC_ENUM_TABLE(Type, noun, ...)                  \
  template <>                                                 \
  struct EnumTable<Type> {                                    \
    using E = Type;                                           \
    static constexpr const char* kNoun = noun;                \
    static constexpr EnumName<Type> kNames[] = {__VA_ARGS__}; \
  }

STRATREC_ENUM_TABLE(core::Objective, "objective",
                    {E::kThroughput, "throughput"}, {E::kPayoff, "payoff"});
STRATREC_ENUM_TABLE(core::AggregationMode, "aggregation mode",
                    {E::kSum, "sum"}, {E::kMax, "max"});
STRATREC_ENUM_TABLE(core::WorkforcePolicy, "workforce policy",
                    {E::kMinimalWorkforce, "minimal-workforce"},
                    {E::kPaperMaxOfThree, "paper-max-of-three"});
STRATREC_ENUM_TABLE(api::AvailabilitySpec::Kind, "availability kind",
                    {E::kDefault, "default"}, {E::kFixed, "fixed"},
                    {E::kPmf, "pmf"}, {E::kSamples, "samples"},
                    {E::kNamed, "named"});
STRATREC_ENUM_TABLE(StatusCode, "status code", {E::kOk, "OK"},
                    {E::kInvalidArgument, "InvalidArgument"},
                    {E::kNotFound, "NotFound"}, {E::kOutOfRange, "OutOfRange"},
                    {E::kFailedPrecondition, "FailedPrecondition"},
                    {E::kInfeasible, "Infeasible"},
                    {E::kCancelled, "Cancelled"}, {E::kInternal, "Internal"},
                    {E::kDeadlineExceeded, "DeadlineExceeded"});
STRATREC_ENUM_TABLE(api::StreamEvent::Kind, "stream event kind",
                    {E::kArrival, "arrival"}, {E::kRevocation, "revocation"},
                    {E::kCompletion, "completion"},
                    {E::kAvailabilityChange, "availability-change"});
STRATREC_ENUM_TABLE(core::AdmissionDecision::Kind, "admission kind",
                    {E::kAdmitted, "admitted"}, {E::kQueued, "queued"},
                    {E::kRejected, "rejected"});

#undef STRATREC_ENUM_TABLE

template <typename E>
const char* WireName(E value) {
  for (const EnumName<E>& entry : EnumTable<E>::kNames) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Field lists: every record-shaped wire type lists its members once, in wire
// order (JSON name, member pointer, presence rule). One generic walk serves
// them all, folding over the list at compile time, so each member costs the
// code a hand-written Add / Find would.
// ---------------------------------------------------------------------------

/// Presence rules. A std::optional member is written only when set and
/// decodes absent as nullopt; every other member follows its rule:
enum class Presence {
  kRequired,   ///< always written; absent on decode is an error
  kOmitUnset,  ///< written only when set (non-empty string, positive
               ///< number), keeping older encodings; absent -> default
  kDefaulted,  ///< always written; absent -> default (newer members)
};

/// A string_view name keeps its length a compile-time constant.
template <typename Owner, typename T, Presence P>
struct Field {
  std::string_view name;
  T Owner::*member;
};

template <Presence P = Presence::kRequired, typename Owner, typename T>
constexpr Field<Owner, T, P> F(std::string_view name, T Owner::*member) {
  return {name, member};
}

/// Per listed type: kFields, plus kWhat, the noun of its "must be a JSON
/// object" error — or nullptr for blocks nested inline in one parent, whose
/// error names the parent's field instead ("field 'x' must be an object").
template <typename T>
struct Wire;

#define STRATREC_WIRE_TYPE(Type, what, ...)                    \
  template <>                                                  \
  struct Wire<Type> {                                          \
    using T = Type;                                            \
    static constexpr const char* kWhat = what;                 \
    static constexpr auto kFields = std::tuple{__VA_ARGS__};   \
  }

constexpr Presence kOmitUnset = Presence::kOmitUnset;

STRATREC_WIRE_TYPE(core::ParamVector, "param vector", F("quality", &T::quality),
                   F("cost", &T::cost), F("latency", &T::latency));
STRATREC_WIRE_TYPE(core::DeploymentRequest, "deployment request",
                   F("id", &T::id), F("thresholds", &T::thresholds),
                   F("k", &T::k));
STRATREC_WIRE_TYPE(core::AdparResult, "adpar result",
                   F("alternative", &T::alternative),
                   F("strategies", &T::strategies),
                   F("squared_distance", &T::squared_distance),
                   F("distance", &T::distance));
STRATREC_WIRE_TYPE(core::LinearModel, nullptr, F("alpha", &T::alpha),
                   F("beta", &T::beta));
STRATREC_WIRE_TYPE(core::StrategyProfile, "catalog profile",
                   F("quality", &T::quality), F("cost", &T::cost),
                   F("latency", &T::latency));
STRATREC_WIRE_TYPE(core::Catalog, "catalog", F("strategies", &T::strategies),
                   F("profiles", &T::profiles));
STRATREC_WIRE_TYPE(stats::PmfAtom, "pmf atom", F("value", &T::value),
                   F("probability", &T::probability));
STRATREC_WIRE_TYPE(api::BatchRequest, "batch request",
                   F<kOmitUnset>("request_id", &T::request_id),
                   F("requests", &T::requests),
                   F("availability", &T::availability),
                   F("algorithm", &T::algorithm), F("objective", &T::objective),
                   F("aggregation", &T::aggregation), F("policy", &T::policy),
                   F("recommend_alternatives", &T::recommend_alternatives),
                   F("adpar_solver", &T::adpar_solver),
                   F<kOmitUnset>("deadline_ms", &T::deadline_ms));
STRATREC_WIRE_TYPE(core::RequestOutcome, "request outcome",
                   F("request_index", &T::request_index),
                   F("satisfied", &T::satisfied), F("eligible", &T::eligible),
                   F("workforce", &T::workforce),
                   F("objective_value", &T::objective_value),
                   F("strategies", &T::strategies));
STRATREC_WIRE_TYPE(core::BatchResult, "batch result",
                   F("outcomes", &T::outcomes),
                   F("total_objective", &T::total_objective),
                   F("workforce_used", &T::workforce_used),
                   F("satisfied", &T::satisfied),
                   F("unsatisfied", &T::unsatisfied));
STRATREC_WIRE_TYPE(core::AggregatorReport, nullptr,
                   F("availability", &T::availability),
                   F("strategy_params", &T::strategy_params),
                   F("batch", &T::batch));
STRATREC_WIRE_TYPE(core::AlternativeRecommendation,
                   "alternative recommendation",
                   F("request_index", &T::request_index),
                   F("result", &T::result));
STRATREC_WIRE_TYPE(core::StratRecReport, "stratrec report",
                   F("aggregator", &T::aggregator),
                   F("alternatives", &T::alternatives),
                   F("adpar_failures", &T::adpar_failures));
STRATREC_WIRE_TYPE(api::BatchReport, "batch report",
                   F("request_id", &T::request_id),
                   F("algorithm", &T::algorithm),
                   F("availability", &T::availability),
                   F("result", &T::result));
STRATREC_WIRE_TYPE(api::SweepRequest, "sweep request",
                   F<kOmitUnset>("request_id", &T::request_id),
                   F("targets", &T::targets), F("solvers", &T::solvers),
                   F("availability", &T::availability),
                   F<kOmitUnset>("deadline_ms", &T::deadline_ms));
STRATREC_WIRE_TYPE(api::SweepReport, "sweep report",
                   F("request_id", &T::request_id),
                   F("availability", &T::availability),
                   F("strategy_params", &T::strategy_params),
                   F("outcomes", &T::outcomes));
STRATREC_WIRE_TYPE(api::StreamOptions, "stream options",
                   F("availability", &T::availability),
                   F("max_pending", &T::max_pending),
                   F("readmit_on_release", &T::readmit_on_release),
                   F("objective", &T::objective),
                   F("aggregation", &T::aggregation), F("policy", &T::policy),
                   F("recommend_alternatives", &T::recommend_alternatives),
                   F<kOmitUnset>("deadline_ms", &T::deadline_ms),
                   F<kOmitUnset>("session_id", &T::session_id));
STRATREC_WIRE_TYPE(core::AdmissionDecision, nullptr, F("kind", &T::kind),
                   F("strategies", &T::strategies),
                   F("workforce", &T::workforce));
STRATREC_WIRE_TYPE(api::BatchDefaults, nullptr, F("algorithm", &T::algorithm),
                   F("objective", &T::objective),
                   F("aggregation", &T::aggregation), F("policy", &T::policy),
                   F("recommend_alternatives", &T::recommend_alternatives),
                   F("adpar_solver", &T::adpar_solver));
STRATREC_WIRE_TYPE(api::StreamDefaults, nullptr,
                   F("max_pending", &T::max_pending),
                   F("readmit_on_release", &T::readmit_on_release),
                   F("recommend_alternatives", &T::recommend_alternatives));
STRATREC_WIRE_TYPE(api::ExecutionConfig, nullptr,
                   F("worker_threads", &T::worker_threads),
                   F("parallel_grain", &T::parallel_grain));
STRATREC_WIRE_TYPE(api::CacheConfig, nullptr,
                   F("snapshot_capacity", &T::snapshot_capacity),
                   F("shards", &T::shards),
                   F("availability_quantum", &T::availability_quantum));
STRATREC_WIRE_TYPE(api::JournalConfig, nullptr, F("path", &T::path),
                   F("record_cancelled", &T::record_cancelled),
                   F("flush_every_record", &T::flush_every_record),
                   F("max_segment_bytes", &T::max_segment_bytes),
                   F("compact_after_segments", &T::compact_after_segments),
                   F("retain_segments", &T::retain_segments));
STRATREC_WIRE_TYPE(api::ServiceConfig, "service config", F("batch", &T::batch),
                   F("stream", &T::stream), F("execution", &T::execution),
                   F("cache", &T::cache), F("journal", &T::journal),
                   F("availability", &T::availability));
#define STRATREC_STATS_FIELD(name, rule) F<Presence::rule>(#name, &T::name),
STRATREC_WIRE_TYPE(api::ServiceStats, "service stats",
                   STRATREC_SERVICE_STATS_COUNTERS(STRATREC_STATS_FIELD)
                       F("kernel_dispatch", &T::kernel_dispatch));
#undef STRATREC_STATS_FIELD

#undef STRATREC_WIRE_TYPE

template <typename T>
concept Listed = requires { Wire<T>::kFields; };

template <typename T>
concept Vector = std::is_same_v<T, std::vector<typename T::value_type>>;

template <typename T>
concept Optional = std::is_same_v<T, std::optional<typename T::value_type>>;

bool IsUnset(const std::string& value) { return value.empty(); }
bool IsUnset(double value) { return !(value > 0.0); }

// The hand-written codecs: tagged unions, a class with accessors, and
// records whose members depend on a status. The walk calls them for their
// types, and they call the walk's helpers in turn.
Value EncodeValue(const Status& status);
Value EncodeValue(const core::StageSpec& stage);
Value EncodeValue(const core::Strategy& strategy);
Value EncodeValue(const api::AvailabilitySpec& spec);
Value EncodeValue(const api::SweepOutcome& outcome);
Value EncodeValue(const api::StreamEvent& event);
Value EncodeValue(const api::StreamUpdate& update);
Status DecodeValue(const Value& value, Key key, Status* out);
Status DecodeValue(const Value& value, Key key, core::StageSpec* out);
Status DecodeValue(const Value& value, Key key, core::Strategy* out);
Status DecodeValue(const Value& value, Key key, api::AvailabilitySpec* out);
Status DecodeValue(const Value& value, Key key, api::SweepOutcome* out);
Status DecodeValue(const Value& value, Key key, api::StreamEvent* out);
Status DecodeValue(const Value& value, Key key, api::StreamUpdate* out);

// ---------------------------------------------------------------------------
// The walk. On decode, `key` names the field being decoded, for errors, and
// DecodeValue may assume *out is default-constructed: DecodeField, DecodeTop
// and the vector loop only ever hand it a fresh value.
// ---------------------------------------------------------------------------

template <typename Owner, typename Fields>
void EncodeFields(const Owner& owner, const Fields& fields, Value* obj);

/// Scalars, enums, vectors and listed types; the overloads above cover the
/// rest.
template <typename T>
Value EncodeValue(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return WireName(value);
  } else if constexpr (Listed<T>) {
    Value obj = Value::Object();
    EncodeFields(value, Wire<T>::kFields, &obj);
    return obj;
  } else if constexpr (Vector<T>) {
    Value array = Value::Array();
    for (const auto& item : value) array.Append(EncodeValue(item));
    return array;
  } else {
    return Value(value);  // double, size_t, int, bool, std::string
  }
}

template <typename Owner, typename T, Presence P>
void EncodeField(const Owner& owner, const Field<Owner, T, P>& field,
                 Value* obj) {
  const T& value = owner.*field.member;
  if constexpr (Optional<T>) {
    if (!value.has_value()) return;
    obj->Add(std::string(field.name), EncodeValue(*value));
  } else {
    if constexpr (P == Presence::kOmitUnset) {
      if (IsUnset(value)) return;
    }
    obj->Add(std::string(field.name), EncodeValue(value));
  }
}

template <typename Owner, typename Fields>
void EncodeFields(const Owner& owner, const Fields& fields, Value* obj) {
  std::apply(
      [&](const auto&... field) { (EncodeField(owner, field, obj), ...); },
      fields);
}

template <typename Owner, typename Fields>
Status DecodeFields(const Value& obj, const Fields& fields, Owner* out);

template <typename T>
Status DecodeValue(const Value& value, Key key, T* out) {
  if constexpr (Optional<T>) {
    return DecodeValue(value, key, &out->emplace());
  } else if constexpr (std::is_enum_v<T>) {
    if (!value.is_string()) return WrongType(key, "a string");
    const std::string& name = value.AsString();
    for (const EnumName<T>& entry : EnumTable<T>::kNames) {
      if (name == entry.name) {
        *out = entry.value;
        return Status::OK();
      }
    }
    return Status::InvalidArgument(std::string("unknown ") +
                                   EnumTable<T>::kNoun + " '" + name + "'");
  } else if constexpr (Listed<T>) {
    if (!value.is_object()) {
      return Wire<T>::kWhat != nullptr ? NotAnObject(Wire<T>::kWhat)
                                       : WrongType(key, "an object");
    }
    return DecodeFields(value, Wire<T>::kFields, out);
  } else if constexpr (Vector<T>) {
    using Item = typename T::value_type;
    if (!value.is_array()) return WrongType(key, "an array");
    out->clear();
    out->reserve(value.items().size());
    for (const Value& item : value.items()) {
      if constexpr (std::is_same_v<Item, std::string>) {
        if (!item.is_string()) return WrongType(key, "strings");
        out->push_back(item.AsString());
      } else if constexpr (std::is_same_v<Item, double>) {
        if (!item.is_number()) return WrongType(key, "numbers");
        out->push_back(item.AsNumber());
      } else {
        Item decoded;
        STRATREC_RETURN_NOT_OK(DecodeValue(item, key, &decoded));
        out->push_back(std::move(decoded));
      }
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.is_string()) return WrongType(key, "a string");
    *out = value.AsString();
  } else if constexpr (std::is_same_v<T, double>) {
    if (!value.is_number()) return WrongType(key, "a number");
    *out = value.AsNumber();
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!value.is_bool()) return WrongType(key, "a boolean");
    *out = value.AsBool();
  } else if constexpr (std::is_same_v<T, size_t>) {
    if (!value.is_number()) return WrongType(key, "a number");
    const double number = value.AsNumber();
    if (number < 0.0 || number > kMaxExactInteger ||
        number != std::floor(number)) {
      return WrongType(key, "a non-negative integer");
    }
    *out = static_cast<size_t>(number);
  } else {
    static_assert(std::is_same_v<T, int>, "no wire codec for this type");
    if (!value.is_number()) return WrongType(key, "an integer");
    const double number = value.AsNumber();
    if (number != std::floor(number) ||
        number < static_cast<double>(std::numeric_limits<int>::min()) ||
        number > static_cast<double>(std::numeric_limits<int>::max())) {
      return WrongType(key, "an integer");
    }
    *out = static_cast<int>(number);
  }
  return Status::OK();
}

/// The member `key` of `obj`, which must be present.
template <typename T>
Status DecodeRequired(const Value& obj, Key key, T* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  return DecodeValue(*member, key, out);
}

/// An absent member keeps the owner's default; a present one decodes from a
/// default-constructed value, whatever default the owner gives it.
template <typename Owner, typename T, Presence P>
Status DecodeField(const Value& obj, const Field<Owner, T, P>& field,
                   Owner* out) {
  const Value* member = obj.Find(field.name);
  if (member == nullptr) {
    return P == Presence::kRequired && !Optional<T> ? MissingField(field.name)
                                                    : Status::OK();
  }
  T value{};
  STRATREC_RETURN_NOT_OK(DecodeValue(*member, field.name, &value));
  out->*field.member = std::move(value);
  return Status::OK();
}

/// Keeps the first error of a fold.
bool Continue(Status status, Status* first_error) {
  if (status.ok()) return true;
  *first_error = std::move(status);
  return false;
}

template <typename Owner, typename Fields>
Status DecodeFields(const Value& obj, const Fields& fields, Owner* out) {
  Status error;
  std::apply(
      [&](const auto&... field) {
        (Continue(DecodeField(obj, field, out), &error) && ...);
      },
      fields);
  return error;
}

template <typename T>
Result<T> DecodeTop(const Value& value) {
  T out;
  STRATREC_RETURN_NOT_OK(DecodeValue(value, {}, &out));
  return out;
}

Value EncodeValue(const Status& status) {
  Value obj = Value::Object();
  obj.Add("code", WireName(status.code()));
  if (!status.message().empty()) obj.Add("message", status.message());
  return obj;
}

Status DecodeValue(const Value& value, Key, Status* out) {
  if (!value.is_object()) return NotAnObject("status");
  StatusCode code = StatusCode::kOk;
  std::string message;
  STRATREC_RETURN_NOT_OK(DecodeRequired(value, "code", &code));
  if (const Value* text = value.Find("message")) {
    STRATREC_RETURN_NOT_OK(DecodeValue(*text, "message", &message));
  }
  *out = Status(code, std::move(message));
  return Status::OK();
}

Value EncodeValue(const core::StageSpec& stage) {
  return core::StageName(stage);
}

Status DecodeValue(const Value& value, Key key, core::StageSpec* out) {
  if (!value.is_string()) return WrongType(key, "stage-name strings");
  auto spec = core::ParseStageName(value.AsString());
  if (!spec.ok()) return spec.status();
  *out = *spec;
  return Status::OK();
}

Value EncodeValue(const core::Strategy& strategy) {
  Value obj = Value::Object();
  obj.Add("id", strategy.id());
  obj.Add("stages", EncodeValue(strategy.stages()));
  return obj;
}

Status DecodeValue(const Value& value, Key, core::Strategy* out) {
  if (!value.is_object()) return NotAnObject("catalog strategy");
  std::string id;
  std::vector<core::StageSpec> stages;
  STRATREC_RETURN_NOT_OK(DecodeRequired(value, "id", &id));
  STRATREC_RETURN_NOT_OK(DecodeRequired(value, "stages", &stages));
  *out = core::Strategy(std::move(id), std::move(stages));
  return Status::OK();
}

// Tagged unions: {"kind": name, plus the one member that kind carries}.
// KindField calls `fn` with the field a kind carries, if any.

template <typename Fn>
void KindField(api::AvailabilitySpec::Kind kind, Fn&& fn) {
  using Spec = api::AvailabilitySpec;
  switch (kind) {
    case Spec::Kind::kDefault:
      return;
    case Spec::Kind::kFixed:
      return fn(F("value", &Spec::value));
    case Spec::Kind::kPmf:
      return fn(F("atoms", &Spec::atoms));
    case Spec::Kind::kSamples:
      return fn(F("samples", &Spec::samples));
    case Spec::Kind::kNamed:
      return fn(F("name", &Spec::name));
  }
}

template <typename Fn>
void KindField(api::StreamEvent::Kind kind, Fn&& fn) {
  using Event = api::StreamEvent;
  switch (kind) {
    case Event::Kind::kArrival:
      return fn(F("request", &Event::request));
    case Event::Kind::kRevocation:
    case Event::Kind::kCompletion:
      return fn(F("request_id", &Event::request_id));
    case Event::Kind::kAvailabilityChange:
      return fn(F("availability", &Event::availability));
  }
}

template <typename Union>
Value EncodeUnion(const Union& value) {
  Value obj = Value::Object();
  obj.Add("kind", WireName(value.kind));
  KindField(value.kind,
            [&](const auto& field) { EncodeField(value, field, &obj); });
  return obj;
}

template <typename Union>
Status DecodeUnion(const Value& value, const char* what, Union* out) {
  if (!value.is_object()) return NotAnObject(what);
  STRATREC_RETURN_NOT_OK(DecodeRequired(value, "kind", &out->kind));
  Status status;
  KindField(out->kind, [&](const auto& field) {
    status = DecodeField(value, field, out);
  });
  return status;
}

Value EncodeValue(const api::AvailabilitySpec& v) { return EncodeUnion(v); }
Value EncodeValue(const api::StreamEvent& v) { return EncodeUnion(v); }

Status DecodeValue(const Value& value, Key, api::AvailabilitySpec* out) {
  return DecodeUnion(value, "availability spec", out);
}

Status DecodeValue(const Value& value, Key, api::StreamEvent* out) {
  return DecodeUnion(value, "stream event", out);
}

/// A sweep cell carries its result only when its status is OK.
constexpr auto kSweepOutcomeHead =
    std::tuple{F("target_id", &api::SweepOutcome::target_id),
               F("solver", &api::SweepOutcome::solver),
               F("status", &api::SweepOutcome::status)};

Value EncodeValue(const api::SweepOutcome& outcome) {
  Value obj = Value::Object();
  EncodeFields(outcome, kSweepOutcomeHead, &obj);
  if (outcome.status.ok()) obj.Add("result", EncodeValue(outcome.result));
  return obj;
}

Status DecodeValue(const Value& value, Key, api::SweepOutcome* out) {
  if (!value.is_object()) return NotAnObject("sweep outcome");
  STRATREC_RETURN_NOT_OK(DecodeFields(value, kSweepOutcomeHead, out));
  if (!out->status.ok()) return Status::OK();
  return DecodeRequired(value, "result", &out->result);
}

/// An update carries its alternative, between the decision and the
/// capacity snapshot, only when it has one.
using Update = api::StreamUpdate;
constexpr auto kUpdateHead =
    std::tuple{F("session_id", &Update::session_id), F("kind", &Update::kind),
               F("request_id", &Update::request_id),
               F("decision", &Update::decision)};
constexpr auto kUpdateTail =
    std::tuple{F("availability", &Update::availability),
               F("used_workforce", &Update::used_workforce),
               F("active", &Update::active), F("pending", &Update::pending)};

Value EncodeValue(const api::StreamUpdate& update) {
  Value obj = Value::Object();
  EncodeFields(update, kUpdateHead, &obj);
  if (update.has_alternative) {
    obj.Add("alternative", EncodeValue(update.alternative));
  }
  EncodeFields(update, kUpdateTail, &obj);
  return obj;
}

Status DecodeValue(const Value& value, Key, api::StreamUpdate* out) {
  if (!value.is_object()) return NotAnObject("stream update");
  STRATREC_RETURN_NOT_OK(DecodeFields(value, kUpdateHead, out));
  if (const Value* alternative = value.Find("alternative")) {
    STRATREC_RETURN_NOT_OK(
        DecodeValue(*alternative, "alternative", &out->alternative));
    out->has_alternative = true;
  }
  return DecodeFields(value, kUpdateTail, out);
}

// Journal records.

constexpr char kKindConfig[] = "config";
constexpr char kKindCatalog[] = "catalog";
constexpr char kKindBatch[] = "batch";
constexpr char kKindSweep[] = "sweep";
constexpr char kKindStats[] = "stats";
constexpr char kKindStreamOpen[] = "stream-open";
constexpr char kKindStreamEvent[] = "stream-event";

constexpr auto kStreamOpenFields =
    std::tuple{F("session_id", &StreamOpenRecord::session_id),
               F("options", &StreamOpenRecord::options),
               F("availability", &StreamOpenRecord::availability)};

/// A stream-event record carries its update only when its status is OK.
constexpr auto kStreamEventHead =
    std::tuple{F("session_id", &StreamEventRecord::session_id),
               F("seq", &StreamEventRecord::seq),
               F("event", &StreamEventRecord::event),
               F("status", &StreamEventRecord::status)};

/// {"kind": kind, ["sim_time": *sim_time,] member: Encode(value)}.
template <typename T>
std::string EncodeWrapped(const char* kind, const char* member, const T& value,
                          const double* sim_time = nullptr) {
  Value record = Value::Object();
  record.Add("kind", kind);
  if (sim_time != nullptr) record.Add("sim_time", *sim_time);
  record.Add(member, EncodeValue(value));
  return json::Dump(record);
}

/// A pair record carries its report only when its status is OK.
template <typename Request, typename Report>
std::string EncodePairRecord(const char* kind, const std::string& request_id,
                             const Request& request,
                             const Result<Report>& outcome) {
  Value record = Value::Object();
  record.Add("kind", kind);
  record.Add("request_id", request_id);
  record.Add("request", EncodeValue(request));
  record.Add("status",
             EncodeValue(outcome.ok() ? Status::OK() : outcome.status()));
  if (outcome.ok()) record.Add("report", EncodeValue(*outcome));
  return json::Dump(record);
}

template <typename Request, typename Report>
Status DecodePair(const Value& record, const PairRecord& pair,
                  Request* request_out, Report* report_out) {
  const Value* request = record.Find("request");
  if (request == nullptr) return MissingField("request");
  const Value* report = record.Find("report");
  if (pair.status.ok() && report == nullptr) return MissingField("report");
  STRATREC_RETURN_NOT_OK(DecodeValue(*request, "request", request_out));
  if (!pair.status.ok()) return Status::OK();
  return DecodeValue(*report, "report", report_out);
}

}  // namespace

json::Value Encode(const Status& v) { return EncodeValue(v); }
json::Value Encode(const core::ParamVector& v) { return EncodeValue(v); }
json::Value Encode(const core::DeploymentRequest& v) { return EncodeValue(v); }
json::Value Encode(const core::AdparResult& v) { return EncodeValue(v); }
json::Value Encode(const core::Catalog& v) { return EncodeValue(v); }
json::Value Encode(const api::AvailabilitySpec& v) { return EncodeValue(v); }
json::Value Encode(const api::BatchRequest& v) { return EncodeValue(v); }
json::Value Encode(const api::BatchReport& v) { return EncodeValue(v); }
json::Value Encode(const api::SweepRequest& v) { return EncodeValue(v); }
json::Value Encode(const api::SweepReport& v) { return EncodeValue(v); }
json::Value Encode(const api::StreamOptions& v) { return EncodeValue(v); }
json::Value Encode(const api::StreamEvent& v) { return EncodeValue(v); }
json::Value Encode(const api::StreamUpdate& v) { return EncodeValue(v); }
json::Value Encode(const api::ServiceConfig& v) { return EncodeValue(v); }
json::Value Encode(const api::ServiceStats& v) { return EncodeValue(v); }

Status DecodeStatus(const json::Value& value, Status* out) {
  return DecodeValue(value, {}, out);
}

#define STRATREC_DECODER(Type, Name)              \
  Result<Type> Name(const json::Value& value) {   \
    return DecodeTop<Type>(value);                \
  }
STRATREC_DECODER(core::ParamVector, DecodeParamVector)
STRATREC_DECODER(core::DeploymentRequest, DecodeDeploymentRequest)
STRATREC_DECODER(core::AdparResult, DecodeAdparResult)
STRATREC_DECODER(core::Catalog, DecodeCatalog)
STRATREC_DECODER(api::AvailabilitySpec, DecodeAvailabilitySpec)
STRATREC_DECODER(api::BatchRequest, DecodeBatchRequest)
STRATREC_DECODER(api::BatchReport, DecodeBatchReport)
STRATREC_DECODER(api::SweepRequest, DecodeSweepRequest)
STRATREC_DECODER(api::SweepReport, DecodeSweepReport)
STRATREC_DECODER(api::StreamOptions, DecodeStreamOptions)
STRATREC_DECODER(api::StreamEvent, DecodeStreamEvent)
STRATREC_DECODER(api::StreamUpdate, DecodeStreamUpdate)
STRATREC_DECODER(api::ServiceConfig, DecodeServiceConfig)
STRATREC_DECODER(api::ServiceStats, DecodeServiceStats)
#undef STRATREC_DECODER

std::string EncodeConfigRecord(const api::ServiceConfig& config) {
  return EncodeWrapped(kKindConfig, "config", config);
}

std::string EncodeCatalogRecord(const core::Catalog& catalog) {
  return EncodeWrapped(kKindCatalog, "catalog", catalog);
}

std::string EncodeBatchRecord(const std::string& request_id,
                              const api::BatchRequest& request,
                              const Result<api::BatchReport>& outcome) {
  return EncodePairRecord(kKindBatch, request_id, request, outcome);
}

std::string EncodeSweepRecord(const std::string& request_id,
                              const api::SweepRequest& request,
                              const Result<api::SweepReport>& outcome) {
  return EncodePairRecord(kKindSweep, request_id, request, outcome);
}

std::string EncodeStatsRecord(const api::ServiceStats& stats) {
  return EncodeWrapped(kKindStats, "stats", stats);
}

std::string EncodeStatsRecord(const api::ServiceStats& stats,
                              double sim_time) {
  return EncodeWrapped(kKindStats, "stats", stats, &sim_time);
}

std::string EncodeStreamOpenRecord(const StreamOpenRecord& open) {
  Value record = Value::Object();
  record.Add("kind", kKindStreamOpen);
  EncodeFields(open, kStreamOpenFields, &record);
  return json::Dump(record);
}

std::string EncodeStreamEventRecord(const StreamEventRecord& record_in) {
  Value record = Value::Object();
  record.Add("kind", kKindStreamEvent);
  EncodeFields(record_in, kStreamEventHead, &record);
  if (record_in.status.ok()) {
    record.Add("update", EncodeValue(record_in.update));
  }
  return json::Dump(record);
}

Result<JournalTrace> DecodeTrace(const std::vector<std::string>& records) {
  JournalTrace trace;
  size_t line_number = 1;  // header is line 1; records start at 2
  for (const std::string& line : records) {
    ++line_number;
    auto parsed = json::Parse(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          "journal record on line " + std::to_string(line_number) + ": " +
          parsed.status().message());
    }
    if (!parsed->is_object()) return NotAnObject("journal record");
    std::string kind;
    STRATREC_RETURN_NOT_OK(DecodeRequired(*parsed, "kind", &kind));

    if (kind == kKindConfig) {
      trace.config = api::ServiceConfig{};
      STRATREC_RETURN_NOT_OK(DecodeRequired(*parsed, "config", &trace.config));
      trace.has_config = true;
    } else if (kind == kKindCatalog) {
      trace.catalog = core::Catalog{};
      STRATREC_RETURN_NOT_OK(
          DecodeRequired(*parsed, "catalog", &trace.catalog));
      trace.has_catalog = true;
    } else if (kind == kKindBatch || kind == kKindSweep) {
      PairRecord pair;
      pair.kind = kind == kKindBatch ? PairRecord::Kind::kBatch
                                     : PairRecord::Kind::kSweep;
      STRATREC_RETURN_NOT_OK(
          DecodeRequired(*parsed, "request_id", &pair.request_id));
      STRATREC_RETURN_NOT_OK(DecodeRequired(*parsed, "status", &pair.status));
      STRATREC_RETURN_NOT_OK(
          pair.kind == PairRecord::Kind::kBatch
              ? DecodePair(*parsed, pair, &pair.batch_request,
                           &pair.batch_report)
              : DecodePair(*parsed, pair, &pair.sweep_request,
                           &pair.sweep_report));
      trace.pairs.push_back(std::move(pair));
    } else if (kind == kKindStats) {
      StatsRecord checkpoint;
      STRATREC_RETURN_NOT_OK(
          DecodeRequired(*parsed, "stats", &checkpoint.stats));
      if (parsed->Find("sim_time") != nullptr) {
        STRATREC_RETURN_NOT_OK(
            DecodeRequired(*parsed, "sim_time", &checkpoint.sim_time));
        checkpoint.has_sim_time = true;
      }
      trace.stats.push_back(std::move(checkpoint));
    } else if (kind == kKindStreamOpen) {
      StreamOpenRecord open;
      STRATREC_RETURN_NOT_OK(DecodeFields(*parsed, kStreamOpenFields, &open));
      trace.stream_opens.push_back(std::move(open));
    } else if (kind == kKindStreamEvent) {
      StreamEventRecord record;
      STRATREC_RETURN_NOT_OK(DecodeFields(*parsed, kStreamEventHead, &record));
      if (record.status.ok()) {
        STRATREC_RETURN_NOT_OK(
            DecodeRequired(*parsed, "update", &record.update));
      }
      trace.stream_events.push_back(std::move(record));
    } else {
      return Status::InvalidArgument(
          "unknown journal record kind '" + kind + "' on line " +
          std::to_string(line_number));
    }
  }
  return trace;
}

Result<JournalTrace> ReadTraceFile(const std::string& path) {
  // Segment-rotation aware: a single-file journal reads as a one-segment
  // chain, a rotated one concatenates `<path>`, `<path>.1`, ... in order.
  auto records = JournalReader::ReadAllSegments(path);
  if (!records.ok()) return records.status();
  return DecodeTrace(*records);
}

std::vector<std::string> CompactRecords(
    const std::vector<std::string>& records) {
  // Single pass, line-level: no decode of record payloads — only the kind
  // discriminant is parsed, so compaction cost is O(bytes), not O(solves).
  std::string last_config;
  std::string last_catalog;
  std::string last_stats;
  std::vector<std::string> kept;  // stream-opens + unrecognized, in order
  for (const std::string& line : records) {
    auto parsed = json::Parse(line);
    std::string kind;
    if (!parsed.ok() || !parsed->is_object() ||
        !DecodeRequired(*parsed, "kind", &kind).ok()) {
      // Not a record this codec understands; keep it verbatim rather than
      // silently destroying data (the reader will report it exactly as it
      // would have before compaction).
      kept.push_back(line);
      continue;
    }
    if (kind == kKindConfig) {
      last_config = line;
    } else if (kind == kKindCatalog) {
      last_catalog = line;
    } else if (kind == kKindStats) {
      last_stats = line;
    } else if (kind == kKindStreamOpen) {
      kept.push_back(line);
    } else if (kind == kKindBatch || kind == kKindSweep ||
               kind == kKindStreamEvent) {
      // Replayed-out history: dropping a pair loses nothing a compacted
      // chain promises, and dropping a session's event prefix is what the
      // replay-side seq-gap detection exists for.
    } else {
      kept.push_back(line);
    }
  }
  std::vector<std::string> folded;
  folded.reserve(kept.size() + 3);
  if (!last_config.empty()) folded.push_back(std::move(last_config));
  if (!last_catalog.empty()) folded.push_back(std::move(last_catalog));
  for (std::string& line : kept) folded.push_back(std::move(line));
  if (!last_stats.empty()) folded.push_back(std::move(last_stats));
  return folded;
}

}  // namespace stratrec::wire
