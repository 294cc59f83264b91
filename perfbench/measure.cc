// perfbench_measure — the measuring half of the repository benchmark.
//
// One invocation runs one workload once and prints, as the last line of
// stdout, a raw JSON record (per-operation latencies and outcome codes,
// set-up times, CPU and memory figures, correctness checks, or the spans
// of a traced run). perfbench/run.py turns that record into the named
// metrics; see perfbench/README.md for the workloads and the metrics.
//
//   perfbench_measure --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--run-dir <dir>]
//
// Workloads (closed loop: every client waits for its reply):
//   http-full-20k     HTTP keep-alive to a 2-shard ShardRouter over 20k
//                     strategies, default ServiceConfig, batch:sweep 3:1.
//   http-lean-100k    the same stack over 100k strategies, batches only,
//                     recommend_alternatives = false.
//   stream-churn-20k  journaled Service::OpenStream sessions over 20k
//                     strategies, one per client thread.
//
// Every input is generated before timing starts. The catalog and the
// stream request shapes are the platform's configuration, not traffic, so
// they come from a fixed seed; HTTP requests and stream event schedules
// come from --seed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/replay.h"
#include "src/api/service.h"
#include "src/common/journal.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/core/kernels/kernels.h"
#include "src/net/http_client.h"
#include "src/net/serving.h"
#include "src/router/shard_router.h"
#include "src/workload/generators.h"

namespace {

namespace api = stratrec::api;
namespace core = stratrec::core;
namespace json = stratrec::json;
namespace net = stratrec::net;
namespace wire = stratrec::wire;
namespace workload = stratrec::workload;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kCatalogSeed = 0xCA7A'1065ull;
/// Samples a run needs so that p99 has at least ten samples beyond it
/// (1000), with a margin for failed operations, which are not samples.
constexpr size_t kMinSamples = 1010;
/// Distinct request bodies per HTTP client; every one is identity-checked.
constexpr size_t kBodiesPerClient = 100;
/// Requests per client and second that its log is prefaulted for: several
/// times the ~50-120 measured on a 4-vCPU x86-64 VM. A faster run's log
/// grows past it, by 13 bytes a request.
constexpr double kHttpOpsPerSecond = 1000.0;
/// Set-ups timed per run: the last before the timed phase is the stack it
/// measures, and the rest come after it. Each but the first waits
/// kSetupPause first. The shared host's speed for this allocation-heavy
/// work switches between levels every second or so; spacing the set-ups
/// out samples many of those states instead of one or two.
constexpr size_t kSetupsBefore = 8;
constexpr size_t kSetupsAfter = 7;
constexpr auto kSetupPause = std::chrono::milliseconds(300);
/// Stretches of the timed phase whose peak RSS is read separately.
constexpr double kRssStretches = 10;
/// Client threads of a timed run (a traced run uses one). Two leave the
/// server's pools most of the machine's 4 hardware threads.
constexpr size_t kClients = 2;

/// Outcome codes of one operation (run.py counts every non-zero code as
/// a failure and an SLO miss).
enum Code : int {
  kOk = 0,
  kHttpError = 1,    // any non-200 response, refusals (429) included
  kTransport = 2,    // connect/send/receive failure
  kStatusError = 3,  // non-OK Status from an in-process call
  kIdentity = 4,     // a 200 body that differs from the unsharded Service
  kReplay = 5,       // a stream event whose journal replay diverged
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(stratrec::Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(*result);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// A numeric field of /proc/self/status ("VmHWM", "Threads"); 0 if absent.
size_t ProcStatus(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

/// Resets the VmHWM high-water mark to the current RSS, so the peak read
/// after the timed phase covers only that phase.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

/// Hands memory freed by earlier set-ups and input generation back to the
/// OS, so that each set-up starts cold, as in a fresh process, and the
/// peak RSS of the timed phase holds no leftovers.
void ReleaseFreedMemory() { malloc_trim(0); }

template <typename T>
json::Value Numbers(const std::vector<T>& values) {
  json::Value array = json::Value::Array();
  for (T v : values) array.Append(static_cast<double>(v));
  return array;
}

template <typename T>
json::Value Integers(const std::vector<T>& values) {
  json::Value array = json::Value::Array();
  for (T v : values) array.Append(static_cast<size_t>(v));
  return array;
}

core::Catalog MakeCatalog(size_t strategies) {
  workload::Generator generator({}, kCatalogSeed);
  return api::CatalogFromProfiles(
      generator.Profiles(static_cast<int>(strategies)));
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Per-operation log of one client thread. Compact (13 bytes an
/// operation), because the stream workload logs ~10^4 events a second.
struct OpLog {
  std::vector<float> ms;
  std::vector<float> end_ms;  // completion time since the timed start
  std::vector<uint32_t> bytes;
  std::vector<uint8_t> code;

  void Add(double latency, Code outcome, size_t size, double end) {
    ms.push_back(static_cast<float>(latency));
    end_ms.push_back(static_cast<float>(end));
    bytes.push_back(static_cast<uint32_t>(size));
    code.push_back(static_cast<uint8_t>(outcome));
  }
  /// Makes room for `n` operations and touches it, so that logging them
  /// does not grow the RSS the run measures.
  void Prefault(size_t n) {
    ms.resize(n);
    end_ms.resize(n);
    bytes.resize(n);
    code.resize(n);
    ms.clear();
    end_ms.clear();
    bytes.clear();
    code.clear();
  }
  /// Bytes the log holds allocated.
  size_t CapacityBytes() const {
    return ms.capacity() * sizeof(float) + end_ms.capacity() * sizeof(float) +
           bytes.capacity() * sizeof(uint32_t) + code.capacity();
  }
  void Append(const OpLog& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    end_ms.insert(end_ms.end(), other.end_ms.begin(), other.end_ms.end());
    bytes.insert(bytes.end(), other.bytes.begin(), other.bytes.end());
    code.insert(code.end(), other.code.begin(), other.code.end());
  }
  json::Value ToJson() const {
    json::Value out = json::Value::Object();
    out.Add("latency_ms", Numbers(ms));
    out.Add("end_ms", Numbers(end_ms));
    out.Add("bytes", Integers(bytes));
    out.Add("code", Integers(code));
    return out;
  }
};

/// Counts a client thread finished when it leaves its loop, however it
/// leaves.
struct FinishGuard {
  std::atomic<size_t>* finished;
  ~FinishGuard() { finished->fetch_add(1); }
};

/// The closed-loop stop rule shared by every timed phase: run for
/// `seconds`, extended (up to 3x) until the run holds kMinSamples.
struct StopRule {
  Clock::time_point soft;
  Clock::time_point hard;
  std::atomic<size_t> done{0};

  explicit StopRule(double seconds) {
    const auto start = Clock::now();
    const auto span = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    soft = start + span;
    hard = start + 3 * span;
  }
  bool ShouldStop() const {
    const auto now = Clock::now();
    return now >= hard || (now >= soft && done.load() >= kMinSamples);
  }
};

/// What the watcher thread of a timed phase saw.
struct Watch {
  /// Peak RSS in kB of each stretch (VmHWM, reset at every stretch start).
  std::vector<size_t> peak_rss_kb;
  /// (ms since the timed start, process CPU seconds) every kSampleMs.
  std::vector<std::pair<double, double>> cpu;

  void Take(Clock::time_point wall_start) {
    cpu.emplace_back(Ms(Clock::now() - wall_start), CpuSeconds());
  }

  json::Value CpuJson() const {
    json::Value out = json::Value::Array();
    for (const auto& [ms, cpu_s] : cpu) {
      json::Value row = json::Value::Array();
      row.Append(ms);
      row.Append(cpu_s);
      out.Append(std::move(row));
    }
    return out;
  }
};

constexpr int kSampleMs = 100;

/// Watches a timed phase that started at `wall_start` until `finished`
/// reaches `clients`: samples process CPU time every kSampleMs and cuts
/// the phase into stretches of `stretch_s` seconds whose peak RSS is read
/// separately. run.py reports the median stretch, so one allocator outlier
/// does not decide a run's figure. `buffer_bytes` are the benchmark's own
/// buffers (operation logs and stream schedules), touched before the phase
/// and resident throughout it; they are subtracted from every reading, so
/// the peak is that of the system under test.
Watch WatchTimedPhase(Clock::time_point wall_start, double stretch_s,
                      const std::atomic<size_t>& finished, size_t clients,
                      size_t buffer_bytes) {
  const size_t buffer_kb = buffer_bytes / 1024;
  const auto peak_kb = [buffer_kb]() {
    return ProcStatus("VmHWM") - buffer_kb;
  };
  Watch watch;
  const auto stretch = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(stretch_s));
  const auto tick = std::chrono::milliseconds(kSampleMs);
  auto next_stretch = wall_start + stretch;
  auto next_sample = wall_start;
  while (finished.load() < clients) {
    const auto now = Clock::now();
    if (now >= next_sample) {
      watch.Take(wall_start);
      next_sample += tick;
    }
    if (now >= next_stretch) {
      watch.peak_rss_kb.push_back(peak_kb());
      ResetPeakRss();
      next_stretch += stretch;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watch.Take(wall_start);
  watch.peak_rss_kb.push_back(peak_kb());
  return watch;
}

// ---------------------------------------------------------------------------
// Spans of a traced run: kept in memory, written out at the end.
// ---------------------------------------------------------------------------
struct Span {
  size_t op;
  const char* name;
  double start_ms;
  double end_ms;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Times `fn` as span `name` of operation `op`.
  template <typename Fn>
  auto Time(size_t op, const char* name, Fn&& fn) {
    const double start = Now();
    auto result = fn();
    spans_.push_back({op, name, start, Now()});
    return result;
  }

  json::Value ToJson() const {
    json::Value out = json::Value::Array();
    for (const Span& span : spans_) {
      json::Value row = json::Value::Array();
      row.Append(span.op);
      row.Append(span.name);
      row.Append(span.start_ms);
      row.Append(span.end_ms);
      out.Append(std::move(row));
    }
    return out;
  }

 private:
  double Now() const { return Ms(Clock::now() - origin_); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// HTTP workloads.
// ---------------------------------------------------------------------------
struct HttpWorkload {
  const char* name;
  size_t strategies;
  bool lean;  // batches only, recommend_alternatives = false
};

constexpr HttpWorkload kHttpFull{"http-full-20k", 20'000, false};
constexpr HttpWorkload kHttpLean{"http-lean-100k", 100'000, true};

struct HttpOp {
  bool is_sweep = false;
  const char* target = "/v1/batch";
  api::BatchRequest batch;
  api::SweepRequest sweep;
  std::string body;
};

/// What a client saw for one pool entry (the first time it got a 200),
/// checked against the unsharded Service after the timed phase.
struct Seen {
  bool seen = false;
  size_t hash = 0;
  size_t size = 0;
  size_t op = 0;  // index into the client's OpLog
};

std::vector<HttpOp> MakeHttpPool(const HttpWorkload& w, uint64_t seed,
                                 size_t client) {
  workload::Generator generator({}, Mix(seed, client));
  std::vector<HttpOp> pool(kBodiesPerClient);
  for (size_t j = 0; j < pool.size(); ++j) {
    HttpOp& op = pool[j];
    const std::string id = std::string(w.name) + "-c" +
                           std::to_string(client) + "-" + std::to_string(j);
    op.is_sweep = !w.lean && j % 4 == 3;
    if (op.is_sweep) {
      op.target = "/v1/sweep";
      op.sweep.targets = generator.RequestsWithRanges(
          4, 4, {0.60, 0.95}, {0.40, 0.9}, {0.40, 0.9});
      op.sweep.availability = api::AvailabilitySpec::Fixed(0.5);
      op.sweep.request_id = id;
      op.body = json::Dump(wire::Encode(op.sweep));
    } else {
      op.batch.requests = generator.RequestsWithRanges(
          8, 6, {0.50, 0.80}, {0.60, 1.0}, {0.60, 1.0});
      op.batch.availability = api::AvailabilitySpec::Fixed(0.5);
      op.batch.aggregation = core::AggregationMode::kMax;
      if (w.lean) op.batch.recommend_alternatives = false;
      op.batch.request_id = id;
      op.body = json::Dump(wire::Encode(op.batch));
    }
  }
  return pool;
}

stratrec::RouterConfig HttpRouterConfig() {
  stratrec::RouterConfig config;
  config.shards = 2;
  return config;
}

struct HttpStack {
  std::optional<stratrec::ShardRouter> router;
  std::optional<net::HttpServer> server;
  std::vector<net::HttpClient> clients;

  HttpStack() = default;
  HttpStack(const HttpStack&) = delete;
  HttpStack& operator=(const HttpStack&) = delete;
  ~HttpStack() { TearDown(); }

  void TearDown() {
    clients.clear();
    if (server) server->Stop();
    server.reset();
    router.reset();
  }
};

stratrec::Result<net::HttpResponse> Post(net::HttpClient* client,
                                         const HttpOp& op) {
  return client->PostJson(op.target, op.body);
}

/// Catalog generation, router creation, server start, one connection per
/// client, and a warm-up batch (and sweep) per client — which builds the
/// first per-W snapshot. Fills the (torn-down) `stack`; returns seconds.
double SetUpHttp(const HttpWorkload& w,
                 const std::vector<std::vector<HttpOp>>& pools,
                 HttpStack* out) {
  const auto start = Clock::now();
  HttpStack& stack = *out;
  stack.router = Must(stratrec::ShardRouter::Create(
                          MakeCatalog(w.strategies), HttpRouterConfig()),
                      "router setup");
  stack.server = Must(net::StartServing(*stack.router), "server setup");
  for (size_t c = 0; c < pools.size(); ++c) {
    stack.clients.push_back(Must(
        net::HttpClient::Connect("127.0.0.1", stack.server->port()),
        "connect"));
  }
  for (size_t c = 0; c < pools.size(); ++c) {
    for (size_t j = 0; j < std::min<size_t>(4, pools[c].size()); ++j) {
      if (j != 0 && !pools[c][j].is_sweep) continue;
      auto response = Post(&stack.clients[c], pools[c][j]);
      if (!response.ok() || response->status_code != 200) {
        Fail("warm-up request failed");
      }
    }
  }
  return Seconds(Clock::now() - start);
}

/// Encodes what the unsharded Service answers for `op` — the reference
/// every HTTP body must match byte for byte.
std::string ReferenceBody(const api::Service& service, const HttpOp& op) {
  if (op.is_sweep) {
    return json::Dump(
        wire::Encode(Must(service.RunSweep(op.sweep), "reference sweep")));
  }
  return json::Dump(
      wire::Encode(Must(service.SubmitBatch(op.batch), "reference batch")));
}

json::Value Provenance(uint64_t seed, size_t clients, size_t strategies) {
  namespace kernels = stratrec::core::kernels;
  json::Value out = json::Value::Object();
  out.Add("seed", std::to_string(seed));
  out.Add("client_threads", clients);
  out.Add("hardware_threads",
          static_cast<size_t>(std::thread::hardware_concurrency()));
  out.Add("kernel_dispatch",
          kernels::DispatchLevelName(kernels::ActiveDispatchLevel()));
  out.Add("compiler_flags", kernels::CompileFlags());
  out.Add("strategies", strategies);
  return out;
}

json::Value RunHttpTimed(const HttpWorkload& w, uint64_t seed,
                         double seconds, size_t clients) {
  std::vector<std::vector<HttpOp>> pools;
  for (size_t c = 0; c < clients; ++c) {
    pools.push_back(MakeHttpPool(w, seed, c));
  }

  // Set up several times and keep the last stack; the earlier ones are
  // torn down first, so they do not add to the memory in use.
  std::vector<double> setup_s;
  HttpStack stack;
  const auto set_up = [&]() {
    stack.TearDown();
    ReleaseFreedMemory();
    if (!setup_s.empty()) std::this_thread::sleep_for(kSetupPause);
    setup_s.push_back(SetUpHttp(w, pools, &stack));
  };
  for (size_t i = 0; i < kSetupsBefore; ++i) set_up();

  std::vector<OpLog> logs(clients);
  size_t buffer_bytes = 0;
  for (OpLog& log : logs) {
    log.Prefault(static_cast<size_t>(seconds * kHttpOpsPerSecond));
    buffer_bytes += log.CapacityBytes();
  }
  std::vector<std::vector<Seen>> seen(clients,
                                      std::vector<Seen>(kBodiesPerClient));
  ReleaseFreedMemory();
  const bool rss_reset = ResetPeakRss();
  const auto wall_start = Clock::now();
  StopRule stop(seconds);
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      FinishGuard guard{&finished};
      net::HttpClient* client = &stack.clients[c];
      std::optional<net::HttpClient> reconnected;
      for (size_t i = 0; !stop.ShouldStop(); ++i) {
        const size_t entry = i % pools[c].size();
        const HttpOp& op = pools[c][entry];
        const auto start = Clock::now();
        auto response = Post(client, op);
        const auto end = Clock::now();
        const double ms = Ms(end - start);
        const double end_ms = Ms(end - wall_start);
        stop.done.fetch_add(1);
        if (!response.ok()) {
          logs[c].Add(ms, kTransport, 0, end_ms);
          auto fresh =
              net::HttpClient::Connect("127.0.0.1", stack.server->port());
          if (!fresh.ok()) return;
          reconnected.emplace(std::move(*fresh));
          client = &*reconnected;
          continue;
        }
        const Code code = response->status_code == 200 ? kOk : kHttpError;
        if (code == kOk && !seen[c][entry].seen) {
          seen[c][entry] = {true,
                            std::hash<std::string_view>{}(response->body),
                            response->body.size(), logs[c].ms.size()};
        }
        logs[c].Add(ms, code, response->body.size(), end_ms);
      }
    });
  }
  const Watch watch = WatchTimedPhase(wall_start, seconds / kRssStretches,
                                      finished, clients, buffer_bytes);
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < kSetupsAfter; ++i) set_up();
  stack.TearDown();

  // Identity gate, after the timed phase so the reference Service never
  // counts in the peak: every distinct body a client received must be
  // byte-identical to the unsharded Service's encoding.
  auto reference = Must(api::Service::Create(MakeCatalog(w.strategies),
                                             HttpRouterConfig().service),
                        "reference setup");
  std::atomic<size_t> checked{0};
  std::atomic<size_t> mismatched{0};
  std::vector<std::thread> checkers;
  for (size_t c = 0; c < clients; ++c) {
    checkers.emplace_back([&, c]() {
      for (size_t j = 0; j < kBodiesPerClient; ++j) {
        Seen& s = seen[c][j];
        if (!s.seen) continue;
        const std::string expected = ReferenceBody(reference, pools[c][j]);
        checked.fetch_add(1);
        if (expected.size() != s.size ||
            std::hash<std::string_view>{}(expected) != s.hash) {
          mismatched.fetch_add(1);
          logs[c].code[s.op] = kIdentity;
          std::fprintf(stderr, "identity: %s diverged from the unsharded "
                               "Service\n",
                       pools[c][j].is_sweep
                           ? pools[c][j].sweep.request_id.c_str()
                           : pools[c][j].batch.request_id.c_str());
        }
      }
    });
  }
  for (std::thread& thread : checkers) thread.join();

  OpLog all;
  for (const OpLog& log : logs) all.Append(log);
  json::Value out = json::Value::Object();
  out.Add("setup_s", Numbers(setup_s));
  out.Add("peak_rss_kb", Integers(watch.peak_rss_kb));
  out.Add("cpu_samples", watch.CpuJson());
  out.Add("rss_reset", rss_reset);
  out.Add("ops", all.ToJson());
  json::Value identity = json::Value::Object();
  identity.Add("checked", checked.load());
  identity.Add("mismatched", mismatched.load());
  out.Add("identity", std::move(identity));
  return out;
}

/// The traced HTTP pass: one client, serial. First an untraced loop, then
/// the same operations with every layer call timed separately.
json::Value TraceHttp(const HttpWorkload& w, uint64_t seed, double budget_s,
                      size_t max_ops) {
  std::vector<std::vector<HttpOp>> pools{MakeHttpPool(w, seed, 0)};
  HttpStack stack;
  SetUpHttp(w, pools, &stack);
  const size_t threads = ProcStatus("Threads");
  const std::vector<HttpOp>& pool = pools[0];
  net::HttpClient& client = stack.clients[0];
  const stratrec::ShardRouter& router = *stack.router;
  auto reference = Must(api::Service::Create(MakeCatalog(w.strategies),
                                             HttpRouterConfig().service),
                        "reference setup");

  std::vector<double> untraced;
  const auto untraced_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.4 * budget_s));
  for (size_t i = 0; i < max_ops && Clock::now() < untraced_end; ++i) {
    const auto start = Clock::now();
    auto response = Post(&client, pool[i % pool.size()]);
    untraced.push_back(Ms(Clock::now() - start));
    if (!response.ok() || response->status_code != 200) {
      Fail("untraced request failed");
    }
  }

  Tracer tracer;
  std::vector<double> bytes;
  const api::ServiceStats before = router.stats();
  const auto traced_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.6 * budget_s));
  size_t ops = 0;
  for (; ops < max_ops && (ops < 8 || Clock::now() < traced_end); ++ops) {
    const HttpOp& op = pool[ops % pool.size()];
    auto response =
        tracer.Time(ops, "net.rtt", [&] { return Post(&client, op); });
    if (!response.ok() || response->status_code != 200) {
      Fail("traced request failed");
    }
    // Re-runs the server's stages in process, one span per layer call,
    // and checks both encodings against the body the client received.
    const auto layers = [&](auto decode, auto solve_router,
                            auto solve_service) {
      auto request = tracer.Time(ops, "codec.decode", [&] {
        return Must(decode(Must(json::Parse(op.body), "parse")), "decode");
      });
      auto report = tracer.Time(ops, "router.solve", [&] {
        return Must(solve_router(request), "router solve");
      });
      auto expected = tracer.Time(ops, "service.solve", [&] {
        return Must(solve_service(request), "service solve");
      });
      auto value = tracer.Time(ops, "codec.encode",
                               [&] { return wire::Encode(report); });
      const std::string dumped =
          tracer.Time(ops, "codec.dump", [&] { return json::Dump(value); });
      return dumped == response->body &&
             json::Dump(wire::Encode(expected)) == response->body;
    };
    const bool identical =
        op.is_sweep
            ? layers(wire::DecodeSweepRequest,
                     [&](const auto& r) { return router.RunSweep(r); },
                     [&](const auto& r) { return reference.RunSweep(r); })
            : layers(wire::DecodeBatchRequest,
                     [&](const auto& r) { return router.SubmitBatch(r); },
                     [&](const auto& r) { return reference.SubmitBatch(r); });
    if (!identical) {
      Fail("traced body diverged from the unsharded Service");
    }
    bytes.push_back(
        static_cast<double>(op.body.size() + response->body.size()));
  }
  const api::ServiceStats after = router.stats();

  // Cold solve: a first batch at a W the reference Service has not seen,
  // minus the same batch again once its snapshot is cached.
  std::vector<double> cold_minus_warm;
  const HttpOp& first = pool[0];
  for (size_t j = 0; j < 5; ++j) {
    api::BatchRequest request = first.batch;
    request.availability =
        api::AvailabilitySpec::Fixed(0.5 + 0.0173 * static_cast<double>(j + 1));
    request.request_id += "-cold-" + std::to_string(j);
    auto start = Clock::now();
    Must(reference.SubmitBatch(request), "cold batch");
    const double cold = Ms(Clock::now() - start);
    start = Clock::now();
    Must(reference.SubmitBatch(request), "warm batch");
    cold_minus_warm.push_back(cold - Ms(Clock::now() - start));
  }

  json::Value counters = json::Value::Object();
  counters.Add("ops", ops);
  counters.Add("threads", threads);
  counters.Add("steals", after.steals - before.steals);
  counters.Add("local_hits", after.local_hits - before.local_hits);
  counters.Add("cache_hits", after.cache_hits - before.cache_hits);
  counters.Add("cache_misses", after.cache_misses - before.cache_misses);

  json::Value out = json::Value::Object();
  out.Add("untraced_ms", Numbers(untraced));
  out.Add("spans", tracer.ToJson());
  out.Add("bytes", Numbers(bytes));
  out.Add("cold_minus_warm_ms", Numbers(cold_minus_warm));
  out.Add("counters", std::move(counters));
  return out;
}

// ---------------------------------------------------------------------------
// Stream workload.
// ---------------------------------------------------------------------------
constexpr size_t kStreamStrategies = 20'000;
// The event mix is the drift scenario of bench/stream_load.cc: per tick,
// Poisson(2) arrivals from its request ranges, then releases while a
// Bernoulli(0.3) trial succeeds (a fifth of them revocations), then on half
// the ticks a W step of +-0.04 clamped to [0.25, 0.85], starting at 0.5,
// against a 0.05 snapshot quantum.
constexpr double kInitialW = 0.5;
constexpr double kLowW = 0.25;
constexpr double kHighW = 0.85;
constexpr double kStepW = 0.04;
constexpr double kQuantum = 0.05;
constexpr double kArrivalsPerTick = 2.0;
constexpr double kReleaseChance = 0.3;
constexpr double kRevocationShare = 0.2;
constexpr double kWindowChance = 0.5;
// That scenario names released requests whatever became of them, so some
// of its events fail, and its load only grows (two arrivals a tick against
// ~0.4 releases). The schedule here plans admissions instead, so that no
// event fails and the load stays level:
//  - an arrival that fits in 0.9 x (W - quantum) is admitted: live requests
//    are released first until it fits (the session snaps W to the quantum
//    grid, so this bound holds whichever way W is rounded);
//  - an arrival that needs more than kHighW + quantum, or that is
//    ineligible, can never be admitted: it is submitted, and waits in the
//    session's pending queue or, once that is full, is rejected;
//  - an arrival in between, whose admission would hang on the rounding of
//    W, is not submitted;
//  - only admitted requests are completed or revoked.
double PlannedCapacity(double w) { return 0.9 * (w - kQuantum); }
constexpr double kNeverAdmitted = kHighW + kQuantum;
/// Journal segment size: the journal rolls to `<path>.1`, `<path>.2`, ...
/// so its growth stays in bounded files, and the replay check reads the
/// first segment only.
constexpr size_t kJournalSegmentBytes = 16u << 20;
/// Events generated per session and second of the run: four times the
/// 3500-4500 a second measured on a 4-vCPU x86-64 VM, so that a much
/// faster program still runs the whole timed phase. A schedule that runs
/// out fails the run (metrics.py).
constexpr double kEventsPerSecond = 4 * 4500.0;

size_t EventBudget(double seconds) {
  return static_cast<size_t>(seconds * kEventsPerSecond) + 1000;
}

api::ServiceConfig StreamConfig(const std::string& journal_path) {
  api::ServiceConfig config;
  config.cache.availability_quantum = kQuantum;
  config.journal.path = journal_path;
  if (!journal_path.empty()) {
    config.journal.max_segment_bytes = kJournalSegmentBytes;
  }
  return config;
}

api::StreamOptions SessionOptions(double availability) {
  api::StreamOptions options;
  options.availability = api::AvailabilitySpec::Fixed(availability);
  return options;
}

size_t KindCode(api::StreamEvent::Kind kind) {
  switch (kind) {
    case api::StreamEvent::Kind::kArrival:
      return 1;
    case api::StreamEvent::Kind::kRevocation:
    case api::StreamEvent::Kind::kCompletion:
      return 2;
    case api::StreamEvent::Kind::kAvailabilityChange:
      return 3;
  }
  return 0;
}

struct Template {
  core::DeploymentRequest request;
  double workforce = 0.0;
};

/// Prices requests of the drift scenario's shape on a probe session of
/// `service`, for the schedule to plan admissions with. Pricing does not
/// depend on W. Like the catalog, the request shapes are fixed; the seed
/// drives the schedule that draws from them.
std::vector<Template> ProbeTemplates(const api::Service& service) {
  workload::Generator generator({}, Mix(kCatalogSeed, 0x7E));
  const auto candidates = generator.RequestsWithRanges(
      64, 10, {0.50, 0.75}, {0.70, 1.0}, {0.70, 1.0});
  auto session = Must(service.OpenStream(SessionOptions(1.0)), "probe session");
  std::vector<Template> templates;
  for (size_t i = 0; i < candidates.size(); ++i) {
    core::DeploymentRequest request = candidates[i];
    request.id = "probe-" + std::to_string(i);
    auto update = Must(session.Submit(api::StreamEvent::Arrival(request)),
                       "probe arrival");
    // An ineligible request is rejected at any W: it never needs room.
    if (update.decision.kind == core::AdmissionDecision::Kind::kRejected) {
      templates.push_back({request, std::numeric_limits<double>::infinity()});
      continue;
    }
    if (!session.Revoke(request.id).ok()) Fail("probe revoke");
    templates.push_back({request, update.decision.workforce});
  }
  return templates;
}

/// One planned stream event, kept compact so that a long schedule weighs
/// little in the RSS it is measured against; Materialize() builds the API
/// event just before it is submitted, outside the timed call.
struct PlannedEvent {
  const core::DeploymentRequest* request = nullptr;  // kArrival template
  double availability = 0.0;                         // kAvailabilityChange
  uint32_t id = 0;                                   // request id number
  api::StreamEvent::Kind kind = api::StreamEvent::Kind::kArrival;
};

struct Schedule {
  std::string prefix;  // request ids are prefix + number
  std::vector<PlannedEvent> events;

  size_t CapacityBytes() const {
    return events.capacity() * sizeof(PlannedEvent);
  }
};

api::StreamEvent Materialize(const Schedule& schedule, size_t i) {
  const PlannedEvent& e = schedule.events[i];
  // Fixed-width ids keep journal bytes per event independent of how many
  // events a run gets through.
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%08llu",
                static_cast<unsigned long long>(e.id));
  std::string id = schedule.prefix + digits;
  switch (e.kind) {
    case api::StreamEvent::Kind::kArrival: {
      core::DeploymentRequest request = *e.request;
      request.id = std::move(id);
      return api::StreamEvent::Arrival(std::move(request));
    }
    case api::StreamEvent::Kind::kRevocation:
      return api::StreamEvent::Revocation(std::move(id));
    case api::StreamEvent::Kind::kCompletion:
      return api::StreamEvent::Completion(std::move(id));
    case api::StreamEvent::Kind::kAvailabilityChange:
      break;
  }
  return api::StreamEvent::AvailabilityChange(
      api::AvailabilitySpec::Fixed(e.availability));
}

Schedule MakeSchedule(const std::vector<Template>& templates, uint64_t seed,
                      size_t count, std::string prefix) {
  stratrec::Rng rng(seed);
  Schedule schedule{std::move(prefix), {}};
  std::vector<PlannedEvent>& events = schedule.events;
  events.reserve(count);
  std::vector<std::pair<uint32_t, double>> live;  // admitted: id, workforce
  double used = 0.0;
  double w = kInitialW;
  uint32_t next_id = 0;
  // The last tick is cut at `count`, so the reserved buffer is never
  // outgrown.
  const auto push = [&](const PlannedEvent& event) {
    if (events.size() < count) events.push_back(event);
  };
  const auto release = [&]() {
    const size_t index = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    PlannedEvent event;
    event.kind = rng.Bernoulli(kRevocationShare)
                     ? api::StreamEvent::Kind::kRevocation
                     : api::StreamEvent::Kind::kCompletion;
    event.id = live[index].first;
    used -= live[index].second;
    live[index] = live.back();
    live.pop_back();
    if (live.empty()) used = 0.0;  // no rounding left over
    push(event);
  };
  while (events.size() < count) {
    const int arrivals = rng.Poisson(kArrivalsPerTick);
    for (int a = 0; a < arrivals; ++a) {
      const Template& t = templates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(templates.size()) - 1))];
      const double capacity = PlannedCapacity(w);
      const bool admitted = t.workforce <= capacity;
      if (!admitted && t.workforce <= kNeverAdmitted) continue;
      PlannedEvent event;
      event.kind = api::StreamEvent::Kind::kArrival;
      event.request = &t.request;
      event.id = next_id++;
      if (admitted) {
        while (!live.empty() && used + t.workforce > capacity) release();
        live.emplace_back(event.id, t.workforce);
        used += t.workforce;
      }
      push(event);
    }
    while (!live.empty() && rng.Bernoulli(kReleaseChance)) release();
    if (rng.Bernoulli(kWindowChance)) {
      w = std::clamp(w + rng.Uniform(-kStepW, kStepW), kLowW, kHighW);
      PlannedEvent event;
      event.kind = api::StreamEvent::Kind::kAvailabilityChange;
      event.availability = w;
      push(event);
    }
  }
  return schedule;
}

struct StreamStack {
  std::optional<api::Service> service;
  std::vector<api::StreamSession> sessions;
  /// Journaled events each session took during warm-up: the journal seq of
  /// its first timed event.
  std::vector<size_t> warm_events;
};

/// Catalog generation, Service creation (journal on), one session per
/// client, and a warm-up arrival + revocation per session. Fills the
/// (empty) `stack`; returns seconds.
double SetUpStream(const std::string& journal_path, size_t clients,
                   StreamStack* out) {
  const auto start = Clock::now();
  StreamStack& stack = *out;
  stack.service = Must(api::Service::Create(MakeCatalog(kStreamStrategies),
                                            StreamConfig(journal_path)),
                       "stream service setup");
  workload::Generator generator({}, kCatalogSeed);
  const auto warm = generator.RequestsWithRanges(1, 5, {0.30, 0.60},
                                                 {0.70, 1.0}, {0.70, 1.0});
  for (size_t c = 0; c < clients; ++c) {
    stack.sessions.push_back(
        Must(stack.service->OpenStream(SessionOptions(kInitialW)),
             "open session"));
    core::DeploymentRequest request = warm[0];
    request.id = "warm";
    auto update = Must(stack.sessions.back().Submit(
                           api::StreamEvent::Arrival(request)),
                       "warm-up arrival");
    stack.warm_events.push_back(1);
    if (update.decision.kind != core::AdmissionDecision::Kind::kRejected) {
      if (!stack.sessions.back().Revoke(request.id).ok()) {
        Fail("warm-up revocation");
      }
      ++stack.warm_events.back();
    }
  }
  return Seconds(Clock::now() - start);
}

size_t FileSize(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<size_t>(size);
}

std::string SegmentPath(const std::string& path, size_t segment) {
  return segment == 0 ? path : path + "." + std::to_string(segment);
}

/// Bytes in every segment of the journal at `path`.
size_t JournalBytes(const std::string& path) {
  size_t bytes = 0;
  for (size_t i = 0; std::filesystem::exists(SegmentPath(path, i)); ++i) {
    bytes += FileSize(SegmentPath(path, i));
  }
  return bytes;
}

void RemoveJournal(const std::string& path) {
  size_t segment = 0;
  while (std::filesystem::remove(SegmentPath(path, segment))) ++segment;
}

/// Replays every session recorded in the first segment of the journal at
/// `path` (sessions in parallel) and requires byte-identical StreamUpdates
/// for all of its events. Sessions append in seq order, so the segment
/// holds a prefix of each; a full replay would cost as much again as the
/// recording. Each diverging event is passed to `on_mismatch` as
/// (session id, seq).
json::Value ReplayJournal(
    const std::string& path,
    const std::function<void(const std::string&, size_t)>& on_mismatch) {
  const wire::JournalTrace trace = Must(
      wire::DecodeTrace(Must(stratrec::JournalReader::ReadRecords(path),
                             "read journal")),
      "decode journal");
  std::vector<wire::JournalTrace> parts;
  for (const wire::StreamOpenRecord& open : trace.stream_opens) {
    wire::JournalTrace part;
    part.has_config = trace.has_config;
    part.config = trace.config;
    part.has_catalog = trace.has_catalog;
    part.catalog = trace.catalog;
    part.stream_opens.push_back(open);
    for (const wire::StreamEventRecord& record : trace.stream_events) {
      if (record.session_id == open.session_id) {
        part.stream_events.push_back(record);
      }
    }
    parts.push_back(std::move(part));
  }
  std::vector<stratrec::Result<wire::ReplayResult>> results(
      parts.size(), stratrec::Status::Internal("not replayed"));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < parts.size(); ++i) {
    threads.emplace_back([&, i]() {
      wire::ReplayOptions options;
      options.worker_threads = 2;
      results[i] = wire::ReplayTrace(parts[i], options);
    });
  }
  for (std::thread& thread : threads) thread.join();
  size_t replayed = 0;
  size_t matched = 0;
  size_t sessions = 0;
  bool ok = true;
  for (const auto& result : results) {
    if (!result.ok()) Fail("replay: " + result.status().ToString());
    replayed += result->stream_events_replayed;
    matched += result->stream_matched;
    sessions += result->stream_sessions;
    ok = ok && result->ok() && result->stream_skipped_sessions == 0;
    for (const std::string& where : result->mismatched) {
      std::fprintf(stderr, "replay: update %s diverged\n", where.c_str());
      const size_t at = where.rfind('@');
      on_mismatch(where.substr(0, at),
                  std::strtoull(where.c_str() + at + 1, nullptr, 10));
    }
  }
  json::Value out = json::Value::Object();
  out.Add("recorded", trace.stream_events.size());
  out.Add("replayed", replayed);
  out.Add("matched", matched);
  out.Add("sessions", sessions);
  out.Add("ok", ok && replayed == trace.stream_events.size() &&
                    matched == replayed);
  return out;
}

json::Value RunStreamTimed(uint64_t seed, double seconds, size_t clients,
                           const std::string& run_dir) {
  std::vector<double> setup_s;
  StreamStack stack;
  std::string journal;
  // Closes the stack and removes its journal, then sets up a fresh stack
  // journaling to a fresh file.
  const auto set_up = [&]() {
    stack = StreamStack{};
    ReleaseFreedMemory();
    if (!journal.empty()) RemoveJournal(journal);
    journal = run_dir + "/stream-" + std::to_string(::getpid()) + "-" +
              std::to_string(setup_s.size()) + ".journal";
    RemoveJournal(journal);
    if (!setup_s.empty()) std::this_thread::sleep_for(kSetupPause);
    setup_s.push_back(SetUpStream(journal, clients, &stack));
  };
  for (size_t i = 0; i < kSetupsBefore; ++i) set_up();

  const std::vector<Template> templates = ProbeTemplates(*stack.service);
  const size_t count = EventBudget(seconds);
  std::vector<Schedule> schedules;
  for (size_t c = 0; c < clients; ++c) {
    schedules.push_back(MakeSchedule(templates, Mix(seed, 100 + c), count,
                                     "s" + std::to_string(c) + "-"));
  }

  std::vector<OpLog> logs(clients);
  size_t buffer_bytes = 0;
  for (size_t c = 0; c < clients; ++c) {
    logs[c].Prefault(count);
    buffer_bytes += logs[c].CapacityBytes() + schedules[c].CapacityBytes();
  }
  const size_t journal_start = JournalBytes(journal);
  ReleaseFreedMemory();
  const bool rss_reset = ResetPeakRss();
  const auto wall_start = Clock::now();
  StopRule stop(seconds);
  std::atomic<bool> exhausted{false};
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      FinishGuard guard{&finished};
      api::StreamSession& session = stack.sessions[c];
      size_t i = 0;
      const size_t planned = schedules[c].events.size();
      for (; i < planned && !stop.ShouldStop(); ++i) {
        const api::StreamEvent event = Materialize(schedules[c], i);
        const auto start = Clock::now();
        auto update = session.Submit(event);
        const auto end = Clock::now();
        stop.done.fetch_add(1);
        logs[c].Add(Ms(end - start), update.ok() ? kOk : kStatusError, 0,
                    Ms(end - wall_start));
      }
      if (i == planned) exhausted.store(true);
    });
  }
  const Watch watch = WatchTimedPhase(wall_start, seconds / kRssStretches,
                                      finished, clients, buffer_bytes);
  for (std::thread& thread : threads) thread.join();
  const size_t journal_bytes = JournalBytes(journal) - journal_start;
  std::vector<std::string> session_ids;
  for (const api::StreamSession& session : stack.sessions) {
    session_ids.push_back(session.id());
  }
  const std::vector<size_t> warm_events = stack.warm_events;
  stack = StreamStack{};  // closes the journal
  if (exhausted.load()) {
    std::fprintf(stderr, "stream: a schedule ran out before the timed phase "
                         "ended; the run is invalid\n");
  }

  // An event whose replay diverges counts as a failed operation.
  json::Value replay = ReplayJournal(
      journal, [&](const std::string& session_id, size_t seq) {
        for (size_t c = 0; c < clients; ++c) {
          if (session_ids[c] == session_id && seq >= warm_events[c] &&
              seq - warm_events[c] < logs[c].code.size()) {
            logs[c].code[seq - warm_events[c]] = kReplay;
          }
        }
      });
  for (size_t i = 0; i < kSetupsAfter; ++i) set_up();
  stack = StreamStack{};
  RemoveJournal(journal);

  OpLog all;
  for (const OpLog& log : logs) all.Append(log);
  json::Value out = json::Value::Object();
  out.Add("setup_s", Numbers(setup_s));
  out.Add("peak_rss_kb", Integers(watch.peak_rss_kb));
  out.Add("cpu_samples", watch.CpuJson());
  out.Add("rss_reset", rss_reset);
  out.Add("journal_bytes", journal_bytes);
  out.Add("buffer_kb", buffer_bytes / 1024);
  out.Add("schedule_exhausted", exhausted.load());
  out.Add("ops", all.ToJson());
  out.Add("replay", std::move(replay));
  return out;
}

/// Submits the first `count` events of `schedule` to a fresh session of
/// `service` (stopping early at `deadline`, after at least 64 events) and
/// returns per-event ms; with a tracer, each event is also recorded as a
/// span named by its kind.
std::vector<double> DriveSession(const api::Service& service,
                                 const Schedule& schedule, size_t count,
                                 Clock::time_point deadline, Tracer* tracer,
                                 core::OnlineStats* stats = nullptr) {
  auto session =
      Must(service.OpenStream(SessionOptions(kInitialW)), "open session");
  std::vector<double> ms;
  static const char* const kSpanNames[] = {"", "stream.arrival",
                                           "stream.release", "stream.window"};
  count = std::min(count, schedule.events.size());
  for (size_t i = 0; i < count && (i < 64 || Clock::now() < deadline); ++i) {
    const api::StreamEvent event = Materialize(schedule, i);
    const auto start = Clock::now();
    bool ok = false;
    if (tracer != nullptr) {
      ok = tracer->Time(i, kSpanNames[KindCode(event.kind)],
                        [&] { return session.Submit(event).ok(); });
    } else {
      ok = session.Submit(event).ok();
    }
    ms.push_back(Ms(Clock::now() - start));
    if (!ok) Fail("stream event failed");
  }
  if (stats != nullptr) *stats = session.stats();
  return ms;
}

/// The traced stream pass at `strategies`: the same schedule untraced
/// (journal on), traced (journal on), and untraced with journaling off.
json::Value TraceStream(size_t strategies, uint64_t seed, double budget_s,
                        size_t max_events, const std::string& run_dir) {
  const std::string journal =
      run_dir + "/trace-" + std::to_string(::getpid()) + ".journal";
  RemoveJournal(journal);
  json::Value out = json::Value::Object();
  {
    auto journaled = Must(api::Service::Create(MakeCatalog(strategies),
                                               StreamConfig(journal)),
                          "journaled service");
    auto plain = Must(
        api::Service::Create(MakeCatalog(strategies), StreamConfig("")),
        "plain service");
    const std::vector<Template> templates = ProbeTemplates(journaled);
    const Schedule schedule =
        MakeSchedule(templates, Mix(seed, 100), max_events, "s0-");
    const auto never = Clock::time_point::max();

    // The untraced pass bounds the event count of the other two.
    const std::vector<double> untraced = DriveSession(
        journaled, schedule, schedule.events.size(),
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(0.35 * budget_s)),
        nullptr);
    const size_t events = untraced.size();

    Tracer tracer;
    const api::ServiceStats before = journaled.stats();
    const size_t journal_before = JournalBytes(journal);
    core::OnlineStats online;
    DriveSession(journaled, schedule, events, never, &tracer, &online);
    const size_t journal_after = JournalBytes(journal);
    const api::ServiceStats after = journaled.stats();
    const std::vector<double> unjournaled =
        DriveSession(plain, schedule, events, never, nullptr);

    json::Value counters = json::Value::Object();
    counters.Add("events", events);
    counters.Add("delta_updates",
                 after.snapshot_delta_updates - before.snapshot_delta_updates);
    counters.Add("rebuilds",
                 after.snapshot_rebuilds - before.snapshot_rebuilds);
    counters.Add("arrivals", online.arrivals);
    counters.Add("admitted", online.admitted);
    counters.Add("journal_bytes", journal_after - journal_before);
    out.Add("untraced_ms", Numbers(untraced));
    out.Add("unjournaled_ms", Numbers(unjournaled));
    out.Add("spans", tracer.ToJson());
    out.Add("counters", std::move(counters));
  }
  RemoveJournal(journal);
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (args.seconds <= 0.0) Fail("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const HttpWorkload* http = nullptr;
  if (args.workload == kHttpFull.name) http = &kHttpFull;
  if (args.workload == kHttpLean.name) http = &kHttpLean;
  const bool stream = args.workload == "stream-churn-20k";
  if (http == nullptr && !stream) Fail("unknown workload " + args.workload);

  json::Value out = json::Value::Object();
  out.Add("workload", args.workload);
  out.Add("kind", http != nullptr ? "http" : "stream");
  out.Add("mode", args.trace ? "trace" : "timed");
  out.Add("provenance",
          Provenance(args.seed, args.trace ? 1 : kClients,
                     http != nullptr ? http->strategies : kStreamStrategies));
  if (!args.trace) {
    out.Add("timed", http != nullptr
                         ? RunHttpTimed(*http, args.seed, args.seconds,
                                        kClients)
                         : RunStreamTimed(args.seed, args.seconds, kClients,
                                          args.run_dir));
  } else if (http != nullptr) {
    // The workload's own layers get most of the budget; a short stream
    // probe at the same catalog size fills in the stream/journal layers.
    out.Add("http", TraceHttp(*http, args.seed, 0.75 * args.seconds, 400));
    out.Add("stream",
            TraceStream(http->strategies, args.seed, 0.25 * args.seconds,
                        EventBudget(0.25 * args.seconds), args.run_dir));
  } else {
    out.Add("stream",
            TraceStream(kStreamStrategies, args.seed, 0.75 * args.seconds,
                        EventBudget(0.75 * args.seconds), args.run_dir));
    out.Add("http", TraceHttp(kHttpFull, args.seed, 0.25 * args.seconds, 40));
  }
  std::printf("%s\n", json::Dump(out).c_str());
  return 0;
}
