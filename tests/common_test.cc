// Unit tests for src/common: Status/Result, Rng, AsciiTable, float
// comparisons, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "src/common/ascii_table.h"
#include "src/common/float_compare.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace stratrec {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad k");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad k");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad k");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInfeasible, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(Result, HoldsValueOrStatus) {
  auto good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  EXPECT_EQ(good.value_or(-1), 7);

  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Status FailsThenPropagates() {
  STRATREC_RETURN_NOT_OK(Status::NotFound("missing"));
  return Status::Internal("unreachable");
}

TEST(Result, ReturnNotOkMacroPropagates) {
  Status status = FailsThenPropagates();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(0.625, 1.0);
    EXPECT_GE(u, 0.625);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.TruncatedNormal(0.75, 0.1, 0.5, 1.0);
    EXPECT_GE(v, 0.5);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Rng, TruncatedNormalDegenerateWindowClamps) {
  Rng rng(12);
  // Window far away from the mean: must still return something inside.
  const double v = rng.TruncatedNormal(10.0, 0.001, 0.0, 1.0);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  for (double lambda : {0.5, 3.45, 6.25, 50.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
    EXPECT_NEAR(sum / n, lambda, 0.05 * lambda + 0.05) << "lambda=" << lambda;
  }
}

TEST(Rng, PoissonZeroRate) {
  Rng rng(14);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(15);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(16);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.35) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.35, 0.01);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(18);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name  | value"), std::string::npos);
  EXPECT_NE(out.find("alpha | 1"), std::string::npos);
  EXPECT_NE(out.find("------+------"), std::string::npos);
}

TEST(AsciiTable, HandlesRaggedRows) {
  AsciiTable table({"a"});
  table.AddRow({"x", "extra"});
  table.AddRow({});
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_FALSE(table.ToString().empty());
}

TEST(AsciiTable, NumericRowFormatsPrecision) {
  AsciiTable table({"label", "v1", "v2"});
  table.AddNumericRow("row", {0.123456, 2.0}, 3);
  EXPECT_NE(table.ToString().find("0.123"), std::string::npos);
  EXPECT_NE(table.ToString().find("2.000"), std::string::npos);
}

TEST(FormatDoubleTest, RoundsToPrecision) {
  EXPECT_EQ(FormatDouble(0.56789, 2), "0.57");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(FloatCompare, ApproxComparisons) {
  EXPECT_TRUE(ApproxEq(0.1 + 0.2, 0.3));
  EXPECT_TRUE(ApproxLe(0.3 + 1e-12, 0.3));
  EXPECT_TRUE(ApproxGe(0.3 - 1e-12, 0.3));
  EXPECT_FALSE(ApproxLe(0.31, 0.3));
  EXPECT_FALSE(ApproxGe(0.29, 0.3));
}

TEST(FloatCompare, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(2.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ClampUnit(1.7), 1.0);
}

TEST(Logging, LevelGate) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Should not crash, and be filtered.
  STRATREC_LOG(kDebug) << "suppressed " << 42;
  SetLogLevel(before);
}

}  // namespace
}  // namespace stratrec
