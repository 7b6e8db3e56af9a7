// The benchmark's own tests: order statistics, warm-up exclusion, the
// median-of-chunks rate, the tracer, and inputs as a function of the seed.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "fhir/resources.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace wallbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  auto p50 = percentile(iota(100), 0.50);
  auto p90 = percentile(iota(100), 0.90);
  ASSERT_TRUE(p50 && p90);
  EXPECT_EQ(p50->value, 50.0);
  EXPECT_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->rank, 90u);
  EXPECT_EQ(p90->beyond, 10u);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = iota(200);
  std::reverse(v.begin(), v.end());
  auto p90 = percentile(v, 0.90);
  ASSERT_TRUE(p90);
  EXPECT_EQ(p90->value, 180.0);
  EXPECT_EQ(p90->beyond, 20u);
}

TEST(Percentile, RefusesP90WithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(percentile(iota(99), 0.90));  // rank 90, 9 beyond
  EXPECT_TRUE(percentile(iota(100), 0.90));  // rank 90, 10 beyond
  EXPECT_FALSE(percentile({}, 0.50));
  EXPECT_FALSE(percentile(iota(19), 0.50));  // rank 10, 9 beyond
}

TEST(Percentile, WholeRanksDoNotRoundUp) {
  // 0.9 * 110 is 99.00000000000001 in binary floating point.
  auto p90 = percentile(iota(110), 0.90);
  ASSERT_TRUE(p90);
  EXPECT_EQ(p90->rank, 99u);
  EXPECT_EQ(p90->value, 99.0);
}

TEST(Summary, MinSamplesForP90IsExactlyEnough) {
  const std::size_t n = min_samples_for_p90(7);
  EXPECT_TRUE(summarize_latency(iota(n), 7).ok);
  EXPECT_FALSE(summarize_latency(iota(n - 1), 7).ok);
}

TEST(Summary, WarmupSamplesAreExcluded) {
  std::vector<double> v(5, 1e9);  // five slow warm-up operations
  for (double x : iota(100)) v.push_back(x);
  LatencySummary s = summarize_latency(v, 5);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p90, 90.0);
  EXPECT_TRUE(drop_warmup(v, 200).empty());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(ChunkRates, MedianIgnoresOneStalledBatch) {
  // Nine batches of 250 in 0.135 s and one stalled for a second: the
  // median of per-batch rates stays at the common rate, where the
  // total/elapsed rate would drop by about 40%.
  std::vector<double> drain_us(9, 135000.0);
  drain_us.push_back(1e6);
  const double rate = median(chunk_rates(drain_us, 1, 250.0));
  EXPECT_NEAR(rate, 250.0 / 0.135, 1e-6);
  const double total_rate = 2500.0 / (9 * 0.135 + 1.0);
  EXPECT_LT(total_rate, 0.65 * rate);
}

TEST(ChunkRates, SumsEachChunkAndDropsThePartialTail) {
  // Ops of 100, 300, 200, 200 and 50 us in chunks of two: 2 ops / 400 us
  // and 2 ops / 400 us; the fifth op is a partial chunk.
  auto rates = chunk_rates({100.0, 300.0, 200.0, 200.0, 50.0}, 2);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 5000.0);
  EXPECT_DOUBLE_EQ(rates[1], 5000.0);
  EXPECT_TRUE(chunk_rates({1.0}, 0).empty());
}

TEST(ChunkRates, EqualChunksAverageOverSlowStretches) {
  // 100 ops of 1 ms and 100 of 2 ms, alternating in runs of 5: the
  // median of per-op rates falls in one state or between them, while each
  // of four equal chunks holds 25 ops of each state (75 ms).
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) us.push_back((i / 5) % 2 == 0 ? 1000.0 : 2000.0);
  EXPECT_DOUBLE_EQ(equal_chunk_rate(us, 4), 50.0 / 0.075);
  // Fewer ops than chunks: one op per chunk.
  EXPECT_DOUBLE_EQ(equal_chunk_rate({1000.0, 2000.0, 4000.0}, 20), 500.0);
  EXPECT_EQ(equal_chunk_rate(us, 0), 0.0);
  EXPECT_EQ(equal_chunk_rate({}, 20), 0.0);
}

TEST(Tracer, SelfTimeExcludesDirectChildren) {
  Tracer tracer(true);
  {
    auto outer = tracer.span("outer");
    { auto inner = tracer.span("inner", 2048); }
    { auto inner = tracer.span("inner", 2048); }
  }
  auto layers = tracer.layers();
  ASSERT_EQ(layers.at("inner").durations_us.size(), 2u);
  EXPECT_EQ(layers.at("inner").bytes, 4096u);
  const auto& outer = layers.at("outer");
  EXPECT_NEAR(outer.self_us, outer.total_us - layers.at("inner").total_us, 1e-6);
  EXPECT_EQ(tracer.records()[1].parent, 0u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  { auto span = tracer.span("x"); }
  EXPECT_TRUE(tracer.records().empty());
}

std::vector<hc::Bytes> serialized(const std::vector<Upload>& uploads) {
  std::vector<hc::Bytes> out;
  for (const Upload& u : uploads) out.push_back(hc::fhir::serialize_bundle(u.bundle));
  return out;
}

TEST(Inputs, UploadsAreAFunctionOfTheSeed) {
  auto a = make_uploads(7, 64, true);
  auto b = make_uploads(7, 64, true);
  auto c = make_uploads(8, 64, true);
  EXPECT_EQ(serialized(a), serialized(b));
  EXPECT_NE(serialized(a), serialized(c));
}

TEST(Inputs, InjectionRatesAreNearTheirTargets) {
  auto uploads = make_uploads(3, 4000, true);
  std::size_t infected = 0, unconsented = 0;
  for (const Upload& u : uploads) {
    infected += u.infected;
    unconsented += !u.consented;
  }
  EXPECT_NEAR(static_cast<double>(infected) / 4000.0, kMalwareRate, 0.006);
  EXPECT_NEAR(static_cast<double>(unconsented) / 4000.0, kConsentMissRate, 0.008);
  for (const Upload& u : make_uploads(3, 200, false)) EXPECT_TRUE(u.expect_stored());
}

TEST(Inputs, ReadOpsAreAFunctionOfTheSeed) {
  auto key = [](const std::vector<ReadOp>& ops) {
    std::vector<std::size_t> k;
    for (const ReadOp& op : ops) k.push_back(op.record * 2 + (op.audit ? 1 : 0));
    return k;
  };
  EXPECT_EQ(key(make_read_ops(5, 600, 1000)), key(make_read_ops(5, 600, 1000)));
  EXPECT_NE(key(make_read_ops(5, 600, 1000)), key(make_read_ops(6, 600, 1000)));
  for (const ReadOp& op : make_read_ops(5, 600, 1000)) EXPECT_LT(op.record, 600u);
}

TEST(Inputs, FitInputsAreAFunctionOfTheSeed) {
  auto a = make_fit_inputs(11);
  auto b = make_fit_inputs(11);
  auto c = make_fit_inputs(12);
  ASSERT_EQ(a.observed.rows(), kFitDrugs);
  ASSERT_EQ(a.observed.cols(), kFitDiseases);
  EXPECT_EQ(0, std::memcmp(a.observed.data(), b.observed.data(),
                           a.observed.size() * sizeof(double)));
  EXPECT_NE(0, std::memcmp(a.observed.data(), c.observed.data(),
                           a.observed.size() * sizeof(double)));
}

TEST(Run, RejectsUnknownWorkload) {
  Options options;
  options.workload = "nope";
  EXPECT_THROW(run(options), std::invalid_argument);
}

}  // namespace
}  // namespace wallbench
