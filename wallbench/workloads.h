// The benchmark's two workloads, its traced `reads` and `fit` passes, and
// their generated inputs.
//
// Every input is a pure function of the workload seed; the platform only
// ever receives the generated bundles, reference draws and matrices. The
// README in this directory gives the reason for each workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/jmf.h"
#include "fhir/resources.h"

namespace wallbench {

// --- generated inputs ------------------------------------------------------

/// One client upload and the verdict the pipeline must reach on it.
struct Upload {
  hc::fhir::Bundle bundle;
  bool infected = false;   // carries the test malware signature
  bool consented = true;   // patient granted consent to the study group
  bool expect_stored() const { return !infected && consented; }
};

inline constexpr double kMalwareRate = 0.01;
inline constexpr double kConsentMissRate = 0.02;

/// `count` synthetic bundles for distinct patients, with malware and
/// missing-consent uploads injected at kMalwareRate and kConsentMissRate
/// (`inject` false gives only clean, consented uploads).
std::vector<Upload> make_uploads(std::uint64_t seed, std::size_t count, bool inject);

/// One operation of the traced `reads` client loop.
struct ReadOp {
  bool audit = false;     // prove -> verify -> verify_onchain instead of fetch
  std::size_t record = 0;  // index into the lake's stored references
};

inline constexpr double kAuditShare = 0.2;
inline constexpr double kZipfExponent = 0.6;

/// `count` operations over `records` stored references: kAuditShare of
/// them audits, the rest fetches, each naming a record drawn Zipf(s =
/// kZipfExponent) over a seed-shuffled popularity order.
std::vector<ReadOp> make_read_ops(std::uint64_t seed, std::size_t records,
                                  std::size_t count);

/// The traced `fit` problem: dense JMF inputs of kFitDrugs x kFitDiseases.
inline constexpr std::size_t kFitDrugs = 100;
inline constexpr std::size_t kFitDiseases = 75;
hc::analytics::DrugDiseaseWorkload make_fit_inputs(std::uint64_t seed);

// --- runs ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 when the value is not an order statistic
};

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // every failed check, for the log
  std::vector<std::string> notes;     // extra human-readable lines

  void add(std::string name, double value, std::string unit, std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string problem) {
    ++failed;
    problems.push_back(std::move(problem));
  }
};

const std::vector<std::string>& workload_names();

/// End-to-end run (trace false): setup_s, peak_rss_mb, throughput_per_s,
/// latency_us_p50, latency_us_p90 and failed_share. Traced run (trace
/// true): the per-layer metrics of every workload and of the `reads` and
/// `fit` passes, plus the tracing overhead. Throws std::invalid_argument for an unknown workload.
Report run(const Options& options);

}  // namespace wallbench
