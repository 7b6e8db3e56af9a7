// wallbench: wall-clock benchmark of the platform's headline paths.
//
//   wallbench --workload <ingest|ingest_bulk> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints the host manifest, a table of every metric with its unit and
// sample count, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any operation failed its check, 2 on bad usage or an error
// that stopped the run (no JSON line then).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

/// Reported in the table and counted in the JSON's attempted/failed, but
/// not a JSON metric: it reads 0 on every correct run.
constexpr const char* kFailedShare = "failed_share";

bool parse_args(int argc, char** argv, wallbench::Options& options) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0 &&
                     options.seconds <= 60.0;
    } else if (key == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  wallbench::Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload <ingest|ingest_bulk> --seed <n> "
                 "--seconds <1..60> --trace <0|1>\n");
    return 2;
  }
  for (const std::string& line : wallbench::manifest_lines(wallbench::host_manifest())) {
    std::printf("host %s\n", line.c_str());
  }
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  wallbench::Report report;
  try {
    report = wallbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& note : report.notes) std::printf("note %s\n", note.c_str());
  for (const std::string& problem : report.problems) {
    std::printf("FAILED %s\n", problem.c_str());
  }
  std::printf("%-44s %18s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : report.metrics) {
    std::printf("%-44s %18.6f %-8s %zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics) {
    if (m.name == kFailedShare) continue;
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
