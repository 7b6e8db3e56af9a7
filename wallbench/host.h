// Host manifest printed with every run: a wall-clock number means little
// without the machine and build it came from.
#pragma once

#include <string>
#include <vector>

namespace wallbench {

struct HostManifest {
  unsigned nproc = 0;
  bool aes = false;
  bool sha_ni = false;
  bool avx2 = false;
  bool avx512f = false;
  unsigned l2_kib = 0;  // per-core L2 as CPUID reports it; 0 if unknown
  std::string build_type;
  std::string compiler;
  bool hc_native = false;
};

/// Reads the manifest from CPUID and the build's compile definitions.
HostManifest host_manifest();

/// "key=value" lines, one per field.
std::vector<std::string> manifest_lines(const HostManifest& host);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace wallbench
