#include "host.h"

#include <sys/resource.h>

#include <cstdio>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace wallbench {

namespace {

#if defined(__x86_64__) || defined(__i386__)
/// Per-core L2 size from the deterministic cache parameters leaf (4),
/// falling back to the AMD extended leaf 0x80000006.
unsigned l2_kib_from_cpuid() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  for (unsigned sub = 0; sub < 16; ++sub) {
    if (!__get_cpuid_count(4, sub, &a, &b, &c, &d)) break;
    const unsigned type = a & 0x1f;
    if (type == 0) break;
    const unsigned level = (a >> 5) & 0x7;
    if (level == 2 && (type == 2 || type == 3)) {
      const unsigned ways = ((b >> 22) & 0x3ff) + 1;
      const unsigned partitions = ((b >> 12) & 0x3ff) + 1;
      const unsigned line = (b & 0xfff) + 1;
      const unsigned sets = c + 1;
      return ways * partitions * line * sets / 1024;
    }
  }
  if (__get_cpuid(0x80000006, &a, &b, &c, &d)) return (c >> 16) & 0xffff;
  return 0;
}
#endif

}  // namespace

HostManifest host_manifest() {
  HostManifest host;
  host.nproc = std::thread::hardware_concurrency();
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d)) host.aes = (c & bit_AES) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    host.avx2 = (b & bit_AVX2) != 0;
    host.avx512f = (b & bit_AVX512F) != 0;
    host.sha_ni = (b & (1u << 29)) != 0;
  }
  host.l2_kib = l2_kib_from_cpuid();
#endif
  host.build_type = WALLBENCH_BUILD_TYPE;
  host.compiler = WALLBENCH_COMPILER;
  // The benchmark package never sets HC_NATIVE: libraries and harness are
  // built with the repository's default flags.
  host.hc_native = false;
  return host;
}

std::vector<std::string> manifest_lines(const HostManifest& host) {
  auto flag = [](bool on) { return std::string(on ? "yes" : "no"); };
  return {
      "nproc=" + std::to_string(host.nproc),
      "cpu.aes=" + flag(host.aes),
      "cpu.sha_ni=" + flag(host.sha_ni),
      "cpu.avx2=" + flag(host.avx2),
      "cpu.avx512f=" + flag(host.avx512f),
      "l2_kib=" + std::to_string(host.l2_kib),
      "build_type=" + host.build_type,
      "compiler=" + host.compiler,
      "HC_NATIVE=" + std::string(host.hc_native ? "ON" : "OFF"),
  };
}

double peak_rss_mb() {
  // VmHWM is this process's own high-water mark. getrusage's ru_maxrss is
  // not: Linux carries the pre-exec maximum of the launching process into
  // it, so a small benchmark would report its launcher's footprint.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace wallbench
