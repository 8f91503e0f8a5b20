#include "stamp.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <sstream>
#include <thread>

#include "pnm/core/infer_simd.hpp"
#include "pnm/util/build_info.hpp"

#ifndef PNMBENCH_BUILD_TYPE
#define PNMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PNMBENCH_COMPILER
#define PNMBENCH_COMPILER "unknown"
#endif

namespace pnmbench {

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Stamp build_stamp() {
  Stamp stamp;
  stamp.nproc = online_cpus();
  stamp.pool_threads = stamp.nproc > 1 ? stamp.nproc - 1 : 1;
  stamp.isa = pnm::simd::isa_name(pnm::simd::active_isa());
  stamp.build_type = PNMBENCH_BUILD_TYPE;
  stamp.sanitizer = pnm::build_info::sanitizer_name();
  stamp.compiler = PNMBENCH_COMPILER;
  return stamp;
}

std::string stamp_json(const Stamp& s) {
  std::ostringstream out;
  out << "{\"workload\": \"" << s.workload << "\", \"seed\": " << s.seed
      << ", \"nproc\": " << s.nproc << ", \"pool_threads\": " << s.pool_threads
      << ", \"isa\": \"" << s.isa << "\", \"build_type\": \"" << s.build_type
      << "\", \"sanitizer\": \"" << s.sanitizer << "\", \"compiler\": \"" << s.compiler
      << "\", \"source_id\": \"" << s.source_id << "\"}";
  return out.str();
}

}  // namespace pnmbench
