#ifndef PNMBENCH_STAMP_HPP
#define PNMBENCH_STAMP_HPP

/// \file stamp.hpp
/// \brief What produced a result: machine, build and inputs.

#include <cstddef>
#include <cstdint>
#include <string>

namespace pnmbench {

struct Stamp {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t nproc = 0;
  std::size_t pool_threads = 0;  ///< CampaignSpec::threads (caller thread excluded)
  std::string isa;               ///< simd::active_isa()
  std::string build_type;
  std::string sanitizer;         ///< "none" in a plain build
  std::string compiler;
  std::string source_id;         ///< git sha or source digest, from the caller
};

/// Fills every field except workload, seed and source_id.
Stamp build_stamp();

/// The stamp as one JSON object.
std::string stamp_json(const Stamp& stamp);

/// Logical CPUs this process may run on.
std::size_t online_cpus();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace pnmbench

#endif  // PNMBENCH_STAMP_HPP
