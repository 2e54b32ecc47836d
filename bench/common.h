// Shared plumbing for the perf-gating benches.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/epserve.h"
#include "util/strings.h"
#include "util/table.h"

namespace epserve::bench {

/// The calibrated population, generated once per process (default seed).
inline const dataset::ResultRepository& population() {
  static const dataset::ResultRepository repo = [] {
    auto result = dataset::generate_population();
    if (!result.ok()) {
      std::fprintf(stderr, "population generation failed: %s\n",
                   result.error().message.c_str());
      std::exit(1);
    }
    return dataset::ResultRepository(std::move(result).take());
  }();
  return repo;
}

/// Standard harness header: what is being reproduced and from where.
inline void print_header(const std::string& figure, const std::string& what) {
  std::cout << "epserve reproduction — " << figure << "\n"
            << what << "\n"
            << std::string(72, '=') << "\n";
}

}  // namespace epserve::bench
