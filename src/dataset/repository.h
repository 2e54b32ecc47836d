// ResultRepository: the record store of a generated (or imported)
// population. It owns the records and hands out views; every group-by and
// metric read goes through analysis::AnalysisContext, which caches the
// columnar snapshot, the group indexes and the derived metrics over one
// repository.
#pragma once

#include <vector>

#include "dataset/record.h"

namespace epserve::dataset {

/// Non-owning view over a subset of records.
using RecordView = std::vector<const ServerRecord*>;

/// Which date key to organise by — the paper's central re-keying choice.
enum class YearKey { kHardwareAvailability, kPublished };

class ResultRepository {
 public:
  explicit ResultRepository(std::vector<ServerRecord> records);

  [[nodiscard]] const std::vector<ServerRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// All records as a view.
  [[nodiscard]] RecordView all() const;

 private:
  std::vector<ServerRecord> records_;
};

}  // namespace epserve::dataset
