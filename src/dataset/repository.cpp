#include "dataset/repository.h"

namespace epserve::dataset {

ResultRepository::ResultRepository(std::vector<ServerRecord> records)
    : records_(std::move(records)) {}

RecordView ResultRepository::all() const {
  RecordView view;
  view.reserve(records_.size());
  for (const auto& r : records_) view.push_back(&r);
  return view;
}

}  // namespace epserve::dataset
