#include "core/options.h"

namespace islabel {

Status IndexOptions::Validate() const {
  if (sigma <= 0.0 || sigma > 1.0) {
    return Status::InvalidArgument("sigma must be in (0, 1]");
  }
  if (memory_budget_bytes != 0 && tmp_dir.empty()) {
    return Status::InvalidArgument(
        "external pipeline requires a tmp_dir for spill files");
  }
  return Status::OK();
}

bool IndexOptions::StopsAtLevel(std::uint32_t i, std::uint64_t cur_size,
                                std::uint64_t prev_size,
                                std::uint64_t alive) const {
  if (alive == 0) return true;
  if (forced_k != 0) return i == forced_k;
  return i >= 2 &&
         static_cast<double>(cur_size) >
             sigma * static_cast<double>(prev_size);
}

}  // namespace islabel
