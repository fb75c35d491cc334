#include "fd/fd_detector.h"

namespace cape {

void FdDetector::RecordGroupSize(AttrSet g, int64_t num_groups) {
  group_sizes_[g] = num_groups;
}

int64_t FdDetector::GetGroupSize(AttrSet g) const {
  auto it = group_sizes_.find(g);
  return it == group_sizes_.end() ? -1 : it->second;
}

int FdDetector::DetectFdsFor(AttrSet g) {
  const int64_t g_size = GetGroupSize(g);
  if (g_size < 0) return 0;
  int added = 0;
  for (int a : g.ToIndices()) {
    AttrSet lhs = g.Without(a);
    if (lhs.empty()) continue;
    const int64_t lhs_size = GetGroupSize(lhs);
    if (lhs_size < 0) continue;
    if (lhs_size == g_size) {
      size_t before = fd_set_->size();
      fd_set_->Add(lhs, a);
      if (fd_set_->size() > before) ++added;
    }
  }
  return added;
}

}  // namespace cape
