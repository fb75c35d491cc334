#ifndef CAPE_FD_FD_DETECTOR_H_
#define CAPE_FD_FD_DETECTOR_H_

#include <unordered_map>

#include "fd/attr_set.h"
#include "fd/fd_set.h"

namespace cape {

/// Detects functional dependencies as a side effect of pattern mining
/// (Appendix D): an FD A -> B holds iff |pi_A(R)| == |pi_{A u B}(R)|.
///
/// The miner records the group count of every aggregation query it runs via
/// RecordGroupSize; DetectFdsFor(G) then derives FDs (G \ {A}) -> A whenever
/// both cardinalities are known. Because the miner enumerates attribute sets
/// in increasing size, the (G \ {A}) cardinality is always recorded before G
/// is processed (the property Algorithm 2 relies on).
class FdDetector {
 public:
  explicit FdDetector(FdSet* fd_set) : fd_set_(fd_set) {}

  /// Records |pi_G(R)| = `num_groups`.
  void RecordGroupSize(AttrSet g, int64_t num_groups);

  /// Whether |pi_G(R)| has been recorded.
  bool HasGroupSize(AttrSet g) const { return group_sizes_.count(g) > 0; }

  /// Recorded cardinality, or -1 when unknown.
  int64_t GetGroupSize(AttrSet g) const;

  /// Checks all FDs (G \ {A}) -> A for A in G against recorded
  /// cardinalities and adds the ones that hold to the bound FdSet.
  /// Returns the number of new FDs added.
  int DetectFdsFor(AttrSet g);

 private:
  FdSet* fd_set_;
  std::unordered_map<AttrSet, int64_t, AttrSetHasher> group_sizes_;
};

}  // namespace cape

#endif  // CAPE_FD_FD_DETECTOR_H_
