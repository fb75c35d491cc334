#ifndef CAPE_PATTERN_PATTERN_SET_H_
#define CAPE_PATTERN_PATTERN_SET_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "pattern/pattern.h"
#include "relational/table.h"
#include "stats/regression.h"

namespace cape {

/// Encodes a tuple of Values as a byte key such that two rows encode equal
/// iff they are component-wise equal (Value::operator==: numerics widened
/// to their CanonicalDouble).
std::string EncodeRowKey(const Row& row);

/// Appends to `key` the same bytes EncodeRowKey would produce for row `row`
/// of `t` projected to `cols`, reading column storage directly — no Value
/// boxing, no per-call allocation when the caller reuses the buffer.
void AppendTableRowKey(const Table& t, int64_t row, const std::vector<int>& cols,
                       std::string* key);

/// A pattern together with the fragment it holds locally on: the fitted
/// model g_{P,f} plus the statistics explanation generation needs.
struct LocalPattern {
  /// Values of the partition attributes F, in ascending attribute order.
  Row fragment;
  /// The regression model based on which the pattern holds locally.
  std::shared_ptr<RegressionModel> model;
  /// Local support |Q_{P,f}(R)|.
  int64_t support = 0;
  /// Extremal deviations dev_P(t) across the fragment's tuples — the
  /// per-local refinement of the Section 3.5 bound.
  double max_positive_dev = 0.0;
  double min_negative_dev = 0.0;
};

/// A pattern that holds globally (Definition 4) with its evidence.
struct GlobalPattern {
  Pattern pattern;
  /// |frag(R, P)|.
  int64_t num_fragments = 0;
  /// |frag_supp|: fragments with local support >= delta.
  int64_t num_supported = 0;
  /// |frag_good| = global support: fragments where the pattern holds.
  int64_t num_holding = 0;
  /// num_holding / num_supported.
  double global_confidence = 0.0;
  /// Extremal deviations across all locally-holding fragments — dev↑ of
  /// Section 3.5, recorded during mining at no extra cost.
  double max_positive_dev = 0.0;
  double min_negative_dev = 0.0;

  std::vector<LocalPattern> locals;

  /// Local pattern for fragment `f` (F-values in ascending attribute
  /// order), or nullptr when the pattern does not hold locally on f.
  const LocalPattern* FindLocal(const Row& fragment) const;

  /// FindLocal for a key already encoded with EncodeRowKey/AppendTableRowKey;
  /// the per-row hot loops use this to skip fragment boxing entirely.
  const LocalPattern* FindLocalByKey(const std::string& key) const;

  /// Builds the fragment-key index; called by PatternSet after locals are
  /// final.
  void BuildIndex();

 private:
  std::unordered_map<std::string, size_t> fragment_index_;
};

/// The output of ARP mining: all globally-holding patterns with their local
/// models, indexed for the explanation phase.
class PatternSet {
 public:
  PatternSet() = default;

  void Add(GlobalPattern pattern);

  size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }
  const std::vector<GlobalPattern>& patterns() const { return patterns_; }
  const GlobalPattern& at(size_t i) const { return patterns_[i]; }

  /// Lookup by exact pattern identity; nullptr when absent.
  const GlobalPattern* Find(const Pattern& pattern) const;

  /// Total number of local patterns across all global patterns (the N_P
  /// knob of Figures 6a/6b).
  int64_t NumLocalPatterns() const;

  /// A copy restricted to (at most) the first `max_locals` local patterns
  /// in pattern order — used by the benchmarks to vary N_P.
  PatternSet Truncated(int64_t max_locals) const;

  /// Sorted multi-line rendering for docs/examples.
  std::string ToString(const Schema& schema, size_t max_patterns = 50) const;

 private:
  std::vector<GlobalPattern> patterns_;
  std::unordered_map<Pattern, size_t, PatternHasher> index_;
};

}  // namespace cape

#endif  // CAPE_PATTERN_PATTERN_SET_H_
