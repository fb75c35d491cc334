#include "pattern/pattern_set.h"

#include <algorithm>

#include "common/string_util.h"

namespace cape {

std::string EncodeRowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.is_null()) {
      key.push_back('\0');
      continue;
    }
    if (v.is_numeric()) {
      // Widen to double so Int64(2) and Double(2.0) agree, matching
      // Value::operator==.
      key.push_back('n');
      const double d = CanonicalDouble(v.AsDouble());
      key.append(reinterpret_cast<const char*>(&d), sizeof(d));
    } else {
      key.push_back('s');
      const std::string& s = v.string_value();
      uint32_t len = static_cast<uint32_t>(s.size());
      key.append(reinterpret_cast<const char*>(&len), sizeof(len));
      key.append(s);
    }
  }
  return key;
}

void AppendTableRowKey(const Table& t, int64_t row, const std::vector<int>& cols,
                       std::string* key) {
  for (int c : cols) {
    const Column& col = t.column(c);
    if (col.IsNull(row)) {
      key->push_back('\0');
      continue;
    }
    if (col.type() == DataType::kString) {
      key->push_back('s');
      const std::string& s = col.GetString(row);
      uint32_t len = static_cast<uint32_t>(s.size());
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(s);
    } else {
      key->push_back('n');
      const double d = CanonicalDouble(col.GetNumeric(row));
      key->append(reinterpret_cast<const char*>(&d), sizeof(d));
    }
  }
}

const LocalPattern* GlobalPattern::FindLocal(const Row& fragment) const {
  return FindLocalByKey(EncodeRowKey(fragment));
}

const LocalPattern* GlobalPattern::FindLocalByKey(const std::string& key) const {
  auto it = fragment_index_.find(key);
  if (it == fragment_index_.end()) return nullptr;
  return &locals[it->second];
}

void GlobalPattern::BuildIndex() {
  fragment_index_.clear();
  fragment_index_.reserve(locals.size());
  for (size_t i = 0; i < locals.size(); ++i) {
    fragment_index_.emplace(EncodeRowKey(locals[i].fragment), i);
  }
}

void PatternSet::Add(GlobalPattern pattern) {
  pattern.BuildIndex();
  index_.emplace(pattern.pattern, patterns_.size());
  patterns_.push_back(std::move(pattern));
}

const GlobalPattern* PatternSet::Find(const Pattern& pattern) const {
  auto it = index_.find(pattern);
  if (it == index_.end()) return nullptr;
  return &patterns_[it->second];
}

int64_t PatternSet::NumLocalPatterns() const {
  int64_t total = 0;
  // analyzer:allow-next-line(cancellation) O(|patterns|) accessor, no scans
  for (const GlobalPattern& p : patterns_) total += static_cast<int64_t>(p.locals.size());
  return total;
}

PatternSet PatternSet::Truncated(int64_t max_locals) const {
  PatternSet out;
  int64_t taken = 0;
  // analyzer:allow-next-line(cancellation) copies at most max_locals locals
  for (const GlobalPattern& p : patterns_) {
    if (taken >= max_locals) break;
    GlobalPattern copy = p;
    const int64_t room = max_locals - taken;
    if (static_cast<int64_t>(copy.locals.size()) > room) {
      copy.locals.resize(static_cast<size_t>(room));
    }
    taken += static_cast<int64_t>(copy.locals.size());
    out.Add(std::move(copy));
  }
  return out;
}

std::string PatternSet::ToString(const Schema& schema, size_t max_patterns) const {
  std::string out;
  const size_t shown = std::min(max_patterns, patterns_.size());
  for (size_t i = 0; i < shown; ++i) {
    const GlobalPattern& p = patterns_[i];
    out += StringFormat("%-60s locals=%zu conf=%.2f supp=%lld\n",
                        p.pattern.ToString(schema).c_str(), p.locals.size(),
                        p.global_confidence, static_cast<long long>(p.num_holding));
  }
  if (shown < patterns_.size()) {
    out += "... (" + std::to_string(patterns_.size() - shown) + " more patterns)\n";
  }
  return out;
}

}  // namespace cape
