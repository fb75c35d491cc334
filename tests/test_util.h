#ifndef CAPE_TESTS_TEST_UTIL_H_
#define CAPE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

#include "explain/explainer.h"

namespace cape {

/// A file path under ::testing::TempDir() that belongs to the running test
/// case alone. ctest runs every discovered case as its own process, in
/// parallel, and all of them share TempDir(), so a fixed file name there
/// lets two cases overwrite each other's files. The path carries the case's
/// suite and test name; `name` tells one case's files apart. Under ctest,
/// TempDir() is the build tree's own tmp/ directory (TEST_TMPDIR, set in
/// tests/CMakeLists.txt), so two build trees never share a path. Re-running
/// a case reuses its paths, so repeated runs leave no growing pile behind.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = info == nullptr
                        ? std::string("no_test")
                        : std::string(info->test_suite_name()) + "." + info->name();
  // Parameterized names carry '/' ("FixedSeeds/Suite.Case/seed7").
  for (char& c : tag) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.' && c != '-') c = '_';
  }
  std::string path = ::testing::TempDir();
  path += "cape_";
  path += tag;
  path += "_";
  path += name;
  return path;
}

/// Every field of an answer, doubles as exact hex floats, so two answers
/// render equal only when they are byte-identical.
inline std::string AnswerBytes(const ExplainResult& result, const Schema& schema) {
  std::string out;
  char buf[48];
  auto append_double = [&](double d) {
    std::snprintf(buf, sizeof(buf), " %a", d);
    out += buf;
  };
  for (const Explanation& e : result.explanations) {
    out += e.relevant_pattern.ToString(schema) + " / " +
           e.refinement_pattern.ToString(schema) + " /";
    for (const Value& v : e.tuple_values) {
      if (v.is_null()) {
        out += " NULL";
      } else if (v.type() == DataType::kString) {
        out += " '" + v.string_value() + "'";
      } else if (v.type() == DataType::kInt64) {
        out += " i" + std::to_string(v.int64_value());
      } else {
        append_double(v.double_value());
      }
    }
    for (double d : {e.agg_value, e.predicted, e.deviation, e.distance, e.norm, e.score}) {
      append_double(d);
    }
    out += "\n";
  }
  return out;
}

}  // namespace cape

#endif  // CAPE_TESTS_TEST_UTIL_H_
