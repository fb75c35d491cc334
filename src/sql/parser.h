#ifndef CAPE_SQL_PARSER_H_
#define CAPE_SQL_PARSER_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "explain/user_question.h"
#include "relational/operators.h"
#include "relational/value.h"

namespace cape {

/// One item of a SELECT list: a plain column or agg(column|*), optionally
/// AS-aliased.
struct SelectItem {
  bool is_aggregate = false;
  AggFunc agg = AggFunc::kCount;
  /// Column name ("*" together with is_aggregate means count(*); plain "*"
  /// with !is_aggregate means SELECT *).
  std::string column;
  std::string alias;  // empty = default name

  std::string DefaultName() const;
};

/// WHERE predicate: column OP literal.
struct WherePredicate {
  enum class Op : int { kEq, kNe, kLt, kLe, kGt, kGe };
  std::string column;
  Op op = Op::kEq;
  Value literal;
};

/// An aggregate SELECT statement:
///   SELECT items FROM table [WHERE p AND ...] [GROUP BY cols]
///   [ORDER BY col [ASC|DESC]] [LIMIT n]
struct SelectQuery {
  std::vector<SelectItem> items;
  std::string table;
  std::vector<WherePredicate> where;  // conjunctive
  std::vector<std::string> group_by;
  std::optional<std::string> order_by;
  bool order_ascending = true;
  std::optional<int64_t> limit;
};

/// The CAPE explanation command (the paper's user question, Definition 1):
///   EXPLAIN WHY agg(A|*) IS LOW|HIGH
///   FOR col = literal (, col = literal)* FROM table [TOP k]
/// The FOR clause simultaneously fixes the question's group-by attributes G
/// and the tuple t[G].
struct ExplainWhyCommand {
  AggFunc agg = AggFunc::kCount;
  std::string agg_column;  // "*" for count(*)
  Direction direction = Direction::kLow;
  std::vector<std::string> group_by;
  std::vector<Value> group_values;
  std::string table;
  std::optional<int64_t> top_k;  // TOP n: 1 <= n <= INT_MAX
};

using Statement = std::variant<SelectQuery, ExplainWhyCommand>;

/// Parses one statement (optionally `;`-terminated).
Result<Statement> ParseStatement(const std::string& sql);

/// Convenience: parse expecting a SELECT (InvalidArgument otherwise).
Result<SelectQuery> ParseSelect(const std::string& sql);

/// Convenience: parse expecting EXPLAIN WHY (InvalidArgument otherwise).
Result<ExplainWhyCommand> ParseExplainWhy(const std::string& sql);

}  // namespace cape

#endif  // CAPE_SQL_PARSER_H_
