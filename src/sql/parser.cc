#include "sql/parser.h"

#include <limits>
#include <string>

#include "common/macros.h"
#include "sql/lexer.h"

namespace cape {

namespace {

/// Recursive-descent cursor over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    if (Peek().IsKeyword("SELECT")) {
      CAPE_ASSIGN_OR_RETURN(SelectQuery q, ParseSelect());
      CAPE_RETURN_IF_ERROR(ExpectEnd());
      return Statement(std::move(q));
    }
    if (Peek().IsKeyword("EXPLAIN") || Peek().IsKeyword("WHY")) {
      CAPE_ASSIGN_OR_RETURN(ExplainWhyCommand c, ParseExplainWhy());
      CAPE_RETURN_IF_ERROR(ExpectEnd());
      return Statement(std::move(c));
    }
    return Error("expected SELECT or EXPLAIN WHY");
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  const Token& Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Accept(const char* keyword_or_symbol) {
    if (Peek().IsKeyword(keyword_or_symbol) || Peek().IsSymbol(keyword_or_symbol)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Peek().position) + ": " + message +
                                   (Peek().text.empty() ? "" : " (near '" + Peek().text + "')"));
  }

  Status Expect(const char* keyword_or_symbol) {
    if (!Accept(keyword_or_symbol)) {
      return Error(std::string("expected '") + keyword_or_symbol + "'");
    }
    return Status::OK();
  }

  Status ExpectEnd() {
    Accept(";");
    if (Peek().type != TokenType::kEnd) return Error("trailing input after statement");
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error(std::string("expected ") + what);
    }
    return Advance().text;
  }

  Result<Value> ExpectLiteral() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kString:
        Advance();
        return Value::String(token.text);
      case TokenType::kInteger:
        Advance();
        return Value::Int64(token.int_value);
      case TokenType::kDouble:
        Advance();
        return Value::Double(token.double_value);
      default:
        return Error("expected a literal");
    }
  }

  static bool AggKeyword(const Token& token, AggFunc* out) {
    if (token.IsKeyword("COUNT")) *out = AggFunc::kCount;
    else if (token.IsKeyword("SUM")) *out = AggFunc::kSum;
    else if (token.IsKeyword("AVG")) *out = AggFunc::kAvg;
    else if (token.IsKeyword("MIN")) *out = AggFunc::kMin;
    else if (token.IsKeyword("MAX")) *out = AggFunc::kMax;
    else return false;
    return true;
  }

  /// agg ( column | * )
  Result<std::pair<AggFunc, std::string>> ParseAggregateCall() {
    AggFunc agg;
    if (!AggKeyword(Peek(), &agg)) return Error("expected an aggregate function");
    Advance();
    CAPE_RETURN_IF_ERROR(Expect("("));
    std::string column;
    if (Accept("*")) {
      column = "*";
    } else {
      CAPE_ASSIGN_OR_RETURN(column, ExpectIdentifier("a column name"));
    }
    CAPE_RETURN_IF_ERROR(Expect(")"));
    if (agg == AggFunc::kCount && column != "*") {
      return Error("only count(*) is supported (count over a column is not)");
    }
    if (agg != AggFunc::kCount && column == "*") {
      return Error("only count may aggregate '*'");
    }
    return std::make_pair(agg, column);
  }

  Result<SelectQuery> ParseSelect() {
    SelectQuery query;
    CAPE_RETURN_IF_ERROR(Expect("SELECT"));

    // Select list.
    while (true) {
      SelectItem item;
      AggFunc agg;
      if (AggKeyword(Peek(), &agg)) {
        CAPE_ASSIGN_OR_RETURN(auto call, ParseAggregateCall());
        item.is_aggregate = true;
        item.agg = call.first;
        item.column = call.second;
      } else if (Accept("*")) {
        item.column = "*";
      } else {
        CAPE_ASSIGN_OR_RETURN(item.column, ExpectIdentifier("a column name"));
      }
      if (Accept("AS")) {
        CAPE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("an alias"));
      }
      query.items.push_back(std::move(item));
      if (!Accept(",")) break;
    }

    CAPE_RETURN_IF_ERROR(Expect("FROM"));
    CAPE_ASSIGN_OR_RETURN(query.table, ExpectIdentifier("a table name"));

    if (Accept("WHERE")) {
      do {
        WherePredicate pred;
        CAPE_ASSIGN_OR_RETURN(pred.column, ExpectIdentifier("a column name"));
        if (Accept("=")) pred.op = WherePredicate::Op::kEq;
        else if (Accept("!=")) pred.op = WherePredicate::Op::kNe;
        else if (Accept("<=")) pred.op = WherePredicate::Op::kLe;
        else if (Accept(">=")) pred.op = WherePredicate::Op::kGe;
        else if (Accept("<")) pred.op = WherePredicate::Op::kLt;
        else if (Accept(">")) pred.op = WherePredicate::Op::kGt;
        else return Error("expected a comparison operator");
        CAPE_ASSIGN_OR_RETURN(pred.literal, ExpectLiteral());
        query.where.push_back(std::move(pred));
      } while (Accept("AND"));
    }

    if (Accept("GROUP")) {
      CAPE_RETURN_IF_ERROR(Expect("BY"));
      do {
        CAPE_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("a column name"));
        query.group_by.push_back(std::move(column));
      } while (Accept(","));
    }

    if (Accept("ORDER")) {
      CAPE_RETURN_IF_ERROR(Expect("BY"));
      CAPE_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("a column name"));
      query.order_by = std::move(column);
      if (Accept("DESC")) query.order_ascending = false;
      else Accept("ASC");
    }

    if (Accept("LIMIT")) {
      if (Peek().type != TokenType::kInteger) return Error("expected an integer limit");
      query.limit = Advance().int_value;
      if (*query.limit < 0) return Error("LIMIT must be non-negative");
    }
    return query;
  }

  Result<ExplainWhyCommand> ParseExplainWhy() {
    ExplainWhyCommand command;
    Accept("EXPLAIN");
    CAPE_RETURN_IF_ERROR(Expect("WHY"));

    CAPE_ASSIGN_OR_RETURN(auto call, ParseAggregateCall());
    command.agg = call.first;
    command.agg_column = call.second;
    if (command.agg == AggFunc::kAvg) {
      return Error("avg is not a valid ARP aggregate (Definition 2)");
    }

    CAPE_RETURN_IF_ERROR(Expect("IS"));
    if (Accept("LOW")) command.direction = Direction::kLow;
    else if (Accept("HIGH")) command.direction = Direction::kHigh;
    else return Error("expected LOW or HIGH");

    CAPE_RETURN_IF_ERROR(Expect("FOR"));
    do {
      CAPE_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("a column name"));
      CAPE_RETURN_IF_ERROR(Expect("="));
      CAPE_ASSIGN_OR_RETURN(Value literal, ExpectLiteral());
      command.group_by.push_back(std::move(column));
      command.group_values.push_back(std::move(literal));
    } while (Accept(","));

    CAPE_RETURN_IF_ERROR(Expect("FROM"));
    CAPE_ASSIGN_OR_RETURN(command.table, ExpectIdentifier("a table name"));

    if (Accept("TOP")) {
      if (Peek().type != TokenType::kInteger) return Error("expected an integer after TOP");
      command.top_k = Advance().int_value;
      if (*command.top_k <= 0 || *command.top_k > std::numeric_limits<int>::max()) {
        return Error("TOP must be between 1 and " +
                     std::to_string(std::numeric_limits<int>::max()));
      }
    }
    return command;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

std::string SelectItem::DefaultName() const {
  if (!alias.empty()) return alias;
  if (!is_aggregate) return column;
  std::string name = AggFuncToString(agg);
  name += "_";
  name += (column == "*") ? "star" : column;
  return name;
}

Result<Statement> ParseStatement(const std::string& sql) {
  CAPE_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SelectQuery> ParseSelect(const std::string& sql) {
  CAPE_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  if (auto* query = std::get_if<SelectQuery>(&statement)) return std::move(*query);
  return Status::InvalidArgument("statement is not a SELECT");
}

Result<ExplainWhyCommand> ParseExplainWhy(const std::string& sql) {
  CAPE_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  if (auto* command = std::get_if<ExplainWhyCommand>(&statement)) {
    return std::move(*command);
  }
  return Status::InvalidArgument("statement is not an EXPLAIN WHY command");
}

}  // namespace cape
