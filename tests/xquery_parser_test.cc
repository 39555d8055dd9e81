#include <gtest/gtest.h>

#include <string>

#include "xquery/parser.h"

namespace xqtp::xquery {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ExprPtr MustParse(const std::string& q) {
    auto res = ParseQuery(q, &interner_);
    EXPECT_TRUE(res.ok()) << q << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : nullptr;
  }
  std::string RoundTrip(const std::string& q) {
    ExprPtr e = MustParse(q);
    return e ? ToString(*e, interner_) : "<parse error>";
  }
  StringInterner interner_;
};

TEST_F(ParserTest, SimplePath) {
  ExprPtr e = MustParse("$d//person[emailaddress]/name");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, ExprKind::kPath);
  EXPECT_FALSE(e->double_slash);
  const Expr& lhs = *e->child0;
  EXPECT_EQ(lhs.kind, ExprKind::kPath);
  EXPECT_TRUE(lhs.double_slash);
  EXPECT_EQ(lhs.child0->kind, ExprKind::kVarRef);
  EXPECT_EQ(lhs.child0->var_name, "d");
  EXPECT_EQ(lhs.child1->kind, ExprKind::kStep);
  EXPECT_EQ(lhs.child1->predicates.size(), 1u);
}

TEST_F(ParserTest, ExplicitAxes) {
  ExprPtr e = MustParse("$input/desc::t01[child::t02]/child::t03");
  ASSERT_TRUE(e);
  EXPECT_EQ(RoundTrip("$input/descendant::a/child::b"),
            "$input/descendant::a/child::b");
  // "desc" is accepted as an alias for descendant (paper's QE syntax).
  EXPECT_EQ(RoundTrip("$input/desc::t01"), "$input/descendant::t01");
}

TEST_F(ParserTest, AbbreviatedSteps) {
  EXPECT_EQ(RoundTrip("$d/a/@id"), "$d/child::a/attribute::id");
  EXPECT_EQ(RoundTrip("$d/*"), "$d/child::*");
  EXPECT_EQ(RoundTrip("$d/node()"), "$d/child::node()");
  EXPECT_EQ(RoundTrip("$d/text()"), "$d/child::text()");
}

TEST_F(ParserTest, Flwor) {
  ExprPtr e = MustParse(
      "for $x in $d//person where $x/emailaddress return $x/name");
  ASSERT_TRUE(e);
  ASSERT_EQ(e->kind, ExprKind::kFlwor);
  ASSERT_EQ(e->clauses.size(), 2u);
  EXPECT_EQ(e->clauses[0].kind, FlworClause::Kind::kFor);
  EXPECT_EQ(e->clauses[0].var, "x");
  EXPECT_EQ(e->clauses[1].kind, FlworClause::Kind::kWhere);
}

TEST_F(ParserTest, FlworMultipleBindingsAndAt) {
  ExprPtr e = MustParse(
      "for $x at $i in $d/a, $y in $x/b let $z := $y/c return $z");
  ASSERT_TRUE(e);
  ASSERT_EQ(e->clauses.size(), 3u);
  EXPECT_EQ(e->clauses[0].pos_var, "i");
  EXPECT_EQ(e->clauses[1].var, "y");
  EXPECT_EQ(e->clauses[2].kind, FlworClause::Kind::kLet);
}

TEST_F(ParserTest, NestedFlwor) {
  ExprPtr e = MustParse(
      "let $x := for $y in $d//person where $y/emailaddress return $y "
      "return $x/name");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, ExprKind::kFlwor);
  EXPECT_EQ(e->clauses[0].kind, FlworClause::Kind::kLet);
  EXPECT_EQ(e->clauses[0].expr->kind, ExprKind::kFlwor);
}

TEST_F(ParserTest, PositionalPredicates) {
  ExprPtr e = MustParse("$d//person[1]/name");
  ASSERT_TRUE(e);
  const Expr& person = *e->child0->child1;
  ASSERT_EQ(person.predicates.size(), 1u);
  EXPECT_EQ(person.predicates[0]->kind, ExprKind::kLiteral);

  e = MustParse("$d//person[position() = 1]");
  const Expr& p2 = *e->child1;
  EXPECT_EQ(p2.predicates[0]->kind, ExprKind::kCompare);
}

TEST_F(ParserTest, ComparisonsAndLogic) {
  EXPECT_EQ(RoundTrip("$d/a = \"John\""), "$d/child::a = \"John\"");
  ExprPtr e = MustParse("$d/a = 1 and $d/b != 2 or $d/c < 3");
  EXPECT_EQ(e->kind, ExprKind::kOr);
  EXPECT_EQ(e->child0->kind, ExprKind::kAnd);
}

TEST_F(ParserTest, FunctionCalls) {
  ExprPtr e = MustParse("fn:count($d//person)");
  EXPECT_EQ(e->kind, ExprKind::kFnCall);
  EXPECT_EQ(e->fn_name, "fn:count");
  ASSERT_EQ(e->args.size(), 1u);
}

TEST_F(ParserTest, SequencesAndEmpty) {
  ExprPtr e = MustParse("($d/a, $d/b)");
  EXPECT_EQ(e->kind, ExprKind::kSequence);
  EXPECT_EQ(e->items.size(), 2u);
  e = MustParse("()");
  EXPECT_EQ(e->kind, ExprKind::kSequence);
  EXPECT_TRUE(e->items.empty());
}

TEST_F(ParserTest, LeadingSlash) {
  ExprPtr e = MustParse("/t1[1]/t1[1]");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, ExprKind::kPath);
}

TEST_F(ParserTest, PredicateOnParenthesizedExpr) {
  ExprPtr e = MustParse("($d//person)[1]");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, ExprKind::kFilter);
}

TEST_F(ParserTest, Comments) {
  ExprPtr e = MustParse("(: comment (: nested :) :) $d/a");
  ASSERT_TRUE(e);
  EXPECT_EQ(e->kind, ExprKind::kPath);
}

TEST_F(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("for $x in", &interner_).ok());
  EXPECT_FALSE(ParseQuery("$d/", &interner_).ok());
  EXPECT_FALSE(ParseQuery("$d/a[", &interner_).ok());
  EXPECT_FALSE(ParseQuery("$d/a)", &interner_).ok());
  EXPECT_FALSE(ParseQuery("let $x = 3 return $x", &interner_).ok());
  EXPECT_FALSE(ParseQuery("", &interner_).ok());
  // Numeric literals out of the int64 / double range are lexer errors.
  const std::string out_of_range[] = {
      "99999999999999999999999",
      "1" + std::string(400, '0') + ".5",
      "0." + std::string(400, '0') + "1",
  };
  for (const std::string& q : out_of_range) {
    auto res = ParseQuery(q, &interner_);
    ASSERT_FALSE(res.ok()) << q;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument) << q;
  }
}

}  // namespace
}  // namespace xqtp::xquery
