#include "xquery/parser.h"

#include <gtest/gtest.h>

#include "workload/bookrev_generator.h"

namespace quickview::xquery {
namespace {

TEST(ParserTest, SimplePath) {
  auto q = ParseQuery("fn:doc(books.xml)/books//book/isbn");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->body->kind, ExprKind::kPath);
  const auto& path = static_cast<const PathExpr&>(*q->body);
  EXPECT_EQ(path.source->kind, ExprKind::kDoc);
  ASSERT_EQ(path.steps.size(), 3u);
  EXPECT_FALSE(path.steps[0].descendant);
  EXPECT_TRUE(path.steps[1].descendant);
  EXPECT_EQ(path.steps[2].tag, "isbn");
}

TEST(ParserTest, PathPredicate) {
  auto q = ParseQuery("fn:doc(d.xml)/a//b[./year > 1995]");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& path = static_cast<const PathExpr&>(*q->body);
  ASSERT_EQ(path.steps.size(), 2u);
  ASSERT_EQ(path.steps[1].predicates.size(), 1u);
  EXPECT_EQ(path.steps[1].predicates[0]->kind, ExprKind::kComparison);
}

TEST(ParserTest, MidPathPredicate) {
  auto q = ParseQuery("fn:doc(d.xml)//b[./year > 1995]/title");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& path = static_cast<const PathExpr&>(*q->body);
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[0].predicates.size(), 1u);
  EXPECT_EQ(path.steps[1].tag, "title");
  EXPECT_TRUE(path.steps[1].predicates.empty());
}

TEST(ParserTest, BareTagPredicateIsContextRelative) {
  auto q = ParseQuery("fn:doc(d.xml)/a//b[year > 1995]");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& path = static_cast<const PathExpr&>(*q->body);
  ASSERT_EQ(path.steps.back().predicates.size(), 1u);
  const auto& cmp =
      static_cast<const ComparisonExpr&>(*path.steps.back().predicates[0]);
  ASSERT_EQ(cmp.left->kind, ExprKind::kPath);
  const auto& pred_path = static_cast<const PathExpr&>(*cmp.left);
  EXPECT_EQ(pred_path.source->kind, ExprKind::kContext);
  EXPECT_EQ(pred_path.steps[0].tag, "year");
}

TEST(ParserTest, FlworWithWhereAndJoin) {
  auto q = ParseQuery(
      "for $b in fn:doc(b.xml)/books//book "
      "where $b/isbn = $b/isbn2 return $b/title");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& flwor = static_cast<const FlworExpr&>(*q->body);
  ASSERT_EQ(flwor.clauses.size(), 1u);
  EXPECT_FALSE(flwor.clauses[0].is_let);
  EXPECT_EQ(flwor.clauses[0].var, "b");
  ASSERT_NE(flwor.where, nullptr);
  EXPECT_EQ(flwor.where->kind, ExprKind::kComparison);
  EXPECT_EQ(flwor.ret->kind, ExprKind::kPath);
}

TEST(ParserTest, ElementConstructorWithBracesAndText) {
  auto q = ParseQuery("<a>hello {fn:doc(d.xml)/x} <b>{.}</b></a>");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& ctor = static_cast<const ElementCtorExpr&>(*q->body);
  EXPECT_EQ(ctor.tag, "a");
  ASSERT_EQ(ctor.children.size(), 3u);
  EXPECT_EQ(ctor.children[0]->kind, ExprKind::kLiteral);
  EXPECT_EQ(ctor.children[1]->kind, ExprKind::kPath);
  EXPECT_EQ(ctor.children[2]->kind, ExprKind::kElementCtor);
}

TEST(ParserTest, IfThenElse) {
  auto q = ParseQuery(
      "if fn:doc(d.xml)/a then fn:doc(d.xml)/b else fn:doc(d.xml)/c");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body->kind, ExprKind::kIf);
}

TEST(ParserTest, FunctionDeclarationAndCall) {
  auto q = ParseQuery(
      "declare function reviews($b) { $b/review } "
      "reviews(fn:doc(d.xml)//book)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->functions.size(), 1u);
  EXPECT_EQ(q->functions[0].name, "reviews");
  EXPECT_EQ(q->functions[0].params, (std::vector<std::string>{"b"}));
  EXPECT_EQ(q->body->kind, ExprKind::kFunctionCall);
}

TEST(ParserTest, SequencesAndEmptySequence) {
  auto q = ParseQuery("(fn:doc(a.xml)/x, fn:doc(b.xml)/y)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body->kind, ExprKind::kSequence);
  auto empty = ParseQuery("()");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(
      static_cast<const SequenceExpr&>(*empty->body).items.empty());
}

TEST(ParserTest, NestedFlworPaperFig2) {
  auto q = ParseQuery(workload::BookRevView());
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& flwor = static_cast<const FlworExpr&>(*q->body);
  EXPECT_EQ(flwor.ret->kind, ExprKind::kElementCtor);
}

TEST(ParserTest, KeywordQueryFig2) {
  auto kq = ParseKeywordQuery(workload::BookRevKeywordQuery());
  ASSERT_TRUE(kq.ok()) << kq.status();
  EXPECT_EQ(kq->keywords, (std::vector<std::string>{"xml", "search"}));
  EXPECT_TRUE(kq->conjunctive);
  EXPECT_EQ(kq->view.body->kind, ExprKind::kFlwor);
}

TEST(ParserTest, KeywordQueryDisjunctive) {
  auto kq = ParseKeywordQuery(
      "let $v := fn:doc(d.xml)//a for $x in $v "
      "where $x ftcontains('XML' | 'Search') return $x");
  ASSERT_TRUE(kq.ok()) << kq.status();
  EXPECT_FALSE(kq->conjunctive);
  EXPECT_EQ(kq->keywords.size(), 2u);
}

TEST(ParserTest, KeywordQueryLowercasesAndSplitsPhrases) {
  auto kq = ParseKeywordQuery(
      "let $v := fn:doc(d.xml)//a for $x in $v "
      "where $x ftcontains('XML Search') return $x");
  ASSERT_TRUE(kq.ok()) << kq.status();
  EXPECT_EQ(kq->keywords, (std::vector<std::string>{"xml", "search"}));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("for $x in").ok());
  EXPECT_FALSE(ParseQuery("fn:doc(").ok());
  EXPECT_FALSE(ParseQuery("<a>{$x}</b>").ok());  // mismatched ctor tags
  EXPECT_FALSE(ParseQuery("for $x in fn:doc(d.xml)//a").ok());  // no return
  EXPECT_FALSE(
      ParseKeywordQuery("for $x in fn:doc(d.xml)//a return $x").ok());
  EXPECT_FALSE(ParseKeywordQuery(
                   "let $v := fn:doc(d.xml)//a for $x in $v "
                   "where $x ftcontains('a' & 'b' | 'c') return $x")
                   .ok());  // mixed connectives
  // Wrong variable returned.
  EXPECT_FALSE(ParseKeywordQuery(
                   "let $v := fn:doc(d.xml)//a for $x in $v "
                   "where $x ftcontains('a') return $v")
                   .ok());
}

TEST(ParserTest, ExprToStringRoundtrips) {
  auto q = ParseQuery(
      "for $b in fn:doc(b.xml)/books//book[./year > 1995] "
      "return <r>{$b/title}</r>");
  ASSERT_TRUE(q.ok()) << q.status();
  std::string text = ExprToString(*q->body);
  auto q2 = ParseQuery(text);
  ASSERT_TRUE(q2.ok()) << q2.status() << " from: " << text;
  EXPECT_EQ(ExprToString(*q2->body), text);
}

/// A view whose path sits inside `levels` nestings of one construct.
struct Construct {
  const char* open;
  const char* close;
};
constexpr Construct kConstructs[] = {
    {"(", ")"},                     {"<a>{", "}</a>"},
    {"$x[", "]"},                   {"f(", ")"},
    {"for $x in ", " return $x"},   {"if $x then ", " else $x"},
};

std::string Nested(const Construct& construct, int levels) {
  std::string out;
  for (int i = 0; i < levels; ++i) out += construct.open;
  out += "fn:doc(books.xml)/books//book";
  for (int i = 0; i < levels; ++i) out += construct.close;
  return out;
}

std::string KeywordQueryOver(const std::string& view) {
  return "let $v := " + view +
         " for $x in $v where $x ftcontains('xml') return $x";
}

TEST(ParserTest, QueryAtTheNestingLimitParses) {
  for (const Construct& construct : kConstructs) {
    const std::string view = Nested(construct, kMaxNestingDepth);
    auto parsed = ParseQuery(view);
    EXPECT_TRUE(parsed.ok()) << construct.open << ": " << parsed.status();
    auto keyword = ParseKeywordQuery(KeywordQueryOver(view));
    EXPECT_TRUE(keyword.ok()) << construct.open << ": " << keyword.status();
  }
}

TEST(ParserTest, NestingPastTheLimitIsInvalidArgument) {
  for (int levels : {kMaxNestingDepth + 1, 100000}) {
    for (const Construct& construct : kConstructs) {
      const std::string view = Nested(construct, levels);
      const Status status = ParseQuery(view).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << construct.open << " x" << levels << ": " << status;
      EXPECT_NE(status.message().find("nesting"), std::string::npos)
          << status;
      EXPECT_EQ(ParseKeywordQuery(KeywordQueryOver(view)).status().code(),
                StatusCode::kInvalidArgument)
          << construct.open << " x" << levels;
    }
  }
}

}  // namespace
}  // namespace quickview::xquery
