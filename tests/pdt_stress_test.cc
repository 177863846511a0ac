// Stress shapes for the PDT merge pass that the randomized property test
// reaches only by luck: highly skewed list lengths (exercising the
// at-most-two-ids pull rule), long runs of elements failing mandatory
// constraints (exercising cache discard), and late-arriving ancestors.
#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "pdt/generate_pdt.h"
#include "qpt/generate_qpt.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xquery/parser.h"

namespace quickview::pdt {
namespace {

std::vector<qpt::Qpt> QptsFor(const std::string& view) {
  auto query = xquery::ParseQuery(view);
  EXPECT_TRUE(query.ok()) << query.status();
  auto qpts = qpt::GenerateQpts(&*query);
  EXPECT_TRUE(qpts.ok()) << qpts.status();
  return std::move(*qpts);
}

TEST(PdtStressTest, LongRunsOfMandatoryFailures) {
  // 1000 items, only every 50th has the mandatory key: the CT must stay
  // tiny while churning through the failures.
  xml::Document doc(1);
  xml::NodeIndex root = doc.CreateRoot("list");
  int expected = 0;
  for (int i = 0; i < 1000; ++i) {
    xml::NodeIndex item = doc.AddChild(root, "item");
    doc.node(doc.AddChild(item, "note")).text = "n" + std::to_string(i);
    if (i % 50 == 0) {
      doc.node(doc.AddChild(item, "key")).text = std::to_string(i);
      ++expected;
    }
  }
  xml::Database db;
  auto shared = std::make_shared<xml::Document>(std::move(doc));
  db.AddDocument("list.xml", shared);
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts = QptsFor(
      "for $i in fn:doc(list.xml)/list//item where $i/key "
      "return <r>{$i/note}</r>");
  PdtBuildStats stats;
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("list.xml"), {}, &stats);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  const xml::Document& out = **pdt;
  int items = 0;
  for (xml::NodeIndex i = 0; i < out.size(); ++i) {
    if (out.node(i).tag == "item") ++items;
  }
  EXPECT_EQ(items, expected);
  // Bounded working set: far below the element count (the algorithm's
  // memory claim — the CT holds at most a couple of ids per list).
  EXPECT_LT(stats.peak_ct_nodes, 50u);
}

TEST(PdtStressTest, SkewedListSizes) {
  // One list with 500 entries, the mandatory one with 2: the pull rule
  // must drain the long list without accumulating it in the CT.
  xml::Document doc(1);
  xml::NodeIndex root = doc.CreateRoot("r");
  for (int i = 0; i < 500; ++i) {
    xml::NodeIndex e = doc.AddChild(root, "e");
    doc.node(doc.AddChild(e, "text")).text = "t" + std::to_string(i);
    if (i == 100 || i == 400) {
      doc.node(doc.AddChild(e, "flag")).text = "y";
    }
  }
  xml::Database db;
  db.AddDocument("r.xml", std::make_shared<xml::Document>(std::move(doc)));
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts =
      QptsFor("for $e in fn:doc(r.xml)/r//e where $e/flag return $e");
  PdtBuildStats stats;
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("r.xml"), {}, &stats);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  int kept = 0;
  for (xml::NodeIndex i = 0; i < (*pdt)->size(); ++i) {
    if ((*pdt)->node(i).tag == "e") ++kept;
  }
  EXPECT_EQ(kept, 2);
  EXPECT_LT(stats.peak_ct_nodes, 20u);
}

TEST(PdtStressTest, DeepDescendantChains) {
  // //a//a//a over a 12-deep all-'a' spine.
  std::string text;
  for (int i = 0; i < 12; ++i) text += "<a>";
  text += "<leaf>x</leaf>";
  for (int i = 0; i < 12; ++i) text += "</a>";
  auto doc = xml::ParseXml(text, 1);
  ASSERT_TRUE(doc.ok());
  xml::Database db;
  db.AddDocument("deep.xml", *doc);
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts = QptsFor("for $x in fn:doc(deep.xml)//a//a//a return $x");
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("deep.xml"), {}, nullptr);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  // Every 'a' except the top two can be the third step's match; all the
  // spine survives as ancestors. All 12 spine nodes are in the PDT.
  int a_count = 0;
  for (xml::NodeIndex i = 0; i < (*pdt)->size(); ++i) {
    if ((*pdt)->node(i).tag == "a") ++a_count;
  }
  EXPECT_EQ(a_count, 12);
}

TEST(PdtStressTest, WideFanoutManyLists) {
  // A QPT with 6 probed leaves under one parent.
  xml::Document doc(1);
  xml::NodeIndex root = doc.CreateRoot("recs");
  for (int i = 0; i < 50; ++i) {
    xml::NodeIndex rec = doc.AddChild(root, "rec");
    for (const char* tag : {"f1", "f2", "f3", "f4", "f5", "f6"}) {
      // Drop one field per record, round-robin.
      if (std::string(tag) == "f" + std::to_string(1 + i % 6)) continue;
      doc.node(doc.AddChild(rec, tag)).text = tag;
    }
  }
  xml::Database db;
  db.AddDocument("w.xml",
                 std::make_shared<xml::Document>(std::move(doc)));
  auto indexes = index::BuildDatabaseIndexes(db);
  // f1..f3 mandatory (where-existence), f4..f6 content.
  auto qpts = QptsFor(
      "for $r in fn:doc(w.xml)/recs//rec[./f1][./f2][./f3] "
      "return <o>{$r/f4}, {$r/f5}, {$r/f6}</o>");
  auto pdt = GeneratePdt(qpts[0], *indexes->Get("w.xml"), {}, nullptr);
  ASSERT_TRUE(pdt.ok()) << pdt.status();
  int recs = 0;
  for (xml::NodeIndex i = 0; i < (*pdt)->size(); ++i) {
    if ((*pdt)->node(i).tag == "rec") ++recs;
  }
  // Records missing f1, f2 or f3 are pruned: 50 - 3*ceil(50/6 splits).
  int expected = 0;
  for (int i = 0; i < 50; ++i) {
    int dropped = 1 + i % 6;
    if (dropped > 3) ++expected;  // only f4..f6 missing is survivable
  }
  EXPECT_EQ(recs, expected);
}

TEST(PdtStressTest, TwoDocumentJoinViewLists) {
  // Both QPTs of a join view generate well-formed PDTs independently.
  auto left = xml::ParseXml("<ls><l><k>1</k></l><l><k>2</k></l></ls>", 1);
  auto right = xml::ParseXml(
      "<rs><r><k>2</k><p>x</p></r><r><p>orphan</p></r></rs>", 2);
  ASSERT_TRUE(left.ok() && right.ok());
  xml::Database db;
  db.AddDocument("l.xml", *left);
  db.AddDocument("r.xml", *right);
  auto indexes = index::BuildDatabaseIndexes(db);
  auto qpts = QptsFor(
      "for $l in fn:doc(l.xml)/ls//l return <m>{$l/k},"
      "{for $r in fn:doc(r.xml)/rs//r where $r/k = $l/k return $r/p}</m>");
  ASSERT_EQ(qpts.size(), 2u);
  for (const qpt::Qpt& q : qpts) {
    auto indexes_for =
        q.source_doc == "l.xml" ? indexes->Get("l.xml") : indexes->Get("r.xml");
    auto pdt = GeneratePdt(q, *indexes_for, {"x"}, nullptr);
    ASSERT_TRUE(pdt.ok()) << pdt.status();
    EXPECT_TRUE((*pdt)->has_root());
  }
}

}  // namespace
}  // namespace quickview::pdt
