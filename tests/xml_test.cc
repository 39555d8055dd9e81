#include <gtest/gtest.h>

#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "workload/member_gen.h"
#include "workload/xmark_gen.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xqtp::xml {
namespace {

/// Numbers `n`'s subtree the way the region encoding defines it: a node,
/// then its attributes, then its children in preorder; attributes take
/// their postorder rank before any child of their element.
void Renumber(const Node* n, int32_t* pre, int32_t* post,
              std::unordered_map<const Node*, std::pair<int32_t, int32_t>>*
                  ranks,
              std::vector<const Node*>* all) {
  all->push_back(n);
  const int32_t my_pre = (*pre)++;
  for (const Node* a : n->Attributes()) {
    all->push_back(a);
    (*ranks)[a] = {(*pre)++, (*post)++};
  }
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    Renumber(c, pre, post, ranks, all);
  }
  (*ranks)[n] = {my_pre, (*post)++};
}

void ExpectRising(const std::vector<const Node*>& nodes, const char* what) {
  for (size_t i = 1; i < nodes.size(); ++i) {
    ASSERT_LT(nodes[i - 1]->pre, nodes[i]->pre) << what << " at " << i;
  }
}

/// Checks the numbers DocumentBuilder assigned as it added each node
/// against ones recomputed from the finished tree.
void ExpectBuildTimeNumbering(const Document& doc) {
  std::unordered_map<const Node*, std::pair<int32_t, int32_t>> ranks;
  std::vector<const Node*> all;
  int32_t pre = 0;
  int32_t post = 0;
  Renumber(doc.root(), &pre, &post, &ranks, &all);
  ASSERT_EQ(all.size(), doc.node_count());

  ExpectRising(doc.AllNodes(), "AllNodes");
  ExpectRising(doc.AllElements(), "AllElements");
  ExpectRising(doc.TextNodes(), "TextNodes");
  std::set<Symbol> attr_names;
  for (const Node* n : all) {
    if (n->IsAttribute()) attr_names.insert(n->name);
  }
  for (Symbol name : attr_names) {
    ExpectRising(doc.AttributesByName(name), "AttributesByName");
  }

  EXPECT_EQ(doc.root()->depth, 0);
  for (const Node* n : all) {
    EXPECT_EQ(n->pre, ranks[n].first);
    EXPECT_EQ(n->post, ranks[n].second);
    if (n->parent != nullptr) {
      EXPECT_EQ(n->depth, n->parent->depth + 1);
    }
    for (const Node* a : n->Attributes()) {
      for (const Node* c = n->first_child; c != nullptr;
           c = c->next_sibling) {
        EXPECT_LT(a->post, c->post);
      }
    }
  }

  std::mt19937 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const Node* a = all[rng() % all.size()];
    const Node* d = all[rng() % all.size()];
    bool on_chain = false;
    for (const Node* p = d->parent; p != nullptr; p = p->parent) {
      on_chain = on_chain || p == a;
    }
    EXPECT_EQ(a->IsAncestorOf(*d), on_chain) << a->pre << " " << d->pre;
  }
}

TEST(DocumentBuilder, NumbersNodesAsTheyAreAdded) {
  {
    StringInterner interner;
    workload::XmarkParams p;
    p.factor = 0.05;
    auto doc = workload::GenerateXmark(p, &interner);
    ExpectBuildTimeNumbering(*doc);
  }
  {
    StringInterner interner;
    workload::MemberParams p;
    p.node_count = 5000;
    p.max_depth = 5;
    p.plant_twigs = 20;
    auto doc = workload::GenerateMember(p, &interner);
    ExpectBuildTimeNumbering(*doc);
  }
  {
    StringInterner interner;
    auto res = Parse(
        "<r a=\"1\" b=\"2\">x<s c=\"3\">y<t/>z</s>w"
        "<u d=\"4\" e=\"5\"><v f=\"6\">q</v></u>tail</r>",
        &interner);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ExpectBuildTimeNumbering(**res);
  }
}

TEST(DocumentBuilder, TextAndAttributeAccessors) {
  StringInterner interner;
  auto res = Parse("<r a=\"1\" b=\"two\">x<s c=\"3\"/>y</r>", &interner);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Node* r = res.value()->root()->first_child;
  ASSERT_EQ(r->Attributes().size(), 2u);
  EXPECT_EQ(r->Attributes()[0]->Text(), "1");
  EXPECT_EQ(r->Attributes()[1]->Text(), "two");
  EXPECT_EQ(r->Attributes()[1]->parent, r);
  EXPECT_TRUE(r->Text().empty());
  const Node* x = r->first_child;
  EXPECT_EQ(x->Text(), "x");
  EXPECT_TRUE(x->Attributes().empty());
  const Node* s = x->next_sibling;
  ASSERT_EQ(s->Attributes().size(), 1u);
  EXPECT_EQ(s->Attributes()[0]->Text(), "3");
  EXPECT_TRUE(s->Attributes()[0]->Attributes().empty());
  EXPECT_EQ(s->next_sibling->Text(), "y");
  EXPECT_TRUE(res.value()->root()->Attributes().empty());
}

TEST(DocumentBuilder, BuildsStructure) {
  StringInterner interner;
  DocumentBuilder b(&interner);
  b.StartElement("a");
  b.StartElement("b");
  b.Text("hello");
  b.EndElement();
  b.StartElement("c");
  b.EndElement();
  b.EndElement();
  auto doc = b.Finish();

  const Node* root = doc->root();
  ASSERT_TRUE(root->IsDocument());
  const Node* a = root->first_child;
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(interner.NameOf(a->name), "a");
  const Node* bn = a->first_child;
  const Node* cn = bn->next_sibling;
  EXPECT_EQ(interner.NameOf(bn->name), "b");
  EXPECT_EQ(interner.NameOf(cn->name), "c");
  EXPECT_EQ(bn->next_sibling, cn);
  EXPECT_EQ(bn->parent, a);
}

TEST(DocumentBuilder, PrePostEncoding) {
  StringInterner interner;
  DocumentBuilder b(&interner);
  b.StartElement("a");
  b.StartElement("b");
  b.StartElement("d");
  b.EndElement();
  b.EndElement();
  b.StartElement("c");
  b.EndElement();
  b.EndElement();
  auto doc = b.Finish();

  const Node* a = doc->root()->first_child;
  const Node* bn = a->first_child;
  const Node* d = bn->first_child;
  const Node* c = bn->next_sibling;

  // Preorder: doc(0) a(1) b(2) d(3) c(4).
  EXPECT_EQ(a->pre, 1);
  EXPECT_EQ(bn->pre, 2);
  EXPECT_EQ(d->pre, 3);
  EXPECT_EQ(c->pre, 4);
  // Region containment: ancestor test.
  EXPECT_TRUE(a->IsAncestorOf(*d));
  EXPECT_TRUE(bn->IsAncestorOf(*d));
  EXPECT_FALSE(c->IsAncestorOf(*d));
  EXPECT_FALSE(d->IsAncestorOf(*bn));
  // Depth.
  EXPECT_EQ(a->depth, 1);
  EXPECT_EQ(d->depth, 3);
}

TEST(DocumentBuilder, AttributeEncodingIsNotAncestorOfChildren) {
  StringInterner interner;
  DocumentBuilder b(&interner);
  b.StartElement("a");
  b.Attribute("id", "1");
  b.StartElement("b");
  b.EndElement();
  b.EndElement();
  auto doc = b.Finish();

  const Node* a = doc->root()->first_child;
  const Node* attr = a->Attributes()[0];
  const Node* bn = a->first_child;
  EXPECT_TRUE(a->IsAncestorOf(*attr));
  EXPECT_FALSE(attr->IsAncestorOf(*bn));
  EXPECT_LT(attr->pre, bn->pre);  // attributes precede children in doc order
}

TEST(Parser, ParsesElementsAttributesText) {
  StringInterner interner;
  auto res = Parse("<a id=\"1\"><b>hi &amp; bye</b><c/></a>", &interner);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Document& doc = **res;
  const Node* a = doc.root()->first_child;
  EXPECT_EQ(interner.NameOf(a->name), "a");
  ASSERT_EQ(a->Attributes().size(), 1u);
  EXPECT_EQ(a->Attributes()[0]->Text(), "1");
  const Node* b = a->first_child;
  EXPECT_EQ(b->StringValue(), "hi & bye");
}

TEST(Parser, SkipsCommentsPIsDoctype) {
  StringInterner interner;
  auto res = Parse(
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- c --><a><!-- x --><b/></a>",
      &interner);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Node* a = res.value()->root()->first_child;
  EXPECT_EQ(interner.NameOf(a->name), "a");
  EXPECT_EQ(interner.NameOf(a->first_child->name), "b");
}

TEST(Parser, CdataAndNumericEntities) {
  StringInterner interner;
  auto res = Parse("<a><![CDATA[<raw>]]>&#65;&#x20AC;&#x1F600;</a>",
                   &interner);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // U+20AC is three UTF-8 bytes, U+1F600 four.
  EXPECT_EQ(res.value()->root()->first_child->StringValue(),
            "<raw>A\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(Parser, RejectsMismatchedTags) {
  StringInterner interner;
  auto res = Parse("<a><b></a></b>", &interner);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(Parser, AttributeNamesAreUniquePerElement) {
  StringInterner interner;
  auto ok = Parse("<a x=\"1\" y=\"2\"><b x=\"3\"/><c y=\"4\" x=\"5\"/></a>",
                  &interner);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  // Names already interned by the document above.
  auto dup = Parse("<a x=\"1\"><b y=\"2\" x=\"3\" y=\"4\"/></a>", &interner);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

TEST(Parser, RejectsTrailingContent) {
  StringInterner interner;
  EXPECT_FALSE(Parse("<a/><b/>", &interner).ok());
}

TEST(Serializer, RoundTrips) {
  StringInterner interner;
  std::string xml = "<a id=\"1\"><b>hi</b><c/></a>";
  auto res = Parse(xml, &interner);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(Serialize(res.value()->root()), xml);
}

// Escaped characters first, last and adjacent, in text and in attribute
// values, with plain and empty values beside them, survive a round trip
// through the parser and serialize back to the same text.
TEST(Serializer, EscapesRoundTripThroughTheParser) {
  StringInterner interner;
  const std::string xml =
      "<a x=\"&amp;mid&lt;&gt;&quot;&quot;\" e=\"\" p=\"plain\">"
      "<b>&lt;first</b><b>last&gt;</b><b>&amp;&lt;&gt;&quot;</b>"
      "<b>no specials</b><b q=\"&quot;\"/>"
      "<b>&quot;a &amp; b&quot; &lt; c</b></a>";
  auto res = Parse(xml, &interner);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const Node* a = res.value()->root()->first_child;
  ASSERT_EQ(a->Attributes().size(), 3u);
  EXPECT_EQ(a->Attributes()[0]->Text(), "&mid<>\"\"");
  EXPECT_EQ(a->Attributes()[1]->Text(), "");
  EXPECT_EQ(a->Attributes()[2]->Text(), "plain");
  std::vector<std::string> texts;
  for (const Node* b = a->first_child; b != nullptr; b = b->next_sibling) {
    texts.push_back(b->StringValue());
  }
  EXPECT_EQ(texts, (std::vector<std::string>{"<first", "last>", "&<>\"",
                                             "no specials", "",
                                             "\"a & b\" < c"}));
  const std::string out = Serialize(res.value()->root());
  EXPECT_EQ(out, xml);
  auto again = Parse(out, &interner);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Serialize(again.value()->root()), xml);
}

// AppendEscaped appends to what the string already holds; an empty text
// appends nothing.
TEST(Serializer, AppendEscapedAppends) {
  std::string out = "x";
  AppendEscaped("", &out);
  EXPECT_EQ(out, "x");
  AppendEscaped("<>", &out);
  AppendEscaped("plain", &out);
  AppendEscaped("\"&", &out);
  EXPECT_EQ(out, "x&lt;&gt;plain&quot;&amp;");
}

TEST(TagIndex, DocumentOrderAndLazy) {
  StringInterner interner;
  auto res = Parse("<a><b/><c><b/></c><b/></a>", &interner);
  ASSERT_TRUE(res.ok());
  const Document& doc = **res;
  Symbol b = interner.Lookup("b");
  const auto& bs = doc.ElementsByTag(b);
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_LT(bs[0]->pre, bs[1]->pre);
  EXPECT_LT(bs[1]->pre, bs[2]->pre);
  // Unknown tag: empty stream.
  EXPECT_TRUE(doc.ElementsByTag(interner.Intern("zzz")).empty());
}

TEST(TagIndex, AllNodesIncludesDocElementText) {
  StringInterner interner;
  auto res = Parse("<a>t<b/></a>", &interner);
  ASSERT_TRUE(res.ok());
  const auto& all = res.value()->AllNodes();
  // document, a, text, b
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(all[0]->IsDocument());
  EXPECT_TRUE(all[2]->IsText());
}

TEST(StringValue, ConcatenatesDescendantText) {
  StringInterner interner;
  auto res = Parse("<a>x<b>y</b>z</a>", &interner);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value()->root()->StringValue(), "xyz");
}

}  // namespace
}  // namespace xqtp::xml
