// Robustness and property tests for the XML layer: malformed inputs
// produce errors (never crashes), and parse/serialize round-trips are
// stable over generated documents.
#include <gtest/gtest.h>

#include <random>

#include "workload/member_gen.h"
#include "workload/xmark_gen.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xqtp::xml {
namespace {

TEST(XmlRobustness, MalformedInputsAreErrors) {
  const char* inputs[] = {
      "",
      "<",
      "<>",
      "<a",
      "<a/",
      "<a></b>",
      "<a><b></a>",
      "<a attr></a>",
      "<a attr=></a>",
      "<a attr=\"x></a>",
      "<a>&unknown;</a>",
      "<a>&unterminated",
      "<a><!-- unterminated</a>",
      "<a><![CDATA[never closed</a>",
      "text outside",
      "<a/><b/>",
      "<a/>trailing",
      "<1tag/>",
      // Character references that are empty, ill-formed or name no XML
      // character.
      "<a>&#;</a>",
      "<a>&#x;</a>",
      "<a>&#xZZ;</a>",
      "<a>&#99999999999;</a>",
      "<a>&#-5;</a>",
      "<a>&#+65;</a>",
      "<a>&#65abc;</a>",
      "<a>&#0;</a>",
      "<a>&#xD800;</a>",
      "<a>&#x110000;</a>",
      "<a x=\"&#0;\"/>",
      // Unique Att Spec.
      "<a x=\"1\" x=\"2\"/>",
      // Unterminated comments and PIs outside the root element.
      "<?xml",
      "<!-- never closed",
      "<a/><!--",
      "<a/><?pi",
  };
  for (const char* in : inputs) {
    StringInterner interner;
    auto res = Parse(in, &interner);
    EXPECT_FALSE(res.ok()) << "accepted: " << in;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument) << in;
  }
}

TEST(XmlRobustness, TruncationsOfValidDocumentNeverCrash) {
  const std::string doc =
      "<site><people><person id=\"p1\"><name>Ann &amp; Bob</name>"
      "<emailaddress>a@x</emailaddress></person></people>"
      "<!-- c --><regions><africa><item/></africa></regions></site>";
  for (size_t len = 0; len <= doc.size(); ++len) {
    StringInterner interner;
    auto res = Parse(doc.substr(0, len), &interner);
    if (len == doc.size()) {
      EXPECT_TRUE(res.ok());
    }
    // Shorter prefixes may or may not parse (they don't), but must not
    // crash; reaching this line is the assertion.
  }
}

TEST(XmlRobustness, MutationsNeverCrash) {
  const std::string doc =
      "<a x=\"1\"><b>text &lt;here&gt;&#65;</b><c><d/></c></a>";
  std::mt19937 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = doc;
    int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[pos] = static_cast<char>('!' + rng() % 90);
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        case 2:
          mutated.insert(pos, 1, static_cast<char>('!' + rng() % 90));
          break;
      }
      if (mutated.empty()) mutated = "<a/>";
    }
    StringInterner interner;
    auto res = Parse(mutated, &interner);
    (void)res;  // ok or error — just no crash / UB
  }
}

TEST(XmlRoundTrip, SerializeParseSerializeIsStable) {
  StringInterner interner;
  workload::XmarkParams p;
  p.factor = 0.01;
  auto doc = workload::GenerateXmark(p, &interner);
  std::string once = Serialize(doc->root());

  StringInterner interner2;
  auto reparsed = Parse(once, &interner2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  std::string twice = Serialize(reparsed.value()->root());
  EXPECT_EQ(once, twice);
  EXPECT_EQ(doc->node_count(), reparsed.value()->node_count());
}

TEST(XmlRoundTrip, MemberDocumentsRoundTrip) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    StringInterner interner;
    workload::MemberParams p;
    p.node_count = 2000;
    p.max_depth = 8;
    p.num_tags = 12;
    p.seed = seed;
    auto doc = workload::GenerateMember(p, &interner);
    std::string text = Serialize(doc->root());
    StringInterner interner2;
    auto reparsed = Parse(text, &interner2);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(Serialize(reparsed.value()->root()), text);
  }
}

TEST(XmlRoundTrip, EscapingSurvives) {
  StringInterner interner;
  auto res = Parse(
      "<a x=\"&lt;&amp;&quot;&gt;\">body &lt;tag&gt; &amp; more</a>",
      &interner);
  ASSERT_TRUE(res.ok());
  const Node* a = res.value()->root()->first_child;
  EXPECT_EQ(a->Attributes()[0]->Text(), "<&\">");
  EXPECT_EQ(a->StringValue(), "body <tag> & more");
  // Round-trip.
  std::string text = Serialize(res.value()->root());
  StringInterner interner2;
  auto again = Parse(text, &interner2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->root()->first_child->StringValue(),
            "body <tag> & more");
}

}  // namespace
}  // namespace xqtp::xml
