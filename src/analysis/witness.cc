#include "analysis/witness.h"

#include <cstdint>
#include <utility>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace xqtp::analysis {

namespace {

// Deterministic splitmix64; std::uniform_int_distribution is
// implementation-defined, and witness generation must be byte-identical
// across standard libraries (artifacts name docs by corpus index).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform-ish integer in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  bool Chance(int percent) { return Range(1, 100) <= percent; }

 private:
  uint64_t state_;
};

/// Emits a random element over the corpus alphabet; biased toward
/// duplicate siblings and same-tag recursion, the shapes on which the
/// pattern algorithms are easiest to get wrong.
void GenElement(Rng* rng, int depth, int* budget, std::string* out) {
  const std::vector<std::string>& tags = WitnessCorpus::TagAlphabet();
  const std::string& tag = tags[rng->Range(0, static_cast<int>(tags.size()) - 1)];
  --*budget;
  *out += "<" + tag;
  if (rng->Chance(25)) *out += " id=\"" + std::to_string(rng->Range(1, 3)) + "\"";
  if (depth <= 0 || *budget <= 0 || rng->Chance(20)) {
    *out += "/>";
    return;
  }
  *out += ">";
  if (rng->Chance(30)) *out += std::to_string(rng->Range(1, 3));
  int kids = rng->Range(1, 3);
  for (int i = 0; i < kids && *budget > 0; ++i) {
    GenElement(rng, depth - 1, budget, out);
    // Extra sibling at the same depth with probability 1/3, biasing the
    // corpus toward duplicate-sibling runs.
    if (rng->Chance(33) && *budget > 0) {
      GenElement(rng, depth - 1, budget, out);
    }
  }
  if (rng->Chance(15)) *out += "x";
  *out += "</" + tag + ">";
}

std::string GenDoc(uint64_t seed, int node_budget) {
  Rng rng(seed);
  std::string out = "<r>";
  int budget = node_budget;
  while (budget > 0) GenElement(&rng, 3, &budget, &out);
  out += "</r>";
  return out;
}

}  // namespace

const std::vector<std::string>& WitnessCorpus::TagAlphabet() {
  static const std::vector<std::string> kTags = {"a", "b", "c", "d", "e"};
  return kTags;
}

void WitnessCorpus::Add(std::string name, std::string xml,
                        StringInterner* interner) {
  auto parsed = xml::Parse(xml, interner);
  // The curated texts are constants and the generator emits well-formed
  // XML; a parse failure here is a programming error, so just drop the
  // document rather than poisoning every equivalence check.
  if (!parsed.ok()) return;
  WitnessDoc w;
  w.name = std::move(name);
  w.xml = std::move(xml);
  w.doc = std::move(parsed).value();
  docs_.push_back(std::move(w));
}

WitnessCorpus::WitnessCorpus(StringInterner* interner) {
  // Same-tag recursion: descendant steps see ancestor-related matches, so
  // a dropped ddo or a non-deduplicating evaluator diverges here.
  Add("recursion",
      "<r><a><a><b/><a><b/><b/></a></a><b/></a><a><b/></a></r>", interner);
  // Duplicate siblings with identical subtrees: binding deduplication and
  // document-order tie-breaking edge cases.
  Add("dup-siblings",
      "<r><a><b><c/></b><b><c/></b><b><c/></b></a>"
      "<a><b><c/></b><b><c/></b></a></r>",
      interner);
  // Mixed content: text between elements shifts sibling positions and
  // feeds string-value–sensitive predicates.
  Add("mixed-content",
      "<r><a>one<b>1</b>two<b>2</b><c>x</c>three</a><a>four<c>y</c></a></r>",
      interner);
  // Empty matches: only the root element exists, so every generated path
  // over the alphabet returns the empty sequence.
  Add("empty", "<r/>", interner);
  // Positional runs: sibling runs of one tag interrupted by other tags,
  // the shape on which per-parent position counting goes wrong.
  Add("positional",
      "<r><a><b id=\"1\"/><b id=\"2\"/><c/><b id=\"3\"/><b id=\"4\"/></a>"
      "<a><c/><b id=\"5\"/></a><a><b id=\"6\"/></a></r>",
      interner);
  // Deep single-path chain with a repeated a/b spine: stresses nested
  // context pruning and ancestor bookkeeping in the index joins.
  Add("deep-chain",
      "<r><a><b><a><b><a><b><c>1</c></b></a></b></a></b></a></r>", interner);
  // Wide fan-out: every alphabet tag as a sibling, twice.
  Add("wide",
      "<r><a/><b/><c/><d/><e/><a><c/></a><b><d/></b><c><e/></c><d/><e/></r>",
      interner);
  // Attribute-heavy: duplicate attribute values across levels.
  Add("attrs",
      "<r><a id=\"1\"><b id=\"1\"/><b id=\"2\"/></a>"
      "<a id=\"2\"><b id=\"1\"/></a></r>",
      interner);
  // Typed text values: numeric and non-numeric strings for comparisons.
  Add("text-values",
      "<r><a><b>1</b><b>2</b><b>x</b></a><a><b>2</b><c>1</c></a></r>",
      interner);
  // Deterministically generated trees (fixed seeds, never rolled): small,
  // medium, larger.
  Add("gen-20", GenDoc(/*seed=*/101, /*node_budget=*/20), interner);
  Add("gen-40", GenDoc(/*seed=*/202, /*node_budget=*/40), interner);
  Add("gen-80", GenDoc(/*seed=*/303, /*node_budget=*/80), interner);
}

namespace {

// ---- shrinker --------------------------------------------------------------

/// Mutable mirror of a parsed document, cheap to copy and edit. Text and
/// elements are both nodes (is_text discriminates).
struct MutNode {
  bool is_text = false;
  std::string tag_or_text;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<MutNode> children;
};

MutNode FromXml(const xml::Node* n, const StringInterner& interner) {
  MutNode m;
  if (n->IsText()) {
    m.is_text = true;
    m.tag_or_text = n->Text();
    return m;
  }
  m.tag_or_text = interner.NameOf(n->name);
  for (const xml::Node* a : n->Attributes()) {
    m.attrs.emplace_back(interner.NameOf(a->name), a->Text());
  }
  for (const xml::Node* c = n->first_child; c != nullptr;
       c = c->next_sibling) {
    m.children.push_back(FromXml(c, interner));
  }
  return m;
}

void SerializeMut(const MutNode& m, std::string* out) {
  if (m.is_text) {
    xml::AppendEscaped(m.tag_or_text, out);
    return;
  }
  *out += "<" + m.tag_or_text;
  for (const auto& [name, value] : m.attrs) {
    *out += " " + name + "=\"";
    xml::AppendEscaped(value, out);
    *out += '"';
  }
  if (m.children.empty()) {
    *out += "/>";
    return;
  }
  *out += ">";
  for (const MutNode& c : m.children) SerializeMut(c, out);
  *out += "</" + m.tag_or_text + ">";
}

/// Parents of every node below the root, in DFS order (the root itself is
/// never an edit target: deleting it would leave no document).
void CollectParents(MutNode* n, std::vector<MutNode*>* out) {
  out->push_back(n);
  for (MutNode& c : n->children) {
    if (!c.is_text) CollectParents(&c, out);
  }
}

/// One kind of structural edit, tried greedily in order.
enum class EditKind { kDeleteChild, kHoistChild, kDropAttr };

/// Applies edit (kind, parent DFS index, child/attr index) to a copy of
/// `root`; returns false when the indices no longer exist.
bool ApplyEdit(MutNode* root, EditKind kind, size_t parent_idx, size_t idx) {
  std::vector<MutNode*> parents;
  CollectParents(root, &parents);
  if (parent_idx >= parents.size()) return false;
  MutNode* p = parents[parent_idx];
  switch (kind) {
    case EditKind::kDeleteChild:
      if (idx >= p->children.size()) return false;
      p->children.erase(p->children.begin() + static_cast<long>(idx));
      return true;
    case EditKind::kHoistChild: {
      if (idx >= p->children.size()) return false;
      MutNode victim = std::move(p->children[idx]);
      if (victim.is_text) return false;
      p->children.erase(p->children.begin() + static_cast<long>(idx));
      p->children.insert(p->children.begin() + static_cast<long>(idx),
                         std::make_move_iterator(victim.children.begin()),
                         std::make_move_iterator(victim.children.end()));
      return true;
    }
    case EditKind::kDropAttr:
      if (idx >= p->attrs.size()) return false;
      p->attrs.erase(p->attrs.begin() + static_cast<long>(idx));
      return true;
  }
  return false;
}

}  // namespace

std::string ShrinkWitness(const std::string& xml_text,
                          StringInterner* interner,
                          const WitnessPredicate& pred, int max_checks) {
  auto parsed = xml::Parse(xml_text, interner);
  if (!parsed.ok()) return xml_text;
  MutNode root = FromXml(parsed.value()->root()->first_child != nullptr
                             ? parsed.value()->root()->first_child
                             : parsed.value()->root(),
                         *interner);

  int checks = 0;
  auto still_diverges = [&](const MutNode& candidate,
                            std::string* serialized) -> bool {
    if (checks >= max_checks) return false;
    ++checks;
    serialized->clear();
    SerializeMut(candidate, serialized);
    auto doc = xml::Parse(*serialized, interner);
    if (!doc.ok()) return false;
    return pred(*doc.value());
  };

  // Greedy fixpoint: restart the edit scan after each accepted edit so
  // indices stay valid; each accepted edit strictly shrinks the tree, so
  // this terminates.
  const EditKind kKinds[] = {EditKind::kDeleteChild, EditKind::kHoistChild,
                             EditKind::kDropAttr};
  bool progress = true;
  std::string scratch;
  while (progress && checks < max_checks) {
    progress = false;
    std::vector<MutNode*> parents;
    CollectParents(&root, &parents);
    for (EditKind kind : kKinds) {
      for (size_t pi = 0; pi < parents.size() && !progress; ++pi) {
        size_t fan = kind == EditKind::kDropAttr ? parents[pi]->attrs.size()
                                                 : parents[pi]->children.size();
        for (size_t ci = 0; ci < fan; ++ci) {
          MutNode candidate = root;
          if (!ApplyEdit(&candidate, kind, pi, ci)) continue;
          if (still_diverges(candidate, &scratch)) {
            root = std::move(candidate);
            progress = true;
            break;
          }
        }
      }
      if (progress) break;
    }
  }

  std::string out;
  SerializeMut(root, &out);
  return out;
}

}  // namespace xqtp::analysis
