// Document: an arena of nodes plus lazily-built per-tag indexes.
#ifndef XQTP_XML_DOCUMENT_H_
#define XQTP_XML_DOCUMENT_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "xml/node.h"

namespace xqtp::xml {

/// Structural statistics of a document, computed lazily like the tag
/// indexes (consumed by the cost model in exec/cost_model.h).
struct DocumentStats {
  int64_t node_count = 0;   ///< document + elements + text nodes
  double avg_fanout = 1.1;  ///< average children per *branching* element
  int max_depth = 1;        ///< deepest element level
};

/// Longest text or attribute value a document can hold: a node records its
/// value's length in 32 bits.
inline constexpr size_t kMaxValueBytes = std::numeric_limits<uint32_t>::max();

/// An XML document. Owns its nodes (stable addresses via deque arena), in
/// document order, plus one buffer of all character data and one array of
/// all attribute nodes that the nodes slice into.
/// Build one with DocumentBuilder or xml::Parse.
class Document {
 public:
  explicit Document(StringInterner* interner) : interner_(interner) {}
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  const Node* root() const { return root_; }
  StringInterner* interner() const { return interner_; }

  /// Dense id used for cross-document ordering.
  int32_t id() const { return id_; }
  void set_id(int32_t id) { id_ = id; }

  size_t node_count() const { return arena_.size(); }

  /// All element nodes with the given tag, in document order. Built lazily
  /// on first request and cached; this is the "tag stream" consumed by the
  /// Staircase and Twig joins.
  const std::vector<const Node*>& ElementsByTag(Symbol tag) const;

  /// All element nodes in document order (the node() stream).
  const std::vector<const Node*>& AllElements() const;

  /// All text nodes in document order.
  const std::vector<const Node*>& TextNodes() const;

  /// Document, element and text nodes in document order (the node() stream
  /// of the descendant axes; attributes excluded per XPath).
  const std::vector<const Node*>& AllNodes() const;

  /// Structural statistics; computed on first use and cached.
  const DocumentStats& Stats() const;

  /// All attribute nodes with the given name, in document order.
  const std::vector<const Node*>& AttributesByName(Symbol name) const;

 private:
  friend class DocumentBuilder;
  friend struct Node;

  Node* NewNode() {
    arena_.emplace_back();
    return &arena_.back();
  }

  /// Builds/returns the element list; requires lazy_mu_ held exclusively
  /// (machine-checked: callers without the writer lock fail to compile
  /// under clang -Wthread-safety).
  const std::vector<const Node*>& AllElementsLocked() const
      REQUIRES(lazy_mu_);

  StringInterner* interner_;
  /// Every node, in document order (pre == index).
  std::deque<Node> arena_;
  /// Text node contents and attribute values, node after node.
  std::string text_;
  /// Every attribute node, in document order; an element's attributes
  /// are contiguous.
  std::vector<const Node*> attrs_;
  size_t element_count_ = 0;
  size_t text_count_ = 0;
  Node* root_ = nullptr;
  int32_t id_ = 0;

  /// Guards all lazily-built structures below. Documents are immutable
  /// after Finish(), so queries over *compiled* plans may execute
  /// concurrently; the first access to each index builds it under an
  /// exclusive lock, while already-built structures are returned under a
  /// shared lock — the hot path of the morsel workers, which only ever
  /// read pre-warmed indexes (exec/parallel.h pre-builds what a pattern
  /// needs before fanning out). (Compilation itself mutates the engine's
  /// interner and is not thread-safe — see engine.h.)
  mutable SharedMutex lazy_mu_;
  mutable std::unordered_map<Symbol, std::vector<const Node*>> tag_index_
      GUARDED_BY(lazy_mu_);
  mutable std::unordered_map<Symbol, std::vector<const Node*>> attr_index_
      GUARDED_BY(lazy_mu_);
  mutable std::vector<const Node*> all_elements_ GUARDED_BY(lazy_mu_);
  mutable bool all_elements_built_ GUARDED_BY(lazy_mu_) = false;
  mutable std::vector<const Node*> text_nodes_ GUARDED_BY(lazy_mu_);
  mutable bool text_nodes_built_ GUARDED_BY(lazy_mu_) = false;
  mutable std::vector<const Node*> all_nodes_ GUARDED_BY(lazy_mu_);
  mutable bool all_nodes_built_ GUARDED_BY(lazy_mu_) = false;
  mutable DocumentStats stats_ GUARDED_BY(lazy_mu_);
  mutable bool stats_built_ GUARDED_BY(lazy_mu_) = false;
};

/// Incremental builder. Usage:
///   DocumentBuilder b(&interner);
///   b.StartElement("site"); b.Attribute("id", "1"); b.Text("hi");
///   b.EndElement();
///   std::unique_ptr<Document> doc = b.Finish();
/// Each node is numbered as it is added: its pre rank and depth when it is
/// created, its post rank when it closes (attributes and text nodes close
/// at once). An element's attributes must come before its first child,
/// as they do in XML syntax.
class DocumentBuilder {
 public:
  explicit DocumentBuilder(StringInterner* interner);

  void StartElement(std::string_view tag);
  /// `value` is at most kMaxValueBytes long.
  void Attribute(std::string_view name, std::string_view value);
  /// `text` is at most kMaxValueBytes long.
  void Text(std::string_view text);
  void EndElement();

  /// True iff the innermost open element already has an attribute `name`.
  bool HasAttribute(std::string_view name) const;

  /// Completes the document; the builder must be balanced (all elements
  /// closed). Invalidates the builder.
  std::unique_ptr<Document> Finish();

 private:
  /// An open element (or the document node) and its last child so far.
  struct OpenNode {
    Node* node;
    Node* last;
  };

  /// A new node of `kind` under the innermost open node, with its pre rank
  /// and depth.
  Node* NewNode(NodeKind kind);
  void AppendChild(Node* child);
  void SetText(Node* n, std::string_view text);

  std::unique_ptr<Document> doc_;
  std::vector<OpenNode> stack_;
  int32_t next_pre_ = 0;
  int32_t next_post_ = 0;
  /// Indexed by attribute name: the pre rank of the last element given an
  /// attribute of that name, so HasAttribute costs O(1) however many
  /// attributes an element has.
  std::vector<int32_t> attr_owner_;
};

}  // namespace xqtp::xml

#endif  // XQTP_XML_DOCUMENT_H_
