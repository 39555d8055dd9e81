// Document: an arena of nodes, its statistics, and lazily-built per-tag
// indexes.
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

/// Structural statistics of a document, counted as DocumentBuilder adds
/// its nodes; the cost model (exec/cost_model.h) reads its cardinalities
/// here.
///
/// A row describes a set of nodes: the document node (kDocumentRow), every
/// element (kElementRow), the text and attribute nodes (kLeafRow, which
/// have no children), and then one row per element tag. A row's pairs
/// count its nodes' children by kind and name (ChildKey): an element tag,
/// text, or an attribute name. The element row's counts and pairs are the
/// sums over the tag rows.
struct DocumentStats {
  struct Row {
    int64_t count = 0;     ///< nodes in the row
    int64_t subtree = 0;   ///< their descendants, attributes excluded
    int64_t children = 0;  ///< their child nodes: elements and text
    int64_t inner = 0;     ///< those of them with at least one child
    int64_t outermost = 0;  ///< those of them inside no node of the row
    uint32_t pairs_begin = 0;  ///< the row's pairs are pairs[begin, end)
    uint32_t pairs_end = 0;
  };
  /// One kind of child under one row.
  struct Pair {
    uint64_t child = 0;     ///< ChildKey of the children counted
    int64_t children = 0;   ///< how many such children the row's nodes have
    int64_t parents = 0;    ///< how many of the row's nodes have at least one
  };
  static constexpr int kDocumentRow = 0;
  static constexpr int kElementRow = 1;
  static constexpr int kLeafRow = 2;

  /// The pair key of a child node of `kind` named `name` (element tags and
  /// attribute names; text nodes have no name).
  static uint64_t ChildKey(NodeKind kind, Symbol name) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(name)) << 2) |
           static_cast<uint64_t>(kind);
  }

  /// The row of the elements tagged `tag`, or -1 if the document has none.
  int RowOfTag(Symbol tag) const {
    const auto i = static_cast<size_t>(tag);
    return tag >= 0 && i < tag_rows.size() ? tag_rows[i] : -1;
  }
  /// The row `n` belongs to (its tag's row for an element).
  int RowOf(const Node& n) const {
    switch (n.kind) {
      case NodeKind::kDocument:
        return kDocumentRow;
      case NodeKind::kElement:
        return RowOfTag(n.name);
      case NodeKind::kAttribute:
      case NodeKind::kText:
        break;
    }
    return kLeafRow;
  }
  /// The pair of `row` whose children have key `child`, or nullptr.
  const Pair* FindPair(int row, uint64_t child) const;

  int64_t node_count = 0;  ///< document + elements + text nodes
  std::vector<Row> rows;
  /// Grouped by row, in row order; sorted by child key within a row.
  std::vector<Pair> pairs;
  /// Indexed by element tag: its row, or -1.
  std::vector<int32_t> tag_rows;
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

  /// Structural statistics (DocumentStats), built with the document: no
  /// lock, no lazy build.
  const DocumentStats& Stats() const { return stats_; }

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
  /// Set by DocumentBuilder::Finish, immutable afterwards.
  DocumentStats stats_;

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
  ~DocumentBuilder();
  DocumentBuilder(const DocumentBuilder&) = delete;
  DocumentBuilder& operator=(const DocumentBuilder&) = delete;

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
  /// Counts the document's statistics as its nodes are added.
  std::unique_ptr<class StatsCounter> stats_;
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
