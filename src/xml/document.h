// Document: an arena of nodes plus lazily-built per-tag indexes.
#ifndef XQTP_XML_DOCUMENT_H_
#define XQTP_XML_DOCUMENT_H_

#include <deque>
#include <memory>
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

/// An XML document. Owns its nodes (stable addresses via deque arena).
/// Build one with DocumentBuilder or xml::Parse.
class Document {
 public:
  explicit Document(StringInterner* interner) : interner_(interner) {}
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  const Node* root() const { return root_; }
  Node* mutable_root() { return root_; }
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
  std::deque<Node> arena_;
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
/// Finish() assigns pre/post/depth numbers in one traversal.
class DocumentBuilder {
 public:
  explicit DocumentBuilder(StringInterner* interner);

  void StartElement(std::string_view tag);
  void Attribute(std::string_view name, std::string_view value);
  void Text(std::string_view text);
  void EndElement();

  /// Completes the document; the builder must be balanced (all elements
  /// closed). Invalidates the builder.
  std::unique_ptr<Document> Finish();

 private:
  void AppendChild(Node* child);

  std::unique_ptr<Document> doc_;
  std::vector<Node*> stack_;
};

}  // namespace xqtp::xml

#endif  // XQTP_XML_DOCUMENT_H_
