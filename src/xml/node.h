// XDM node tree. Nodes are arena-allocated inside a Document and carry a
// pre/post/level document-order encoding, which is what the Staircase and
// Twig join algorithms operate on.
#ifndef XQTP_XML_NODE_H_
#define XQTP_XML_NODE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/interner.h"

namespace xqtp::xml {

class Document;

/// The node kinds in our XDM fragment.
enum class NodeKind : uint8_t {
  kDocument,
  kElement,
  kAttribute,
  kText,
};

/// One node in a document tree.
///
/// Structure pointers (parent / first_child / next_sibling) support
/// cursor-style navigation, used by the nested-loop pattern evaluator.
/// The (pre, post, depth) region encoding supports the index-based
/// algorithms: `a` is an ancestor of `d` iff
/// `a.pre < d.pre && d.post < a.post`.
///
/// Character data and attribute lists live in two arrays owned by the
/// Document; a node holds one (begin, length) slice into the array its
/// kind uses. The member order packs a node into 64 bytes with no
/// padding.
struct Node {
  NodeKind kind = NodeKind::kElement;
  /// Interned tag / attribute name; kInvalidSymbol for document and text.
  Symbol name = kInvalidSymbol;
  /// Preorder rank in the document; the document node has pre == 0.
  /// Attributes are numbered after their owner element, before its children.
  int32_t pre = 0;
  /// Postorder rank in the document.
  int32_t post = 0;

  Node* parent = nullptr;
  Node* first_child = nullptr;
  Node* next_sibling = nullptr;

  /// Owning document (set by DocumentBuilder).
  const Document* doc = nullptr;

  /// Distance from the document node (which has depth 0).
  int32_t depth = 0;

  bool IsElement() const { return kind == NodeKind::kElement; }
  bool IsAttribute() const { return kind == NodeKind::kAttribute; }
  bool IsText() const { return kind == NodeKind::kText; }
  bool IsDocument() const { return kind == NodeKind::kDocument; }

  /// Character content of a text node, value of an attribute; empty for
  /// elements and the document node.
  std::string_view Text() const;

  /// Attribute nodes of an element, in document order (not part of the
  /// child list); empty for every other kind.
  std::span<const Node* const> Attributes() const;

  /// True iff `this` is a proper ancestor of `other` (same document).
  bool IsAncestorOf(const Node& other) const {
    return pre < other.pre && other.post < post;
  }

  /// Concatenation of all descendant text (the XPath string-value).
  std::string StringValue() const;

 private:
  friend class DocumentBuilder;

  /// Slice length: bytes of the document's text buffer for text and
  /// attribute nodes, entries of its attribute array for elements.
  uint32_t len_ = 0;
  /// Slice start in the same array.
  uint64_t begin_ = 0;
};

// Nodes are most of a document's memory; each stays within 64 bytes.
static_assert(sizeof(Node) <= 64);

/// Total document order across documents: (document id, pre).
/// Returns true iff `a` strictly precedes `b`.
bool DocOrderLess(const Node* a, const Node* b);

}  // namespace xqtp::xml

#endif  // XQTP_XML_NODE_H_
