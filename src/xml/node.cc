#include "xml/node.h"

#include "xml/document.h"

namespace xqtp::xml {

namespace {

void CollectText(const Node* n, std::string* out) {
  if (n->IsText() || n->IsAttribute()) {
    out->append(n->Text());
    return;
  }
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    CollectText(c, out);
  }
}

}  // namespace

std::string_view Node::Text() const {
  if (!IsText() && !IsAttribute()) return {};
  return std::string_view(doc->text_.data() + begin_, len_);
}

std::span<const Node* const> Node::Attributes() const {
  if (!IsElement()) return {};
  return std::span<const Node* const>(doc->attrs_).subspan(begin_, len_);
}

std::string Node::StringValue() const {
  std::string out;
  CollectText(this, &out);
  return out;
}

bool DocOrderLess(const Node* a, const Node* b) {
  if (a->doc != b->doc) return a->doc->id() < b->doc->id();
  return a->pre < b->pre;
}

}  // namespace xqtp::xml
