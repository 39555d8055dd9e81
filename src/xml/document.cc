#include "xml/document.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace xqtp::xml {

const std::vector<const Node*>& Document::ElementsByTag(Symbol tag) const {
  // Built entries never move (unordered_map references are stable) and
  // never mutate, so the common case is a shared-lock lookup; only the
  // first request for a tag takes the exclusive lock to build.
  {
    ReaderLock lock(&lazy_mu_);
    auto it = tag_index_.find(tag);
    if (it != tag_index_.end()) return it->second;
  }
  WriterLock lock(&lazy_mu_);
  auto it = tag_index_.find(tag);  // re-check: a racing builder may have won
  if (it != tag_index_.end()) return it->second;
  std::vector<const Node*>& vec = tag_index_[tag];
  for (const Node* n : AllElementsLocked()) {
    if (n->name == tag) vec.push_back(n);
  }
  return vec;
}

const std::vector<const Node*>& Document::AllElements() const {
  // Callers inside this translation unit already hold the lock via their
  // own entry points; take it recursively-safely by building through a
  // private unlocked helper instead.
  {
    ReaderLock lock(&lazy_mu_);
    if (all_elements_built_) return all_elements_;
  }
  WriterLock lock(&lazy_mu_);
  return AllElementsLocked();
}

const std::vector<const Node*>& Document::AllElementsLocked() const {
  if (!all_elements_built_) {
    // The arena is in document order, so a filter keeps it.
    all_elements_.reserve(element_count_);
    for (const Node& n : arena_) {
      if (n.kind == NodeKind::kElement) all_elements_.push_back(&n);
    }
    all_elements_built_ = true;
  }
  return all_elements_;
}

const std::vector<const Node*>& Document::TextNodes() const {
  {
    ReaderLock lock(&lazy_mu_);
    if (text_nodes_built_) return text_nodes_;
  }
  WriterLock lock(&lazy_mu_);
  if (!text_nodes_built_) {
    text_nodes_.reserve(text_count_);
    for (const Node& n : arena_) {
      if (n.kind == NodeKind::kText) text_nodes_.push_back(&n);
    }
    text_nodes_built_ = true;
  }
  return text_nodes_;
}

const std::vector<const Node*>& Document::AllNodes() const {
  {
    ReaderLock lock(&lazy_mu_);
    if (all_nodes_built_) return all_nodes_;
  }
  WriterLock lock(&lazy_mu_);
  if (!all_nodes_built_) {
    all_nodes_.reserve(arena_.size() - attrs_.size());
    for (const Node& n : arena_) {
      if (n.kind != NodeKind::kAttribute) all_nodes_.push_back(&n);
    }
    all_nodes_built_ = true;
  }
  return all_nodes_;
}

const DocumentStats& Document::Stats() const {
  {
    ReaderLock lock(&lazy_mu_);
    if (stats_built_) return stats_;
  }
  // Warm the dependencies before taking the lock (they lock themselves).
  const size_t all_nodes = AllNodes().size();
  AllElements();
  WriterLock lock(&lazy_mu_);
  if (!stats_built_) {
    stats_.node_count = static_cast<int64_t>(all_nodes);
    int64_t internal = 0;
    int64_t children = 0;
    for (const Node* n : AllElementsLocked()) {
      int64_t c_count = 0;
      for (const Node* c = n->first_child; c != nullptr;
           c = c->next_sibling) {
        ++c_count;
      }
      if (c_count > 0) {
        ++internal;
        children += c_count;
      }
      stats_.max_depth = std::max(stats_.max_depth, n->depth);
    }
    // Average fan-out of the nodes that branch — this drives how fast a
    // context's subtree share shrinks with depth.
    if (internal > 0) {
      stats_.avg_fanout = std::max(1.1, static_cast<double>(children) /
                                            static_cast<double>(internal));
    }
    stats_built_ = true;
  }
  return stats_;
}

const std::vector<const Node*>& Document::AttributesByName(Symbol name) const {
  {
    ReaderLock lock(&lazy_mu_);
    auto it = attr_index_.find(name);
    if (it != attr_index_.end()) return it->second;
  }
  WriterLock lock(&lazy_mu_);
  auto it = attr_index_.find(name);
  if (it != attr_index_.end()) return it->second;
  std::vector<const Node*>& vec = attr_index_[name];
  auto named = [name](const Node* a) { return a->name == name; };
  vec.reserve(static_cast<size_t>(
      std::count_if(attrs_.begin(), attrs_.end(), named)));
  std::copy_if(attrs_.begin(), attrs_.end(), std::back_inserter(vec), named);
  return vec;
}

DocumentBuilder::DocumentBuilder(StringInterner* interner)
    : doc_(std::make_unique<Document>(interner)) {
  Node* root = NewNode(NodeKind::kDocument);
  doc_->root_ = root;
  stack_.push_back({root, nullptr});
}

Node* DocumentBuilder::NewNode(NodeKind kind) {
  Node* n = doc_->NewNode();
  n->kind = kind;
  n->pre = next_pre_++;
  n->doc = doc_.get();
  if (!stack_.empty()) {
    n->parent = stack_.back().node;
    n->depth = n->parent->depth + 1;
  }
  return n;
}

void DocumentBuilder::AppendChild(Node* child) {
  OpenNode& open = stack_.back();
  if (open.last == nullptr) {
    open.node->first_child = child;
  } else {
    open.last->next_sibling = child;
  }
  open.last = child;
}

void DocumentBuilder::SetText(Node* n, std::string_view text) {
  assert(text.size() <= kMaxValueBytes && "value too long for a node");
  n->begin_ = doc_->text_.size();
  n->len_ = static_cast<uint32_t>(text.size());
  doc_->text_.append(text);
}

void DocumentBuilder::StartElement(std::string_view tag) {
  Node* n = NewNode(NodeKind::kElement);
  n->name = doc_->interner()->Intern(tag);
  AppendChild(n);
  stack_.push_back({n, nullptr});
  ++doc_->element_count_;
}

void DocumentBuilder::Attribute(std::string_view name, std::string_view value) {
  assert(stack_.size() > 1 && "Attribute outside an element");
  assert(stack_.back().last == nullptr &&
         "Attribute after the element's first child");
  Node* owner = stack_.back().node;
  Node* n = NewNode(NodeKind::kAttribute);
  n->name = doc_->interner()->Intern(name);
  SetText(n, value);
  // Attributes are leaves: give them their postorder rank right away,
  // before any child of the element, so the region containment test
  // never classifies an attribute as an ancestor.
  n->post = next_post_++;
  const auto slot = static_cast<size_t>(n->name);
  if (slot >= attr_owner_.size()) attr_owner_.resize(slot + 1, -1);
  attr_owner_[slot] = owner->pre;
  if (owner->len_ == 0) owner->begin_ = doc_->attrs_.size();
  ++owner->len_;
  doc_->attrs_.push_back(n);
}

void DocumentBuilder::Text(std::string_view text) {
  Node* n = NewNode(NodeKind::kText);
  SetText(n, text);
  n->post = next_post_++;
  AppendChild(n);
  ++doc_->text_count_;
}

void DocumentBuilder::EndElement() {
  assert(stack_.size() > 1 && "EndElement without matching StartElement");
  stack_.back().node->post = next_post_++;
  stack_.pop_back();
}

bool DocumentBuilder::HasAttribute(std::string_view name) const {
  const Symbol sym = doc_->interner()->Lookup(name);
  return sym != kInvalidSymbol &&
         static_cast<size_t>(sym) < attr_owner_.size() &&
         attr_owner_[static_cast<size_t>(sym)] == stack_.back().node->pre;
}

std::unique_ptr<Document> DocumentBuilder::Finish() {
  assert(stack_.size() == 1 && "unbalanced builder");
  doc_->root_->post = next_post_++;
  return std::move(doc_);
}

}  // namespace xqtp::xml
