#include "xml/document.h"

#include <algorithm>
#include <cassert>

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
    // The arena is filled in construction order, which is not necessarily
    // document order for attributes, so sort by pre once.
    for (const Node& n : arena_) {
      if (n.kind == NodeKind::kElement) all_elements_.push_back(&n);
    }
    std::sort(all_elements_.begin(), all_elements_.end(),
              [](const Node* a, const Node* b) { return a->pre < b->pre; });
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
    for (const Node& n : arena_) {
      if (n.kind == NodeKind::kText) text_nodes_.push_back(&n);
    }
    std::sort(text_nodes_.begin(), text_nodes_.end(),
              [](const Node* a, const Node* b) { return a->pre < b->pre; });
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
    for (const Node& n : arena_) {
      if (n.kind != NodeKind::kAttribute) all_nodes_.push_back(&n);
    }
    std::sort(all_nodes_.begin(), all_nodes_.end(),
              [](const Node* a, const Node* b) { return a->pre < b->pre; });
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
  for (const Node& n : arena_) {
    if (n.kind == NodeKind::kAttribute && n.name == name) {
      vec.push_back(&n);
    }
  }
  std::sort(vec.begin(), vec.end(),
            [](const Node* a, const Node* b) { return a->pre < b->pre; });
  return vec;
}

DocumentBuilder::DocumentBuilder(StringInterner* interner)
    : doc_(std::make_unique<Document>(interner)) {
  Node* root = doc_->NewNode();
  root->kind = NodeKind::kDocument;
  root->doc = doc_.get();
  doc_->root_ = root;
  stack_.push_back(root);
}

void DocumentBuilder::AppendChild(Node* child) {
  Node* parent = stack_.back();
  child->parent = parent;
  child->doc = doc_.get();
  if (parent->last_child == nullptr) {
    parent->first_child = parent->last_child = child;
  } else {
    parent->last_child->next_sibling = child;
    child->prev_sibling = parent->last_child;
    parent->last_child = child;
  }
}

void DocumentBuilder::StartElement(std::string_view tag) {
  Node* n = doc_->NewNode();
  n->kind = NodeKind::kElement;
  n->name = doc_->interner()->Intern(tag);
  AppendChild(n);
  stack_.push_back(n);
}

void DocumentBuilder::Attribute(std::string_view name, std::string_view value) {
  assert(stack_.size() > 1 && "Attribute outside an element");
  Node* owner = stack_.back();
  Node* n = doc_->NewNode();
  n->kind = NodeKind::kAttribute;
  n->name = doc_->interner()->Intern(name);
  n->text = std::string(value);
  n->parent = owner;
  n->doc = doc_.get();
  owner->attributes.push_back(n);
}

void DocumentBuilder::Text(std::string_view text) {
  Node* n = doc_->NewNode();
  n->kind = NodeKind::kText;
  n->text = std::string(text);
  AppendChild(n);
}

void DocumentBuilder::EndElement() {
  assert(stack_.size() > 1 && "EndElement without matching StartElement");
  stack_.pop_back();
}

namespace {

// Iterative pre/post numbering; recursion would overflow on deep documents.
void AssignNumbers(Node* root) {
  int32_t pre = 0;
  int32_t post = 0;
  struct Frame {
    Node* node;
    bool entered;
  };
  std::vector<Frame> stack;
  stack.push_back({root, false});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (!f.entered) {
      f.entered = true;
      Node* n = f.node;
      n->pre = pre++;
      n->depth = n->parent == nullptr ? 0 : n->parent->depth + 1;
      // Attributes sit between the element and its first child in
      // document order.
      for (Node* a : n->attributes) {
        a->pre = pre++;
        // Attributes are leaves: give them their postorder rank right away,
        // before any child of the element, so the region containment test
        // never classifies an attribute as an ancestor.
        a->post = post++;
        a->depth = n->depth + 1;
      }
      // Push children in reverse so the leftmost is processed first.
      std::vector<Node*> kids;
      for (Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
        kids.push_back(c);
      }
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back({*it, false});
      }
    } else {
      f.node->post = post++;
      stack.pop_back();
    }
  }
}

}  // namespace

std::unique_ptr<Document> DocumentBuilder::Finish() {
  assert(stack_.size() == 1 && "unbalanced builder");
  AssignNumbers(doc_->root_);
  return std::move(doc_);
}

}  // namespace xqtp::xml
