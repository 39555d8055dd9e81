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

namespace {

/// The children counts of one row: one cell per child key, in an
/// open-addressing table of the row's own, so counting a node's children
/// touches only its row's small table.
class RowCounter {
 public:
  /// 16 bytes; counts fit because a document numbers its nodes in 32 bits.
  struct Cell {
    uint32_t child;
    int32_t children;
    int32_t parents;
    int32_t last_parent;  ///< pre rank of the last parent counted
  };
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  /// The cell of `child`, added if new. A reference is valid until the
  /// next Find.
  Cell& Find(uint32_t child) {
    if (2 * (used_ + 1) > cells_.size()) Grow();
    const size_t mask = cells_.size() - 1;
    for (size_t i = Hash(child) & mask;; i = (i + 1) & mask) {
      Cell& c = cells_[i];
      if (c.child == child) return c;
      if (c.child == kEmpty) {
        ++used_;
        c.child = child;
        return c;
      }
    }
  }

  const std::vector<Cell>& cells() const { return cells_; }

 private:
  static size_t Hash(uint32_t child) {
    return static_cast<size_t>((uint64_t{child} * 0x9E3779B97F4A7C15ULL) >>
                               40);
  }

  void Grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(std::max<size_t>(16, old.size() * 2),
                  Cell{kEmpty, 0, 0, -1});
    const size_t mask = cells_.size() - 1;
    for (const Cell& c : old) {
      if (c.child == kEmpty) continue;
      size_t i = Hash(c.child) & mask;
      while (cells_[i].child != kEmpty) i = (i + 1) & mask;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  size_t used_ = 0;
};

/// A RowCounter key: a child's kind and name, packed as
/// DocumentStats::ChildKey packs them but in 32 bits (the interner hands
/// out fewer than 2^30 names); text has no name.
uint32_t CellKey(NodeKind kind, Symbol name) {
  const uint32_t bits =
      kind == NodeKind::kText ? 0 : static_cast<uint32_t>(name);
  return (bits << 2) | static_cast<uint32_t>(kind);
}

}  // namespace

/// Counts DocumentStats while DocumentBuilder adds the nodes, in document
/// order: each node in its row, each child under its parent's row, and
/// each node's subtree when it closes, from its numbering (a node has
/// post - pre + depth descendants, attributes included) less the
/// attributes added while it was open.
class StatsCounter {
 public:
  using Stats = DocumentStats;

  StatsCounter() : counters_(3), open_in_row_(3, 0) { st_.rows.resize(3); }

  /// `n`, an element or the document node, opens.
  void Open(const Node& n) {
    int row = Stats::kDocumentRow;
    if (n.IsElement()) {
      const auto tag = static_cast<size_t>(n.name);
      if (tag >= st_.tag_rows.size()) st_.tag_rows.resize(tag + 1, -1);
      if (st_.tag_rows[tag] < 0) {
        st_.tag_rows[tag] = static_cast<int32_t>(st_.rows.size());
        st_.rows.emplace_back();
        counters_.emplace_back();
        open_in_row_.push_back(0);
      }
      row = st_.tag_rows[tag];
    }
    Stats::Row& r = st_.rows[static_cast<size_t>(row)];
    ++r.count;
    // Opened while none of its row is open: inside no node of its row.
    if (open_in_row_[static_cast<size_t>(row)]++ == 0) ++r.outermost;
    frames_.push_back({row, n.pre, attributes_seen_, undo_.size()});
  }

  /// `child` (an element, text or attribute) joins the innermost open
  /// node.
  void Child(const Node& child) {
    const Frame& parent = frames_.back();
    if (!child.IsAttribute()) {
      ++st_.rows[static_cast<size_t>(parent.row)].children;
    }
    if (!child.IsElement()) {
      ++st_.rows[Stats::kLeafRow].count;
      if (child.IsAttribute()) ++attributes_seen_;
    }
    const uint32_t key = CellKey(child.kind, child.name);
    RowCounter::Cell& cell = counters_[static_cast<size_t>(parent.row)].Find(key);
    ++cell.children;
    if (cell.last_parent != parent.pre) {
      // The first such child of this parent. When an open ancestor of the
      // same row still counts on the mark, closing this parent restores
      // it.
      ++cell.parents;
      if (open_in_row_[static_cast<size_t>(parent.row)] > 1) {
        undo_.push_back({parent.row, key, cell.last_parent});
      }
      cell.last_parent = parent.pre;
    }
  }

  /// The innermost open node `n` closes, numbered; `has_child` says
  /// whether a child joined it.
  void Close(const Node& n, bool has_child) {
    const Frame& o = frames_.back();
    Stats::Row& r = st_.rows[static_cast<size_t>(o.row)];
    r.subtree += static_cast<int64_t>(n.post) - n.pre + n.depth -
                 (attributes_seen_ - o.attributes_before);
    if (has_child) ++r.inner;
    --open_in_row_[static_cast<size_t>(o.row)];
    for (size_t i = undo_.size(); i > o.undo_mark; --i) {
      const Undo& u = undo_[i - 1];
      counters_[static_cast<size_t>(u.row)].Find(u.key).last_parent =
          u.last_parent;
    }
    undo_.resize(o.undo_mark);
    frames_.pop_back();
  }

  /// The statistics of the finished document of `nodes` nodes, of which
  /// `attributes` are attributes: the pairs laid out by row and child
  /// key, and the element row summing the tag rows.
  Stats Finish(size_t nodes, size_t attributes) {
    st_.node_count = static_cast<int64_t>(nodes - attributes);
    auto by_child = [](const Stats::Pair& a, const Stats::Pair& b) {
      return a.child < b.child;
    };
    std::vector<std::vector<Stats::Pair>> by_row(st_.rows.size());
    std::vector<Stats::Pair> elements;
    for (size_t row = 0; row < st_.rows.size(); ++row) {
      for (const RowCounter::Cell& c : counters_[row].cells()) {
        if (c.child == RowCounter::kEmpty) continue;
        const auto kind = static_cast<NodeKind>(c.child & 3);
        const Symbol name = kind == NodeKind::kText
                                ? kInvalidSymbol
                                : static_cast<Symbol>(c.child >> 2);
        by_row[row].push_back(
            {Stats::ChildKey(kind, name), c.children, c.parents});
        if (row > Stats::kLeafRow) elements.push_back(by_row[row].back());
      }
      std::sort(by_row[row].begin(), by_row[row].end(), by_child);
    }
    std::sort(elements.begin(), elements.end(), by_child);
    std::vector<Stats::Pair>& all_pairs = by_row[Stats::kElementRow];
    for (const Stats::Pair& e : elements) {
      if (!all_pairs.empty() && all_pairs.back().child == e.child) {
        all_pairs.back().children += e.children;
        all_pairs.back().parents += e.parents;
      } else {
        all_pairs.push_back(e);
      }
    }
    Stats::Row& all = st_.rows[Stats::kElementRow];
    for (size_t row = Stats::kLeafRow + 1; row < st_.rows.size(); ++row) {
      all.count += st_.rows[row].count;
      all.subtree += st_.rows[row].subtree;
      all.children += st_.rows[row].children;
      all.inner += st_.rows[row].inner;
      all.outermost += st_.rows[row].outermost;
    }
    size_t total = 0;
    for (const std::vector<Stats::Pair>& pairs : by_row) total += pairs.size();
    st_.pairs.reserve(total);
    for (size_t row = 0; row < st_.rows.size(); ++row) {
      st_.rows[row].pairs_begin = static_cast<uint32_t>(st_.pairs.size());
      st_.pairs.insert(st_.pairs.end(), by_row[row].begin(),
                       by_row[row].end());
      st_.rows[row].pairs_end = static_cast<uint32_t>(st_.pairs.size());
    }
    return std::move(st_);
  }

 private:
  /// An open node.
  struct Frame {
    int row;
    int32_t pre;
    int64_t attributes_before;
    size_t undo_mark;
  };
  /// A parent mark to put back when the node that moved it closes.
  struct Undo {
    int row;
    uint32_t key;
    int32_t last_parent;
  };

  Stats st_;
  std::vector<RowCounter> counters_;
  std::vector<int32_t> open_in_row_;
  std::vector<Frame> frames_;
  std::vector<Undo> undo_;
  int64_t attributes_seen_ = 0;
};

const DocumentStats::Pair* DocumentStats::FindPair(int row,
                                                   uint64_t child) const {
  if (row < 0) return nullptr;
  const Row& r = rows[static_cast<size_t>(row)];
  auto begin = pairs.begin() + r.pairs_begin;
  auto end = pairs.begin() + r.pairs_end;
  auto it = std::lower_bound(
      begin, end, child,
      [](const Pair& p, uint64_t key) { return p.child < key; });
  return it != end && it->child == child ? &*it : nullptr;
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
    : doc_(std::make_unique<Document>(interner)),
      stats_(std::make_unique<StatsCounter>()) {
  Node* root = NewNode(NodeKind::kDocument);
  doc_->root_ = root;
  stack_.push_back({root, nullptr});
  stats_->Open(*root);
}

DocumentBuilder::~DocumentBuilder() = default;

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
  stats_->Child(*child);
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
  stats_->Open(*n);
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
  stats_->Child(*n);
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
  stats_->Close(*stack_.back().node, stack_.back().last != nullptr);
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
  stats_->Close(*doc_->root_, stack_.back().last != nullptr);
  doc_->stats_ = stats_->Finish(doc_->arena_.size(), doc_->attrs_.size());
  return std::move(doc_);
}

}  // namespace xqtp::xml
