#include "exec/cost_model.h"

#include <algorithm>
#include <array>

namespace xqtp::exec {

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using pattern::TreePattern;
using Stats = xml::DocumentStats;
using xml::NodeKind;

/// Nanoseconds per unit of predicted work, per algorithm: one evaluation,
/// one nested-loop node visit, one index entry scanned, one index skip,
/// one step call. Fitted on this codebase (cost_model.h says how to refit
/// them).
struct UnitCosts {
  double eval;
  double visit;
  double entry;
  double skip;
  double step;
};
constexpr UnitCosts kNLCosts{5.6, 6.1, 0, 0, 8.3};
constexpr UnitCosts kSCCosts{0, 0, 2.7, 13, 45};
constexpr UnitCosts kTJCosts{96, 0, 4.9, 12.5, 4.7};

double Price(const UnitCosts& c, const PredictedWork& w) {
  return c.eval + c.visit * w.nodes_visited + c.entry * w.index_entries +
         c.skip * w.index_skips + c.step * w.steps;
}

/// A set of nodes as weights over statistics rows: how many of the set's
/// nodes each row holds. Past kMaxRows distinct rows the set is priced as
/// the same number of average elements.
class Mix {
 public:
  static constexpr size_t kMaxRows = 8;

  void Add(int row, double weight) {
    if (row < 0 || !(weight > 0)) return;
    for (size_t i = 0; i < n_; ++i) {
      if (rows_[i].row == row) {
        rows_[i].weight += weight;
        return;
      }
    }
    if (n_ == kMaxRows) {
      const double total = Total() + weight;
      n_ = 1;
      rows_[0] = {Stats::kElementRow, total};
      return;
    }
    rows_[n_++] = {row, weight};
  }

  double Total() const {
    double t = 0;
    for (size_t i = 0; i < n_; ++i) t += rows_[i].weight;
    return t;
  }

  bool operator==(const Mix& other) const {
    if (n_ != other.n_) return false;
    for (size_t i = 0; i < n_; ++i) {
      if (rows_[i].row != other.rows_[i].row ||
          rows_[i].weight != other.rows_[i].weight) {
        return false;
      }
    }
    return true;
  }

  /// The same rows with weights multiplied by `f`.
  Mix Scaled(double f) const {
    Mix m = *this;
    for (size_t i = 0; i < m.n_; ++i) m.rows_[i].weight *= f;
    return m;
  }

  /// The same rows, weighted as one node drawn from the set.
  Mix One() const {
    const double t = Total();
    return t > 0 ? Scaled(1 / t) : Mix{};
  }

  struct Entry {
    int row;
    double weight;
  };
  const Entry* begin() const { return rows_.data(); }
  const Entry* end() const { return rows_.data() + n_; }

 private:
  std::array<Entry, kMaxRows> rows_;
  size_t n_ = 0;
};

bool IsScanAxis(Axis axis) {
  return axis == Axis::kChild || axis == Axis::kDescendant ||
         axis == Axis::kDescendantOrSelf;
}

/// One step of a pattern node from one node drawn from a set: every count
/// is per source node.
struct Step {
  /// The matches' rows, weighted by how many of them there are.
  Mix targets;
  /// The matches (the nested loop enumerates a node shared by two sources
  /// twice).
  double matches = 0;
  /// The chance the source has at least one match (for a positional
  /// step, a position-th one).
  double have = 0;
  /// Index entries in the source's region: what a region scan from it
  /// reads.
  double window = 0;
  /// Entries SC's positional scan reads: up to the position-th match.
  double positional_window = 0;
  /// Nested-loop cursor visits.
  double visits = 0;
  /// Nodes in the document the step's test matches: a scan that prunes
  /// nested sources reads each of them at most once.
  double stream = 0;

  /// The source rows' nodes per source node (the inverse of the rows'
  /// sizes, weighted by the rows' shares of the set), and the share of
  /// them inside no other node of their row.
  double per_row_node = 0;
  double outermost = 0;

  /// Of `n` source nodes, those inside no other: the scans that prune
  /// nested sources (the descendant axes; TJ's child windows) skip into
  /// only these. A set holding a share f of its rows' nodes has about
  /// that share of the nested ones inside another of its nodes.
  double OuterSources(double n) const {
    return n * (1 - std::min(1.0, n * per_row_node) * (1 - outermost));
  }
  /// The entries a pruned scan from `n` source nodes reads.
  double OuterWindow(double n) const { return std::min(n * window, stream); }
};

/// The statistics-driven estimates. Every count is an expectation in nodes
/// and reads only the statistics snapshot.
class Model {
 public:
  explicit Model(const Stats& s)
      : s_(s),
        per_other_(1 / std::max<double>(1, static_cast<double>(
                                               s.node_count - 1))) {}

  /// One step with `q`'s axis, test and position from one node drawn
  /// from `one` (a Mix whose weights sum to 1), into the fresh `st`.
  void Apply(const Mix& one, const PatternNode& q, Step* out) const {
    Step& st = *out;
    st.stream = DocumentCount(q.axis, q.test);
    const bool attr = q.axis == Axis::kAttribute;
    for (const Mix::Entry& e : one) {
      const Stats::Row& r = Row(e.row);
      if (r.count == 0) continue;
      const double per = 1 / static_cast<double>(r.count);  // per node
      const double w = e.weight;
      // The step's test among the node's children (attributes on the
      // attribute axis), and the matching nodes in its region.
      const Pair c = Children(e.row, attr ? Axis::kAttribute : Axis::kChild,
                              q.test);
      const double sub = static_cast<double>(r.subtree);
      const double share = sub * st.stream * per_other_;
      const double region =
          per * (attr ? std::max(c.children, share)
                      : std::min(std::max(c.children, share), sub));
      double matches = 0;  // per source node
      double has = 0;      // share of source nodes with a match
      double window = 0;   // region-scan entries per source node
      double child_matches = 0;
      switch (q.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
          matches = child_matches = per * c.children;
          has = std::min(1.0, per * c.parents);
          // Attribute wildcards are navigated, not scanned.
          if (!attr || q.test.kind == NodeTestKind::kName) window = region;
          if (!attr) st.visits += w * per * static_cast<double>(r.children);
          break;
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf: {
          window = matches = child_matches = region;
          // Only inner nodes have descendants; they share the matches, x
          // each, and about x / (1 + x) of them have one.
          const double inner = per * static_cast<double>(r.inner);
          has = inner > 0 ? inner * matches / (inner + matches) : 0;
          has = std::max(has, std::min(1.0, per * c.parents));
          if (q.axis == Axis::kDescendantOrSelf) {
            const double self = SelfMatch(e.row, q.test);
            matches += self;
            has = std::max(has, self);
          }
          st.visits += w * per * sub;
          break;
        }
        case Axis::kSelf:
          matches = has = SelfMatch(e.row, q.test);
          break;
        default:
          // Upward and sideways axes: about one match per node.
          matches = has = 1;
          break;
      }
      const double raw = matches;
      if (q.position > 0 && has > 0) {
        // Only the position-th match per node counts. A node that has one
        // stops its scan there, past the matches below the earlier
        // matching children; the others scan their whole region.
        const double per_have = matches / has;
        has *= std::min(1.0, per_have / q.position);
        matches = has;
        const double below =
            q.axis == Axis::kChild && child_matches > 0
                ? std::max(0.0, window - child_matches) / child_matches
                : 0;
        const double stop = q.position + (q.position - 1) * below;
        st.positional_window +=
            w * (has * std::min(window, stop) + (1 - has) * window);
      } else {
        st.positional_window += w * window;
      }
      st.matches += w * matches;
      st.have += w * has;
      st.window += w * window;
      st.per_row_node += w * per;
      st.outermost += w * per * static_cast<double>(r.outermost);
      const double scale =
          matches == raw ? w : (raw > 0 ? w * matches / raw : 0);
      AddTargets(e.row, q, scale, w * matches, &st.targets);
    }
  }

 private:
  struct Pair {
    double children = 0;
    double parents = 0;
  };

  const Stats::Row& Row(int row) const {
    return s_.rows[static_cast<size_t>(row)];
  }

  static double Per(const Stats::Row& r, double v) {
    return r.count > 0 ? v / static_cast<double>(r.count) : 0;
  }

  /// The children of `row`'s nodes that `axis::test` (child or attribute)
  /// matches, and how many of the row's nodes have one.
  Pair Children(int row, Axis axis, const NodeTest& test) const {
    const bool attr = axis == Axis::kAttribute;
    if (test.kind == NodeTestKind::kName ||
        (!attr && test.kind == NodeTestKind::kText)) {
      const uint64_t key =
          test.kind == NodeTestKind::kText
              ? Stats::ChildKey(NodeKind::kText, kInvalidSymbol)
              : Stats::ChildKey(attr ? NodeKind::kAttribute
                                     : NodeKind::kElement,
                                test.name);
      const Stats::Pair* p = s_.FindPair(row, key);
      if (p == nullptr) return {};
      return {static_cast<double>(p->children),
              static_cast<double>(p->parents)};
    }
    // Wildcards sum the pairs of the kinds they match.
    const Stats::Row& r = Row(row);
    Pair c;
    for (uint32_t i = r.pairs_begin; i < r.pairs_end; ++i) {
      const Stats::Pair& p = s_.pairs[i];
      if (!WildcardMatches(p.child, attr, test)) continue;
      c.children += static_cast<double>(p.children);
      c.parents += static_cast<double>(p.parents);
    }
    c.parents = std::min(c.parents, static_cast<double>(r.inner));
    return c;
  }

  static bool WildcardMatches(uint64_t child, bool attr, const NodeTest& test) {
    const auto kind = static_cast<NodeKind>(child & 3);
    if (attr) return kind == NodeKind::kAttribute;
    return kind == NodeKind::kElement ||
           (kind == NodeKind::kText && test.kind == NodeTestKind::kAnyNode);
  }

  /// Nodes in the whole document that `test` matches: on the attribute
  /// axis, attributes; otherwise elements and text.
  double DocumentCount(Axis axis, const NodeTest& test) const {
    if (axis == Axis::kAttribute) {
      return Children(Stats::kElementRow, axis, test).children;
    }
    const double elements =
        static_cast<double>(Row(Stats::kElementRow).count);
    switch (test.kind) {
      case NodeTestKind::kName: {
        const int row = s_.RowOfTag(test.name);
        return row < 0 ? 0 : static_cast<double>(Row(row).count);
      }
      case NodeTestKind::kAnyName:
        return elements;
      case NodeTestKind::kText:
        return Others() - elements;
      case NodeTestKind::kAnyNode:
        break;
    }
    return Others();
  }

  /// Every node but the document node.
  double Others() const { return static_cast<double>(s_.node_count - 1); }

  /// The share of `row`'s nodes that match `test` themselves.
  double SelfMatch(int row, const NodeTest& test) const {
    if (test.kind == NodeTestKind::kAnyNode) return 1;
    switch (row) {
      case Stats::kDocumentRow:
        return 0;
      case Stats::kLeafRow:
        return test.kind == NodeTestKind::kText ? 1 : 0;
      case Stats::kElementRow:
        if (test.kind == NodeTestKind::kText) return 0;
        return test.kind == NodeTestKind::kAnyName
                   ? 1
                   : DocumentCount(Axis::kDescendant, test) /
                         std::max(1.0,
                                  static_cast<double>(Row(row).count));
      default:
        if (test.kind == NodeTestKind::kText) return 0;
        return test.kind == NodeTestKind::kAnyName ||
                       s_.RowOfTag(test.name) == row
                   ? 1
                   : 0;
    }
  }

  /// Adds the rows of the `weight` matches of `q`'s step from `source`
  /// nodes; `scale` turns a source row's raw child counts into them.
  void AddTargets(int source, const PatternNode& q, double scale,
                  double weight, Mix* out) const {
    if (!(weight > 0)) return;
    if (q.axis == Axis::kAttribute || q.test.kind == NodeTestKind::kText) {
      out->Add(Stats::kLeafRow, weight);
    } else if (q.test.kind == NodeTestKind::kName) {
      out->Add(s_.RowOfTag(q.test.name), weight);
    } else if (q.axis == Axis::kSelf) {
      out->Add(source, weight);
    } else if (q.axis == Axis::kChild) {
      // A wildcard child step: the children's own rows.
      const Stats::Row& r = Row(source);
      for (uint32_t i = r.pairs_begin; i < r.pairs_end; ++i) {
        const Stats::Pair& p = s_.pairs[i];
        if (!WildcardMatches(p.child, false, q.test)) continue;
        const int row = static_cast<NodeKind>(p.child & 3) == NodeKind::kText
                            ? Stats::kLeafRow
                            : s_.RowOfTag(static_cast<Symbol>(p.child >> 2));
        out->Add(row, scale * Per(r, static_cast<double>(p.children)));
      }
    } else {
      out->Add(Stats::kElementRow, weight);
    }
  }

  const Stats& s_;
  const double per_other_;  ///< 1 / every node but the document node
};

void AddScaled(const PredictedWork& w, double f, PredictedWork* out) {
  out->nodes_visited += f * w.nodes_visited;
  out->index_entries += f * w.index_entries;
  out->index_skips += f * w.index_skips;
  out->steps += f * w.steps;
}

/// The three algorithms' predicted work for one pattern over one context
/// set, in one pass over the pattern: each pattern node's step is applied
/// once to the rows of the nodes it starts from.
///  - On the main path the step starts from a set of n nodes: NL
///    enumerates it from each, SC scans it once per node (pruning nested
///    ones on the descendant axes), TJ scans it once, pruned.
///  - A predicate branch is probed per candidate by NL (stopping at the
///    first match) and evaluated in full per candidate by SC; TJ scans it
///    set at a time over all the candidates.
class Estimate {
 public:
  Estimate(const Stats& stats, const Mix& contexts, const TreePattern& tp)
      : model_(stats) {
    Visit(*tp.root, contexts.One(), contexts.Total(), /*main=*/true);
  }
  Estimate(const Estimate&) = delete;
  Estimate& operator=(const Estimate&) = delete;

  const PredictedWork& Work(PatternAlgo algo) const {
    switch (algo) {
      case PatternAlgo::kStaircase:
        return sc_;
      case PatternAlgo::kTwig:
        return tj_;
      case PatternAlgo::kNLJoin:
      case PatternAlgo::kCostBased:
        break;
    }
    return nl_;
  }

 private:
  /// What a pattern node's branch costs from one node it starts from.
  struct Branch {
    /// The chance the node has a match of the whole branch.
    double exists = 0;
    /// NL's ExistsMatch: the step's enumeration, and the candidates'
    /// probes until one matches.
    PredictedWork nl;
    /// SC's Exists: the branch evaluated in full.
    PredictedWork sc;
    /// TJ: the refined matches of all the nodes the step started from.
    double refined = 0;
  };

  /// The step of `q` from one node drawn from `one`, valid until the next
  /// Apply. A step like the one applied before it, from the same rows,
  /// steps alike (t1[1]/t1[1]/...), so its result is reused.
  const Step& Apply(const PatternNode& q, const Mix& one) {
    if (last_ == nullptr || last_->axis != q.axis || last_->test != q.test ||
        last_->position != q.position || !(last_from_ == one)) {
      last_step_ = Step{};
      model_.Apply(one, q, &last_step_);
      last_from_ = one;
      last_candidates_ = last_step_.targets.One();
    }
    last_ = &q;
    return last_step_;
  }

  /// SC's Step of `q` from `n` nodes: one region scan per node, nested
  /// nodes pruned on the descendant axes. A positional step searches the
  /// stream for each node, from where the previous node's search ended,
  /// an overhead priced as a step each.
  static void ScanSC(const PatternNode& q, const Step& st, double n,
                     PredictedWork* w) {
    w->steps += std::min(1.0, n);
    if (IsScanAxis(q.axis) && q.position > 0) {
      w->index_skips += n;
      w->index_entries += n * st.positional_window;
      w->steps += n;
    } else if (q.axis == Axis::kChild) {
      w->index_skips += n;
      w->index_entries += n * st.positional_window;
    } else if (IsScanAxis(q.axis)) {
      w->index_skips += st.OuterSources(n);
      w->index_entries += st.OuterWindow(n);
    }
  }

  /// `q`'s branch from `n` nodes drawn from `one`: on the main path its
  /// NL and SC work goes to nl_ and sc_; its TJ work always goes to tj_.
  Branch Visit(const PatternNode& q, const Mix& one, double n, bool main) {
    const Step& st = Apply(q, one);
    // TJ: one pruned region scan over all n nodes. A child or named
    // attribute step reads the descendant window and merges it with the n
    // nodes; TJ's `steps` are the nodes its merges read.
    const bool merged = q.axis == Axis::kChild ||
                        (q.axis == Axis::kAttribute &&
                         q.test.kind == NodeTestKind::kName);
    if (IsScanAxis(q.axis) || merged) {
      tj_.index_skips += st.OuterSources(n);
      tj_.index_entries += st.OuterWindow(n);
      if (merged) tj_.steps += n + st.OuterWindow(n);
    }
    if (main) {
      nl_.nodes_visited += n * st.visits;
      nl_.steps += n;
      ScanSC(q, st, n, &sc_);
    }
    // The per-node probes are for predicate branches; a main-path branch
    // reports only its chance of a match and its refined size.
    Branch b;
    if (!main) {
      b.nl.nodes_visited = st.visits;
      b.nl.steps = 1;
      ScanSC(q, st, 1, &b.sc);
    }
    // A step the statistics say matches nothing ends the branch: nothing
    // below it runs.
    if (!(st.matches > 0)) return b;

    // The recursion below applies other steps: keep what is used after.
    const double matches = st.matches;
    const double have = st.have;
    const Mix candidates = last_candidates_;
    const double m = n * matches;
    // Each candidate's predicate probes, each only while the earlier ones
    // held (`rest`: the share still alive).
    double rest = 1;
    PredictedWork nl_candidate;
    PredictedWork sc_candidate;
    // TJ merges each branch's refined matches with the candidates left.
    for (const PatternNodePtr& p : q.predicates) {
      const Branch r = Visit(*p, candidates, m * rest, false);
      tj_.steps += m * rest + r.refined;
      AddScaled(r.nl, rest, &nl_candidate);
      AddScaled(r.sc, rest, &sc_candidate);
      rest *= r.exists;
    }
    if (main) {
      AddScaled(nl_candidate, m, &nl_);
      AddScaled(sc_candidate, m, &sc_);
    } else {
      AddScaled(sc_candidate, matches, &b.sc);
    }
    const double after_predicates = rest;
    if (q.next != nullptr) {
      const Branch r = Visit(*q.next, candidates, m * rest, main);
      tj_.steps += m * rest + r.refined;
      if (!main) {
        // NL probes the continuation per candidate; SC steps on from the
        // surviving candidates together.
        AddScaled(r.nl, rest, &nl_candidate);
        AddScaled(r.sc, matches * after_predicates, &b.sc);
      }
      rest *= r.exists;
      // TJ's final top-down pass merges this step's refined set with the
      // next step's.
      if (main) tj_.steps += m * rest + r.refined;
    }
    b.refined = m * rest;

    double examined = have;  // a positional step examines one
    if (q.position > 0) {
      b.exists = have * rest;
    } else if (have > 0) {
      // Of a node's candidates, the chance none satisfies the rest, and
      // how many the probe examines before one does. Past one candidate
      // the miss chance (1 - rest)^n is taken as about exp(-n * rest).
      const double per_have = matches / have;
      const double y = per_have * rest;
      const double miss = rest >= 1        ? 0
                          : per_have <= 1 ? 1 - y
                                          : 1 / (1 + y + 0.5 * y * y);
      b.exists = have * (1 - miss);
      examined *= rest > 1e-9 ? (1 - miss) / rest : per_have;
    }
    if (!main) AddScaled(nl_candidate, examined, &b.nl);
    return b;
  }

  Model model_;
  PredictedWork nl_;
  PredictedWork sc_;
  PredictedWork tj_;
  /// The last step applied, the rows it started from, and its result.
  const PatternNode* last_ = nullptr;
  Mix last_from_;
  Step last_step_;
  Mix last_candidates_;  ///< its matches' rows, as one node
};

/// The contexts as a Mix over the statistics of their (first) document,
/// or nullptr when no context is a node.
const Stats* Profile(const xdm::Sequence& context, Mix* mix) {
  const Stats* stats = nullptr;
  int last_row = -1;
  double run = 0;
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) continue;
    const xml::Node* n = it.node();
    if (stats == nullptr) stats = &n->doc->Stats();
    const int row = stats->RowOf(*n);
    if (row != last_row) {
      mix->Add(last_row, run);
      last_row = row;
      run = 0;
    }
    ++run;
  }
  mix->Add(last_row, run);
  return stats;
}

const UnitCosts& CostsOf(PatternAlgo algo) {
  switch (algo) {
    case PatternAlgo::kStaircase:
      return kSCCosts;
    case PatternAlgo::kTwig:
      return kTJCosts;
    case PatternAlgo::kNLJoin:
    case PatternAlgo::kCostBased:
      break;
  }
  return kNLCosts;
}

/// The algorithm that runs `tp` when `algo` is asked to: TwigJoin hands
/// the shapes it does not handle to the nested loop.
PatternAlgo Runner(const TreePattern& tp, PatternAlgo algo) {
  return HandlesPatternShape(algo, tp) ? algo : PatternAlgo::kNLJoin;
}

}  // namespace

PredictedWork PredictWork(const TreePattern& tp, const xdm::Sequence& context,
                          PatternAlgo algo) {
  Mix contexts;
  const Stats* stats = Profile(context, &contexts);
  if (tp.root == nullptr || stats == nullptr) return {};
  return Estimate(*stats, contexts, tp).Work(Runner(tp, algo));
}

double EstimateCost(const TreePattern& tp, const xdm::Sequence& context,
                    PatternAlgo algo) {
  Mix contexts;
  const Stats* stats = Profile(context, &contexts);
  if (tp.root == nullptr || stats == nullptr) return 0;
  const PatternAlgo runner = Runner(tp, algo);
  return Price(CostsOf(runner), Estimate(*stats, contexts, tp).Work(runner));
}

PatternAlgo ChooseAlgorithm(const TreePattern& tp,
                            const xdm::Sequence& context) {
  Mix contexts;
  const Stats* stats = Profile(context, &contexts);
  if (tp.root == nullptr || stats == nullptr) return PatternAlgo::kNLJoin;
  const Estimate estimate(*stats, contexts, tp);
  PatternAlgo best = PatternAlgo::kNLJoin;
  double best_cost = Price(kNLCosts, estimate.Work(PatternAlgo::kNLJoin));
  for (PatternAlgo algo : {PatternAlgo::kStaircase, PatternAlgo::kTwig}) {
    if (!HandlesPatternShape(algo, tp)) continue;
    const double cost = Price(CostsOf(algo), estimate.Work(algo));
    if (cost < best_cost) {
      best_cost = cost;
      best = algo;
    }
  }
  return best;
}

}  // namespace xqtp::exec
