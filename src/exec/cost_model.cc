#include "exec/cost_model.h"

#include <algorithm>
#include <cmath>

namespace xqtp::exec {

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using xml::Document;
using xml::Node;

/// Size of the per-tag stream a step would scan.
double StreamSize(const Document& doc, const PatternNode& q) {
  return static_cast<double>(StepStream(doc, q.axis, q.test).size());
}

/// Total stream size of every node of the sub-twig rooted at `q`
/// (the per-edge scans of the holistic twig join).
double TwigStreams(const Document& doc, const PatternNode& q) {
  double total = StreamSize(doc, q);
  for (const PatternNodePtr& p : q.predicates) total += TwigStreams(doc, *p);
  if (q.next) total += TwigStreams(doc, *q.next);
  return total;
}

int PredicateSteps(const PatternNode& q) {
  int n = 0;
  for (const PatternNodePtr& p : q.predicates) {
    n += 1 + PredicateSteps(*p);
  }
  if (q.next) n += PredicateSteps(*q.next);
  return n;
}

/// Expected navigational cost of matching the sub-twig from one node
/// (the nested-loop per-candidate probe).
double NlProbeCost(const DocStats& stats, const PatternNode& q,
                   double subtree) {
  double cost = 0;
  for (const PatternNodePtr& p : q.predicates) {
    // Existence probes early-exit; charge half the local scope.
    double scope = p->axis == Axis::kDescendant ||
                           p->axis == Axis::kDescendantOrSelf
                       ? subtree
                       : stats.avg_fanout;
    cost += 0.5 * scope + NlProbeCost(stats, *p, subtree / 2) * 0.5;
  }
  return cost;
}

}  // namespace

const DocStats& StatsFor(const Document& doc) { return doc.Stats(); }

double EstimateCost(const pattern::TreePattern& tp,
                    const xdm::Sequence& context, PatternAlgo algo) {
  if (tp.root == nullptr || context.empty()) return 0;
  // An algorithm that hands the pattern to the nested loop costs what the
  // nested loop costs.
  if (!HandlesPatternShape(algo, tp)) {
    return EstimateCost(tp, context, PatternAlgo::kNLJoin);
  }
  const Node* first = nullptr;
  double share = 0;  // expected fraction of the document under the contexts
  double k = 0;
  int min_depth = 1 << 20;
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) continue;
    const Node* n = it.node();
    if (first == nullptr) first = n;
    min_depth = std::min(min_depth, static_cast<int>(n->depth));
    k += 1;
  }
  if (first == nullptr) return 0;
  const Document& doc = *first->doc;
  const DocStats& stats = StatsFor(doc);
  double n_total = static_cast<double>(stats.node_count);
  // Level sizes grow ~avg_fanout per level: a context at depth d covers
  // about f^-(d-1) of the document.
  share = std::min(1.0, k * std::pow(stats.avg_fanout,
                                     -std::max(0, min_depth - 1)));
  double window = n_total * share;

  switch (algo) {
    case PatternAlgo::kNLJoin: {
      double cost = 1;
      double card = k;
      // Upper bound on each step's output: the fan-out product (each
      // context yields at most ceil(per_ctx) nodes), capped by the step
      // test's whole stream — whatever the navigation does, it cannot
      // emit more matching nodes than exist in the document.
      double bound = k;
      double subtree = window / std::max(1.0, k);
      for (const PatternNode* q = tp.root.get(); q != nullptr;
           q = q->next.get()) {
        double stream = StreamSize(doc, *q);
        double sel = stream / std::max(1.0, n_total);
        double produced;
        double per_ctx;
        if (q->axis == Axis::kDescendant ||
            q->axis == Axis::kDescendantOrSelf) {
          cost += card * subtree;  // full traversal of each context subtree
          per_ctx = subtree;
          produced = card * subtree * sel;
        } else {
          cost += card * stats.avg_fanout;
          per_ctx = stats.avg_fanout;
          produced = card * stats.avg_fanout * sel;
        }
        bound = std::min(bound * std::ceil(per_ctx), stream);
        produced = std::min(produced, bound);
        cost += produced * NlProbeCost(stats, *q, subtree / 2);
        card = std::max(1.0, produced);
        subtree /= stats.avg_fanout;
      }
      return cost;
    }
    case PatternAlgo::kStaircase: {
      double cost = 1;
      double card = k;
      for (const PatternNode* q = tp.root.get(); q != nullptr;
           q = q->next.get()) {
        double stream_window = StreamSize(doc, *q) * share;
        cost += stream_window + card * std::log2(StreamSize(doc, *q) + 2);
        // Per-candidate predicate probes: the staircase existence check
        // pays one binary search plus a subtree window scan per predicate
        // step, for every candidate — this is exactly why SCJoin degrades
        // on branchy patterns in the paper's Table 1.
        double produced = std::max(1.0, stream_window);
        for (const PatternNodePtr& p : q->predicates) {
          double pred_steps = 1.0 + PredicateSteps(*p);
          cost += produced * pred_steps *
                  (std::log2(StreamSize(doc, *p) + 2) + 1.0);
          cost += TwigStreams(doc, *p) * share;
        }
        card = produced;
      }
      return cost;
    }
    case PatternAlgo::kTwig:
      // One windowed merge per pattern edge, plus hashing overhead.
      return 1 + 1.5 * TwigStreams(doc, *tp.root) * share;
    case PatternAlgo::kCostBased:
      break;
  }
  return 1e30;
}

PatternAlgo ChooseAlgorithm(const pattern::TreePattern& tp,
                            const xdm::Sequence& context) {
  PatternAlgo best = PatternAlgo::kNLJoin;
  double best_cost = EstimateCost(tp, context, PatternAlgo::kNLJoin);
  for (PatternAlgo algo : {PatternAlgo::kStaircase, PatternAlgo::kTwig}) {
    double cost = EstimateCost(tp, context, algo);
    if (cost < best_cost) {
      best_cost = cost;
      best = algo;
    }
  }
  return best;
}

}  // namespace xqtp::exec
