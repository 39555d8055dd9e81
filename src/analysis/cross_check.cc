#include "analysis/cross_check.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "exec/core_interp.h"
#include "exec/parallel.h"

namespace xqtp::analysis {

bool ItemsAgree(const xdm::Item& a, const xdm::Item& b) {
  if (a.IsDouble() && b.IsDouble() && std::isnan(a.dbl()) &&
      std::isnan(b.dbl())) {
    return true;
  }
  return a == b;
}

namespace {

std::string RenderNode(const xml::Node* n, const StringInterner& interner) {
  if (n->name != kInvalidSymbol) {
    return interner.NameOf(n->name) + "[pre=" + std::to_string(n->pre) + "]";
  }
  return "node[pre=" + std::to_string(n->pre) + "]";
}

bool AgreeSeq(const Result<xdm::Sequence>& a, const Result<xdm::Sequence>& b) {
  if (!a.ok() || !b.ok()) return !a.ok() && !b.ok();
  if (a.value().size() != b.value().size()) return false;
  for (size_t i = 0; i < a.value().size(); ++i) {
    if (!ItemsAgree(a.value()[i], b.value()[i])) return false;
  }
  return true;
}

std::string RenderSeqBrief(const Result<xdm::Sequence>& r) {
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  std::string out = "len=" + std::to_string(r.value().size()) + " (";
  size_t n = r.value().size() < 8 ? r.value().size() : 8;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    const xdm::Item& item = r.value()[i];
    out += item.IsNode() ? "pre=" + std::to_string(item.node()->pre)
                         : item.StringValue();
  }
  if (n < r.value().size()) out += ", ...";
  return out + ")";
}

bool PlanHasPattern(const algebra::Op& op) {
  return algebra::ComputeStats(op).tree_pattern_ops > 0;
}

}  // namespace

const std::vector<exec::PatternAlgo>& CrossCheckAlgos() {
  static const std::vector<exec::PatternAlgo> kAlgos = {
      exec::PatternAlgo::kNLJoin,
      exec::PatternAlgo::kStaircase,
      exec::PatternAlgo::kTwig,
  };
  return kAlgos;
}

Status CrossCheckPattern(const pattern::TreePattern& tp,
                         std::span<const xml::Node* const> context,
                         const StringInterner& interner) {
  auto reference = exec::EvalPattern(tp, context, exec::PatternAlgo::kNLJoin);
  XQTP_RETURN_NOT_OK(reference.status());
  // The parallel legs' driver settings: a tiny forced fan-out so even
  // small witness inputs morselize, exercising the driver's root fan-out
  // and order-preserving merge on every iteration.
  exec::ParallelContext par;
  par.threads = 2;
  par.min_fanout = 2;
  for (exec::PatternAlgo algo : CrossCheckAlgos()) {
    // Sequential leg (the reference itself for NLJoin), then a parallel
    // leg driving the same algorithm through the morsel driver — both
    // must be bit-identical to the nested-loop reference.
    for (int leg = 0; leg < 2; ++leg) {
      bool parallel = leg == 1;
      if (!parallel && algo == exec::PatternAlgo::kNLJoin) continue;
      auto nodes =
          exec::EvalPattern(tp, context, algo, parallel ? &par : nullptr);
      std::string leg_name =
          std::string(exec::PatternAlgoName(algo)) + (parallel ? "+morsel" : "");
      if (!nodes.ok()) {
        return Status::Internal(
            std::string("cross-check: ") + leg_name +
            " failed where NLJoin succeeded on " + tp.ToString(interner) +
            ": " + nodes.status().ToString());
      }
      const std::vector<const xml::Node*>& want = reference.value();
      const std::vector<const xml::Node*>& got = nodes.value();
      if (got != want) {
        const size_t diff = static_cast<size_t>(
            std::mismatch(want.begin(), want.end(), got.begin(), got.end())
                .first -
            want.begin());
        std::string msg = std::string("cross-check: ") + leg_name +
                          " diverges from NLJoin";
        msg += "\n  pattern: " + tp.ToString(interner);
        msg += "\n  node " + std::to_string(diff) + ": NLJoin=" +
               (diff < want.size() ? RenderNode(want[diff], interner)
                                   : std::string("<absent>")) +
               " vs " + leg_name + "=" +
               (diff < got.size() ? RenderNode(got[diff], interner)
                                  : std::string("<absent>"));
        msg += "\n  nodes: NLJoin=" + std::to_string(want.size()) + " " +
               leg_name + "=" + std::to_string(got.size());
        return Status::Internal(std::move(msg));
      }
    }
  }
  return Status::OK();
}

Status CrossCheck(const CrossCheckInput& in, const core::VarTable& vars,
                  const exec::Bindings& bindings) {
  if (in.optimized == nullptr) {
    return Status::InvalidArgument("cross-check: optimized plan required");
  }
  struct Route {
    std::string name;
    Result<xdm::Sequence> result;
  };
  std::vector<Route> routes;
  if (in.reference != nullptr) {
    routes.push_back(
        {"core-interp", exec::EvaluateCore(*in.reference, vars, bindings)});
  }
  if (in.unoptimized != nullptr) {
    routes.push_back({"plan(unoptimized, NLJoin)",
                      exec::Evaluate(*in.unoptimized, vars, bindings, {})});
  }
  bool has_pattern = PlanHasPattern(*in.optimized);
  for (int batch_rows : {2, 1}) {
    // Tiny-batch legs: the same optimized plan with a batch size of 2, so
    // every multi-row stream crosses batch boundaries, and of 1, so every
    // batch is one row and no pattern is loop-lifted — the per-row path.
    // Both must be bit-identical to the default (1024-row, lifted) routes
    // below.
    exec::EvalOptions bopts;
    bopts.threads = 1;
    bopts.tuple_batch_rows = batch_rows;
    routes.push_back({"plan(optimized, NLJoin, batch_rows=" +
                          std::to_string(batch_rows) + ")",
                      exec::Evaluate(*in.optimized, vars, bindings, bopts)});
  }
  for (exec::PatternAlgo algo : CrossCheckAlgos()) {
    exec::EvalOptions opts;
    opts.algo = algo;
    opts.threads = 1;
    routes.push_back(
        {std::string("plan(optimized, ") + exec::PatternAlgoName(algo) + ")",
         exec::Evaluate(*in.optimized, vars, bindings, opts)});
    if (has_pattern) {
      // Parallel leg: the same plan through the morsel driver with a
      // forced fan-out, validating root fan-out + merge per iteration.
      exec::EvalOptions popts = opts;
      popts.threads = 2;
      popts.parallel_min_fanout = 2;
      routes.push_back({std::string("plan(optimized, ") +
                            exec::PatternAlgoName(algo) + ", threads=2)",
                        exec::Evaluate(*in.optimized, vars, bindings, popts)});
    }
    // Without a TupleTreePattern every algorithm takes the same code
    // path; one evaluation suffices.
    if (!has_pattern) break;
  }
  for (size_t i = 1; i < routes.size(); ++i) {
    if (AgreeSeq(routes[0].result, routes[i].result)) continue;
    std::string msg = "cross-check: route '" + routes[i].name +
                      "' diverges from '" + routes[0].name + "'";
    msg += "\n  " + routes[0].name + ": " + RenderSeqBrief(routes[0].result);
    msg += "\n  " + routes[i].name + ": " + RenderSeqBrief(routes[i].result);
    return Status::Internal(std::move(msg));
  }
  return Status::OK();
}

}  // namespace xqtp::analysis
