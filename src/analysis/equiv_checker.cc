#include "analysis/equiv_checker.h"

#include <functional>
#include <utility>

#include "algebra/printer.h"
#include "analysis/cross_check.h"
#include "core/printer.h"
#include "exec/core_interp.h"
#include "exec/evaluator.h"
#include "xml/parser.h"

namespace xqtp::analysis {

namespace {

/// Binds every query global to the witness document's root, the engine's
/// binding contract (globals are singleton documents).
exec::Bindings BindGlobals(const core::VarTable& vars,
                           const xml::Document& doc) {
  exec::Bindings b;
  for (core::VarId v = 0; v < static_cast<core::VarId>(vars.size()); ++v) {
    if (vars.IsGlobal(v)) b[v] = xdm::Sequence{xdm::Item(doc.root())};
  }
  return b;
}

/// Agreement between two evaluation outcomes: equal sequences, or both
/// erroring (rewrites may reword error messages but must not turn a
/// failing query into a succeeding one or vice versa).
bool Agree(const Result<xdm::Sequence>& a, const Result<xdm::Sequence>& b) {
  if (!a.ok() || !b.ok()) return !a.ok() && !b.ok();
  if (a.value().size() != b.value().size()) return false;
  for (size_t i = 0; i < a.value().size(); ++i) {
    if (!ItemsAgree(a.value()[i], b.value()[i])) return false;
  }
  return true;
}

std::string RenderOutcome(const Result<xdm::Sequence>& r,
                          const StringInterner& interner) {
  if (!r.ok()) return "<error: " + r.status().ToString() + ">";
  std::string out = "(";
  for (size_t i = 0; i < r.value().size(); ++i) {
    if (i > 0) out += ", ";
    const xdm::Item& item = r.value()[i];
    if (item.IsNode()) {
      const xml::Node* n = item.node();
      if (n->IsDocument()) {
        out += "doc()";
      } else if (n->name != kInvalidSymbol) {
        out += (n->IsAttribute() ? "@" : "") + interner.NameOf(n->name) +
               "[pre=" + std::to_string(n->pre) + "]";
      } else {
        out += "text[pre=" + std::to_string(n->pre) + "]\"";
        out += n->Text();
        out += "\"";
      }
    } else {
      out += item.StringValue();
    }
  }
  return out + ")";
}

/// Evaluation routine for one side of a check: a Core expression or an
/// algebra plan, uniformly.
using EvalFn =
    std::function<Result<xdm::Sequence>(const xml::Document&)>;

struct CheckSubject {
  EvalFn eval;
  std::string printed;  ///< for the divergence report
  const char* label;    ///< "before" / "after" / "core" / "plan"
};

}  // namespace

EquivChecker::EquivChecker(StringInterner* interner,
                           const AnalysisOptions& opts)
    : interner_(interner), opts_(opts), corpus_(interner) {}

namespace {

Status RunCheck(const CheckSubject& lhs, const CheckSubject& rhs,
                const WitnessCorpus& corpus, StringInterner* interner,
                const AnalysisOptions& opts) {
  int limit = opts.max_witness_docs > 0
                  ? opts.max_witness_docs
                  : static_cast<int>(corpus.docs().size());
  for (int i = 0; i < limit && i < static_cast<int>(corpus.docs().size());
       ++i) {
    const WitnessDoc& w = corpus.docs()[i];
    Result<xdm::Sequence> rl = lhs.eval(*w.doc);
    Result<xdm::Sequence> rr = rhs.eval(*w.doc);
    if (Agree(rl, rr)) continue;

    // Divergence: minimize the witness before reporting. The predicate
    // re-runs both sides on each candidate document.
    WitnessPredicate pred = [&](const xml::Document& cand) {
      return !Agree(lhs.eval(cand), rhs.eval(cand));
    };
    std::string minimized =
        ShrinkWitness(w.xml, interner, pred, opts.shrink_budget);
    // Re-evaluate on the minimized witness so the reported outcomes match
    // the reported document.
    auto mdoc = xml::Parse(minimized, interner);
    std::string lhs_out = RenderOutcome(rl, *interner);
    std::string rhs_out = RenderOutcome(rr, *interner);
    if (mdoc.ok()) {
      lhs_out = RenderOutcome(lhs.eval(*mdoc.value()), *interner);
      rhs_out = RenderOutcome(rhs.eval(*mdoc.value()), *interner);
    }
    std::string msg = "translation validation: rewrite changed semantics";
    msg += "\n  witness: " + w.name;
    msg += "\n  witness(minimized): " + minimized;
    msg += "\n  ";
    msg += lhs.label;
    msg += " result: " + lhs_out;
    msg += "\n  ";
    msg += rhs.label;
    msg += " result: " + rhs_out;
    msg += "\n  ";
    msg += lhs.label;
    msg += ":\n" + lhs.printed;
    msg += "\n  ";
    msg += rhs.label;
    msg += ":\n" + rhs.printed;
    return VerifyScope::Tag(Status::Internal(std::move(msg)));
  }
  return Status::OK();
}

}  // namespace

Status EquivChecker::CheckCore(const core::CoreExpr& before,
                               const core::CoreExpr& after,
                               const core::VarTable& vars) {
  CheckSubject lhs{[&](const xml::Document& d) {
                     return exec::EvaluateCore(before, vars,
                                               BindGlobals(vars, d));
                   },
                   core::ToString(before, vars, *interner_), "before"};
  CheckSubject rhs{[&](const xml::Document& d) {
                     return exec::EvaluateCore(after, vars,
                                               BindGlobals(vars, d));
                   },
                   core::ToString(after, vars, *interner_), "after"};
  return RunCheck(lhs, rhs, corpus_, interner_, opts_);
}

Status EquivChecker::CheckPlan(const algebra::Op& before,
                               const algebra::Op& after,
                               const core::VarTable& vars) {
  exec::EvalOptions eopts;  // nested-loop: the reference algorithm
  CheckSubject lhs{[&](const xml::Document& d) {
                     return exec::Evaluate(before, vars, BindGlobals(vars, d),
                                           eopts);
                   },
                   algebra::ToPrettyString(before, vars, *interner_),
                   "before"};
  CheckSubject rhs{[&](const xml::Document& d) {
                     return exec::Evaluate(after, vars, BindGlobals(vars, d),
                                           eopts);
                   },
                   algebra::ToPrettyString(after, vars, *interner_), "after"};
  return RunCheck(lhs, rhs, corpus_, interner_, opts_);
}

Status EquivChecker::CheckCoreVsPlan(const core::CoreExpr& core_form,
                                     const algebra::Op& plan,
                                     const core::VarTable& vars) {
  exec::EvalOptions eopts;
  CheckSubject lhs{[&](const xml::Document& d) {
                     return exec::EvaluateCore(core_form, vars,
                                               BindGlobals(vars, d));
                   },
                   core::ToString(core_form, vars, *interner_), "core"};
  CheckSubject rhs{[&](const xml::Document& d) {
                     return exec::Evaluate(plan, vars, BindGlobals(vars, d),
                                           eopts);
                   },
                   algebra::ToPrettyString(plan, vars, *interner_), "plan"};
  return RunCheck(lhs, rhs, corpus_, interner_, opts_);
}

}  // namespace xqtp::analysis
