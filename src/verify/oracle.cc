#include "verify/oracle.h"

#include <optional>
#include <set>
#include <string>
#include <utility>

#include "automata/determinize.h"
#include "automata/lazy_dha.h"
#include "automata/streaming.h"
#include "hre/compile.h"
#include "schema/schema.h"
#include "schema/streaming.h"
#include "util/strings.h"
#include "verify/enumerate.h"
#include "verify/naive_match.h"
#include "xml/xml.h"

namespace hedgeq::verify {

namespace {

using hedge::Hedge;
using hedge::Label;
using hedge::LabelKind;
using hedge::NodeId;

constexpr size_t kMaxFindings = 16;

void CollectLabels(const hre::HreNode* e, std::set<const hre::HreNode*>& seen,
                   std::set<InternId>& symbols, std::set<InternId>& variables,
                   std::set<InternId>& substs) {
  if (e == nullptr || !seen.insert(e).second) return;
  switch (e->kind()) {
    case hre::HreKind::kVariable:
      variables.insert(e->id());
      break;
    case hre::HreKind::kTree:
      symbols.insert(e->id());
      break;
    case hre::HreKind::kSubstLeaf:
      symbols.insert(e->id());
      substs.insert(e->subst());
      break;
    case hre::HreKind::kEmbed:
    case hre::HreKind::kVClose:
      substs.insert(e->subst());
      break;
    default:
      break;
  }
  CollectLabels(e->left().get(), seen, symbols, variables, substs);
  CollectLabels(e->right().get(), seen, symbols, variables, substs);
}

struct Verdict {
  const char* engine;
  bool accepts;
};

// Copies the subtree of `n` into `dst` under `dst_parent`, except `victim`:
// a deleted victim vanishes with its whole subtree, a hoisted victim is
// replaced by its children sequence (spliced in place, in order).
void CopyExceptVictim(const Hedge& src, NodeId n, Hedge& dst,
                      NodeId dst_parent, NodeId victim, bool hoist) {
  if (n == victim) {
    if (hoist) {
      for (NodeId kid : src.ChildrenOf(n)) {
        CopyExceptVictim(src, kid, dst, dst_parent, victim, hoist);
      }
    }
    return;
  }
  NodeId copy = dst.Append(dst_parent, src.label(n));
  for (NodeId kid : src.ChildrenOf(n)) {
    CopyExceptVictim(src, kid, dst, copy, victim, hoist);
  }
}

Hedge WithoutSubtree(const Hedge& h, NodeId victim, bool hoist) {
  Hedge out;
  for (NodeId root : h.roots()) {
    CopyExceptVictim(h, root, out, hedge::kNullNode, victim, hoist);
  }
  return out;
}

}  // namespace

Hedge ShrinkHedge(const Hedge& start,
                  const std::function<bool(const Hedge&)>& still_failing,
                  size_t max_checks, size_t* checks_out) {
  Hedge current = start;
  size_t checks = 0;
  bool reduced = true;
  while (reduced && checks < max_checks) {
    reduced = false;
    for (NodeId n : current.PreOrder()) {
      for (bool hoist : {false, true}) {
        if (hoist && current.first_child(n) == hedge::kNullNode) continue;
        Hedge candidate = WithoutSubtree(current, n, hoist);
        ++checks;
        if (still_failing(candidate)) {
          current = std::move(candidate);
          reduced = true;  // node ids shifted: restart the scan
          break;
        }
        if (checks >= max_checks) break;
      }
      if (reduced || checks >= max_checks) break;
    }
  }
  if (checks_out != nullptr) *checks_out = checks;
  return current;
}

Result<OracleReport> RunDifferentialOracle(const hre::Hre& e,
                                           hedge::Vocabulary& vocab,
                                           const OracleOptions& options) {
  OracleReport report;

  BudgetScope scope(options.budget);
  Result<automata::Nha> nha = hre::CompileHre(e, scope);
  if (!nha.ok()) return nha.status();

  // Label universe: the expression's own labels plus one fresh symbol the
  // language cannot mention, so every tier also exercises rejection.
  EnumVocab ev;
  {
    std::set<const hre::HreNode*> seen;
    std::set<InternId> symbols, variables, substs;
    CollectLabels(e.get(), seen, symbols, variables, substs);
    symbols.insert(vocab.symbols.Intern("_oracle_fresh"));
    ev.symbols.assign(symbols.begin(), symbols.end());
    ev.variables.assign(variables.begin(), variables.end());
    ev.substs.assign(substs.begin(), substs.end());
  }

  // Eager engines, when the budget allows.
  std::optional<automata::Dha> dha;
  {
    Result<automata::Determinized> det = automata::Determinize(*nha, scope);
    if (det.ok()) {
      dha = std::move(det->dha);
      report.eager_available = true;
    } else if (!IsDegradable(det.status().code())) {
      return det.status();
    }
  }
  automata::LazyDha lazy(*nha);
  Result<schema::StreamingValidator> validator =
      schema::StreamingValidator::Create(schema::Schema(*nha),
                                         options.budget);
  if (!validator.ok()) return validator.status();

  // `count` is false for shrinking re-checks: they must not inflate the
  // corpus statistics.
  auto verdicts_of = [&](const Hedge& h, bool count) -> std::vector<Verdict> {
    if (count) ++report.hedges_checked;
    std::vector<Verdict> verdicts;
    verdicts.push_back({"nha", nha->Accepts(h)});
    verdicts.push_back({"lazy", lazy.Accepts(h)});
    if (dha.has_value()) verdicts.push_back({"eager", dha->Accepts(h)});

    std::optional<bool> naive =
        NaiveHreMatch(e, h, NaiveMatchOptions{options.naive_max_steps});
    if (naive.has_value()) {
      verdicts.push_back({"naive", *naive});
    } else if (count) {
      ++report.naive_unknown;
    }

    // Streaming runs consume SAX events, which cannot express substitution
    // leaves; skip those hedges for the streaming tier only.
    bool has_subst = false;
    std::set<hedge::VarId> vars_used;
    for (NodeId n = 0; n < h.num_nodes(); ++n) {
      if (h.label(n).kind == LabelKind::kSubst) has_subst = true;
      if (h.label(n).kind == LabelKind::kVariable) {
        vars_used.insert(h.label(n).id);
      }
    }
    if (!has_subst) {
      if (count) ++report.streaming_checked;
      automata::StreamingRun<automata::LazyDha> lazy_stream(lazy);
      std::optional<automata::StreamingRun<automata::Dha>> eager_stream;
      if (dha.has_value()) eager_stream.emplace(*dha);
      struct Emit {
        const Hedge& h;
        automata::StreamingRun<automata::LazyDha>& ls;
        std::optional<automata::StreamingRun<automata::Dha>>& es;
        void Node(NodeId n) {
          Label label = h.label(n);
          if (label.kind == LabelKind::kSymbol) {
            ls.StartElement(label.id);
            if (es.has_value()) es->StartElement(label.id);
            for (NodeId kid : h.ChildrenOf(n)) Node(kid);
            ls.EndElement(label.id);
            if (es.has_value()) es->EndElement(label.id);
          } else {  // variable leaf (substs were excluded, eta never occurs)
            ls.Text(label.id);
            if (es.has_value()) es->Text(label.id);
          }
        }
      } emit{h, lazy_stream, eager_stream};
      for (NodeId root : h.roots()) emit.Node(root);
      verdicts.push_back({"lazy-stream", lazy_stream.Accepted()});
      if (eager_stream.has_value()) {
        verdicts.push_back({"eager-stream", eager_stream->Accepted()});
      }

      // The XML round-trip maps every text node to one text variable, so it
      // is faithful only for hedges using at most one distinct variable —
      // and XML coalesces adjacent text, so two variable leaves that are
      // consecutive siblings parse back as a single leaf. Skip both.
      bool adjacent_text = false;
      hedge::ForEachSiblingGroup(h, [&](std::span<const NodeId> siblings) {
        bool prev_var = false;
        for (NodeId n : siblings) {
          bool is_var = h.label(n).kind == LabelKind::kVariable;
          if (is_var && prev_var) adjacent_text = true;
          prev_var = is_var;
        }
      });
      if (h.roots().size() == 1 && vars_used.size() <= 1 && !adjacent_text) {
        xml::XmlDocument doc = xml::WrapHedge(h, vocab);
        xml::XmlParseOptions parse_options;
        if (!vars_used.empty()) {
          parse_options.text_variable =
              vocab.variables.NameOf(*vars_used.begin());
        }
        Result<bool> valid = validator->Validate(
            xml::SerializeXml(doc, vocab), vocab, parse_options);
        if (valid.ok()) {
          if (count) ++report.validator_checked;
          verdicts.push_back({"validator", *valid});
        }
      }
    }
    return verdicts;
  };

  auto disagree = [](const std::vector<Verdict>& verdicts) -> bool {
    for (const Verdict& v : verdicts) {
      if (v.accepts != verdicts[0].accepts) return true;
    }
    return false;
  };

  auto check = [&](const Hedge& h) -> bool {  // false stops the corpus walk
    std::vector<Verdict> verdicts = verdicts_of(h, /*count=*/true);
    if (disagree(verdicts)) {
      Hedge reported = h;
      if (options.shrink) {
        size_t spent = 0;
        Hedge small = ShrinkHedge(
            h,
            [&](const Hedge& candidate) {
              return disagree(verdicts_of(candidate, /*count=*/false));
            },
            options.shrink_max_checks, &spent);
        report.shrink_checks += spent;
        if (small.num_nodes() < h.num_nodes()) {
          reported = std::move(small);
          // Report the verdict panel of the hedge actually named in the
          // finding (engines may flip roles between original and shrunk).
          verdicts = verdicts_of(reported, /*count=*/false);
        }
      }
      lint::Diagnostic d;
      d.severity = lint::Severity::kError;
      d.code = lint::DiagnosticCode::kDifferentialDisagreement;
      d.span = StrCat("hedge/", reported.ToString(vocab));
      std::string message = "engines disagree:";
      for (const Verdict& v : verdicts) {
        message += StrCat(" ", v.engine, "=", v.accepts ? 1 : 0);
      }
      if (reported.num_nodes() < h.num_nodes()) {
        message += StrCat(" (shrunk from ", h.num_nodes(), "-node hedge ",
                          h.ToString(vocab), ")");
      }
      d.message = std::move(message);
      report.diagnostics.push_back(std::move(d));
    }
    return report.diagnostics.size() < kMaxFindings;
  };

  // Tier 1: bounded-exhaustive over all sizes up to max_size.
  bool keep_going = true;
  for (size_t size = 0; size <= options.max_size && keep_going; ++size) {
    size_t cap = options.max_exhaustive - report.enumerated;
    report.enumerated += EnumerateHedges(ev, size, cap, [&](const Hedge& h) {
      keep_going = check(h);
      return keep_going;
    });
  }

  // Tier 2: uniform samples at a size the exhaustive tier cannot reach.
  SplitMix64 rng(options.seed);
  for (size_t i = 0; i < options.samples && keep_going; ++i) {
    Hedge h = SampleHedge(ev, options.sample_size, rng);
    if (h.empty() && options.sample_size > 0) break;  // empty vocabulary
    ++report.sampled;
    keep_going = check(h);
  }

  return report;
}

namespace {

// One engine's located node set for a document.
struct NodeSetVerdict {
  const char* engine;
  std::vector<bool> located;
};

std::string FormatNodeSet(const std::vector<bool>& located) {
  std::string out = "{";
  bool first = true;
  for (size_t n = 0; n < located.size(); ++n) {
    if (!located[n]) continue;
    if (!first) out += ",";
    out += StrCat(n);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace

Result<SelectionOracleReport> RunSelectionOracle(
    const query::SelectionQuery& query, hedge::Vocabulary& vocab,
    const OracleOptions& options) {
  SelectionOracleReport report;

  // Label universe: every label of the subhedge expression and of the
  // triplets (conditions and element labels), plus one fresh symbol.
  EnumVocab ev;
  {
    std::set<const hre::HreNode*> seen;
    std::set<InternId> symbols, variables, substs;
    CollectLabels(query.subhedge.get(), seen, symbols, variables, substs);
    for (const phr::PointedBaseRep& t : query.envelope.triplets()) {
      symbols.insert(t.label);
      CollectLabels(t.elder.get(), seen, symbols, variables, substs);
      CollectLabels(t.younger.get(), seen, symbols, variables, substs);
    }
    symbols.insert(vocab.symbols.Intern("_oracle_fresh"));
    ev.symbols.assign(symbols.begin(), symbols.end());
    ev.variables.assign(variables.begin(), variables.end());
    ev.substs.assign(substs.begin(), substs.end());
  }

  // Panel: production evaluator under the caller's budget, the same
  // evaluator forced onto its lazy engines by a starvation budget, the
  // NaivePhrMatcher-based reference, and the independent enumerator.
  Result<query::SelectionEvaluator> eager =
      query::SelectionEvaluator::Create(query, options.budget);
  if (!eager.ok()) return eager.status();
  report.eager_available = !eager->fallback_used();
  std::optional<query::SelectionEvaluator> lazy;
  {
    ExecBudget starve = options.budget;
    starve.max_states = 1;
    Result<query::SelectionEvaluator> forced =
        query::SelectionEvaluator::Create(query, starve);
    if (forced.ok()) {
      lazy = std::move(forced).value();
    } else if (!IsDegradable(forced.status().code())) {
      return forced.status();
    }
  }
  query::NaiveSelectionEvaluator matcher(query);

  auto panel_of = [&](const Hedge& h,
                      bool count) -> std::vector<NodeSetVerdict> {
    if (count) ++report.hedges_checked;
    std::vector<NodeSetVerdict> panel;
    panel.push_back({"evaluator", eager->Locate(h)});
    if (lazy.has_value()) panel.push_back({"lazy", lazy->Locate(h)});
    panel.push_back({"matcher", matcher.Locate(h)});
    std::optional<std::vector<bool>> naive = NaiveSelectionLocate(
        query, h, NaiveMatchOptions{options.naive_max_steps});
    if (naive.has_value()) {
      panel.push_back({"naive", std::move(naive).value()});
    } else if (count) {
      ++report.naive_unknown;
    }
    return panel;
  };

  // First node where any engine's set differs from the first engine's;
  // nullopt when the panel agrees everywhere.
  auto first_disagreement =
      [](const std::vector<NodeSetVerdict>& panel) -> std::optional<NodeId> {
    for (const NodeSetVerdict& v : panel) {
      for (size_t n = 0; n < v.located.size(); ++n) {
        if (v.located[n] != panel[0].located[n]) {
          return static_cast<NodeId>(n);
        }
      }
    }
    return std::nullopt;
  };

  auto check = [&](const Hedge& h) -> bool {  // false stops the corpus walk
    std::vector<NodeSetVerdict> panel = panel_of(h, /*count=*/true);
    std::optional<NodeId> node = first_disagreement(panel);
    if (node.has_value()) {
      Hedge reported = h;
      if (options.shrink) {
        size_t spent = 0;
        Hedge small = ShrinkHedge(
            h,
            [&](const Hedge& candidate) {
              return first_disagreement(panel_of(candidate, /*count=*/false))
                  .has_value();
            },
            options.shrink_max_checks, &spent);
        report.shrink_checks += spent;
        if (small.num_nodes() < h.num_nodes()) {
          reported = std::move(small);
          panel = panel_of(reported, /*count=*/false);
          node = first_disagreement(panel);
        }
      }
      lint::Diagnostic d;
      d.severity = lint::Severity::kError;
      d.code = lint::DiagnosticCode::kSelectionDisagreement;
      d.span = StrCat("hedge/", reported.ToString(vocab));
      std::string message =
          StrCat("selection engines disagree at node ", node.value_or(0), ":");
      for (const NodeSetVerdict& v : panel) {
        message += StrCat(" ", v.engine, "=", FormatNodeSet(v.located));
      }
      if (reported.num_nodes() < h.num_nodes()) {
        message += StrCat(" (shrunk from ", h.num_nodes(), "-node hedge ",
                          h.ToString(vocab), ")");
      }
      d.message = std::move(message);
      report.diagnostics.push_back(std::move(d));
    }
    return report.diagnostics.size() < kMaxFindings;
  };

  bool keep_going = true;
  for (size_t size = 0; size <= options.max_size && keep_going; ++size) {
    size_t cap = options.max_exhaustive - report.enumerated;
    report.enumerated += EnumerateHedges(ev, size, cap, [&](const Hedge& h) {
      keep_going = check(h);
      return keep_going;
    });
  }
  SplitMix64 rng(options.seed);
  for (size_t i = 0; i < options.samples && keep_going; ++i) {
    Hedge h = SampleHedge(ev, options.sample_size, rng);
    if (h.empty() && options.sample_size > 0) break;  // empty vocabulary
    ++report.sampled;
    keep_going = check(h);
  }

  return report;
}

}  // namespace hedgeq::verify
