#include "query/selection.h"

#include "util/failpoint.h"
#include "util/strings.h"

namespace hedgeq::query {

using hedge::Hedge;
using hedge::NodeId;

Result<SelectionQuery> ParseSelectionQuery(std::string_view text,
                                           hedge::Vocabulary& vocab) {
  std::string_view s = StripAsciiWhitespace(text);
  if (!StartsWith(s, "select(") || s.back() != ')') {
    return Status::InvalidArgument(
        "a selection query has the form select(e1; e2)");
  }
  std::string_view body = s.substr(7, s.size() - 8);
  size_t split = body.find(';');
  if (split == std::string_view::npos) {
    return Status::InvalidArgument(
        "select(e1; e2) needs a ';' between the hedge regular expression "
        "and the pointed hedge representation");
  }
  std::string_view e1_text = StripAsciiWhitespace(body.substr(0, split));
  std::string_view e2_text = body.substr(split + 1);

  SelectionQuery query{nullptr,
                       phr::Phr({}, strre::EmptySet())};
  if (e1_text != "*") {
    Result<hre::Hre> e1 = hre::ParseHre(e1_text, vocab);
    if (!e1.ok()) return e1.status();
    query.subhedge = std::move(e1).value();
  }
  Result<phr::Phr> e2 = phr::ParsePhr(e2_text, vocab);
  if (!e2.ok()) return e2.status();
  query.envelope = std::move(e2).value();
  return query;
}

Result<SelectionEvaluator> SelectionEvaluator::Create(
    const SelectionQuery& query, const ExecBudget& budget) {
  SelectionEvaluator out;
  if (query.subhedge != nullptr) {
    HEDGEQ_FAILPOINT("selection/subhedge");
    BudgetScope scope(budget);
    Result<automata::Nha> nha = hre::CompileHre(query.subhedge, scope);
    if (!nha.ok()) return nha.status();
    Result<automata::HedgeEngine> engine =
        automata::HedgeEngine::Create(*nha, scope);
    if (!engine.ok()) return engine.status();
    out.subhedge_ = std::move(engine).value();
  }
  Result<PhrEvaluator> phr_eval = PhrEvaluator::Create(query.envelope, budget);
  if (!phr_eval.ok()) return phr_eval.status();
  out.phr_ = std::move(phr_eval).value();
  return out;
}

std::vector<bool> SelectionEvaluator::Locate(const Hedge& doc) const {
  std::vector<bool> located = phr_->Locate(doc);
  // Theorem 3: a node's subhedge lies in L(e1) iff M-down-e1 assigns a
  // marked state, i.e. its child sequence lands in the final language.
  if (subhedge_.has_value()) {
    const std::vector<bool> marks =
        subhedge_->Visit([&](const auto& automaton) {
          return automaton.RunWithMarks(doc).marks;
        });
    for (size_t n = 0; n < located.size(); ++n) {
      located[n] = located[n] && marks[n];
    }
  }
  return located;
}

const std::optional<automata::Dha>& SelectionEvaluator::subhedge_dha() const {
  static const std::optional<automata::Dha> kNone;
  return subhedge_.has_value() ? subhedge_->dha() : kNone;
}

automata::EvalStats SelectionEvaluator::stats() const {
  return automata::EvalStats::Sum(
      phr_->stats(),
      subhedge_.has_value() ? subhedge_->stats() : automata::EvalStats{});
}

std::vector<NodeId> SelectionEvaluator::LocatedNodes(const Hedge& doc) const {
  std::vector<bool> located = Locate(doc);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < located.size(); ++n) {
    if (located[n]) out.push_back(n);
  }
  return out;
}

NaiveSelectionEvaluator::NaiveSelectionEvaluator(const SelectionQuery& query)
    : envelope_(query.envelope), matcher_(envelope_) {
  if (query.subhedge != nullptr) {
    subhedge_nha_ = hre::CompileHre(query.subhedge);
  }
}

std::vector<bool> NaiveSelectionEvaluator::Locate(const Hedge& doc) const {
  std::vector<bool> located(doc.num_nodes(), false);
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    if (doc.label(n).kind != hedge::LabelKind::kSymbol) continue;
    if (subhedge_nha_.has_value() &&
        !subhedge_nha_->Accepts(doc.SubhedgeOf(n))) {
      continue;
    }
    located[n] = matcher_.Matches(doc.EnvelopeOf(n));
  }
  return located;
}

}  // namespace hedgeq::query
