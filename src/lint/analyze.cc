#include "lint/analyze.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "hre/compile.h"

namespace hedgeq::lint {

using automata::HState;
using automata::Nha;
using strre::Nfa;
using strre::StateId;

namespace {

std::string Plural(size_t n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

std::string SpanOf(const hre::Hre& e, const hedge::Vocabulary& vocab,
                   size_t max_chars) {
  std::string text = hre::HreToString(e, vocab);
  if (text.size() <= max_chars) return text;
  size_t keep = (max_chars - 3) / 2;
  return text.substr(0, keep) + "..." + text.substr(text.size() - keep);
}

NondetProfile ProfileNha(const Nha& nha) {
  NondetProfile profile;
  profile.nha_states = nha.num_states();
  profile.num_rules = nha.rules().size();
  auto profile_nfa = [&profile](const Nfa& content) {
    profile.content_nfa_states += content.num_states();
    for (StateId s = 0; s < content.num_states(); ++s) {
      const size_t eps = content.EpsilonsFrom(s).size();
      const auto& transitions = content.TransitionsFrom(s);
      bool duplicate_letter = false;
      std::unordered_set<strre::Symbol> seen;
      for (const Nfa::Transition& t : transitions) {
        if (!seen.insert(t.symbol).second) {
          duplicate_letter = true;
          break;
        }
      }
      // A state is a branch point when reading can genuinely fork: two
      // epsilon successors (union/star forks), an epsilon next to a letter
      // move, or two moves on the same letter. Only forks can double the
      // number of simultaneously-live subset members, so their count is
      // the exponent of the expected horizontal blowup.
      if (eps >= 2 || (eps >= 1 && !transitions.empty()) ||
          duplicate_letter) {
        ++profile.nondet_branch_points;
      }
    }
  };
  // The horizontal subset construction reads every content model AND the
  // final state language, so all of them contribute to the blowup.
  for (const Nha::Rule& rule : nha.rules()) profile_nfa(rule.content);
  profile_nfa(nha.final_nfa());
  profile.log2_h_worst = std::min<size_t>(profile.content_nfa_states, 63);
  profile.log2_h_estimate =
      std::min(profile.nondet_branch_points, profile.log2_h_worst);
  return profile;
}

TrimReport AnalyzeTrim(const Nha& nha, const LintOptions& options) {
  TrimReport report;
  report.states_before = nha.num_states();
  Bitset derivable = automata::ReachableStates(nha);
  const size_t num_derivable = derivable.Count();
  report.unreachable = report.states_before - num_derivable;

  std::vector<HState> mapping;
  Nha trimmed = automata::PruneNha(nha, &mapping);
  report.states_after = trimmed.num_states();
  report.useless = num_derivable - report.states_after;

  // Measure the determinization work the dead states cost, if it fits the
  // probe budget on both sides (an incomparable pair would mislead).
  if (report.dead_states() > 0) {
    auto before = automata::Determinize(nha, options.probe_budget);
    auto after = automata::Determinize(trimmed, options.probe_budget);
    if (before.ok() && after.ok()) {
      report.probe_h_states_before = before->dha.num_h_states();
      report.probe_h_states_after = after->dha.num_h_states();
    }
  }
  return report;
}

void LintNha(const Nha& nha, const LintOptions& options,
             const std::string& subject, std::vector<Diagnostic>& out) {
  if (automata::IsEmptyNha(nha)) {
    out.push_back(Diagnostic{
        Severity::kError, DiagnosticCode::kEmptyAutomaton, subject,
        "the automaton accepts no hedge at all (" +
            Plural(nha.num_states(), "state") + ", " +
            Plural(nha.rules().size(), "rule") + ")",
        "every run is doomed before any document is read; check the final "
        "state language and that some rule bottoms out at a leaf"});
    return;  // everything below would restate the same defect per state
  }

  TrimReport trim = AnalyzeTrim(nha, options);
  const double ratio = trim.DeadFraction();
  const Severity dead_severity = ratio >= options.useless_warn_ratio
                                     ? Severity::kWarning
                                     : Severity::kNote;
  if (trim.unreachable > 0) {
    out.push_back(Diagnostic{
        dead_severity, DiagnosticCode::kUnreachableStates, subject,
        Plural(trim.unreachable, "state") + " of " +
            std::to_string(trim.states_before) +
            " cannot be derived by any hedge",
        "run Trim()/PruneNha before determinizing"});
  }
  if (trim.useless > 0) {
    std::string message =
        Plural(trim.useless, "state") + " of " +
        std::to_string(trim.states_before) +
        " are derivable but appear in no accepting computation";
    if (trim.probe_h_states_before > 0) {
      message += "; determinization pays " +
                 std::to_string(trim.probe_h_states_before) +
                 " horizontal states for them where the trimmed automaton "
                 "needs " +
                 std::to_string(trim.probe_h_states_after);
    }
    out.push_back(Diagnostic{dead_severity, DiagnosticCode::kUselessStates,
                             subject, std::move(message),
                             "run Trim()/PruneNha before determinizing"});
  }

  NondetProfile profile = ProfileNha(nha);
  if (profile.log2_h_estimate >= options.blowup_warn_log2) {
    out.push_back(Diagnostic{
        Severity::kWarning, DiagnosticCode::kDeterminizationBlowupRisk,
        subject,
        "estimated subset-construction blowup ~2^" +
            std::to_string(profile.log2_h_estimate) + " horizontal states (" +
            Plural(profile.nondet_branch_points,
                   "nondeterministic branch point") +
            " across " + Plural(profile.content_nfa_states, "content state") +
            "); eager determinization is likely to stop with "
            "resource-exhausted",
        "evaluate with the lazy engine (on-the-fly subsets) or raise the "
        "ExecBudget deliberately"});
  }
}

namespace {

// Structural emptiness, deferring to Lemma 1 compilation (under the shared
// probe scope) only where the AST alone cannot decide. Memoized per node:
// true/false when decided, nullopt when the probe budget tripped.
class EmptinessAnalyzer {
 public:
  EmptinessAnalyzer(const LintOptions& options)
      : scope_(options.probe_budget) {}

  std::optional<bool> Empty(const hre::Hre& e) {
    auto it = memo_.find(e.get());
    if (it != memo_.end()) return it->second;
    std::optional<bool> result = Compute(e);
    memo_.emplace(e.get(), result);
    return result;
  }

 private:
  std::optional<bool> Compute(const hre::Hre& e) {
    switch (e->kind()) {
      case hre::HreKind::kEmptySet:
        return true;
      case hre::HreKind::kEpsilon:
      case hre::HreKind::kVariable:
      case hre::HreKind::kSubstLeaf:
      case hre::HreKind::kStar:  // always contains the empty hedge
        return false;
      case hre::HreKind::kTree:
      case hre::HreKind::kVClose:
        // a<e> and e^z are empty exactly when e is (vclose keeps the
        // depth-one members, so it adds hedges but never removes them).
        return Empty(e->left());
      case hre::HreKind::kConcat: {
        std::optional<bool> l = Empty(e->left());
        std::optional<bool> r = Empty(e->right());
        if (l == true || r == true) return true;
        if (l == false && r == false) return false;
        return std::nullopt;
      }
      case hre::HreKind::kUnion: {
        std::optional<bool> l = Empty(e->left());
        std::optional<bool> r = Empty(e->right());
        if (l == false || r == false) return false;
        if (l == true && r == true) return true;
        return std::nullopt;
      }
      case hre::HreKind::kEmbed: {
        // L(e1 @z e2): members of e2 with each z-leaf replaced by a member
        // of e1 ((b|c) @z a<%z> = {a<b>, a<c>}). Empty e2 is empty
        // outright; both sides nonempty is nonempty. An empty e1 still
        // leaves e2's z-free members — a question the AST alone cannot
        // answer, so decide it by compiling (exact, Lemma 1 + bottom-up
        // reachability).
        std::optional<bool> r = Empty(e->right());
        if (r == true) return true;
        std::optional<bool> l = Empty(e->left());
        if (l == false && r == false) return false;
        return ByCompilation(e);
      }
    }
    return std::nullopt;
  }

  std::optional<bool> ByCompilation(const hre::Hre& e) {
    Result<Nha> nha = hre::CompileHre(e, scope_);
    if (!nha.ok()) return std::nullopt;  // probe budget tripped: undecided
    return automata::IsEmptyNha(*nha);
  }

  BudgetScope scope_;
  std::unordered_map<const hre::HreNode*, std::optional<bool>> memo_;
};

// Collects unique nodes of the expression DAG in post-order.
void PostOrder(const hre::Hre& e,
               std::unordered_set<const hre::HreNode*>& seen,
               std::vector<hre::Hre>& out) {
  if (e == nullptr || !seen.insert(e.get()).second) return;
  if (e->left() != nullptr) PostOrder(e->left(), seen, out);
  if (e->right() != nullptr) PostOrder(e->right(), seen, out);
  out.push_back(e);
}

}  // namespace

bool LintHre(const hre::Hre& e, const hedge::Vocabulary& vocab,
             const LintOptions& options, std::vector<Diagnostic>& out) {
  if (e == nullptr) return false;
  std::vector<hre::Hre> nodes;
  {
    std::unordered_set<const hre::HreNode*> seen;
    PostOrder(e, seen, nodes);
  }

  EmptinessAnalyzer emptiness(options);
  const bool whole_empty = emptiness.Empty(e) == true;

  // A minimal empty subterm has no empty child of its own: it is the root
  // cause (the smallest {}-denoting term), every enclosing concatenation or
  // tree constructor merely inherits the poison.
  for (const hre::Hre& node : nodes) {
    if (emptiness.Empty(node) != true) continue;
    bool child_empty = false;
    for (const hre::Hre* child : {&node->left(), &node->right()}) {
      if (*child != nullptr && emptiness.Empty(*child) == true) {
        child_empty = true;
      }
    }
    if (child_empty) continue;
    if (node == e) continue;  // the root's own emptiness is HQL001 below
    out.push_back(Diagnostic{
        Severity::kWarning, DiagnosticCode::kEmptySubexpression,
        SpanOf(node, vocab),
        "subexpression denotes the empty language: it can never match, "
        "poisons every enclosing concatenation and is a dead branch of any "
        "enclosing union",
        "remove the subterm or fix the condition that makes it "
        "unsatisfiable"});
  }

  if (whole_empty) {
    out.push_back(Diagnostic{
        Severity::kError, DiagnosticCode::kEmptyExpression, SpanOf(e, vocab),
        "the expression denotes the empty language: no hedge can ever "
        "match",
        "look at the empty-subexpression findings for the smallest "
        "unsatisfiable subterm"});
    return true;
  }

  // Cost heuristics need the compiled automaton; skip them when the probe
  // budget cannot even afford compilation (the expression is then itself
  // evidence of blowup, but guessing would be noise).
  Result<Nha> nha = hre::CompileHre(e, options.probe_budget);
  if (nha.ok()) {
    NondetProfile profile = ProfileNha(*nha);
    if (profile.log2_h_estimate >= options.blowup_warn_log2) {
      out.push_back(Diagnostic{
          Severity::kWarning, DiagnosticCode::kDeterminizationBlowupRisk,
          SpanOf(e, vocab),
          "estimated subset-construction blowup ~2^" +
              std::to_string(profile.log2_h_estimate) +
              " horizontal states (" +
              Plural(profile.nondet_branch_points,
                     "nondeterministic branch point") +
              " across " +
              Plural(profile.content_nfa_states, "content state") +
              "); eager determinization is likely to stop with "
              "resource-exhausted",
          "evaluate with the lazy engine (on-the-fly subsets) or raise the "
          "ExecBudget deliberately"});
    }
    if (options.check_ambiguity &&
        nha->num_states() <= options.ambiguity_max_states &&
        automata::IsAmbiguous(*nha)) {
      out.push_back(Diagnostic{
          Severity::kNote, DiagnosticCode::kAmbiguousExpression,
          SpanOf(e, vocab),
          "some hedge matches along two distinct computations",
          "Section 9 variable binding needs unambiguous expressions; "
          "rewrite so each hedge has one parse (e.g. disjoint union "
          "branches)"});
    }
  }
  return false;
}

Status ErrorStatus(const std::vector<Diagnostic>& diagnostics, size_t begin) {
  for (size_t i = begin; i < diagnostics.size(); ++i) {
    if (diagnostics[i].severity == Severity::kError) {
      return Status::InvalidArgument("pre-flight lint rejected the input: " +
                                     FormatDiagnostic(diagnostics[i]));
    }
  }
  return Status::Ok();
}

}  // namespace hedgeq::lint
