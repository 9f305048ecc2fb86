#ifndef HEDGEQ_PERFBENCH_CORPUS_H_
#define HEDGEQ_PERFBENCH_CORPUS_H_

// Seeded inputs shared by the workloads: article documents, the article
// grammar, the benchmark's queries, and the XPath-subset twins that serve as
// independent answer references.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "hedge/hedge.h"
#include "query/selection.h"
#include "util/status.h"

namespace hedgeq::perfbench {

// The document, grammar and figure-caption builders of the repository's
// micro-benchmarks, so both measure the same inputs.
using bench::ArticleGrammar;
using bench::FigureCaptionQuery;
using bench::MakeArticle;

/// Figures anywhere under sections/article.
inline constexpr const char* kPathQuery =
    "select(*; figure (section|article)*)";
inline constexpr const char* kPathXPath = "//figure";

/// FigureCaptionQuery, figures immediately followed by a caption (the
/// Theorem 4/5 heavy case), in the textual syntax (parse-cost probe, serve
/// pool).
std::string FigureCaptionText();
inline constexpr const char* kFigCapXPath =
    "//figure[following-sibling::*[1][self::caption]]";

/// Sections with a figure child: a subhedge condition (e1 is not '*').
std::string SubhedgeQueryText();
inline constexpr const char* kSubhedgeXPath = "//section[figure]";

/// A selection query with its XPath-subset twin.
struct QueryCase {
  std::string select;
  std::string xpath;
};

/// The serve workload's query pool, most popular first: path queries over
/// the article vocabulary plus a few sibling- and subhedge-condition
/// queries.
std::vector<QueryCase> ServePool();

/// Parses a query the benchmark itself wrote; exits on a parse error
/// (a benchmark bug, not a measurement).
query::SelectionQuery MustParse(const std::string& text,
                                hedge::Vocabulary& vocab);

/// Unwraps a setup step that cannot fail on the benchmark's own inputs;
/// exits naming `what` when it does.
[[noreturn]] void SetupFailed(const char* what, const Status& status);
template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) SetupFailed(what, result.status());
  return std::move(result).value();
}

/// The reference answer: the node set of `xpath` on `doc`, document order.
std::vector<hedge::NodeId> XPathNodes(const hedge::Hedge& doc,
                                      const std::string& xpath,
                                      hedge::Vocabulary& vocab);

/// True when `located` marks exactly the nodes in `expected`.
bool SameNodes(const std::vector<bool>& located,
               const std::vector<hedge::NodeId>& expected);

/// The "/i/j/k" child-index path of every node, by NodeId, computed in one
/// top-down pass (independent of Hedge::DeweyOf, which the serve layer
/// renders answers with).
std::vector<std::string> DeweyTable(const hedge::Hedge& doc);

/// The subtree rooted at `n` as a one-tree hedge.
hedge::Hedge SubtreeOf(const hedge::Hedge& doc, hedge::NodeId n);

}  // namespace hedgeq::perfbench

#endif  // HEDGEQ_PERFBENCH_CORPUS_H_
