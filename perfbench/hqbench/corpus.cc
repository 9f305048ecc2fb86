#include "hqbench/corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "baseline/xpath.h"

namespace hedgeq::perfbench {
namespace {

// Any hedge over the article vocabulary, in the HRE syntax.
const std::string kAny =
    "(article<%z>|title<%z>|section<%z>|para<%z>|figure<%z>|table<%z>|"
    "caption<%z>|image<%z>|$#text)*^z";

}  // namespace

std::string FigureCaptionText() {
  return "select(*; [*; figure; caption<" + kAny + "> " + kAny +
         "] (section|article)*)";
}

std::string SubhedgeQueryText() {
  return "select(" + kAny + " figure<" + kAny + "> " + kAny +
         "; section (section|article)*)";
}

std::vector<QueryCase> ServePool() {
  const std::string up = " (section|article)*)";
  std::vector<QueryCase> pool = {
      {kPathQuery, kPathXPath},
      {"select(*; para" + up, "//para"},
      {FigureCaptionText(), kFigCapXPath},
      {"select(*; title section article)", "/article/section/title"},
      {"select(*; section article)", "/article/section"},
      {"select(*; table" + up, "//table"},
      {"select(*; caption" + up, "//caption"},
      {SubhedgeQueryText(), kSubhedgeXPath},
      {"select(*; image figure" + up, "//figure/image"},
      {"select(*; title" + up, "//title"},
      {"select(*; section" + up, "//section"},
      {"select(*; [" + kAny + " para<" + kAny + ">; figure; *]" + up,
       "//figure[preceding-sibling::*[1][self::para]]"},
      {"select(*; [*; para; figure<" + kAny + "> " + kAny + "]" + up,
       "//para[following-sibling::*[1][self::figure]]"},
      {"select(*; [*; para; " + kAny + " table<" + kAny + "> " + kAny + "]" +
           up,
       "//para[following-sibling::table]"},
      {"select(" + kAny + " table<" + kAny + "> " + kAny + "; section" + up,
       "//section[table]"},
      {"select(" + kAny + " section<" + kAny + "> " + kAny + "; section" +
           up,
       "//section[section]"},
      {"select(*; title article)", "/article/title"},
      {"select(*; image figure section article)",
       "/article/section/figure/image"},
  };
  // The long tail: nested-section and fixed-depth paths.
  const char* elements[] = {"title", "section", "para",
                            "figure", "table",  "caption"};
  for (const char* e : elements) {
    pool.push_back({std::string("select(*; ") + e + " section+ article)",
                    std::string("/article/section//") + e});
  }
  for (int depth = 1; depth <= 4; ++depth) {
    for (const char* e : elements) {
      std::string envelope = e;
      std::string xpath = "/article";
      for (int d = 0; d < depth; ++d) {
        envelope += " section";
        xpath += "/section";
      }
      pool.push_back({"select(*; " + envelope + " article)",
                      xpath + "/" + e});
    }
  }
  std::set<std::string> seen;
  std::vector<QueryCase> unique;
  for (QueryCase& c : pool) {
    if (unique.size() < 48 && seen.insert(c.select).second) {
      unique.push_back(std::move(c));
    }
  }
  return unique;
}

query::SelectionQuery MustParse(const std::string& text,
                                hedge::Vocabulary& vocab) {
  return Must(query::ParseSelectionQuery(text, vocab), text.c_str());
}

void SetupFailed(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench setup failed: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

std::vector<hedge::NodeId> XPathNodes(const hedge::Hedge& doc,
                                      const std::string& xpath,
                                      hedge::Vocabulary& vocab) {
  baseline::PathExpr path =
      Must(baseline::ParseXPath(xpath, vocab), xpath.c_str());
  return baseline::EvaluateXPath(doc, path);
}

bool SameNodes(const std::vector<bool>& located,
               const std::vector<hedge::NodeId>& expected) {
  size_t count = 0;
  for (bool b : located) count += b ? 1 : 0;
  if (count != expected.size()) return false;
  for (hedge::NodeId n : expected) {
    if (n >= located.size() || !located[n]) return false;
  }
  return true;
}

std::vector<std::string> DeweyTable(const hedge::Hedge& doc) {
  std::vector<std::string> table(doc.num_nodes());
  auto child_path = [](const std::string& parent, uint32_t index) {
    std::string path = parent;
    path += '/';
    path += std::to_string(index);
    return path;
  };
  std::vector<std::pair<hedge::NodeId, std::string>> todo;
  uint32_t index = 0;
  for (hedge::NodeId r : doc.roots()) {
    todo.emplace_back(r, child_path("", index++));
  }
  while (!todo.empty()) {
    auto [n, path] = std::move(todo.back());
    todo.pop_back();
    uint32_t child_index = 0;
    for (hedge::NodeId c = doc.first_child(n); c != hedge::kNullNode;
         c = doc.next_sibling(c)) {
      todo.emplace_back(c, child_path(path, child_index++));
    }
    table[n] = std::move(path);
  }
  return table;
}

hedge::Hedge SubtreeOf(const hedge::Hedge& doc, hedge::NodeId n) {
  hedge::Hedge out;
  out.AppendCopy(hedge::kNullNode, doc, n);
  return out;
}

}  // namespace hedgeq::perfbench
