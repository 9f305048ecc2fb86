// hq — command-line front end for the hedgeq library.
//
//   hq query  '<selection query>' file.xml       locate nodes in a document
//   hq xpath  '<location path>' file.xml         run the XPath-subset engine
//   hq validate schema.grammar file.xml          schema validity
//   hq transform select|delete  schema.grammar '<query>'
//   hq transform rename schema.grammar '<query>' <new-name>
//                                                print the inferred output
//                                                schema (pruned) + witness
//   hq gen article <nodes> [seed]                emit a synthetic document
//   hq ambiguous '<hedge regular expression>'    Section 9 unambiguity check
//
// Queries use the textual syntax documented in the README; documents may be
// XML files or '-' for stdin.
//
// Every command also accepts --metrics[=FILE], --trace=FILE and --timings
// (see tools/obs_cli.h and docs/OBSERVABILITY.md), plus:
//
//   --cache-dir=DIR    persistent certificate-checked automaton cache: a
//                      warm run skips determinization entirely, and every
//                      cached entry is re-validated by the independent
//                      checker before use (see docs/ROBUSTNESS.md)
//   --deadline-ms=N    wall-clock deadline for the exponential
//                      preprocessing stages; past it, commands with a lazy
//                      equivalent degrade to it and the rest exit 4 with
//                      deadline-exceeded
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "baseline/xpath.h"
#include "cache/cache.h"
#include "hre/compile.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/scope.h"
#include "query/selection.h"
#include "schema/algebra.h"
#include "schema/transform.h"
#include "serve/serve.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generators.h"
#include "xml/xml.h"

#include "obs_cli.h"

namespace {

using namespace hedgeq;

int Fail(const std::string& message) {
  std::fprintf(stderr, "hq: %s\n", message.c_str());
  return 1;
}

// Deadline misses get their own exit code so scripts can tell "too slow"
// from "wrong" without parsing stderr.
int FailStatus(const Status& status) {
  std::fprintf(stderr, "hq: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kDeadlineExceeded ? 4 : 1;
}

// --cache-dir / --deadline-ms state, set once in main before dispatch.
std::unique_ptr<cache::AutomatonCache> g_cache;
bool g_deadline_set = false;
uint64_t g_deadline_ms = 0;

// Commands call this right after creating their vocabulary: the cache
// deserializes automata by name, so it must intern into the same
// vocabulary the command queries with.
void BindCache(hedge::Vocabulary& vocab) {
  if (g_cache != nullptr) g_cache->BindVocabulary(&vocab);
}

// --deadline-ms=0 is a deadline that has already passed (every budgeted
// stage fails its first charge) — deterministic, so scripts and tests can
// exercise the deadline path without racing the clock.
ExecBudget FlagBudget() {
  ExecBudget budget;
  if (g_deadline_set) budget.SetDeadlineAfterMs(g_deadline_ms);
  return budget;
}

Result<std::string> ReadFile(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Result<xml::XmlDocument> LoadXml(const std::string& path,
                                 hedge::Vocabulary& vocab) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return xml::ParseXml(*text, vocab);
}

int CmdQuery(const std::string& query_text, const std::string& file) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto doc = LoadXml(file, vocab);
  if (!doc.ok()) return Fail(doc.status().ToString());
  auto query = query::ParseSelectionQuery(query_text, vocab);
  if (!query.ok()) return Fail(query.status().ToString());
  auto eval = query::SelectionEvaluator::Create(*query, FlagBudget());
  if (!eval.ok()) return FailStatus(eval.status());
  for (hedge::NodeId n : eval->LocatedNodes(doc->hedge)) {
    std::printf("%s\t%s\n", doc->hedge.DeweyString(n).c_str(),
                vocab.symbols.NameOf(doc->hedge.label(n).id).c_str());
  }
  return 0;
}

int CmdXPath(const std::string& path_text, const std::string& file) {
  hedge::Vocabulary vocab;
  auto doc = LoadXml(file, vocab);
  if (!doc.ok()) return Fail(doc.status().ToString());
  auto path = baseline::ParseXPath(path_text, vocab);
  if (!path.ok()) return Fail(path.status().ToString());
  for (hedge::NodeId n : baseline::EvaluateXPath(doc->hedge, *path)) {
    const hedge::Label label = doc->hedge.label(n);
    std::printf("%s\t%s\n", doc->hedge.DeweyString(n).c_str(),
                label.kind == hedge::LabelKind::kSymbol
                    ? vocab.symbols.NameOf(label.id).c_str()
                    : "#text");
  }
  return 0;
}

int CmdValidate(const std::string& schema_file, const std::string& file) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto grammar = ReadFile(schema_file);
  if (!grammar.ok()) return Fail(grammar.status().ToString());
  auto schema = schema::ParseSchema(*grammar, vocab);
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto doc = LoadXml(file, vocab);
  if (!doc.ok()) return Fail(doc.status().ToString());
  bool ok = schema->Validates(doc->hedge);
  std::printf("%s\n", ok ? "valid" : "INVALID");
  return ok ? 0 : 2;
}

int CmdTransform(const std::string& op, const std::string& schema_file,
                 const std::string& query_text, const char* new_name) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto grammar = ReadFile(schema_file);
  if (!grammar.ok()) return Fail(grammar.status().ToString());
  auto input = schema::ParseSchema(*grammar, vocab);
  if (!input.ok()) return Fail(input.status().ToString());
  auto query = query::ParseSelectionQuery(query_text, vocab);
  if (!query.ok()) return Fail(query.status().ToString());

  Result<schema::Schema> output = Status::Internal("unset");
  if (op == "select") {
    output = schema::SelectOutputSchema(*input, *query);
  } else if (op == "delete") {
    output = schema::DeleteOutputSchema(*input, *query);
  } else if (op == "rename") {
    if (new_name == nullptr) {
      return Fail("rename needs a new element name");
    }
    output = schema::RenameOutputSchema(*input, *query,
                                        vocab.symbols.Intern(new_name));
  } else {
    return Fail("unknown transform '" + op + "' (select|delete|rename)");
  }
  if (!output.ok()) return Fail(output.status().ToString());

  schema::Schema pruned(automata::PruneNha(output->nha()));
  std::printf("# inferred output schema (%zu states, %zu rules)\n",
              pruned.nha().num_states(), pruned.nha().rules().size());
  if (pruned.IsEmpty()) {
    std::printf("# EMPTY: the query can never match a valid document\n");
    return 0;
  }
  std::printf("%s", schema::FormatSchema(pruned, vocab).c_str());
  if (auto witness = automata::WitnessHedge(pruned.nha());
      witness.has_value()) {
    xml::XmlDocument wrapped = xml::WrapHedge(*witness, vocab);
    std::printf("# sample member: %s\n",
                xml::SerializeXml(wrapped, vocab).c_str());
  }
  return 0;
}

int CmdExample(const std::string& schema_file, const std::string& query_text) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto grammar = ReadFile(schema_file);
  if (!grammar.ok()) return Fail(grammar.status().ToString());
  auto input = schema::ParseSchema(*grammar, vocab);
  if (!input.ok()) return Fail(input.status().ToString());
  auto query = query::ParseSelectionQuery(query_text, vocab);
  if (!query.ok()) return Fail(query.status().ToString());
  auto sample = schema::SampleMatchingDocument(*input, *query);
  if (!sample.ok()) return Fail(sample.status().ToString());
  if (!sample->has_value()) {
    std::printf("no valid document matches this query\n");
    return 2;
  }
  xml::XmlDocument wrapped = xml::WrapHedge((*sample)->document, vocab);
  std::printf("%s\n", xml::SerializeXml(wrapped, vocab).c_str());
  std::printf("located: %s at %s\n",
              vocab.symbols
                  .NameOf((*sample)->document.label((*sample)->located).id)
                  .c_str(),
              (*sample)->document.DeweyString((*sample)->located).c_str());
  return 0;
}

int CmdContains(const std::string& schema_file, const std::string& q1_text,
                const std::string& q2_text) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto grammar = ReadFile(schema_file);
  if (!grammar.ok()) return Fail(grammar.status().ToString());
  auto input = schema::ParseSchema(*grammar, vocab);
  if (!input.ok()) return Fail(input.status().ToString());
  auto q1 = query::ParseSelectionQuery(q1_text, vocab);
  if (!q1.ok()) return Fail(q1.status().ToString());
  auto q2 = query::ParseSelectionQuery(q2_text, vocab);
  if (!q2.ok()) return Fail(q2.status().ToString());

  auto result = schema::QueryContainment(*input, *q1, *q2);
  if (!result.ok()) return Fail(result.status().ToString());
  if (result->contained) {
    std::printf("contained: every node located by Q1 is located by Q2\n");
    return 0;
  }
  std::printf("NOT contained\n");
  if (result->counterexample.has_value()) {
    xml::XmlDocument wrapped =
        xml::WrapHedge(result->counterexample->document, vocab);
    std::printf("counterexample: %s\n",
                xml::SerializeXml(wrapped, vocab).c_str());
    std::printf("Q1 locates %s at %s; Q2 does not\n",
                vocab.symbols
                    .NameOf(result->counterexample->document
                                .label(result->counterexample->located)
                                .id)
                    .c_str(),
                result->counterexample->document
                    .DeweyString(result->counterexample->located)
                    .c_str());
  }
  return 2;
}

int CmdGen(const std::string& kind, size_t nodes, uint64_t seed) {
  hedge::Vocabulary vocab;
  Rng rng(seed);
  hedge::Hedge doc;
  if (kind == "article") {
    workload::ArticleOptions options;
    options.target_nodes = nodes;
    doc = workload::RandomArticle(rng, vocab, options);
  } else if (kind == "random") {
    workload::RandomHedgeOptions options;
    options.target_nodes = nodes;
    doc = workload::RandomHedge(rng, vocab, options);
  } else {
    return Fail("unknown generator '" + kind + "' (article|random)");
  }
  xml::XmlDocument wrapped = xml::WrapHedge(doc, vocab);
  std::printf("%s\n", xml::SerializeXml(wrapped, vocab).c_str());
  return 0;
}

int CmdSchemaDiff(const std::string& file_a, const std::string& file_b) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto ga = ReadFile(file_a);
  if (!ga.ok()) return Fail(ga.status().ToString());
  auto gb = ReadFile(file_b);
  if (!gb.ok()) return Fail(gb.status().ToString());
  auto a = schema::ParseSchema(*ga, vocab);
  if (!a.ok()) return Fail(file_a + ": " + a.status().ToString());
  auto b = schema::ParseSchema(*gb, vocab);
  if (!b.ok()) return Fail(file_b + ": " + b.status().ToString());

  auto ab = schema::SchemaIncludes(*a, *b);
  auto ba = schema::SchemaIncludes(*b, *a);
  if (!ab.ok()) return Fail(ab.status().ToString());
  if (!ba.ok()) return Fail(ba.status().ToString());
  if (*ab && *ba) {
    std::printf("equivalent\n");
    return 0;
  }
  std::printf("%s\n", *ab   ? "A is strictly included in B"
                      : *ba ? "B is strictly included in A"
                            : "incomparable");
  auto show_witness = [&](const schema::Schema& x, const schema::Schema& y,
                          const char* which) {
    auto diff = schema::DifferenceSchemas(x, y);
    if (!diff.ok()) return;
    if (auto witness = automata::WitnessHedge(diff->nha());
        witness.has_value()) {
      xml::XmlDocument wrapped = xml::WrapHedge(*witness, vocab);
      std::printf("only in %s: %s\n", which,
                  xml::SerializeXml(wrapped, vocab).c_str());
    }
  };
  if (!*ab) show_witness(*a, *b, "A");
  if (!*ba) show_witness(*b, *a, "B");
  return 3;
}

int CmdCanon(const std::string& schema_file) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto grammar = ReadFile(schema_file);
  if (!grammar.ok()) return Fail(grammar.status().ToString());
  auto input = schema::ParseSchema(*grammar, vocab);
  if (!input.ok()) return Fail(input.status().ToString());
  // Canonicalization has no lazy equivalent, so a missed deadline
  // surfaces here as exit 4 rather than a degraded answer.
  auto det = automata::Determinize(input->nha(), FlagBudget());
  if (!det.ok()) return FailStatus(det.status());
  automata::Dha min = automata::MinimizeDha(det->dha);
  schema::Schema canon(
      automata::PruneNha(automata::DhaToNha(min, input->Variables())));
  std::printf("# canonical (determinized, minimized, pruned) form\n%s",
              schema::FormatSchema(canon, vocab).c_str());
  return 0;
}

// Round-trips an obs-produced JSON artifact (metrics snapshot, flight
// recorder dump, BENCH_*.json) through the obs JSON parser — the check.sh
// gates use it to assert dumps are machine-readable without needing an
// external JSON tool.
int CmdObsParse(const std::string& file) {
  auto text = ReadFile(file);
  if (!text.ok()) return Fail(text.status().ToString());
  auto parsed = obs::json::Parse(*text);
  if (!parsed.ok()) return Fail(file + ": " + parsed.status().ToString());
  std::printf("ok\n");
  return 0;
}

// ---------------------------------------------------------------------------
// hq repl — a long-running session against warm state: one vocabulary, one
// loaded document, and a per-query-text evaluator memo, so repeating a
// query skips every compile stage (the per-command stats line then shows
// no automata.determinize at all). Combined with --cache-dir even the
// first compile of a previously-seen query loads certified automata
// instead of determinizing.

// EINTR-aware line read: --flight-recorder installs a SIGUSR1 handler
// without SA_RESTART, so a signal during a blocked read lands here and the
// dump happens immediately instead of after the next keystroke.
bool ReplReadLine(std::string& line, tools::ObsCli& obs_cli) {
  line.clear();
  char buf[4096];
  for (;;) {
    errno = 0;
    if (std::fgets(buf, sizeof(buf), stdin) == nullptr) {
      if (errno == EINTR && !std::feof(stdin)) {
        std::clearerr(stdin);
        if (tools::ObsCli::TakeSignalDumpRequest()) obs_cli.DumpFlightRecorder();
        // SIGTERM/SIGINT: behave like 'quit' — the caller drains and
        // returns through main, so metrics + flight recorder flush.
        if (tools::ObsCli::TerminationRequested()) return false;
        continue;
      }
      return !line.empty();  // EOF: deliver a final unterminated line
    }
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      return true;
    }
  }
}

// The per-command stats line: wall time, the stages that actually ran this
// command (biggest first — a warm evaluator memo hit shows no compile
// stages), cache verdicts and the certify fraction when they moved.
void ReplPrintStats(const obs::ScopeSnapshot& snap) {
  std::string line = "#";
  char num[64];
  std::snprintf(num, sizeof(num), " %.3f ms", snap.wall_ns / 1e6);
  line += num;
  std::vector<obs::SpanAggregate> stages = snap.spans;
  std::sort(stages.begin(), stages.end(),
            [](const obs::SpanAggregate& a, const obs::SpanAggregate& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              return a.name < b.name;
            });
  if (!stages.empty()) {
    line += " | stages:";
    size_t shown = 0;
    for (const obs::SpanAggregate& s : stages) {
      if (++shown > 8) break;
      std::snprintf(num, sizeof(num), "=%.3fms", s.total_ns / 1e6);
      line += " " + s.name + num;
    }
  }
  const uint64_t hits = snap.CounterValue(obs::metrics::kCacheHit);
  const uint64_t misses = snap.CounterValue(obs::metrics::kCacheMiss);
  if (hits != 0 || misses != 0) {
    std::snprintf(num, sizeof(num), " | cache hit=%llu miss=%llu",
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses));
    line += num;
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == obs::metrics::kDetCertifyFracPct) {
      std::snprintf(num, sizeof(num), " | certify=%llu%%",
                    static_cast<unsigned long long>(value));
      line += num;
    }
  }
  std::printf("%s\n", line.c_str());
}

void ReplHelp() {
  std::printf(
      "repl commands:\n"
      "  load FILE              parse an XML document ('-' = stdin is taken\n"
      "                         by the repl; use a file path)\n"
      "  gen article|random N [seed]   generate a synthetic document\n"
      "  query QUERY            evaluate a selection query against the\n"
      "                         loaded document (evaluators are memoized by\n"
      "                         query text: repeats skip all compilation)\n"
      "  validate SCHEMA_FILE   validate the loaded document\n"
      "  timings                per-stage wall-time table (whole session)\n"
      "  metrics                metrics snapshot JSON\n"
      "  prom                   metrics in Prometheus text format\n"
      "  flight                 dump the flight recorder (to the\n"
      "                         --flight-recorder file, else stdout)\n"
      "  help                   this text\n"
      "  quit | exit            leave (EOF works too)\n"
      "each command ends with a '# <ms> | stages: ...' stats line\n");
}

int CmdRepl(tools::ObsCli& obs_cli) {
  // The repl is an observability surface: metrics and scopes are always on
  // so the stats lines have something to report, whatever flags were given.
  obs::RegisterCatalogue();
  obs::SetEnabled(true);
  // SIGTERM/SIGINT read as 'quit': the loop breaks, the engine drains, and
  // metrics + flight recorder flush on the way out of main.
  tools::ObsCli::InstallTerminationHandlers();
  hedge::Vocabulary vocab;
  BindCache(vocab);
  // load/query route through the serving engine: the document and the
  // evaluator memo live there, and --deadline-ms is re-armed per served
  // request at admission (not one process-wide expiry), so a long session
  // never has later commands spuriously expire.
  serve::EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.deadline_set = g_deadline_set;
  engine_options.deadline_ms = g_deadline_ms;
  serve::Engine engine(vocab, engine_options);
  engine.Start();
  const bool tty = isatty(fileno(stdin)) != 0;
  if (tty) {
    std::printf("hq repl — 'help' lists commands, 'quit' leaves\n");
  }
  std::string line;
  for (;;) {
    if (tty) {
      std::printf("hq> ");
      std::fflush(stdout);
    }
    if (tools::ObsCli::TakeSignalDumpRequest()) obs_cli.DumpFlightRecorder();
    if (!ReplReadLine(line, obs_cli)) break;
    // Strip comments and surrounding whitespace.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    line = line.substr(begin, line.find_last_not_of(" \t") - begin + 1);
    const size_t space = line.find(' ');
    const std::string cmd = line.substr(0, space);
    std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);
    const size_t rb = rest.find_first_not_of(" \t");
    rest = rb == std::string::npos ? "" : rest.substr(rb);

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      ReplHelp();
      continue;
    }
    if (cmd == "timings") {
      tools::ObsCli::PrintTimings("-");
      continue;
    }
    if (cmd == "metrics") {
      std::printf("%s\n", obs::Registry().MetricsJson().c_str());
      continue;
    }
    if (cmd == "prom") {
      std::printf("%s", obs::PrometheusText().c_str());
      continue;
    }
    if (cmd == "flight") {
      if (obs_cli.flight_enabled()) {
        if (obs_cli.DumpFlightRecorder()) {
          std::printf("flight recorder written to %s\n",
                      obs_cli.flight_file().c_str());
        }
      } else {
        std::printf("%s", obs::FlightRecorderJson().c_str());
      }
      continue;
    }

    if (cmd == "query" && !rest.empty()) {
      // Served request: it runs on the engine's worker pool under its own
      // QueryScope, so the stats line (and flight record) comes from the
      // worker's snapshot and covers exactly this request's work.
      serve::Response resp = engine.Submit(rest, "repl:" + line).get();
      if (resp.outcome == serve::Outcome::kShed ||
          resp.outcome == serve::Outcome::kError) {
        std::printf("error: %s\n", resp.status.ToString().c_str());
      } else {
        for (const std::string& row : resp.answer) {
          std::printf("%s\n", row.c_str());
        }
        std::printf("(%zu located)\n", resp.located);
      }
      ReplPrintStats(resp.scope);
      continue;
    }

    // Document/control commands run on the repl thread under a per-command
    // QueryScope, so their stats lines cover exactly this command's work.
    obs::QueryScope scope("repl:" + line);
    bool failed = false;
    if (cmd == "load" && !rest.empty()) {
      auto loaded = engine.LoadDocumentFile(rest);
      if (!loaded.ok()) {
        std::printf("error: %s\n", loaded.status().ToString().c_str());
        failed = true;
      } else {
        std::printf("loaded %s (%zu nodes)\n", rest.c_str(), *loaded);
      }
    } else if (cmd == "gen") {
      std::istringstream ss(rest);
      std::string kind;
      size_t nodes = 0;
      uint64_t seed = 42;
      ss >> kind >> nodes;
      ss >> seed;
      Rng rng(seed);
      hedge::Hedge h;
      {
        std::lock_guard<std::mutex> vlock(engine.vocab_mutex());
        if (kind == "article") {
          workload::ArticleOptions options;
          options.target_nodes = nodes;
          h = workload::RandomArticle(rng, vocab, options);
        } else if (kind == "random") {
          workload::RandomHedgeOptions options;
          options.target_nodes = nodes;
          h = workload::RandomHedge(rng, vocab, options);
        } else {
          std::printf("error: gen article|random N [seed]\n");
          failed = true;
        }
      }
      if (!failed) {
        xml::XmlDocument wrapped;
        {
          std::lock_guard<std::mutex> vlock(engine.vocab_mutex());
          wrapped = xml::WrapHedge(h, vocab);
        }
        // Outside the vocabulary lock: SetDocument waits for the pool to
        // go idle, and in-flight workers may need that lock to finish.
        const size_t doc_nodes = engine.SetDocument(std::move(wrapped));
        std::printf("generated %s document (%zu nodes)\n", kind.c_str(),
                    doc_nodes);
      }
    } else if (cmd == "validate" && !rest.empty()) {
      auto doc = engine.document();
      if (doc == nullptr) {
        std::printf("error: no document loaded (use load/gen first)\n");
        failed = true;
      } else {
        auto grammar = ReadFile(rest);
        if (!grammar.ok()) {
          std::printf("error: %s\n", grammar.status().ToString().c_str());
          failed = true;
        } else {
          std::lock_guard<std::mutex> vlock(engine.vocab_mutex());
          auto schema = schema::ParseSchema(*grammar, vocab);
          if (!schema.ok()) {
            std::printf("error: %s\n", schema.status().ToString().c_str());
            failed = true;
          } else {
            std::printf("%s\n",
                        schema->Validates(doc->hedge) ? "valid" : "INVALID");
          }
        }
      }
    } else {
      std::printf("error: unknown command '%s' (try 'help')\n", cmd.c_str());
      failed = true;
    }
    if (failed) scope.Annotate("outcome", "error");
    ReplPrintStats(scope.Snapshot());
  }
  engine.Stop();
  return 0;
}

// ---------------------------------------------------------------------------
// hq serve — the batch/fifo front end of serve::Engine. Reads one request
// per line from --requests=FILE (or stdin with '-'):
//
//   load PATH                     install an XML document (barrier)
//   gen article|random N [seed]   install a synthetic document (barrier)
//   query TEXT                    evaluate a selection query
//
// and emits exactly one result line per request on stdout, in request
// order: "<idx> <outcome> ..." with outcome in {ok, shed, degraded,
// retried, error}. SIGTERM/SIGINT drain gracefully: admission stops,
// queued + in-flight requests finish, every pending result line is still
// printed, metrics and the flight recorder flush, and the exit code is 0.

// EINTR-aware request read; returns false on EOF or a termination signal
// (the caller drains either way).
bool ServeReadLine(std::FILE* in, std::string& line, tools::ObsCli& obs_cli) {
  line.clear();
  char buf[4096];
  for (;;) {
    if (tools::ObsCli::TerminationRequested()) return false;
    errno = 0;
    if (std::fgets(buf, sizeof(buf), in) == nullptr) {
      if (errno == EINTR && !std::feof(in)) {
        std::clearerr(in);
        if (tools::ObsCli::TakeSignalDumpRequest()) obs_cli.DumpFlightRecorder();
        continue;
      }
      return !line.empty();
    }
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      return true;
    }
  }
}

int CmdServe(const std::vector<std::string>& args, tools::ObsCli& obs_cli) {
  serve::EngineOptions options;
  options.deadline_set = g_deadline_set;
  options.deadline_ms = g_deadline_ms;
  std::string requests_path = "-";
  bool chaos_report = false;
  std::vector<std::string> failpoint_specs;
  for (const std::string& a : args) {
    if (a.rfind("--workers=", 0) == 0) {
      options.workers = static_cast<size_t>(
          std::atol(a.c_str() + sizeof("--workers=") - 1));
    } else if (a.rfind("--queue-cap=", 0) == 0) {
      options.queue_cap = static_cast<size_t>(
          std::atol(a.c_str() + sizeof("--queue-cap=") - 1));
    } else if (a.rfind("--requests=", 0) == 0) {
      requests_path = a.substr(sizeof("--requests=") - 1);
    } else if (a.rfind("--retry-max=", 0) == 0) {
      options.retry.max_attempts =
          std::atoi(a.c_str() + sizeof("--retry-max=") - 1);
    } else if (a.rfind("--retry-backoff-ms=", 0) == 0) {
      options.retry.backoff_base_ms = static_cast<uint64_t>(
          std::atoll(a.c_str() + sizeof("--retry-backoff-ms=") - 1));
    } else if (a.rfind("--retry-backoff-max-ms=", 0) == 0) {
      options.retry.backoff_max_ms = static_cast<uint64_t>(
          std::atoll(a.c_str() + sizeof("--retry-backoff-max-ms=") - 1));
    } else if (a.rfind("--breaker-threshold=", 0) == 0) {
      options.breaker.failure_threshold =
          std::atoi(a.c_str() + sizeof("--breaker-threshold=") - 1);
    } else if (a.rfind("--breaker-open-ms=", 0) == 0) {
      options.breaker.open_ms = static_cast<uint64_t>(
          std::atoll(a.c_str() + sizeof("--breaker-open-ms=") - 1));
    } else if (a == "--no-memoize") {
      options.memoize = false;
    } else if (a.rfind("--failpoint=", 0) == 0) {
      failpoint_specs.push_back(a.substr(sizeof("--failpoint=") - 1));
    } else if (a == "--chaos-report") {
      chaos_report = true;
    } else {
      return Fail("serve: unknown option '" + a + "'");
    }
  }
  for (const std::string& spec : failpoint_specs) {
    Status armed = failpoint::ArmSpec(spec);
    if (!armed.ok()) return Fail(armed.ToString());
  }

  std::FILE* in = stdin;
  if (requests_path != "-") {
    in = std::fopen(requests_path.c_str(), "r");
    if (in == nullptr) return Fail("cannot open " + requests_path);
  }

  tools::ObsCli::InstallTerminationHandlers();
  hedge::Vocabulary vocab;
  BindCache(vocab);
  serve::Engine engine(vocab, options);
  engine.Start();

  struct Pending {
    size_t idx;
    std::future<serve::Response> future;
  };
  std::vector<Pending> pending;
  std::vector<std::string> results;  // indexed by request idx

  auto result_slot = [&results](size_t idx) -> std::string& {
    if (idx >= results.size()) results.resize(idx + 1);
    return results[idx];
  };
  auto resolve_pending = [&]() {
    for (Pending& p : pending) {
      serve::Response resp = p.future.get();
      std::string line =
          StrCat(p.idx, " ", serve::OutcomeName(resp.outcome),
                 " located=", resp.located, " attempts=", resp.attempts,
                 " wait_us=", resp.queue_wait_us);
      if (!resp.status.ok()) line += StrCat(" ", resp.status.ToString());
      result_slot(p.idx) = std::move(line);
    }
    pending.clear();
  };

  size_t idx = 0;
  std::string line;
  while (ServeReadLine(in, line, obs_cli)) {
    // Strip comments and whitespace; blank lines are not requests.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos) continue;
    line = line.substr(begin, line.find_last_not_of(" \t") - begin + 1);
    const size_t space = line.find(' ');
    const std::string cmd = line.substr(0, space);
    std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);
    const size_t rb = rest.find_first_not_of(" \t");
    rest = rb == std::string::npos ? "" : rest.substr(rb);
    const size_t my_idx = idx++;

    if (cmd == "query" && !rest.empty()) {
      pending.push_back(
          {my_idx, engine.Submit(rest, "serve:" + line)});
      continue;
    }
    // Document installs are barriers: outstanding queries resolve against
    // the old document first.
    resolve_pending();
    if (cmd == "load" && !rest.empty()) {
      auto loaded = engine.LoadDocumentFile(rest);
      result_slot(my_idx) =
          loaded.ok() ? StrCat(my_idx, " ok nodes=", *loaded)
                      : StrCat(my_idx, " error ",
                               loaded.status().ToString());
    } else if (cmd == "gen") {
      std::istringstream ss(rest);
      std::string kind;
      size_t nodes = 0;
      uint64_t seed = 42;
      ss >> kind >> nodes;
      ss >> seed;
      Rng rng(seed);
      hedge::Hedge h;
      bool gen_ok = true;
      {
        std::lock_guard<std::mutex> vlock(engine.vocab_mutex());
        if (kind == "article") {
          workload::ArticleOptions gen_options;
          gen_options.target_nodes = nodes;
          h = workload::RandomArticle(rng, vocab, gen_options);
        } else if (kind == "random") {
          workload::RandomHedgeOptions gen_options;
          gen_options.target_nodes = nodes;
          h = workload::RandomHedge(rng, vocab, gen_options);
        } else {
          gen_ok = false;
        }
      }
      if (gen_ok) {
        xml::XmlDocument wrapped;
        {
          std::lock_guard<std::mutex> vlock(engine.vocab_mutex());
          wrapped = xml::WrapHedge(h, vocab);
        }
        const size_t doc_nodes = engine.SetDocument(std::move(wrapped));
        result_slot(my_idx) = StrCat(my_idx, " ok nodes=", doc_nodes);
      } else {
        result_slot(my_idx) =
            StrCat(my_idx, " error gen article|random N [seed]");
      }
    } else {
      result_slot(my_idx) =
          StrCat(my_idx, " error unknown request '", cmd, "'");
    }
  }
  if (in != stdin) std::fclose(in);

  // Drain: stop admitting, let queued + in-flight requests finish, then
  // resolve every outstanding future so each request has its result line.
  engine.Drain();
  resolve_pending();
  for (const std::string& result : results) {
    std::printf("%s\n", result.c_str());
  }
  std::fflush(stdout);

  const serve::Engine::Counters tally = engine.counters();
  std::fprintf(stderr,
               "# serve: requests=%zu ok=%llu degraded=%llu retried=%llu "
               "shed=%llu error=%llu retry_attempts=%llu breaker_trips=%llu%s\n",
               idx, static_cast<unsigned long long>(tally.ok),
               static_cast<unsigned long long>(tally.degraded),
               static_cast<unsigned long long>(tally.retried),
               static_cast<unsigned long long>(tally.shed),
               static_cast<unsigned long long>(tally.errors),
               static_cast<unsigned long long>(tally.retry_attempts),
               static_cast<unsigned long long>(tally.breaker_trips),
               tools::ObsCli::TerminationRequested() ? " (drained on signal)"
                                                     : "");
  if (chaos_report) {
    for (const std::string& name : failpoint::ArmedPoints()) {
      std::fprintf(stderr, "# chaos: %s hits=%llu fired=%llu\n", name.c_str(),
                   static_cast<unsigned long long>(failpoint::HitCount(name)),
                   static_cast<unsigned long long>(
                       failpoint::FiredCount(name)));
    }
  }
  engine.Stop();
  failpoint::DisarmAll();
  return 0;
}

int CmdAmbiguous(const std::string& expr) {
  hedge::Vocabulary vocab;
  BindCache(vocab);
  auto e = hre::ParseHre(expr, vocab);
  if (!e.ok()) return Fail(e.status().ToString());
  bool ambiguous = automata::IsAmbiguous(hre::CompileHre(*e));
  std::printf("%s\n", ambiguous ? "ambiguous" : "unambiguous");
  return ambiguous ? 2 : 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hq query '<selection query>' file.xml\n"
      "  hq xpath '<location path>' file.xml\n"
      "  hq validate schema.grammar file.xml\n"
      "  hq transform select|delete schema.grammar '<query>'\n"
      "  hq transform rename schema.grammar '<query>' <new-name>\n"
      "  hq gen article|random <nodes> [seed]\n"
      "  hq example schema.grammar '<query>'   (synthesize a matching doc)\n"
      "  hq contains schema.grammar '<q1>' '<q2>'  (query containment)\n"
      "  hq schema-diff a.grammar b.grammar\n"
      "  hq canon schema.grammar               (canonical minimized form)\n"
      "  hq ambiguous '<hedge regular expression>'\n"
      "  hq repl                               (interactive session: warm\n"
      "                     evaluator memo + cache; 'help' lists commands)\n"
      "  hq serve [--workers=N] [--queue-cap=M] [--requests=FILE|-]\n"
      "                     (concurrent query service: admission control,\n"
      "                     load shedding, retry, circuit breaker, graceful\n"
      "                     drain on SIGTERM/SIGINT; one result line per\n"
      "                     request; see also --retry-max=N,\n"
      "                     --retry-backoff-ms=N, --breaker-threshold=N,\n"
      "                     --breaker-open-ms=N, --no-memoize,\n"
      "                     --failpoint=SPEC (repeatable), --chaos-report)\n"
      "  hq obs-parse FILE  (round-trip an obs JSON artifact; exit 0 iff ok)\n"
      "options (any command):\n"
      "  --metrics[=FILE]   emit a metrics snapshot (stderr, or FILE)\n"
      "  --metrics-format=prom|json  snapshot format (default json);\n"
      "                     prom is Prometheus text exposition\n"
      "  --trace=FILE       write a Chrome trace_event file\n"
      "  --timings[=FILE]   per-stage wall-time summary, sorted by total\n"
      "                     time descending (stderr, or FILE)\n"
      "  --flight-recorder=FILE  record per-query flight records; dump\n"
      "                     them to FILE at exit (and on SIGUSR1 in repl)\n"
      "  --cache-dir=DIR    persistent automaton cache (entries are\n"
      "                     certificate-checked on every load)\n"
      "  --cache-max-bytes=N  evict oldest entries past N total bytes on\n"
      "                     every store (the just-written entry survives)\n"
      "  --cache-max-age-s=N  evict entries older than N seconds on store\n"
      "  --deadline-ms=N    wall-clock deadline for exponential\n"
      "                     preprocessing (degrades to the lazy engine\n"
      "                     where one exists, else exits 4)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  tools::ObsCli obs_cli;  // flushes --metrics/--trace output on any return
  obs_cli.Configure(args);
  {
    std::vector<std::string> kept;
    kept.reserve(args.size());
    uint64_t cache_max_bytes = 0;
    uint64_t cache_max_age_s = 0;
    for (std::string& a : args) {
      if (a.rfind("--cache-dir=", 0) == 0) {
        auto opened =
            cache::AutomatonCache::Open(a.substr(sizeof("--cache-dir=") - 1));
        if (!opened.ok()) return Fail(opened.status().ToString());
        g_cache = std::move(opened).value();
        automata::SetDeterminizeCache(g_cache.get());
      } else if (a.rfind("--cache-max-bytes=", 0) == 0) {
        cache_max_bytes = static_cast<uint64_t>(
            std::atoll(a.c_str() + sizeof("--cache-max-bytes=") - 1));
      } else if (a.rfind("--cache-max-age-s=", 0) == 0) {
        cache_max_age_s = static_cast<uint64_t>(
            std::atoll(a.c_str() + sizeof("--cache-max-age-s=") - 1));
      } else if (a.rfind("--deadline-ms=", 0) == 0) {
        g_deadline_set = true;
        g_deadline_ms = static_cast<uint64_t>(
            std::atoll(a.c_str() + sizeof("--deadline-ms=") - 1));
      } else {
        kept.push_back(std::move(a));
      }
    }
    // Bounds may appear before --cache-dir on the command line; apply them
    // once the cache (if any) exists.
    if (g_cache != nullptr) {
      g_cache->set_max_bytes(cache_max_bytes);
      g_cache->set_max_age_seconds(cache_max_age_s);
    }
    args = std::move(kept);
  }
  const size_t n = args.size();
  if (n < 1) {
    Usage();
    return 1;
  }
  const std::string& cmd = args[0];
  // The repl opens its own per-command scopes; everything else runs under
  // one per-invocation QueryScope so --flight-recorder captures one-shot
  // commands too (inert unless observability is on).
  if (cmd == "repl" && n == 1) return CmdRepl(obs_cli);
  // serve opens one QueryScope per request on its worker threads.
  if (cmd == "serve") {
    return CmdServe({args.begin() + 1, args.end()}, obs_cli);
  }
  obs::QueryScope scope("hq " + cmd);
  if (cmd == "obs-parse" && n == 2) return CmdObsParse(args[1]);
  if (cmd == "query" && n == 3) return CmdQuery(args[1], args[2]);
  if (cmd == "xpath" && n == 3) return CmdXPath(args[1], args[2]);
  if (cmd == "validate" && n == 3) return CmdValidate(args[1], args[2]);
  if (cmd == "transform" && (n == 4 || n == 5)) {
    return CmdTransform(args[1], args[2], args[3],
                        n == 5 ? args[4].c_str() : nullptr);
  }
  if (cmd == "gen" && (n == 3 || n == 4)) {
    return CmdGen(args[1], static_cast<size_t>(std::atol(args[2].c_str())),
                  n == 4 ? static_cast<uint64_t>(std::atoll(args[3].c_str()))
                         : 42);
  }
  if (cmd == "schema-diff" && n == 3) {
    return CmdSchemaDiff(args[1], args[2]);
  }
  if (cmd == "example" && n == 3) return CmdExample(args[1], args[2]);
  if (cmd == "contains" && n == 4) {
    return CmdContains(args[1], args[2], args[3]);
  }
  if (cmd == "canon" && n == 2) return CmdCanon(args[1]);
  if (cmd == "ambiguous" && n == 2) return CmdAmbiguous(args[1]);
  Usage();
  return 1;
}
