// hedgeq_verify — translation validation front end for the hedgeq library.
//
//   hedgeq_verify expr '<hedge regular expression>'
//   hedgeq_verify oracle '<hedge regular expression>' [max_size] [samples]
//   hedgeq_verify query '<selection query>'
//   hedgeq_verify minimize '<hedge regular expression>'
//   hedgeq_verify containment <schema-file|-> '<q1>' '<q2>'
//   hedgeq_verify select-oracle '<selection query>' [max_size] [samples]
//   hedgeq_verify from-nha '<hedge regular expression>'
//   hedgeq_verify algebra <intersect|union|difference> <a.grammar> <b.grammar>
//   hedgeq_verify emit-cert <det|trim|min|from-nha> '<expression>'
//   hedgeq_verify emit-cert containment <schema-file|-> '<q1>' '<q2>'
//   hedgeq_verify emit-cert algebra <op> <a.grammar> <b.grammar>
//   hedgeq_verify [--check=light|full] cert <file|->
//   hedgeq_verify from-json <file|->
//
// `expr` runs the whole pipeline on one expression — compile trace, trim,
// subset construction, lazy-evaluation audit — validating every step with
// the independent checker, then cross-runs all engines on an enumerated +
// sampled hedge corpus (the differential oracle). `query` validates the
// shared-automaton determinization *and* the Theorem 4 class product /
// mirror inside PHR compilation. `minimize` determinizes the expression's
// automaton, minimizes it, and validates the block partition.
// `containment` decides q1 ⊆ q2 under the schema and validates the verdict
// (counterexample replay through the naive evaluator on separation).
// `select-oracle` cross-runs every selection engine — eager, forced-lazy,
// reference matcher, naive enumerator — and compares located node sets.
// `emit-cert` prints a serialized certificate; `cert` re-checks one
// (possibly from another process or machine). Findings use the HQV0xx code
// family; pass --json anywhere for the structured report (round-trips via
// from-json).
//
// Exit codes: 0 clean, 2 at least one error finding, 1 bad input.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/analysis.h"
#include "automata/determinize.h"
#include "automata/lazy_dha.h"
#include "hre/ast.h"
#include "hre/compile.h"
#include "hre/from_nha.h"
#include "lint/diagnostics.h"
#include "query/selection.h"
#include "schema/algebra.h"
#include "schema/schema.h"
#include "util/failpoint.h"
#include "verify/certificate.h"
#include "verify/checker.h"
#include "verify/enumerate.h"
#include "verify/oracle.h"

#include "obs_cli.h"

namespace {

using namespace hedgeq;

// Process-wide --metrics/--trace state; flushed by its destructor on exit.
tools::ObsCli g_obs;

int Fail(const std::string& message) {
  std::fprintf(stderr, "hedgeq_verify: %s\n", message.c_str());
  return 1;
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

int Emit(const std::vector<lint::Diagnostic>& diagnostics, bool json) {
  if (json) {
    if (g_obs.metrics_requested()) {
      // --json --metrics: one merged object so consumers get findings and
      // the metrics snapshot in a single document. Without --metrics the
      // output stays the bare diagnostics array (round-trips via
      // from-json).
      std::printf("{\"diagnostics\": %s,\n\"obs\": %s}\n",
                  lint::DiagnosticsToJson(diagnostics).c_str(),
                  g_obs.TakeMetricsJson().c_str());
    } else {
      std::printf("%s", lint::DiagnosticsToJson(diagnostics).c_str());
    }
  } else {
    for (const lint::Diagnostic& d : diagnostics) {
      std::printf("%s\n", lint::FormatDiagnostic(d).c_str());
    }
    if (diagnostics.empty()) std::printf("clean: no findings\n");
  }
  return lint::HasErrors(diagnostics) ? 2 : 0;
}

void Append(std::vector<lint::Diagnostic>& all,
            std::vector<lint::Diagnostic> more) {
  for (lint::Diagnostic& d : more) all.push_back(std::move(d));
}

// Every label the vocabulary knows (interner ids are dense).
verify::EnumVocab VocabUniverse(const hedge::Vocabulary& vocab) {
  verify::EnumVocab ev;
  for (InternId i = 0; i < vocab.symbols.size(); ++i) ev.symbols.push_back(i);
  for (InternId i = 0; i < vocab.variables.size(); ++i) {
    ev.variables.push_back(i);
  }
  for (InternId i = 0; i < vocab.substs.size(); ++i) ev.substs.push_back(i);
  return ev;
}

int CmdExpr(const std::string& text, bool json) {
  hedge::Vocabulary vocab;
  auto e = hre::ParseHre(text, vocab);
  if (!e.ok()) return Fail(e.status().ToString());
  std::vector<lint::Diagnostic> all;

  BudgetScope scope{ExecBudget{}};
  hre::CompileTrace trace;
  auto nha = hre::CompileHre(*e, scope, &trace);
  if (!nha.ok()) return Fail(nha.status().ToString());
  Append(all, verify::CheckCompile(*e, *nha, trace));

  automata::TrimWitness trim_witness;
  automata::Nha trimmed = automata::PruneNha(*nha, nullptr, &trim_witness);
  Append(all, verify::CheckTrim(*nha, trimmed, trim_witness));

  automata::DeterminizeWitness det_witness;
  auto det = automata::Determinize(*nha, scope, &det_witness);
  if (det.ok()) {
    Append(all, verify::CheckDeterminize(*nha, *det, det_witness));
  } else if (det.status().code() != StatusCode::kResourceExhausted) {
    return Fail(det.status().ToString());
  }

  // Drive the lazy engine over every hedge of up to 2 nodes and audit each
  // fresh (cache-miss) step it takes.
  automata::LazyDha lazy(*nha);
  std::vector<automata::LazyAuditEntry> audit;
  lazy.EnableAudit(&audit);
  verify::EnumVocab ev = VocabUniverse(vocab);
  for (size_t size = 0; size <= 2; ++size) {
    verify::EnumerateHedges(ev, size, 500, [&](const hedge::Hedge& h) {
      lazy.Accepts(h);
      return true;
    });
  }
  Append(all, verify::CheckLazyAudit(*nha, audit));

  auto oracle = verify::RunDifferentialOracle(*e, vocab);
  if (!oracle.ok()) return Fail(oracle.status().ToString());
  std::fprintf(stderr,
               "oracle: %zu hedges (%zu enumerated, %zu sampled), "
               "streaming %zu, validator %zu, naive-unknown %zu, eager=%d\n",
               oracle->hedges_checked, oracle->enumerated, oracle->sampled,
               oracle->streaming_checked, oracle->validator_checked,
               oracle->naive_unknown, oracle->eager_available ? 1 : 0);
  Append(all, oracle->diagnostics);
  return Emit(all, json);
}

int CmdOracle(const std::string& text, const std::vector<std::string>& rest,
              bool json) {
  hedge::Vocabulary vocab;
  auto e = hre::ParseHre(text, vocab);
  if (!e.ok()) return Fail(e.status().ToString());
  verify::OracleOptions options;
  if (rest.size() >= 1) options.max_size = std::stoul(rest[0]);
  if (rest.size() >= 2) options.samples = std::stoul(rest[1]);
  auto report = verify::RunDifferentialOracle(*e, vocab, options);
  if (!report.ok()) return Fail(report.status().ToString());
  std::fprintf(stderr,
               "oracle: %zu hedges (%zu enumerated, %zu sampled), "
               "streaming %zu, validator %zu, naive-unknown %zu, eager=%d\n",
               report->hedges_checked, report->enumerated, report->sampled,
               report->streaming_checked, report->validator_checked,
               report->naive_unknown, report->eager_available ? 1 : 0);
  return Emit(report->diagnostics, json);
}

int CmdQuery(const std::string& text, bool json) {
  // The independent checkers run explicitly below; suppress the inline
  // hook so a seeded bug (--failpoint) surfaces as a reported finding
  // instead of failing the compile (HEDGEQ_CERTIFY builds).
  query::SetPhrProductValidationHook(nullptr);
  hedge::Vocabulary vocab;
  auto query = query::ParseSelectionQuery(text, vocab);
  if (!query.ok()) return Fail(query.status().ToString());
  query::PhrWitness witness;
  auto compiled = query::CompilePhr(query->envelope, {}, &witness);
  if (!compiled.ok()) return Fail(compiled.status().ToString());
  automata::Determinized det{compiled->dha(), compiled->subsets()};
  std::vector<lint::Diagnostic> all;
  Append(all, verify::CheckDeterminize(witness.union_nha, det, witness.det));
  Append(all, verify::CheckPhrProduct(query->envelope, *compiled, witness));
  return Emit(all, json);
}

int CmdMinimize(const std::string& text, bool json) {
  // The independent checker runs explicitly below; suppress the inline
  // hook so a seeded bug (--failpoint) surfaces as a reported finding
  // instead of aborting inside the construction (HEDGEQ_CERTIFY builds).
  automata::SetMinimizeValidationHook(nullptr);
  hedge::Vocabulary vocab;
  auto e = hre::ParseHre(text, vocab);
  if (!e.ok()) return Fail(e.status().ToString());
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(*e, scope);
  if (!nha.ok()) return Fail(nha.status().ToString());
  auto det = automata::Determinize(*nha, scope);
  if (!det.ok()) return Fail(det.status().ToString());
  verify::Certificate cert = verify::BuildMinimizeCertificate(det->dha);
  std::fprintf(stderr, "minimize: %u -> %u states, %u -> %u h-states\n",
               cert.min_input.num_states(), cert.min_output.num_states(),
               cert.min_input.num_h_states(), cert.min_output.num_h_states());
  return Emit(verify::CheckCertificate(cert), json);
}

int CmdContainment(const std::string& schema_path, const std::string& q1,
                   const std::string& q2, bool json, bool emit_only) {
  // As in CmdMinimize: the explicit CheckCertificate below is the gate;
  // the inline hook would turn a seeded verdict flip into a build error.
  schema::SetContainmentValidationHook(nullptr);
  auto text = ReadFile(schema_path);
  if (!text.ok()) return Fail(text.status().ToString());
  hedge::Vocabulary vocab;
  auto schema = schema::ParseSchema(*text, vocab);
  if (!schema.ok()) return Fail(schema.status().ToString());
  auto cert = verify::BuildContainmentCertificate(*schema, q1, q2, vocab);
  if (!cert.ok()) return Fail(cert.status().ToString());
  if (emit_only) {
    std::printf("%s", verify::SerializeCertificate(*cert, vocab).c_str());
    return 0;
  }
  std::fprintf(stderr, "containment: %s\n",
               cert->containment.contained ? "contained" : "separated");
  return Emit(verify::CheckCertificate(*cert), json);
}

int CmdSelectOracle(const std::string& text,
                    const std::vector<std::string>& rest, bool json) {
  hedge::Vocabulary vocab;
  auto query = query::ParseSelectionQuery(text, vocab);
  if (!query.ok()) return Fail(query.status().ToString());
  verify::OracleOptions options;
  if (rest.size() >= 1) options.max_size = std::stoul(rest[0]);
  if (rest.size() >= 2) options.samples = std::stoul(rest[1]);
  auto report = verify::RunSelectionOracle(*query, vocab, options);
  if (!report.ok()) return Fail(report.status().ToString());
  std::fprintf(stderr,
               "select-oracle: %zu hedges (%zu enumerated, %zu sampled), "
               "naive-unknown %zu, shrink-checks %zu, eager=%d\n",
               report->hedges_checked, report->enumerated, report->sampled,
               report->naive_unknown, report->shrink_checks,
               report->eager_available ? 1 : 0);
  return Emit(report->diagnostics, json);
}

int CmdEmitCert(const std::string& kind, const std::string& text) {
  hedge::Vocabulary vocab;
  auto e = hre::ParseHre(text, vocab);
  if (!e.ok()) return Fail(e.status().ToString());
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(*e, scope);
  if (!nha.ok()) return Fail(nha.status().ToString());
  if (kind == "det") {
    auto cert = verify::BuildDeterminizeCertificate(*nha, scope);
    if (!cert.ok()) return Fail(cert.status().ToString());
    std::printf("%s", verify::SerializeCertificate(*cert, vocab).c_str());
    return 0;
  }
  if (kind == "trim") {
    verify::Certificate cert = verify::BuildTrimCertificate(*nha);
    std::printf("%s", verify::SerializeCertificate(cert, vocab).c_str());
    return 0;
  }
  if (kind == "min") {
    auto det = automata::Determinize(*nha, scope);
    if (!det.ok()) return Fail(det.status().ToString());
    verify::Certificate cert = verify::BuildMinimizeCertificate(det->dha);
    std::printf("%s", verify::SerializeCertificate(cert, vocab).c_str());
    return 0;
  }
  return Fail("emit-cert kind must be 'det', 'trim' or 'min'");
}

int CmdFromNha(const std::string& text, bool json, bool emit_only) {
  // As in CmdMinimize: the explicit CheckCertificate below is the gate; the
  // inline hook would turn a seeded drop-alternative into a build error.
  hre::SetFromNhaValidationHook(nullptr);
  hedge::Vocabulary vocab;
  auto e = hre::ParseHre(text, vocab);
  if (!e.ok()) return Fail(e.status().ToString());
  BudgetScope scope{ExecBudget{}};
  auto nha = hre::CompileHre(*e, scope);
  if (!nha.ok()) return Fail(nha.status().ToString());
  auto cert = verify::BuildFromNhaCertificate(*nha, vocab);
  if (!cert.ok()) return Fail(cert.status().ToString());
  if (emit_only) {
    std::printf("%s", verify::SerializeCertificate(*cert, vocab).c_str());
    return 0;
  }
  std::fprintf(stderr, "from-nha: %zu states, %zu splits, %zu entries\n",
               nha->num_states(), cert->fn.splits.size(),
               cert->fn.entries.size());
  return Emit(verify::CheckCertificate(*cert), json);
}

int CmdAlgebra(const std::string& op_word, const std::string& a_path,
               const std::string& b_path, bool json, bool emit_only) {
  // As above: report the seeded algebra/drop-rule as an HQV015 finding
  // instead of aborting inside the construction.
  schema::SetAlgebraValidationHook(nullptr);
  schema::AlgebraOp op;
  if (op_word == "intersect") {
    op = schema::AlgebraOp::kIntersect;
  } else if (op_word == "union") {
    op = schema::AlgebraOp::kUnion;
  } else if (op_word == "difference") {
    op = schema::AlgebraOp::kDifference;
  } else {
    return Fail("algebra op must be 'intersect', 'union' or 'difference'");
  }
  auto a_text = ReadFile(a_path);
  if (!a_text.ok()) return Fail(a_text.status().ToString());
  auto b_text = ReadFile(b_path);
  if (!b_text.ok()) return Fail(b_text.status().ToString());
  hedge::Vocabulary vocab;
  auto a = schema::ParseSchema(*a_text, vocab);
  if (!a.ok()) return Fail(a.status().ToString());
  auto b = schema::ParseSchema(*b_text, vocab);
  if (!b.ok()) return Fail(b.status().ToString());
  auto cert = verify::BuildAlgebraCertificate(*a, *b, op);
  if (!cert.ok()) return Fail(cert.status().ToString());
  if (emit_only) {
    std::printf("%s", verify::SerializeCertificate(*cert, vocab).c_str());
    return 0;
  }
  std::fprintf(stderr, "algebra: %s, %zu x %zu -> %zu states\n",
               op_word.c_str(), a->nha().num_states(), b->nha().num_states(),
               cert->alg_out.num_states());
  return Emit(verify::CheckCertificate(*cert), json);
}

// Splits a file of concatenated serialized certificates at their "end"
// trailer lines. A lone "end" line only terminates a chunk when the next
// line opens a new certificate (or the file ends), so length-prefixed
// section content containing "end" stays inside its chunk.
std::vector<std::string> SplitCertificates(const std::string& text) {
  std::vector<std::string> chunks;
  std::string current;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    const bool last = nl == std::string::npos;
    std::string line =
        last ? text.substr(pos) : text.substr(pos, nl - pos + 1);
    pos = last ? text.size() : nl + 1;
    current += line;
    if (line == "end\n" || line == "end") {
      if (pos >= text.size() || text.compare(pos, 5, "cert ") == 0) {
        chunks.push_back(std::move(current));
        current.clear();
      }
    }
  }
  if (!current.empty()) chunks.push_back(std::move(current));
  return chunks;
}

int CmdCert(const std::string& path, bool json, bool light) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status().ToString());
  std::vector<std::string> chunks = SplitCertificates(*text);
  if (chunks.empty()) return Fail("no certificates in " + path);
  // Check every certificate in the file and report all findings at once —
  // a failed check must not hide later certificates' diagnostics.
  std::vector<lint::Diagnostic> all;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const std::string where =
        chunks.size() == 1 ? std::string("certificate")
                           : "certificate " + std::to_string(i + 1);
    hedge::Vocabulary vocab;
    auto cert = verify::DeserializeCertificate(chunks[i], vocab);
    if (!cert.ok()) {
      all.push_back(lint::Diagnostic{
          lint::Severity::kError,
          lint::DiagnosticCode::kCertificateMalformed, where,
          "undeserializable: " + std::string(cert.status().message()),
          "the file is not (or no longer) a serialized hedgeq certificate"});
      continue;
    }
    size_t begin = all.size();
    Append(all, light ? verify::CheckCertificateLight(*cert)
                      : verify::CheckCertificate(*cert));
    if (chunks.size() > 1) {
      for (size_t d = begin; d < all.size(); ++d) {
        all[d].span = all[d].span.empty() ? where : where + ": " + all[d].span;
      }
    }
  }
  return Emit(all, json);
}

int CmdFromJson(const std::string& path, bool json) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail(text.status().ToString());
  auto diagnostics = lint::ParseDiagnosticsJson(*text);
  if (!diagnostics.ok()) return Fail(diagnostics.status().ToString());
  return Emit(*diagnostics, json);
}

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hedgeq_verify [--json] expr '<hedge regular expression>'\n"
      "  hedgeq_verify [--json] oracle '<expression>' [max_size] [samples]\n"
      "  hedgeq_verify [--json] query '<selection query>'\n"
      "  hedgeq_verify [--json] minimize '<expression>'\n"
      "  hedgeq_verify [--json] containment <schema-file|-> '<q1>' '<q2>'\n"
      "  hedgeq_verify [--json] select-oracle '<query>' [max_size] "
      "[samples]\n"
      "  hedgeq_verify [--json] from-nha '<expression>'\n"
      "  hedgeq_verify [--json] algebra <intersect|union|difference> "
      "<a.grammar> <b.grammar>\n"
      "  hedgeq_verify emit-cert <det|trim|min|from-nha> '<expression>'\n"
      "  hedgeq_verify emit-cert containment <schema-file|-> '<q1>' '<q2>'\n"
      "  hedgeq_verify emit-cert algebra <op> <a.grammar> <b.grammar>\n"
      "  hedgeq_verify [--json] [--check=light|full] cert <file|->\n"
      "  hedgeq_verify [--json] from-json <file|->\n"
      "cert accepts a file of concatenated certificates and reports every\n"
      "finding of every certificate before exiting. --check=light uses the\n"
      "digest-chain light checker (HQV016) where a chain is present.\n"
      "exit: 0 certificates valid, 2 findings, 1 bad input\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool light = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--json") {
      json = true;
    } else if (arg == "--check=light") {
      light = true;
    } else if (arg == "--check=full") {
      light = false;
    } else if (arg.rfind("--failpoint=", 0) == 0) {
      // Arms a seeded bug by name (see util/failpoint.h); check.sh uses
      // this to prove each checker catches its construction's failure.
      hedgeq::failpoint::Arm(arg.substr(12));
    } else {
      args.emplace_back(std::move(arg));
    }
  }
  g_obs.Configure(args);
  if (args.empty()) {
    Usage();
    return 1;
  }
  const std::string& cmd = args[0];
  if (cmd == "expr" && args.size() == 2) return CmdExpr(args[1], json);
  if (cmd == "oracle" && args.size() >= 2 && args.size() <= 4) {
    return CmdOracle(args[1],
                     std::vector<std::string>(args.begin() + 2, args.end()),
                     json);
  }
  if (cmd == "query" && args.size() == 2) return CmdQuery(args[1], json);
  if (cmd == "minimize" && args.size() == 2) return CmdMinimize(args[1], json);
  if (cmd == "containment" && args.size() == 4) {
    return CmdContainment(args[1], args[2], args[3], json,
                          /*emit_only=*/false);
  }
  if (cmd == "select-oracle" && args.size() >= 2 && args.size() <= 4) {
    return CmdSelectOracle(
        args[1], std::vector<std::string>(args.begin() + 2, args.end()),
        json);
  }
  if (cmd == "from-nha" && args.size() == 2) {
    return CmdFromNha(args[1], json, /*emit_only=*/false);
  }
  if (cmd == "algebra" && args.size() == 4) {
    return CmdAlgebra(args[1], args[2], args[3], json, /*emit_only=*/false);
  }
  if (cmd == "emit-cert" && args.size() == 5 && args[1] == "containment") {
    return CmdContainment(args[2], args[3], args[4], json,
                          /*emit_only=*/true);
  }
  if (cmd == "emit-cert" && args.size() == 5 && args[1] == "algebra") {
    return CmdAlgebra(args[2], args[3], args[4], json, /*emit_only=*/true);
  }
  if (cmd == "emit-cert" && args.size() == 3 && args[1] == "from-nha") {
    return CmdFromNha(args[2], json, /*emit_only=*/true);
  }
  if (cmd == "emit-cert" && args.size() == 3) {
    return CmdEmitCert(args[1], args[2]);
  }
  if (cmd == "cert" && args.size() == 2) return CmdCert(args[1], json, light);
  if (cmd == "from-json" && args.size() == 2) {
    return CmdFromJson(args[1], json);
  }
  Usage();
  return 1;
}
