#include "verify/certificate.h"

#include <algorithm>

#include "automata/serialize.h"
#include "util/strings.h"

namespace hedgeq::verify {

using automata::Dha;
using automata::Nha;

namespace {

size_t CountLines(std::string_view text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

void WriteBitset(std::string& out, const char* tag, const Bitset& b) {
  out += StrCat(tag, " ", b.size());
  for (uint32_t i : b.ToVector()) out += StrCat(" ", i);
  out += "\n";
}

void WriteBitsetList(std::string& out, const char* tag,
                     const std::vector<Bitset>& sets) {
  out += StrCat(tag, " ", sets.size(), "\n");
  for (const Bitset& b : sets) WriteBitset(out, "set", b);
}

void WriteU32List(std::string& out, const char* tag,
                  const std::vector<uint32_t>& values) {
  out += StrCat(tag, " ", values.size());
  for (uint32_t v : values) out += StrCat(" ", v);
  out += "\n";
}

// Embeds free-form text under a line-count prefix, normalizing to a
// trailing newline so the count is exact.
void WriteEmbedded(std::string& out, const char* tag, std::string_view text) {
  std::string body(text);
  if (body.empty() || body.back() != '\n') body += '\n';
  out += StrCat(tag, " ", CountLines(body), "\n");
  out += body;
}

Bitset BoolsToBitset(const std::vector<bool>& v) {
  Bitset b(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i]) b.Set(static_cast<uint32_t>(i));
  }
  return b;
}

std::vector<bool> BitsetToBools(const Bitset& b) {
  std::vector<bool> v(b.size(), false);
  for (uint32_t i : b.ToVector()) v[i] = true;
  return v;
}

const char* KindWord(CertificateKind kind) {
  switch (kind) {
    case CertificateKind::kDeterminize:
      return "determinize";
    case CertificateKind::kTrim:
      return "trim";
    case CertificateKind::kMinimize:
      return "minimize";
    case CertificateKind::kContainment:
      return "containment";
    case CertificateKind::kFromNha:
      return "fromnha";
    case CertificateKind::kAlgebra:
      return "algebra";
  }
  return "?";
}

const char* OpWord(schema::AlgebraOp op) {
  switch (op) {
    case schema::AlgebraOp::kIntersect:
      return "intersect";
    case schema::AlgebraOp::kUnion:
      return "union";
    case schema::AlgebraOp::kDifference:
      return "difference";
  }
  return "?";
}

Result<uint32_t> ParseU32(const std::string& field) {
  if (field.empty()) return Status::InvalidArgument("empty number field");
  uint64_t value = 0;
  for (char c : field) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrCat("expected a number, got '", field, "'"));
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > UINT32_MAX) {
      return Status::InvalidArgument(StrCat("number too large: ", field));
    }
  }
  return static_cast<uint32_t>(value);
}

// 64-bit variant for the Lemma 2 recurrence masks (up to 62 split bits).
Result<uint64_t> ParseU64(const std::string& field) {
  if (field.empty()) return Status::InvalidArgument("empty number field");
  uint64_t value = 0;
  for (char c : field) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrCat("expected a number, got '", field, "'"));
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument(StrCat("number too large: ", field));
    }
    value = value * 10 + digit;
  }
  return value;
}

// Cursor over the raw lines of a certificate, able both to parse directive
// lines and to slice out a length-prefixed embedded document verbatim.
class CertReader {
 public:
  explicit CertReader(std::string_view text) : lines_(StrSplit(text, '\n')) {}

  Result<std::vector<std::string>> Next() {
    while (index_ < lines_.size()) {
      std::string_view stripped = StripAsciiWhitespace(lines_[index_]);
      ++index_;
      if (stripped.empty() || stripped[0] == '#') continue;
      std::vector<std::string> fields;
      for (std::string& f : StrSplit(stripped, ' ')) {
        if (!f.empty()) fields.push_back(std::move(f));
      }
      return fields;
    }
    return Status::InvalidArgument("unexpected end of certificate text");
  }

  // The next `count` raw lines, rejoined verbatim.
  Result<std::string> TakeLines(size_t count) {
    if (index_ + count > lines_.size()) {
      return Status::InvalidArgument("certificate section truncated");
    }
    std::string out;
    for (size_t i = 0; i < count; ++i) {
      out += lines_[index_ + i];
      out += '\n';
    }
    index_ += count;
    return out;
  }

  size_t line() const { return index_; }

 private:
  std::vector<std::string> lines_;
  size_t index_ = 0;
};

Result<Bitset> ReadBitset(const std::vector<std::string>& fields,
                          const char* tag) {
  if (fields.size() < 2 || fields[0] != tag) {
    return Status::InvalidArgument(
        StrCat("expected '", tag, " <bits> <idx>...'"));
  }
  Result<uint32_t> bits = ParseU32(fields[1]);
  if (!bits.ok()) return bits.status();
  Bitset b(*bits);
  for (size_t i = 2; i < fields.size(); ++i) {
    Result<uint32_t> idx = ParseU32(fields[i]);
    if (!idx.ok()) return idx.status();
    if (*idx >= *bits) {
      return Status::InvalidArgument(
          StrCat(tag, " bit index ", *idx, " out of range (", *bits, ")"));
    }
    b.Set(*idx);
  }
  return b;
}

Result<std::vector<Bitset>> ReadBitsetList(CertReader& reader,
                                           const char* tag) {
  Result<std::vector<std::string>> header = reader.Next();
  if (!header.ok()) return header.status();
  if (header->size() != 2 || (*header)[0] != tag) {
    return Status::InvalidArgument(StrCat("expected '", tag, " <count>'"));
  }
  Result<uint32_t> count = ParseU32((*header)[1]);
  if (!count.ok()) return count.status();
  std::vector<Bitset> sets;
  sets.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    Result<std::vector<std::string>> fields = reader.Next();
    if (!fields.ok()) return fields.status();
    Result<Bitset> b = ReadBitset(*fields, "set");
    if (!b.ok()) return b.status();
    sets.push_back(std::move(b).value());
  }
  return sets;
}

Result<std::vector<uint32_t>> ReadU32List(CertReader& reader,
                                          const char* tag) {
  Result<std::vector<std::string>> fields = reader.Next();
  if (!fields.ok()) return fields.status();
  if (fields->size() < 2 || (*fields)[0] != tag) {
    return Status::InvalidArgument(StrCat("expected '", tag, " <n> ...'"));
  }
  Result<uint32_t> n = ParseU32((*fields)[1]);
  if (!n.ok()) return n.status();
  if (fields->size() != 2 + static_cast<size_t>(*n)) {
    return Status::InvalidArgument(StrCat(tag, " entry count mismatch"));
  }
  std::vector<uint32_t> values;
  values.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    Result<uint32_t> v = ParseU32((*fields)[2 + i]);
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  return values;
}

// Reads an embedded, line-count-prefixed document ("<tag> <count>" followed
// by that many verbatim lines).
Result<std::string> ReadEmbedded(CertReader& reader, const char* tag) {
  Result<std::vector<std::string>> header = reader.Next();
  if (!header.ok()) return header.status();
  if (header->size() != 2 || (*header)[0] != tag) {
    return Status::InvalidArgument(
        StrCat("expected '", tag, " <line-count>' near line ",
               reader.line()));
  }
  Result<uint32_t> count = ParseU32((*header)[1]);
  if (!count.ok()) return count.status();
  return reader.TakeLines(*count);
}

// The trim-witness triple, shared by the trim and algebra kinds.
void WriteTrimWitness(std::string& out, const automata::TrimWitness& trim) {
  WriteBitset(out, "derivable", trim.derivable);
  WriteBitset(out, "useful", trim.useful);
  std::string mapping = StrCat("mapping ", trim.mapping.size());
  for (automata::HState q : trim.mapping) {
    mapping += q == strre::kNoState ? std::string(" -") : StrCat(" ", q);
  }
  out += mapping + "\n";
}

Status ReadTrimWitness(CertReader& reader, automata::TrimWitness* trim) {
  Result<std::vector<std::string>> derivable = reader.Next();
  if (!derivable.ok()) return derivable.status();
  Result<Bitset> derivable_bits = ReadBitset(*derivable, "derivable");
  if (!derivable_bits.ok()) return derivable_bits.status();
  trim->derivable = std::move(derivable_bits).value();
  Result<std::vector<std::string>> useful = reader.Next();
  if (!useful.ok()) return useful.status();
  Result<Bitset> useful_bits = ReadBitset(*useful, "useful");
  if (!useful_bits.ok()) return useful_bits.status();
  trim->useful = std::move(useful_bits).value();
  Result<std::vector<std::string>> mapping = reader.Next();
  if (!mapping.ok()) return mapping.status();
  if (mapping->size() < 2 || (*mapping)[0] != "mapping") {
    return Status::InvalidArgument("expected 'mapping <n> ...'");
  }
  Result<uint32_t> n = ParseU32((*mapping)[1]);
  if (!n.ok()) return n.status();
  if (mapping->size() != 2 + static_cast<size_t>(*n)) {
    return Status::InvalidArgument("mapping entry count mismatch");
  }
  trim->mapping.clear();
  trim->mapping.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    const std::string& field = (*mapping)[2 + i];
    if (field == "-") {
      trim->mapping.push_back(strre::kNoState);
    } else {
      Result<uint32_t> q = ParseU32(field);
      if (!q.ok()) return q.status();
      trim->mapping.push_back(*q);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<Certificate> BuildDeterminizeCertificate(const automata::Nha& input,
                                                BudgetScope& scope) {
  Certificate cert;
  cert.kind = CertificateKind::kDeterminize;
  cert.input = input;
  automata::DeterminizeWitness witness;
  Result<automata::Determinized> det =
      automata::Determinize(input, scope, &witness);
  if (!det.ok()) return det.status();
  cert.dha = std::move(det->dha);
  cert.subsets = std::move(det->subsets);
  cert.det = std::move(witness);
  return cert;
}

Certificate BuildTrimCertificate(const automata::Nha& input) {
  Certificate cert;
  cert.kind = CertificateKind::kTrim;
  cert.input = input;
  cert.trimmed = automata::PruneNha(input, nullptr, &cert.trim);
  return cert;
}

Certificate BuildMinimizeCertificate(const automata::Dha& input) {
  Certificate cert;
  cert.kind = CertificateKind::kMinimize;
  cert.min_input = input;
  cert.min_output = automata::MinimizeDha(input, &cert.min);
  return cert;
}

Result<Certificate> BuildContainmentCertificate(const schema::Schema& schema,
                                                std::string_view q1_text,
                                                std::string_view q2_text,
                                                hedge::Vocabulary& vocab,
                                                const ExecBudget& options) {
  Certificate cert;
  cert.kind = CertificateKind::kContainment;
  cert.input = schema.nha();
  cert.q1_text = std::string(q1_text);
  cert.q2_text = std::string(q2_text);
  Result<query::SelectionQuery> q1 = query::ParseSelectionQuery(q1_text, vocab);
  if (!q1.ok()) return q1.status();
  Result<query::SelectionQuery> q2 = query::ParseSelectionQuery(q2_text, vocab);
  if (!q2.ok()) return q2.status();
  cert.q1 = std::move(q1).value();
  cert.q2 = std::move(q2).value();
  Result<schema::ContainmentResult> verdict =
      schema::QueryContainment(schema, *cert.q1, *cert.q2, options, &cert.cont);
  if (!verdict.ok()) return verdict.status();
  cert.containment = std::move(verdict).value();
  return cert;
}

Result<Certificate> BuildFromNhaCertificate(const automata::Nha& input,
                                            hedge::Vocabulary& vocab) {
  Certificate cert;
  cert.kind = CertificateKind::kFromNha;
  cert.input = input;
  Result<hre::Hre> output = hre::NhaToHre(input, vocab, &cert.fn);
  if (!output.ok()) return output.status();
  cert.fn_output = std::move(output).value();
  return cert;
}

Result<Certificate> BuildAlgebraCertificate(const schema::Schema& a,
                                            const schema::Schema& b,
                                            schema::AlgebraOp op,
                                            const ExecBudget& budget) {
  Certificate cert;
  cert.kind = CertificateKind::kAlgebra;
  cert.input = a.nha();
  cert.alg_b = b.nha();
  switch (op) {
    case schema::AlgebraOp::kIntersect:
      cert.alg_out = schema::IntersectSchemas(a, b, &cert.alg).nha();
      break;
    case schema::AlgebraOp::kUnion:
      cert.alg_out = schema::UnionSchemas(a, b, &cert.alg).nha();
      break;
    case schema::AlgebraOp::kDifference: {
      Result<schema::Schema> out =
          schema::DifferenceSchemas(a, b, budget, &cert.alg);
      if (!out.ok()) return out.status();
      cert.alg_out = out->nha();
      break;
    }
  }
  return cert;
}

std::string SerializeCertificate(const Certificate& cert,
                                 const hedge::Vocabulary& vocab) {
  std::string out = StrCat("cert 1 ", KindWord(cert.kind), "\n");
  if (cert.kind == CertificateKind::kMinimize) {
    WriteEmbedded(out, "dhain", automata::SerializeDha(cert.min_input, vocab));
    WriteEmbedded(out, "dhaout",
                  automata::SerializeDha(cert.min_output, vocab));
    WriteU32List(out, "qblock", cert.min.qblock);
    WriteU32List(out, "hblock", cert.min.hblock);
    out += "end\n";
    return out;
  }
  std::string input_text = automata::SerializeNha(cert.input, vocab);
  out += StrCat("input ", CountLines(input_text), "\n");
  out += input_text;
  if (cert.kind == CertificateKind::kContainment) {
    WriteEmbedded(out, "q1", cert.q1_text);
    WriteEmbedded(out, "q2", cert.q2_text);
    out += StrCat("verdict ",
                  cert.containment.contained ? "contained" : "separated",
                  "\n");
    WriteEmbedded(out, "product", automata::SerializeNha(cert.cont.product,
                                                         vocab));
    WriteBitset(out, "marked1", BoolsToBitset(cert.cont.marked1));
    WriteBitset(out, "marked2", BoolsToBitset(cert.cont.marked2));
    if (cert.containment.counterexample.has_value()) {
      WriteEmbedded(out, "counterexample",
                    cert.containment.counterexample->document.ToString(vocab));
      out += StrCat("located ", cert.containment.counterexample->located,
                    "\n");
    }
    out += "end\n";
    return out;
  }
  if (cert.kind == CertificateKind::kFromNha) {
    WriteEmbedded(out, "hre", hre::HreToString(cert.fn_output, vocab));
    out += StrCat("splits ", cert.fn.splits.size(), "\n");
    for (size_t i = 0; i < cert.fn.splits.size(); ++i) {
      out += StrCat("split ", vocab.symbols.NameOf(cert.fn.splits[i].first),
                    " ", cert.fn.splits[i].second, " ",
                    vocab.substs.NameOf(cert.fn.substs[i]), "\n");
    }
    out += StrCat("entries ", cert.fn.entries.size(), "\n");
    for (const hre::FromNhaWitness::Entry& e : cert.fn.entries) {
      std::string expr = hre::HreToString(e.expr, vocab);
      if (expr.empty() || expr.back() != '\n') expr += '\n';
      out += StrCat("entry ", e.c, " ", e.q1, " ", e.q2, " ",
                    CountLines(expr), "\n");
      out += expr;
    }
    out += "end\n";
    return out;
  }
  if (cert.kind == CertificateKind::kAlgebra) {
    out += StrCat("op ", OpWord(cert.alg.op), "\n");
    WriteEmbedded(out, "operand", automata::SerializeNha(cert.alg_b, vocab));
    WriteEmbedded(out, "output", automata::SerializeNha(cert.alg_out, vocab));
    if (cert.alg.op == schema::AlgebraOp::kUnion) {
      out += StrCat("offsets ", cert.alg.offset_a, " ", cert.alg.offset_b,
                    "\n");
    } else {
      if (cert.alg.op == schema::AlgebraOp::kDifference) {
        WriteEmbedded(out, "complement",
                      automata::SerializeNha(cert.alg.complement, vocab));
      }
      WriteEmbedded(out, "product",
                    automata::SerializeNha(cert.alg.product, vocab));
      WriteTrimWitness(out, cert.alg.trim);
    }
    out += "end\n";
    return out;
  }
  if (cert.kind == CertificateKind::kDeterminize) {
    std::string dha_text = automata::SerializeDha(cert.dha, vocab);
    out += StrCat("dha ", CountLines(dha_text), "\n");
    out += dha_text;
    WriteBitsetList(out, "subsets", cert.subsets);
    WriteBitsetList(out, "hsets", cert.det.h_sets);
    WriteBitsetList(out, "finalsets", cert.det.final_sets);
    // The digest chain rides last (just before the trailer) so anti-tamper
    // tests and the check.sh cache gate can target it deterministically.
    if (!cert.det.chain.empty()) {
      out += StrCat("digestchain ", cert.det.chain.size(), "\n");
      for (const std::string& link : cert.det.chain) {
        out += link;
        out += '\n';
      }
    }
  } else {
    std::string trimmed_text = automata::SerializeNha(cert.trimmed, vocab);
    out += StrCat("trimmed ", CountLines(trimmed_text), "\n");
    out += trimmed_text;
    WriteTrimWitness(out, cert.trim);
  }
  out += "end\n";
  return out;
}

Result<Certificate> DeserializeCertificate(std::string_view text,
                                           hedge::Vocabulary& vocab) {
  CertReader reader(text);
  Result<std::vector<std::string>> magic = reader.Next();
  if (!magic.ok()) return magic.status();
  if (magic->size() != 3 || (*magic)[0] != "cert" || (*magic)[1] != "1") {
    return Status::InvalidArgument("expected 'cert 1 <kind>' header");
  }
  Certificate cert;
  if ((*magic)[2] == "determinize") {
    cert.kind = CertificateKind::kDeterminize;
  } else if ((*magic)[2] == "trim") {
    cert.kind = CertificateKind::kTrim;
  } else if ((*magic)[2] == "minimize") {
    cert.kind = CertificateKind::kMinimize;
  } else if ((*magic)[2] == "containment") {
    cert.kind = CertificateKind::kContainment;
  } else if ((*magic)[2] == "fromnha") {
    cert.kind = CertificateKind::kFromNha;
  } else if ((*magic)[2] == "algebra") {
    cert.kind = CertificateKind::kAlgebra;
  } else {
    return Status::InvalidArgument(
        StrCat("unknown certificate kind '", (*magic)[2], "'"));
  }

  if (cert.kind == CertificateKind::kMinimize) {
    Result<std::string> in_text = ReadEmbedded(reader, "dhain");
    if (!in_text.ok()) return in_text.status();
    Result<Dha> in_dha = automata::DeserializeDha(*in_text, vocab);
    if (!in_dha.ok()) return in_dha.status();
    cert.min_input = std::move(in_dha).value();
    Result<std::string> out_text = ReadEmbedded(reader, "dhaout");
    if (!out_text.ok()) return out_text.status();
    Result<Dha> out_dha = automata::DeserializeDha(*out_text, vocab);
    if (!out_dha.ok()) return out_dha.status();
    cert.min_output = std::move(out_dha).value();
    Result<std::vector<uint32_t>> qblock = ReadU32List(reader, "qblock");
    if (!qblock.ok()) return qblock.status();
    cert.min.qblock = std::move(qblock).value();
    Result<std::vector<uint32_t>> hblock = ReadU32List(reader, "hblock");
    if (!hblock.ok()) return hblock.status();
    cert.min.hblock = std::move(hblock).value();
    Result<std::vector<std::string>> tail = reader.Next();
    if (!tail.ok()) return tail.status();
    if (tail->size() != 1 || (*tail)[0] != "end") {
      return Status::InvalidArgument("expected 'end' trailer");
    }
    return cert;
  }

  Result<std::string> input_text = ReadEmbedded(reader, "input");
  if (!input_text.ok()) return input_text.status();
  Result<Nha> input = automata::DeserializeNha(*input_text, vocab);
  if (!input.ok()) return input.status();
  cert.input = std::move(input).value();

  if (cert.kind == CertificateKind::kContainment) {
    Result<std::string> q1_text = ReadEmbedded(reader, "q1");
    if (!q1_text.ok()) return q1_text.status();
    cert.q1_text = std::move(q1_text).value();
    Result<std::string> q2_text = ReadEmbedded(reader, "q2");
    if (!q2_text.ok()) return q2_text.status();
    cert.q2_text = std::move(q2_text).value();
    Result<query::SelectionQuery> q1 =
        query::ParseSelectionQuery(StripAsciiWhitespace(cert.q1_text), vocab);
    if (!q1.ok()) return q1.status();
    cert.q1 = std::move(q1).value();
    Result<query::SelectionQuery> q2 =
        query::ParseSelectionQuery(StripAsciiWhitespace(cert.q2_text), vocab);
    if (!q2.ok()) return q2.status();
    cert.q2 = std::move(q2).value();
    Result<std::vector<std::string>> verdict = reader.Next();
    if (!verdict.ok()) return verdict.status();
    if (verdict->size() != 2 || (*verdict)[0] != "verdict" ||
        ((*verdict)[1] != "contained" && (*verdict)[1] != "separated")) {
      return Status::InvalidArgument(
          "expected 'verdict contained|separated'");
    }
    cert.containment.contained = (*verdict)[1] == "contained";
    Result<std::string> product_text = ReadEmbedded(reader, "product");
    if (!product_text.ok()) return product_text.status();
    Result<Nha> product = automata::DeserializeNha(*product_text, vocab);
    if (!product.ok()) return product.status();
    cert.cont.product = std::move(product).value();
    Result<std::vector<std::string>> m1 = reader.Next();
    if (!m1.ok()) return m1.status();
    Result<Bitset> m1_bits = ReadBitset(*m1, "marked1");
    if (!m1_bits.ok()) return m1_bits.status();
    cert.cont.marked1 = BitsetToBools(*m1_bits);
    Result<std::vector<std::string>> m2 = reader.Next();
    if (!m2.ok()) return m2.status();
    Result<Bitset> m2_bits = ReadBitset(*m2, "marked2");
    if (!m2_bits.ok()) return m2_bits.status();
    cert.cont.marked2 = BitsetToBools(*m2_bits);
    Result<std::vector<std::string>> next = reader.Next();
    if (!next.ok()) return next.status();
    if (next->size() == 2 && (*next)[0] == "counterexample") {
      Result<uint32_t> count = ParseU32((*next)[1]);
      if (!count.ok()) return count.status();
      Result<std::string> doc_text = reader.TakeLines(*count);
      if (!doc_text.ok()) return doc_text.status();
      Result<hedge::Hedge> doc = hedge::ParseHedge(*doc_text, vocab);
      if (!doc.ok()) return doc.status();
      Result<std::vector<std::string>> located = reader.Next();
      if (!located.ok()) return located.status();
      if (located->size() != 2 || (*located)[0] != "located") {
        return Status::InvalidArgument("expected 'located <node>'");
      }
      Result<uint32_t> node = ParseU32((*located)[1]);
      if (!node.ok()) return node.status();
      cert.containment.counterexample =
          schema::SampleMatch{std::move(doc).value(), *node};
      next = reader.Next();
      if (!next.ok()) return next.status();
    }
    if (next->size() != 1 || (*next)[0] != "end") {
      return Status::InvalidArgument("expected 'end' trailer");
    }
    return cert;
  }

  if (cert.kind == CertificateKind::kFromNha) {
    Result<std::string> hre_text = ReadEmbedded(reader, "hre");
    if (!hre_text.ok()) return hre_text.status();
    Result<hre::Hre> output =
        hre::ParseHre(StripAsciiWhitespace(*hre_text), vocab);
    if (!output.ok()) return output.status();
    cert.fn_output = std::move(output).value();
    cert.fn.result = cert.fn_output;
    Result<std::vector<std::string>> splits_header = reader.Next();
    if (!splits_header.ok()) return splits_header.status();
    if (splits_header->size() != 2 || (*splits_header)[0] != "splits") {
      return Status::InvalidArgument("expected 'splits <count>'");
    }
    Result<uint32_t> num_splits = ParseU32((*splits_header)[1]);
    if (!num_splits.ok()) return num_splits.status();
    for (uint32_t i = 0; i < *num_splits; ++i) {
      Result<std::vector<std::string>> fields = reader.Next();
      if (!fields.ok()) return fields.status();
      if (fields->size() != 4 || (*fields)[0] != "split") {
        return Status::InvalidArgument(
            "expected 'split <symbol> <state> <subst>'");
      }
      Result<uint32_t> state = ParseU32((*fields)[2]);
      if (!state.ok()) return state.status();
      cert.fn.splits.emplace_back(vocab.symbols.Intern((*fields)[1]), *state);
      cert.fn.substs.push_back(vocab.substs.Intern((*fields)[3]));
    }
    Result<std::vector<std::string>> entries_header = reader.Next();
    if (!entries_header.ok()) return entries_header.status();
    if (entries_header->size() != 2 || (*entries_header)[0] != "entries") {
      return Status::InvalidArgument("expected 'entries <count>'");
    }
    Result<uint32_t> num_entries = ParseU32((*entries_header)[1]);
    if (!num_entries.ok()) return num_entries.status();
    for (uint32_t i = 0; i < *num_entries; ++i) {
      Result<std::vector<std::string>> fields = reader.Next();
      if (!fields.ok()) return fields.status();
      if (fields->size() != 5 || (*fields)[0] != "entry") {
        return Status::InvalidArgument(
            "expected 'entry <c> <q1> <q2> <line-count>'");
      }
      Result<uint32_t> c = ParseU32((*fields)[1]);
      if (!c.ok()) return c.status();
      Result<uint64_t> q1 = ParseU64((*fields)[2]);
      if (!q1.ok()) return q1.status();
      Result<uint64_t> q2 = ParseU64((*fields)[3]);
      if (!q2.ok()) return q2.status();
      Result<uint32_t> count = ParseU32((*fields)[4]);
      if (!count.ok()) return count.status();
      Result<std::string> expr_text = reader.TakeLines(*count);
      if (!expr_text.ok()) return expr_text.status();
      Result<hre::Hre> expr =
          hre::ParseHre(StripAsciiWhitespace(*expr_text), vocab);
      if (!expr.ok()) return expr.status();
      cert.fn.entries.push_back(hre::FromNhaWitness::Entry{
          *c, *q1, *q2, std::move(expr).value()});
    }
    Result<std::vector<std::string>> tail = reader.Next();
    if (!tail.ok()) return tail.status();
    if (tail->size() != 1 || (*tail)[0] != "end") {
      return Status::InvalidArgument("expected 'end' trailer");
    }
    return cert;
  }

  if (cert.kind == CertificateKind::kAlgebra) {
    Result<std::vector<std::string>> op = reader.Next();
    if (!op.ok()) return op.status();
    if (op->size() != 2 || (*op)[0] != "op") {
      return Status::InvalidArgument(
          "expected 'op intersect|union|difference'");
    }
    if ((*op)[1] == "intersect") {
      cert.alg.op = schema::AlgebraOp::kIntersect;
    } else if ((*op)[1] == "union") {
      cert.alg.op = schema::AlgebraOp::kUnion;
    } else if ((*op)[1] == "difference") {
      cert.alg.op = schema::AlgebraOp::kDifference;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown algebra op '", (*op)[1], "'"));
    }
    Result<std::string> operand_text = ReadEmbedded(reader, "operand");
    if (!operand_text.ok()) return operand_text.status();
    Result<Nha> operand = automata::DeserializeNha(*operand_text, vocab);
    if (!operand.ok()) return operand.status();
    cert.alg_b = std::move(operand).value();
    Result<std::string> output_text = ReadEmbedded(reader, "output");
    if (!output_text.ok()) return output_text.status();
    Result<Nha> output = automata::DeserializeNha(*output_text, vocab);
    if (!output.ok()) return output.status();
    cert.alg_out = std::move(output).value();
    if (cert.alg.op == schema::AlgebraOp::kUnion) {
      Result<std::vector<std::string>> offsets = reader.Next();
      if (!offsets.ok()) return offsets.status();
      if (offsets->size() != 3 || (*offsets)[0] != "offsets") {
        return Status::InvalidArgument("expected 'offsets <a> <b>'");
      }
      Result<uint32_t> oa = ParseU32((*offsets)[1]);
      if (!oa.ok()) return oa.status();
      Result<uint32_t> ob = ParseU32((*offsets)[2]);
      if (!ob.ok()) return ob.status();
      cert.alg.offset_a = *oa;
      cert.alg.offset_b = *ob;
    } else {
      if (cert.alg.op == schema::AlgebraOp::kDifference) {
        Result<std::string> comp_text = ReadEmbedded(reader, "complement");
        if (!comp_text.ok()) return comp_text.status();
        Result<Nha> comp = automata::DeserializeNha(*comp_text, vocab);
        if (!comp.ok()) return comp.status();
        cert.alg.complement = std::move(comp).value();
      }
      Result<std::string> product_text = ReadEmbedded(reader, "product");
      if (!product_text.ok()) return product_text.status();
      Result<Nha> product = automata::DeserializeNha(*product_text, vocab);
      if (!product.ok()) return product.status();
      cert.alg.product = std::move(product).value();
      HEDGEQ_RETURN_IF_ERROR(ReadTrimWitness(reader, &cert.alg.trim));
    }
    Result<std::vector<std::string>> tail = reader.Next();
    if (!tail.ok()) return tail.status();
    if (tail->size() != 1 || (*tail)[0] != "end") {
      return Status::InvalidArgument("expected 'end' trailer");
    }
    return cert;
  }

  if (cert.kind == CertificateKind::kDeterminize) {
    Result<std::string> dha_text = ReadEmbedded(reader, "dha");
    if (!dha_text.ok()) return dha_text.status();
    Result<Dha> dha = automata::DeserializeDha(*dha_text, vocab);
    if (!dha.ok()) return dha.status();
    cert.dha = std::move(dha).value();
    Result<std::vector<Bitset>> subsets = ReadBitsetList(reader, "subsets");
    if (!subsets.ok()) return subsets.status();
    cert.subsets = std::move(subsets).value();
    Result<std::vector<Bitset>> h_sets = ReadBitsetList(reader, "hsets");
    if (!h_sets.ok()) return h_sets.status();
    cert.det.h_sets = std::move(h_sets).value();
    Result<std::vector<Bitset>> final_sets =
        ReadBitsetList(reader, "finalsets");
    if (!final_sets.ok()) return final_sets.status();
    cert.det.final_sets = std::move(final_sets).value();
    // Optional trailing digest chain (absent in pre-chain certificates).
    Result<std::vector<std::string>> next = reader.Next();
    if (!next.ok()) return next.status();
    if (next->size() == 2 && (*next)[0] == "digestchain") {
      Result<uint32_t> count = ParseU32((*next)[1]);
      if (!count.ok()) return count.status();
      cert.det.chain.reserve(*count);
      for (uint32_t i = 0; i < *count; ++i) {
        Result<std::vector<std::string>> link = reader.Next();
        if (!link.ok()) return link.status();
        if (link->size() != 1) {
          return Status::InvalidArgument("expected one digest per line");
        }
        cert.det.chain.push_back(std::move((*link)[0]));
      }
      next = reader.Next();
      if (!next.ok()) return next.status();
    }
    if (next->size() != 1 || (*next)[0] != "end") {
      return Status::InvalidArgument("expected 'end' trailer");
    }
    return cert;
  }

  Result<std::string> trimmed_text = ReadEmbedded(reader, "trimmed");
  if (!trimmed_text.ok()) return trimmed_text.status();
  Result<Nha> trimmed = automata::DeserializeNha(*trimmed_text, vocab);
  if (!trimmed.ok()) return trimmed.status();
  cert.trimmed = std::move(trimmed).value();
  HEDGEQ_RETURN_IF_ERROR(ReadTrimWitness(reader, &cert.trim));

  Result<std::vector<std::string>> tail = reader.Next();
  if (!tail.ok()) return tail.status();
  if (tail->size() != 1 || (*tail)[0] != "end") {
    return Status::InvalidArgument("expected 'end' trailer");
  }
  return cert;
}

}  // namespace hedgeq::verify
