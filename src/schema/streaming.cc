#include "schema/streaming.h"

#include "automata/streaming.h"
#include "obs/catalogue.h"
#include "obs/obs.h"
#include "util/failpoint.h"

namespace hedgeq::schema {

namespace {

// Adapts SAX events onto the streaming run of either engine.
template <typename Automaton>
class ValidatorHandler : public xml::XmlHandler {
 public:
  explicit ValidatorHandler(const Automaton& automaton) : run_(automaton) {}

  Status StartElement(hedge::SymbolId name) override {
    ++events_;
    run_.StartElement(name);
    return Status::Ok();
  }
  Status EndElement(hedge::SymbolId name) override {
    ++events_;
    run_.EndElement(name);
    return Status::Ok();
  }
  Status Text(hedge::VarId variable, std::string_view) override {
    ++events_;
    run_.Text(variable);
    return Status::Ok();
  }

  bool Accepted() const { return run_.Accepted(); }
  size_t events() const { return events_; }
  size_t max_depth() const { return run_.max_depth(); }

 private:
  automata::StreamingRun<Automaton> run_;
  size_t events_ = 0;
};

}  // namespace

Result<StreamingValidator> StreamingValidator::Create(
    const Schema& schema, const ExecBudget& budget) {
  HEDGEQ_FAILPOINT("streaming/create");
  BudgetScope scope(budget);
  Result<automata::HedgeEngine> engine =
      automata::HedgeEngine::Create(schema.nha(), scope);
  if (!engine.ok()) return engine.status();
  return StreamingValidator(std::move(engine).value());
}

Result<bool> StreamingValidator::Validate(
    std::string_view xml_text, hedge::Vocabulary& vocab,
    const xml::XmlParseOptions& options) const {
  Result<Validation> v = ValidateWithStats(xml_text, vocab, options);
  if (!v.ok()) return v.status();
  return v->valid;
}

Result<StreamingValidator::Validation> StreamingValidator::ValidateWithStats(
    std::string_view xml_text, hedge::Vocabulary& vocab,
    const xml::XmlParseOptions& options) const {
  HEDGEQ_OBS_SPAN(span, obs::spans::kSchemaValidate);
  // A lazy engine is shared and const here, so per-run expenditure is a
  // stats delta rather than a reset of the shared counters (which would
  // race with concurrent validations).
  const automata::EvalStats before = engine_.stats();
  Validation out;
  size_t events = 0;
  size_t max_depth = 0;
  Status parse = engine_.Visit([&](const auto& automaton) {
    ValidatorHandler handler(automaton);
    Status status = xml::ParseXmlStream(xml_text, vocab, handler, options);
    out.valid = handler.Accepted();
    events = handler.events();
    max_depth = handler.max_depth();
    return status;
  });
  if (!parse.ok()) return parse;
  out.stats = automata::EvalStats::Delta(before, engine_.stats());
  if (obs::Enabled()) {
    const bool lazy = engine_.fallback_used();
    HEDGEQ_OBS_COUNT(obs::metrics::kSchemaValidateEvents, events);
    if (lazy) HEDGEQ_OBS_COUNT(obs::metrics::kSchemaValidateFallbackRuns, 1);
    HEDGEQ_OBS_GAUGE_MAX(obs::metrics::kSchemaValidateMaxDepth, max_depth);
    span.AddArg("events", events);
    span.AddArg("valid", out.valid ? 1 : 0);
    span.AddArg("lazy", lazy ? 1 : 0);
  }
  return out;
}

}  // namespace hedgeq::schema
