#ifndef HEDGEQ_SCHEMA_STREAMING_H_
#define HEDGEQ_SCHEMA_STREAMING_H_

#include <optional>
#include <string_view>

#include "automata/engine.h"
#include "schema/schema.h"
#include "util/budget.h"
#include "xml/xml.h"

namespace hedgeq::schema {

/// Streaming schema validation: determinize once, then validate XML text of
/// any size in O(element depth) memory — no tree is built. The RELAX-style
/// use case of hedge automata.
///
/// Robustness: when eager determinization exceeds `budget`, Create degrades
/// to an on-the-fly subset-simulation engine (automata::LazyDha) whose
/// memo is capped and restarts between events from the O(element depth)
/// sets the run holds, so the validator always comes up — validation then
/// computes a subset step per new event instead of reading a full table.
/// fallback_used() tells which engine answered; ValidateWithStats also
/// reports the lazy engine's expenditure.
class StreamingValidator {
 public:
  /// Determinizes the schema (worst-case exponential preprocessing; real
  /// schemas are small — experiment E3). On kResourceExhausted falls back
  /// to the lazy engine; other errors propagate.
  static Result<StreamingValidator> Create(const Schema& schema,
                                           const ExecBudget& budget = {});

  /// Parses and validates in one pass. kInvalidArgument for malformed XML;
  /// otherwise the validity verdict.
  Result<bool> Validate(std::string_view xml_text, hedge::Vocabulary& vocab,
                        const xml::XmlParseOptions& options = {}) const;

  /// As Validate, also reporting which engine ran and what it spent.
  struct Validation {
    bool valid = false;
    automata::EvalStats stats;
  };
  Result<Validation> ValidateWithStats(
      std::string_view xml_text, hedge::Vocabulary& vocab,
      const xml::XmlParseOptions& options = {}) const;

  /// True when the eager determinization blew the budget and the lazy
  /// engine validates instead.
  bool fallback_used() const { return engine_.fallback_used(); }

  /// The eager automaton; empty when the lazy engine validates instead.
  const std::optional<automata::Dha>& dha() const { return engine_.dha(); }

 private:
  explicit StreamingValidator(automata::HedgeEngine engine)
      : engine_(std::move(engine)) {}

  automata::HedgeEngine engine_;
};

}  // namespace hedgeq::schema

#endif  // HEDGEQ_SCHEMA_STREAMING_H_
