#include "serve/serve.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/catalogue.h"
#include "obs/obs.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace hedgeq::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// Serializes a thread-compatible DeterminizeCache behind an external
/// mutex. The engine shares the mutex with its vocabulary lock because the
/// wrapped cache renders entry keys through the vocabulary, and interning
/// from a concurrently parsing worker would race those reads.
class LockedCache : public automata::DeterminizeCache {
 public:
  LockedCache(automata::DeterminizeCache* inner, std::mutex* mu)
      : inner_(inner), mu_(mu) {}

  bool Lookup(const automata::Nha& input, automata::Determinized* out,
              automata::DeterminizeWitness* witness) override {
    std::lock_guard<std::mutex> lock(*mu_);
    return inner_->Lookup(input, out, witness);
  }
  void Store(const automata::Nha& input, const automata::Determinized& out,
             const automata::DeterminizeWitness& witness) override {
    std::lock_guard<std::mutex> lock(*mu_);
    inner_->Store(input, out, witness);
  }

 private:
  automata::DeterminizeCache* inner_;
  std::mutex* mu_;
};

}  // namespace

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kRetried:
      return "retried";
    case Outcome::kShed:
      return "shed";
    case Outcome::kError:
      return "error";
  }
  return "error";
}

Engine::Engine(hedge::Vocabulary& vocab, EngineOptions options)
    : vocab_(vocab), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_cap == 0) options_.queue_cap = 1;
  if (options_.retry.max_attempts < 1) options_.retry.max_attempts = 1;
  if (options_.breaker.failure_threshold < 1) {
    options_.breaker.failure_threshold = 1;
  }
}

Engine::~Engine() { Stop(); }

void Engine::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  // Wrap the process determinize-cache hook for the pool's lifetime; the
  // installed cache (hq's AutomatonCache) is thread-compatible only.
  if (automata::DeterminizeCache* prev = automata::GetDeterminizeCache()) {
    prev_cache_ = prev;
    locked_cache_ = std::make_unique<LockedCache>(prev, &vocab_mu_);
    automata::SetDeterminizeCache(locked_cache_.get());
  }
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Engine::ShedNow(std::promise<Response>* promise, Status status,
                     uint64_t queue_wait_us) {
  Response resp;
  resp.outcome = Outcome::kShed;
  resp.status = std::move(status);
  resp.queue_wait_us = queue_wait_us;
  tallies_.shed.fetch_add(1, std::memory_order_relaxed);
  tallies_.completed.fetch_add(1, std::memory_order_relaxed);
  HEDGEQ_OBS_COUNT(obs::metrics::kServeShed, 1);
  promise->set_value(std::move(resp));
}

std::future<Response> Engine::Submit(std::string query_text,
                                     std::string label) {
  tallies_.submitted.fetch_add(1, std::memory_order_relaxed);
  Item item;
  item.query = std::move(query_text);
  item.label = std::move(label);
  item.enqueue = Clock::now();
  if (options_.deadline_set) {
    // Re-armed per request at admission: the deadline window covers this
    // request's queue wait + execution, never a previous request's.
    item.deadline =
        item.enqueue + std::chrono::milliseconds(
                           static_cast<int64_t>(options_.deadline_ms));
  }
  std::future<Response> future = item.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ || stopping_) {
      ShedNow(&item.promise, Status::FailedPrecondition("shed: draining"), 0);
      return future;
    }
    if (queue_.size() >= options_.queue_cap) {
      ShedNow(&item.promise,
              Status::ResourceExhausted(StrCat(
                  "shed: admission queue full (cap ", options_.queue_cap,
                  ")")),
              0);
      return future;
    }
    item.id = next_id_++;
    queue_.push_back(std::move(item));
    HEDGEQ_OBS_GAUGE_SET(obs::metrics::kServeQueueDepth, queue_.size());
  }
  tallies_.admitted.fetch_add(1, std::memory_order_relaxed);
  HEDGEQ_OBS_COUNT(obs::metrics::kServeAdmitted, 1);
  cv_.notify_one();
  return future;
}

void Engine::WorkerLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      item = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
      HEDGEQ_OBS_GAUGE_SET(obs::metrics::kServeQueueDepth, queue_.size());
    }
    Response resp = Process(item);
    // Tally before resolving the future: a caller that sees its future
    // ready must also see the outcome reflected in counters().
    switch (resp.outcome) {
      case Outcome::kOk:
        tallies_.ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::kDegraded:
        tallies_.degraded.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::kRetried:
        tallies_.retried.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::kShed:
        tallies_.shed.fetch_add(1, std::memory_order_relaxed);
        HEDGEQ_OBS_COUNT(obs::metrics::kServeShed, 1);
        break;
      case Outcome::kError:
        tallies_.errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    tallies_.completed.fetch_add(1, std::memory_order_relaxed);
    item.promise.set_value(std::move(resp));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    idle_cv_.notify_all();
  }
}

Response Engine::Process(Item& item) {
  Response resp;
  obs::QueryScope scope(item.label.empty() ? item.query : item.label);
  const Clock::time_point popped = Clock::now();
  resp.queue_wait_us = MicrosBetween(item.enqueue, popped);
  HEDGEQ_OBS_OBSERVE(obs::metrics::kHistQueueWaitUs, resp.queue_wait_us);
  if (item.deadline != Clock::time_point{} && popped >= item.deadline) {
    // Queue-time deadline: the request waited its whole window in the
    // queue, so it is shed without ever executing.
    resp.outcome = Outcome::kShed;
    resp.status = Status::DeadlineExceeded(
        StrCat("shed: queue wait ", resp.queue_wait_us,
               "us exceeded the request deadline; never executed"));
  } else {
    ExecuteWithRetry(item, &resp);
  }
  scope.Annotate("outcome", OutcomeName(resp.outcome));
  if (resp.breaker_was_open) scope.Annotate("breaker", "open");
  resp.scope = scope.Snapshot();
  return resp;
}

void Engine::ExecuteWithRetry(const Item& item, Response* resp) {
  uint64_t backoff_ms = options_.retry.backoff_base_ms;
  for (int attempt = 1;; ++attempt) {
    resp->attempts = attempt;
    // The engine's transient-fault site: a stand-in for flaky per-request
    // resource acquisition (scratch files, network fetches). Only failures
    // injected *here* are retryable; everything surfaced by execution
    // itself is semantic or a deadline.
    Status transient = failpoint::Check("serve/exec");
    Status status =
        transient.ok() ? ExecuteOnce(item, resp) : std::move(transient);
    if (status.ok()) {
      if (attempt > 1) {
        resp->outcome = Outcome::kRetried;
      } else if (resp->degraded) {
        resp->outcome = Outcome::kDegraded;
      } else {
        resp->outcome = Outcome::kOk;
      }
      return;
    }
    if (status.code() == StatusCode::kDeadlineExceeded) {
      resp->outcome = Outcome::kShed;
      resp->status = std::move(status);
      return;
    }
    const bool retryable = !transient.ok();
    if (!retryable || attempt >= options_.retry.max_attempts) {
      resp->outcome = Outcome::kError;
      resp->status = std::move(status);
      return;
    }
    const Clock::time_point wake =
        Clock::now() + std::chrono::milliseconds(
                           static_cast<int64_t>(backoff_ms));
    if (item.deadline != Clock::time_point{} && wake >= item.deadline) {
      resp->outcome = Outcome::kShed;
      resp->status = Status::DeadlineExceeded(
          "shed: retry backoff would exceed the request deadline");
      return;
    }
    tallies_.retry_attempts.fetch_add(1, std::memory_order_relaxed);
    HEDGEQ_OBS_COUNT(obs::metrics::kServeRetry, 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(backoff_ms)));
    backoff_ms = std::min(backoff_ms * 2, options_.retry.backoff_max_ms);
    if (backoff_ms == 0) backoff_ms = 1;
  }
}

Status Engine::ExecuteOnce(const Item& item, Response* resp) {
  resp->answer.clear();
  resp->located = 0;
  resp->degraded = false;
  resp->breaker_was_open = false;

  std::shared_ptr<const xml::XmlDocument> doc;
  {
    std::lock_guard<std::mutex> lock(doc_mu_);
    doc = doc_;
  }
  if (doc == nullptr) {
    return Status::FailedPrecondition(
        "no document loaded (use 'load' or 'gen' first)");
  }

  std::optional<query::SelectionQuery> query;
  {
    std::lock_guard<std::mutex> lock(vocab_mu_);
    Result<query::SelectionQuery> parsed =
        query::ParseSelectionQuery(item.query, vocab_);
    if (!parsed.ok()) return parsed.status();
    query.emplace(std::move(*parsed));
  }

  // Memo first: a memoized evaluator is an eager-clean, already-proven
  // artifact, so it is served even while the breaker is open.
  std::shared_ptr<const query::SelectionEvaluator> eval;
  if (options_.memoize) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(item.query);
    if (it != memo_.end()) eval = it->second;
  }

  if (eval == nullptr) {
    const ExecMode mode = BreakerAdmit();
    resp->breaker_was_open = mode == ExecMode::kLazyOnly;
    ExecBudget budget = options_.budget;
    budget.deadline = item.deadline;  // {} = none
    budget.cancel = &cancel_;
    if (mode == ExecMode::kLazyOnly) {
      // Starve the eager stages so Create degrades straight to the lazy
      // engines without paying for exponential preprocessing.
      budget.max_states = 1;
    }
    Result<query::SelectionEvaluator> created =
        query::SelectionEvaluator::Create(*query, budget);
    if (!created.ok()) {
      if (mode != ExecMode::kLazyOnly) BreakerReport(mode, false);
      return created.status();
    }
    auto owned = std::make_shared<query::SelectionEvaluator>(
        std::move(*created));
    const bool fallback = owned->fallback_used();
    if (mode != ExecMode::kLazyOnly) BreakerReport(mode, !fallback);
    resp->degraded = fallback || mode == ExecMode::kLazyOnly;
    if (options_.memoize && !resp->degraded) {
      std::lock_guard<std::mutex> lock(memo_mu_);
      memo_.emplace(item.query, owned);
    }
    eval = std::move(owned);
  }

  // Execution-time deadline probe: Locate is linear and infallible, so the
  // deadline is enforced at its boundaries (plus inside every budgeted
  // Create above).
  if (cancel_.cancelled()) {
    return Status::DeadlineExceeded("shed: engine cancelled");
  }
  if (item.deadline != Clock::time_point{} &&
      Clock::now() >= item.deadline) {
    return Status::DeadlineExceeded(
        "shed: deadline passed before evaluation");
  }

  const std::vector<hedge::NodeId> nodes = eval->LocatedNodes(doc->hedge);
  resp->located = nodes.size();
  {
    std::lock_guard<std::mutex> lock(vocab_mu_);
    resp->answer.reserve(nodes.size());
    for (hedge::NodeId n : nodes) {
      resp->answer.push_back(
          StrCat(doc->hedge.DeweyString(n), "\t",
                 vocab_.symbols.NameOf(doc->hedge.label(n).id)));
    }
  }
  return Status::Ok();
}

Engine::ExecMode Engine::BreakerAdmit() {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  switch (breaker_state_) {
    case BreakerState::kClosed:
      return ExecMode::kEager;
    case BreakerState::kOpen: {
      const auto open_for = Clock::now() - breaker_opened_at_;
      if (open_for >= std::chrono::milliseconds(
                          static_cast<int64_t>(options_.breaker.open_ms))) {
        breaker_state_ = BreakerState::kHalfOpen;
        breaker_probe_inflight_ = true;
        return ExecMode::kProbe;
      }
      return ExecMode::kLazyOnly;
    }
    case BreakerState::kHalfOpen:
      if (!breaker_probe_inflight_) {
        breaker_probe_inflight_ = true;
        return ExecMode::kProbe;
      }
      return ExecMode::kLazyOnly;
  }
  return ExecMode::kEager;
}

void Engine::BreakerReport(ExecMode mode, bool eager_ok) {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (mode == ExecMode::kProbe) {
    breaker_probe_inflight_ = false;
    if (eager_ok) {
      breaker_state_ = BreakerState::kClosed;
      breaker_failures_ = 0;
    } else {
      breaker_state_ = BreakerState::kOpen;
      breaker_opened_at_ = Clock::now();
      tallies_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
      HEDGEQ_OBS_COUNT(obs::metrics::kServeBreakerOpen, 1);
    }
    return;
  }
  if (eager_ok) {
    breaker_failures_ = 0;
    return;
  }
  if (breaker_state_ == BreakerState::kClosed &&
      ++breaker_failures_ >= options_.breaker.failure_threshold) {
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = Clock::now();
    tallies_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
    HEDGEQ_OBS_COUNT(obs::metrics::kServeBreakerOpen, 1);
  }
}

Result<size_t> Engine::LoadDocumentFile(const std::string& path) {
  uint64_t backoff_ms = options_.retry.backoff_base_ms;
  for (int attempt = 1;; ++attempt) {
    Status transient = failpoint::Check("serve/load-doc");
    if (transient.ok()) {
      Result<size_t> loaded = LoadDocumentOnce(path);
      if (loaded.ok()) return loaded;
      // Parse and read errors are semantic: the file will not get better
      // by waiting. Only injected serve/load-doc faults model transient
      // I/O and retry.
      return loaded;
    }
    if (attempt >= options_.retry.max_attempts) {
      return transient;
    }
    tallies_.retry_attempts.fetch_add(1, std::memory_order_relaxed);
    HEDGEQ_OBS_COUNT(obs::metrics::kServeRetry, 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(backoff_ms)));
    backoff_ms = std::min(backoff_ms * 2, options_.retry.backoff_max_ms);
    if (backoff_ms == 0) backoff_ms = 1;
  }
}

Result<size_t> Engine::LoadDocumentOnce(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::NotFound(StrCat("read failed on '", path, "'"));
  const std::string text = buffer.str();
  WaitIdle();
  xml::XmlDocument doc;
  {
    std::lock_guard<std::mutex> lock(vocab_mu_);
    Result<xml::XmlDocument> parsed = xml::ParseXml(text, vocab_);
    if (!parsed.ok()) return parsed.status();
    doc = std::move(*parsed);
  }
  const size_t nodes = doc.hedge.num_nodes();
  {
    std::lock_guard<std::mutex> lock(doc_mu_);
    doc_ = std::make_shared<const xml::XmlDocument>(std::move(doc));
  }
  return nodes;
}

size_t Engine::SetDocument(xml::XmlDocument doc) {
  WaitIdle();
  const size_t nodes = doc.hedge.num_nodes();
  std::lock_guard<std::mutex> lock(doc_mu_);
  doc_ = std::make_shared<const xml::XmlDocument>(std::move(doc));
  return nodes;
}

bool Engine::has_document() const {
  std::lock_guard<std::mutex> lock(doc_mu_);
  return doc_ != nullptr;
}

std::shared_ptr<const xml::XmlDocument> Engine::document() const {
  std::lock_guard<std::mutex> lock(doc_mu_);
  return doc_;
}

void Engine::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
}

void Engine::Drain() {
  bool need_start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    // Requests queued before Start are still owed a terminal outcome, so
    // drain brings the pool up to flush them. Start() is idempotent.
    need_start = !started_ && !queue_.empty();
  }
  if (need_start) Start();
  cv_.notify_all();
  WaitIdle();
}

void Engine::Stop() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  if (locked_cache_ != nullptr) {
    automata::SetDeterminizeCache(prev_cache_);
    locked_cache_.reset();
    prev_cache_ = nullptr;
  }
}

void Engine::CancelAll() { cancel_.Cancel(); }

Engine::Counters Engine::counters() const {
  Counters out;
  out.submitted = tallies_.submitted.load(std::memory_order_relaxed);
  out.admitted = tallies_.admitted.load(std::memory_order_relaxed);
  out.completed = tallies_.completed.load(std::memory_order_relaxed);
  out.ok = tallies_.ok.load(std::memory_order_relaxed);
  out.degraded = tallies_.degraded.load(std::memory_order_relaxed);
  out.retried = tallies_.retried.load(std::memory_order_relaxed);
  out.shed = tallies_.shed.load(std::memory_order_relaxed);
  out.errors = tallies_.errors.load(std::memory_order_relaxed);
  out.retry_attempts =
      tallies_.retry_attempts.load(std::memory_order_relaxed);
  out.breaker_trips =
      tallies_.breaker_trips.load(std::memory_order_relaxed);
  return out;
}

Engine::BreakerState Engine::breaker_state() const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return breaker_state_;
}

}  // namespace hedgeq::serve
