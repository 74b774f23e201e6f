#include "session/session.hpp"

#include <chrono>

#include "common/error.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"

namespace disco::session {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::Pending:
      return "pending";
    case SessionState::Complete:
      return "complete";
    case SessionState::Failed:
      return "failed";
    case SessionState::Cancelled:
      return "cancelled";
  }
  return "?";
}

namespace detail {

struct Session {
  uint64_t id = 0;
  std::string text;
  double deadline_s = std::numeric_limits<double>::infinity();

  mutable std::mutex mutex;
  mutable std::condition_variable changed;
  SessionState state = SessionState::Pending;
  bool started = false;  ///< the initial run happened
  /// Accumulated data rows of the partial answer so far.
  std::vector<Value> items;
  /// Residual queries still outstanding.
  std::vector<oql::ExprPtr> residuals;
  /// The first run's answer was a partial select distinct: the merged
  /// items collapse to distinct ones (Answer::distinct).
  bool distinct = false;
  /// Set once the session completes; for answers that complete on the
  /// first run this preserves their exact shape (local-mode scalar
  /// results are not bags).
  std::unique_ptr<Answer> final_answer;
  QueryStats stats;  ///< run stats accumulated across (re)submissions
  uint32_t resubmissions = 0;
  std::string error;
  std::vector<std::function<void(const Answer&)>> callbacks;
  std::vector<std::function<void(const Answer&)>> progress_callbacks;
  std::vector<std::function<void(SessionState)>> settled_callbacks;

  /// Must hold mutex. Best current answer in §4 form.
  Answer snapshot_locked() const {
    if (state == SessionState::Failed) {
      throw ExecutionError("query session failed: " + error);
    }
    if (final_answer != nullptr) return *final_answer;
    std::vector<oql::ExprPtr> rest = residuals;
    if (rest.empty() && !started) {
      // Not yet executed: the whole query is residual.
      rest.push_back(oql::parse(text));
    }
    if (rest.empty()) {
      return Answer::complete_answer(Value::bag(items), stats);
    }
    return Answer::partial_answer(Value::bag(items), std::move(rest), stats,
                                  distinct);
  }

  void accumulate(const QueryStats& run) {
    stats.run += run.run;
    stats.plans_considered += run.plans_considered;
    stats.estimated = run.estimated;
    stats.local_mode = run.local_mode;
  }
};

}  // namespace detail

// -------------------------------------------------------------- QueryHandle --

namespace {

const detail::Session& deref(
    const std::shared_ptr<detail::Session>& session) {
  internal_check(session != nullptr, "empty QueryHandle");
  return *session;
}

}  // namespace

uint64_t QueryHandle::id() const { return deref(session_).id; }

const std::string& QueryHandle::text() const { return deref(session_).text; }

SessionState QueryHandle::state() const {
  const detail::Session& s = deref(session_);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.state;
}

Answer QueryHandle::snapshot() const {
  const detail::Session& s = deref(session_);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.snapshot_locked();
}

Answer QueryHandle::wait() const {
  const detail::Session& s = deref(session_);
  std::unique_lock<std::mutex> lock(s.mutex);
  s.changed.wait(lock, [&] { return s.state != SessionState::Pending; });
  if (s.state == SessionState::Cancelled) {
    throw ExecutionError("query session was cancelled");
  }
  return s.snapshot_locked();  // throws for Failed
}

bool QueryHandle::wait_for(double seconds) const {
  const detail::Session& s = deref(session_);
  std::unique_lock<std::mutex> lock(s.mutex);
  return s.changed.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [&] { return s.state != SessionState::Pending; });
}

void QueryHandle::on_complete(std::function<void(const Answer&)> callback) {
  internal_check(static_cast<bool>(callback), "null completion callback");
  internal_check(session_ != nullptr, "empty QueryHandle");
  detail::Session& s = *session_;
  std::unique_lock<std::mutex> lock(s.mutex);
  if (s.state == SessionState::Complete) {
    Answer final = s.snapshot_locked();
    lock.unlock();
    callback(final);
    return;
  }
  s.callbacks.push_back(std::move(callback));
}

void QueryHandle::on_progress(std::function<void(const Answer&)> callback) {
  internal_check(static_cast<bool>(callback), "null progress callback");
  internal_check(session_ != nullptr, "empty QueryHandle");
  detail::Session& s = *session_;
  std::unique_lock<std::mutex> lock(s.mutex);
  if (s.state != SessionState::Pending) return;  // settled: never fires
  bool fire_now = s.started;
  Answer current = fire_now ? s.snapshot_locked()
                            : Answer::complete_answer(Value::bag({}), {});
  s.progress_callbacks.push_back(callback);
  lock.unlock();
  // Late subscriber: deliver the current partial state immediately. The
  // stored copy keeps firing on future runs (at-least-once semantics).
  if (fire_now) callback(current);
}

void QueryHandle::on_settled(std::function<void(SessionState)> callback) {
  internal_check(static_cast<bool>(callback), "null settled callback");
  internal_check(session_ != nullptr, "empty QueryHandle");
  detail::Session& s = *session_;
  std::unique_lock<std::mutex> lock(s.mutex);
  if (s.state != SessionState::Pending) {
    const SessionState state = s.state;
    lock.unlock();
    callback(state);
    return;
  }
  s.settled_callbacks.push_back(std::move(callback));
}

void QueryHandle::cancel() {
  internal_check(session_ != nullptr, "empty QueryHandle");
  detail::Session& s = *session_;
  std::vector<std::function<void(SessionState)>> settled;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.state != SessionState::Pending) return;
    s.state = SessionState::Cancelled;
    s.callbacks.clear();
    s.progress_callbacks.clear();
    settled = std::move(s.settled_callbacks);
    s.settled_callbacks.clear();
  }
  s.changed.notify_all();
  for (const auto& callback : settled) callback(SessionState::Cancelled);
}

uint32_t QueryHandle::resubmissions() const {
  const detail::Session& s = deref(session_);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.resubmissions;
}

std::string QueryHandle::error() const {
  const detail::Session& s = deref(session_);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.error;
}

// ------------------------------------------------------ ResubmissionManager --

ResubmissionManager::ResubmissionManager(Runner runner,
                                         SessionOptions options)
    : runner_(std::move(runner)), options_(options) {
  internal_check(static_cast<bool>(runner_), "manager needs a runner");
  internal_check(options_.retry_interval_s > 0,
                 "retry interval must be positive");
  if (options_.workers == 0) options_.workers = 1;
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { loop(); });
  }
}

ResubmissionManager::~ResubmissionManager() { stop(); }

void ResubmissionManager::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

QueryHandle ResubmissionManager::submit(std::string oql_text,
                                        double deadline_s) {
  auto session = std::make_shared<detail::Session>();
  session->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  session->text = std::move(oql_text);
  session->deadline_s = deadline_s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    internal_check(!stopping_, "submit on a stopped session manager");
    fresh_.push_back(session);
    ++stats_.submitted;
  }
  wake_.notify_all();
  return QueryHandle(session);
}

void ResubmissionManager::notify_recovery() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    recovery_signal_ = true;
  }
  wake_.notify_all();
}

size_t ResubmissionManager::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size() + fresh_.size();
}

ResubmissionManager::Stats ResubmissionManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

thread_local ResubmissionManager::ActiveRun t_active_run;

/// Scoped set/clear of the thread's ActiveRun (exception-safe).
struct RunScope {
  RunScope(uint64_t session_id, uint32_t resubmission) {
    t_active_run = {true, session_id, resubmission};
  }
  ~RunScope() { t_active_run = {}; }
};

}  // namespace

ResubmissionManager::ActiveRun ResubmissionManager::current_run() {
  return t_active_run;
}

bool ResubmissionManager::advance(
    const std::shared_ptr<detail::Session>& session) {
  detail::Session& s = *session;
  std::string query_text;
  double deadline;
  bool initial;
  uint32_t run_number = 0;
  {
    std::unique_lock<std::mutex> lock(s.mutex);
    if (s.state != SessionState::Pending) {
      std::lock_guard<std::mutex> mgr(mutex_);
      if (s.state == SessionState::Cancelled) ++stats_.cancelled;
      return true;
    }
    initial = !s.started;
    deadline = s.deadline_s;
    if (initial) {
      query_text = s.text;
    } else {
      if (options_.max_resubmissions > 0 &&
          s.resubmissions >= options_.max_resubmissions) {
        s.state = SessionState::Failed;
        s.error = "gave up after " + std::to_string(s.resubmissions) +
                  " resubmissions";
        s.callbacks.clear();
        s.progress_callbacks.clear();
        auto settled = std::move(s.settled_callbacks);
        s.settled_callbacks.clear();
        s.changed.notify_all();
        {
          std::lock_guard<std::mutex> mgr(mutex_);
          ++stats_.failed;
        }
        lock.unlock();
        for (const auto& callback : settled) {
          callback(SessionState::Failed);
        }
        return true;
      }
      // §4: re-execute only the residuals — the data part stays put.
      query_text = s.residuals.size() == 1
                       ? oql::to_oql(s.residuals.front())
                       : oql::to_oql(oql::call("union", s.residuals));
      run_number = s.resubmissions + 1;
    }
  }

  Answer answer = Answer::complete_answer(Value::bag({}), {});
  try {
    RunScope scope(s.id, run_number);
    answer = runner_(query_text, deadline);
  } catch (const std::exception& e) {
    std::vector<std::function<void(SessionState)>> settled;
    bool failed_now = false;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      if (s.state == SessionState::Pending) {
        s.state = SessionState::Failed;
        s.error = e.what();
        s.callbacks.clear();
        s.progress_callbacks.clear();
        settled = std::move(s.settled_callbacks);
        s.settled_callbacks.clear();
        failed_now = true;
      }
    }
    // Stats first, notify second: a waiter woken by the notify must see
    // the updated counters.
    if (failed_now) {
      std::lock_guard<std::mutex> mgr(mutex_);
      ++stats_.failed;
    }
    s.changed.notify_all();
    for (const auto& callback : settled) callback(SessionState::Failed);
    return true;
  }

  std::vector<std::function<void(const Answer&)>> callbacks;
  std::vector<std::function<void(const Answer&)>> progress;
  std::vector<std::function<void(SessionState)>> settled;
  Answer final = answer;
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.state != SessionState::Pending) {
      std::lock_guard<std::mutex> mgr(mutex_);
      if (s.state == SessionState::Cancelled) ++stats_.cancelled;
      return true;
    }
    if (!initial) {
      ++s.resubmissions;
      std::lock_guard<std::mutex> mgr(mutex_);
      ++stats_.resubmissions;
    }
    s.accumulate(answer.stats());
    if ((initial && answer.complete()) || !answer.data().is_collection()) {
      // Completed on the spot: keep the answer's exact shape (aggregates
      // answer scalars, not bags). A scalar on a resubmission is an
      // aggregate's whole-query residual answered in full: an aggregate
      // has no partial form, so there are no earlier rows to merge.
      s.final_answer = std::make_unique<Answer>(answer);
      s.started = true;
      done = true;
    } else {
      s.started = true;
      if (initial) s.distinct = answer.distinct();
      const std::vector<Value>& fresh_rows = answer.data().items();
      // Batch-wise merge: one reallocation per resubmission round, not
      // one per row (rounds can carry thousands of recovered rows).
      s.items.reserve(s.items.size() + fresh_rows.size());
      s.items.insert(s.items.end(), fresh_rows.begin(), fresh_rows.end());
      s.residuals = answer.residuals();
      if (s.residuals.empty()) {
        if (s.items.size() == fresh_rows.size() && answer.complete() &&
            !s.distinct) {
          s.final_answer = std::make_unique<Answer>(answer);
        } else {
          // The residuals' answers may repeat each other's items, or the
          // first run's.
          s.final_answer = std::make_unique<Answer>(Answer::complete_answer(
              s.distinct ? Value::set(s.items) : Value::bag(s.items),
              s.stats));
        }
        done = true;
      }
    }
    if (done) {
      s.state = SessionState::Complete;
      final = *s.final_answer;
      callbacks = std::move(s.callbacks);
      s.callbacks.clear();
      s.progress_callbacks.clear();
      settled = std::move(s.settled_callbacks);
      s.settled_callbacks.clear();
    } else {
      // Still Pending after this run: notify progress subscribers with
      // the updated §4 partial answer.
      progress = s.progress_callbacks;
      final = s.snapshot_locked();
    }
  }
  if (done) {
    // Stats first, notify second (see the failure path above).
    {
      std::lock_guard<std::mutex> mgr(mutex_);
      ++stats_.completed;
    }
    s.changed.notify_all();
    for (const auto& callback : callbacks) callback(final);
    for (const auto& callback : settled) callback(SessionState::Complete);
  } else {
    for (const auto& callback : progress) callback(final);
  }
  return done;
}

void ResubmissionManager::loop() {
  // Every worker runs this loop; fresh_ is the shared ready queue and
  // each session lives in exactly one place at a time (fresh_, pending_,
  // or one worker's hands), so two workers never advance one session
  // concurrently.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (recovery_signal_) {
      // A source came back (or a sweep is due): every parked partial
      // session becomes runnable.
      recovery_signal_ = false;
      fresh_.insert(fresh_.end(), pending_.begin(), pending_.end());
      pending_.clear();
      if (fresh_.size() > 1) wake_.notify_all();
    }
    if (fresh_.empty()) {
      if (pending_.empty()) {
        // Also woken when a sibling worker parks a partial session, so
        // this worker switches to the timed retry wait below.
        wake_.wait(lock, [this] {
          return stopping_ || !fresh_.empty() || recovery_signal_ ||
                 !pending_.empty();
        });
      } else {
        const bool signalled = wake_.wait_for(
            lock, std::chrono::duration<double>(options_.retry_interval_s),
            [this] {
              return stopping_ || !fresh_.empty() || recovery_signal_;
            });
        // Retry-interval sweep: treat the timeout like a recovery
        // signal so parked residuals get re-executed.
        if (!signalled) recovery_signal_ = true;
      }
      continue;
    }

    std::shared_ptr<detail::Session> session = fresh_.front();
    fresh_.pop_front();
    lock.unlock();
    const bool done = advance(session);
    lock.lock();
    if (!done) {
      pending_.push_back(std::move(session));
      // Kick one sleeping worker from its indefinite wait into the
      // timed retry wait, so the new parked session gets swept even if
      // this worker stays busy with fresh work.
      wake_.notify_one();
    }
  }
}

}  // namespace disco::session
