// The submit-result cache + single-flight coalescer (src/cache/):
// hit/miss/TTL/LRU semantics, catalog- and health-driven invalidation,
// the 16-thread identical-query storm (exactly one dispatch per unique
// submit), and the cached-vs-uncached differential over a heterogeneous
// memdb/CSV/KV federation. Runs under the `concurrency` ctest label
// (TSan build included).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "algebra/logical.hpp"
#include "cache/result_cache.hpp"
#include "common/rng.hpp"
#include "core/disco.hpp"
#include "fixtures.hpp"
#include "oql/parser.hpp"
#include "sources/csv/csv_source.hpp"
#include "sources/kvstore/kv_store.hpp"
#include "vec/batch.hpp"

namespace disco {
namespace {

using cache::CacheOptions;
using cache::CacheStats;
using cache::CachedResult;
using cache::ResultCache;
using testing::PaperWorld;

using Lookup = ResultCache::Lookup;
using Kind = ResultCache::LookupKind;

CachedResult rows(std::vector<int64_t> values) {
  std::vector<Value> items;
  for (int64_t v : values) items.push_back(Value::integer(v));
  CachedResult result;
  result.data = Value::bag(std::move(items));
  return result;
}

/// A scalar string table of `values`, as a wrapper would reply.
vec::Table strings_table(const std::vector<std::string>& values) {
  std::vector<Value> items;
  for (const std::string& v : values) items.push_back(Value::string(v));
  return *vec::from_rows(items, vec::VecOptions{}.batch_rows);
}

CachedResult table_reply(const std::vector<std::string>& values) {
  CachedResult result;
  result.table = strings_table(values);
  return result;
}

// --------------------------------------------------------- deep_size ---

TEST(DeepSizeTest, AccountsPayloadsRecursively) {
  EXPECT_EQ(Value::integer(1).deep_size(), sizeof(Value));
  const std::string big(256, 'x');
  EXPECT_GE(Value::string(big).deep_size(), sizeof(Value) + 256);
  Value bag = Value::bag({Value::integer(1), Value::string(big)});
  EXPECT_GT(bag.deep_size(),
            Value::integer(1).deep_size() + Value::string(big).deep_size());
  Value record = Value::strct({{"name", Value::string(big)}});
  EXPECT_GE(record.deep_size(), sizeof(Value) + 4 + 256);
}

// ------------------------------------------------------ table replies ---

// Strings count alike in rows and in columns: the object, plus the heap
// buffer only once the text spills the small-string buffer.
TEST(ResultCacheTest, TableByteSizeAgreesWithDeepSizeForStrings) {
  const std::vector<std::string> short_texts(50, "ab");
  const std::vector<std::string> long_texts(50, std::string(200, 'x'));
  auto deep = [](const std::vector<std::string>& texts) {
    size_t bytes = 0;
    for (const std::string& t : texts) bytes += Value::string(t).deep_size();
    return bytes;
  };
  const size_t table_growth = vec::byte_size(strings_table(long_texts)) -
                              vec::byte_size(strings_table(short_texts));
  EXPECT_EQ(table_growth, deep(long_texts) - deep(short_texts));
  EXPECT_GE(table_growth, 50u * 200u);
}

// A table reply is stored as it arrived: a hit and a coalesced waiter
// share its columns (nothing is rebuilt), and its bytes are the table's.
TEST(ResultCacheTest, TableRepliesAreSharedAsTheyArrived) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("a", "x");
  Lookup lead = cache.get_or_begin("r0", remote);
  ASSERT_EQ(lead.kind, Kind::Lead);
  std::shared_ptr<const CachedResult> waited;
  Kind waiter_kind = Kind::Lead;
  std::thread waiter([&] {
    Lookup lookup = cache.get_or_begin("r0", remote);
    waiter_kind = lookup.kind;
    waited = lookup.result;
  });
  CachedResult reply = table_reply({"p", "q", std::string(64, 'r')});
  const vec::Table published = *reply.table;
  cache.publish(lead.ticket, std::move(reply));
  waiter.join();
  EXPECT_NE(waiter_kind, Kind::Lead);

  Lookup hit = cache.get_or_begin("r0", remote);
  ASSERT_EQ(hit.kind, Kind::Hit);
  for (const auto& result : {hit.result, waited}) {
    ASSERT_TRUE(result->table.has_value());
    EXPECT_TRUE(result->data.is_null());
    EXPECT_EQ(result->table->batches[0].columns[0],
              published.batches[0].columns[0]);
    EXPECT_EQ(vec::to_rows(*result->table), vec::to_rows(published));
  }
  EXPECT_EQ(cache.stats().bytes, ResultCache::make_key("r0", remote).size() +
                                     Value().deep_size() +
                                     vec::byte_size(published) + 128);
}

TEST(ResultCacheTest, LruEvictsTableEntriesUnderByteBudget) {
  const std::vector<std::string> texts(100, std::string(40, 't'));
  const size_t entry_bytes = vec::byte_size(strings_table(texts)) + 256;
  ResultCache cache(
      CacheOptions{.enabled = true, .max_bytes = 2 * entry_bytes});
  algebra::LogicalPtr a = algebra::get("a", "x");
  algebra::LogicalPtr b = algebra::get("b", "x");
  algebra::LogicalPtr c = algebra::get("c", "x");
  Lookup la = cache.get_or_begin("r0", a);
  cache.publish(la.ticket, table_reply(texts));
  Lookup lb = cache.get_or_begin("r0", b);
  cache.publish(lb.ticket, table_reply(texts));
  ASSERT_EQ(cache.stats().entries, 2u);
  // Touch a so b becomes the LRU victim when c lands.
  EXPECT_EQ(cache.get_or_begin("r0", a).kind, Kind::Hit);
  Lookup lc = cache.get_or_begin("r0", c);
  cache.publish(lc.ticket, table_reply(texts));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.get_or_begin("r0", a).kind, Kind::Hit);
  EXPECT_EQ(cache.get_or_begin("r0", b).kind, Kind::Lead);
}

// Through the mediator: a warm query over csv and kv replies is served
// from the cached tables, whose rows are rebuilt only at the answer.
TEST(MediatorCacheTest, CachedColumnarRepliesAnswerBagEqual) {
  Mediator::Options options;
  options.cache.enabled = true;
  Mediator mediator(options);
  mediator.execute_odl(R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name; };
  )");
  std::string text = "id,name\n";
  kvstore::KvStore kv("kv");
  kvstore::KvCollection& people = kv.create_collection("person1", "id");
  for (int r = 0; r < 30; ++r) {
    text += std::to_string(r) + ",c" + std::to_string(r) + "\n";
    people.put(Value::strct({{"id", Value::integer(r)},
                             {"name", Value::string("k" + std::to_string(r))}}));
  }
  auto csv_wrapper = std::make_shared<wrapper::CsvWrapper>();
  csv_wrapper->attach_table("rc", csv::parse_csv("person0", text));
  auto kv_wrapper = std::make_shared<wrapper::KvWrapper>();
  kv_wrapper->attach_store("rk", &kv);
  mediator.register_wrapper("wc", std::move(csv_wrapper));
  mediator.register_wrapper("wk", std::move(kv_wrapper));
  mediator.register_repository(catalog::Repository{"rc", "", "", ""});
  mediator.register_repository(catalog::Repository{"rk", "", "", ""});
  mediator.execute_odl(R"(
    extent person0 of Person wrapper wc repository rc;
    extent person1 of Person wrapper wk repository rk;
  )");
  const std::string query = "select x.name from x in person where x.id < 9";
  Answer cold = mediator.query(query);
  Answer warm = mediator.query(query);
  ASSERT_TRUE(cold.complete());
  ASSERT_TRUE(warm.complete());
  EXPECT_EQ(warm.data(), cold.data());
  EXPECT_EQ(warm.data().size(), 18u);
  EXPECT_EQ(warm.stats().run.cache_hits, 2u);
  EXPECT_EQ(warm.stats().run.vec_leaf_batches, 2u);
  EXPECT_EQ(warm.stats().run.rows_rebuilt, 18u);
}

// ------------------------------------------------------- basic lookup ---

TEST(ResultCacheTest, MissThenHitReturnsTheStoredData) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");

  Lookup first = cache.get_or_begin("r0", remote);
  ASSERT_EQ(first.kind, Kind::Lead);
  ASSERT_TRUE(first.ticket);
  cache.publish(first.ticket, rows({1, 2, 3}));

  Lookup second = cache.get_or_begin("r0", remote);
  ASSERT_EQ(second.kind, Kind::Hit);
  ASSERT_NE(second.result, nullptr);
  EXPECT_EQ(second.result->data,
            Value::bag({Value::integer(1), Value::integer(2),
                        Value::integer(3)}));

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, DistinctRepositoriesAndRemotesCacheSeparately) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr scan0 = algebra::get("person0", "x");
  algebra::LogicalPtr scan1 = algebra::get("person1", "x");

  Lookup a = cache.get_or_begin("r0", scan0);
  ASSERT_EQ(a.kind, Kind::Lead);
  cache.publish(a.ticket, rows({1}));
  // Same remote, different repository: its own entry.
  Lookup b = cache.get_or_begin("r1", scan0);
  EXPECT_EQ(b.kind, Kind::Lead);
  cache.publish(b.ticket, rows({2}));
  // Same repository, different remote: its own entry.
  Lookup c = cache.get_or_begin("r0", scan1);
  EXPECT_EQ(c.kind, Kind::Lead);
  cache.publish(c.ticket, rows({3}));

  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.get_or_begin("r0", scan0).result->data,
            Value::bag({Value::integer(1)}));
  EXPECT_EQ(cache.get_or_begin("r1", scan0).result->data,
            Value::bag({Value::integer(2)}));
  EXPECT_EQ(cache.get_or_begin("r0", scan1).result->data,
            Value::bag({Value::integer(3)}));
}

TEST(ResultCacheTest, AbandonedLeaderIsNeverCached) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");
  {
    Lookup lead = cache.get_or_begin("r0", remote);
    ASSERT_EQ(lead.kind, Kind::Lead);
    // The fetch failed: the ticket dies unpublished.
  }
  EXPECT_FALSE(cache.contains("r0", remote));
  // The next caller becomes a fresh leader, not a joiner of a dead flight.
  Lookup retry = cache.get_or_begin("r0", remote);
  EXPECT_EQ(retry.kind, Kind::Lead);
  cache.publish(retry.ticket, rows({4}));
  EXPECT_TRUE(cache.contains("r0", remote));
}

// --------------------------------------------------------------- TTL ---

TEST(ResultCacheTest, TtlExpiresEntriesOnTheInjectedClock) {
  double now = 0.0;
  ResultCache cache(CacheOptions{.enabled = true, .ttl_s = 10.0},
                    [&now] { return now; });
  algebra::LogicalPtr remote = algebra::get("person0", "x");

  Lookup lead = cache.get_or_begin("r0", remote);
  cache.publish(lead.ticket, rows({1}));
  now = 9.9;
  EXPECT_EQ(cache.get_or_begin("r0", remote).kind, Kind::Hit);
  EXPECT_TRUE(cache.contains("r0", remote));

  now = 10.1;  // past expiry: the entry is dead, the caller must refetch
  EXPECT_FALSE(cache.contains("r0", remote));
  Lookup refetch = cache.get_or_begin("r0", remote);
  EXPECT_EQ(refetch.kind, Kind::Lead);
  cache.publish(refetch.ticket, rows({2}));
  // The refreshed entry gets a new lease from the current clock.
  now = 19.0;
  EXPECT_EQ(cache.get_or_begin("r0", remote).kind, Kind::Hit);
  EXPECT_GE(cache.stats().evictions, 1u);
}

// --------------------------------------------------------------- LRU ---

TEST(ResultCacheTest, LruEvictsTheColdestEntryUnderByteBudget) {
  // Budget sized for roughly two entries of ~100 integers each.
  CachedResult payload = rows(std::vector<int64_t>(100, 7));
  const size_t entry_bytes = payload.data.deep_size() + 256;
  ResultCache cache(
      CacheOptions{.enabled = true, .max_bytes = 2 * entry_bytes});
  algebra::LogicalPtr a = algebra::get("a", "x");
  algebra::LogicalPtr b = algebra::get("b", "x");
  algebra::LogicalPtr c = algebra::get("c", "x");

  Lookup la = cache.get_or_begin("r0", a);
  cache.publish(la.ticket, rows(std::vector<int64_t>(100, 1)));
  Lookup lb = cache.get_or_begin("r0", b);
  cache.publish(lb.ticket, rows(std::vector<int64_t>(100, 2)));
  ASSERT_EQ(cache.stats().entries, 2u);

  // Touch a so b becomes the LRU victim when c lands.
  EXPECT_EQ(cache.get_or_begin("r0", a).kind, Kind::Hit);
  Lookup lc = cache.get_or_begin("r0", c);
  cache.publish(lc.ticket, rows(std::vector<int64_t>(100, 3)));

  EXPECT_TRUE(cache.contains("r0", a));
  EXPECT_FALSE(cache.contains("r0", b));
  EXPECT_TRUE(cache.contains("r0", c));
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, cache.options().max_bytes);
}

// ------------------------------------------------------- invalidation ---

TEST(ResultCacheTest, InvalidateAllDropsEntriesAndFencesInFlightPublishes) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");
  algebra::LogicalPtr other = algebra::get("person1", "x");

  Lookup warm = cache.get_or_begin("r0", other);
  cache.publish(warm.ticket, rows({9}));

  // A flight starts, the world moves, then the flight lands: the reply is
  // handed to joiners but must NOT be stored (it predates the change).
  Lookup lead = cache.get_or_begin("r0", remote);
  ASSERT_EQ(lead.kind, Kind::Lead);
  cache.invalidate_all();
  EXPECT_FALSE(cache.contains("r0", other));
  cache.publish(lead.ticket, rows({1}));
  EXPECT_FALSE(cache.contains("r0", remote));
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, InvalidateRepositoryIsScopedToThatRepository) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");

  Lookup l0 = cache.get_or_begin("r0", remote);
  cache.publish(l0.ticket, rows({1}));
  Lookup l1 = cache.get_or_begin("r1", remote);
  cache.publish(l1.ticket, rows({2}));

  // r0's circuit flapped; r1's entries must survive.
  cache.invalidate_repository("r0");
  EXPECT_FALSE(cache.contains("r0", remote));
  EXPECT_TRUE(cache.contains("r1", remote));

  // An in-flight r0 fetch that began before the invalidation is fenced;
  // a concurrent r1 flight is not.
  Lookup lead0 = cache.get_or_begin("r0", remote);
  ASSERT_EQ(lead0.kind, Kind::Lead);
  cache.invalidate_repository("r0");
  cache.publish(lead0.ticket, rows({3}));
  EXPECT_FALSE(cache.contains("r0", remote));
  EXPECT_TRUE(cache.contains("r1", remote));
}

TEST(ResultCacheTest, CatalogVersionChangeInvalidatesAfterFirstSighting) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");

  cache.on_catalog_version(41);  // first sighting: nothing cached before it
  Lookup lead = cache.get_or_begin("r0", remote);
  cache.publish(lead.ticket, rows({1}));

  cache.on_catalog_version(41);  // unchanged: cheap no-op
  EXPECT_TRUE(cache.contains("r0", remote));
  cache.on_catalog_version(42);  // moved: drop everything
  EXPECT_FALSE(cache.contains("r0", remote));
}

// ------------------------------------------------------ single-flight ---

TEST(ResultCacheStormTest, SixteenThreadsOneLeaderPerUniqueSubmit) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");
  constexpr int kThreads = 16;

  std::atomic<int> fetches{0};
  std::atomic<int> ready{0};
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool everyone_arrived = false;

  std::vector<std::thread> threads;
  std::vector<Value> answers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Lookup lookup = cache.get_or_begin("r0", remote);
      if (lookup.kind == Kind::Lead) {
        fetches.fetch_add(1);
        // Hold the flight open until every thread has entered the cache,
        // so all 15 others are forced through the coalesced path.
        ready.fetch_add(1);
        std::unique_lock<std::mutex> lock(gate_mutex);
        gate_cv.wait(lock, [&] { return everyone_arrived; });
        lock.unlock();
        cache.publish(lookup.ticket, rows({42}));
        answers[t] = rows({42}).data;
      } else {
        ready.fetch_add(1);
        if (ready.load() == kThreads) {
          // Last waiter unblocks the leader... but waiters block inside
          // get_or_begin, so the unblocking is done from the main thread.
        }
        answers[t] = lookup.result->data;
      }
    });
  }
  // Wait until every thread is either the parked leader or blocked on
  // (or past) the flight's future, then release the leader.
  while (ready.load() < 1) std::this_thread::yield();
  // The leader is parked; give the joiners a moment to pile onto the
  // shared future (they may not all have arrived — that's fine, late
  // arrivals become plain hits; the dispatch count is what's asserted).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    everyone_arrived = true;
  }
  gate_cv.notify_all();
  for (std::thread& thread : threads) thread.join();

  // The acceptance criterion: exactly one dispatch for 16 identical
  // concurrent submits.
  EXPECT_EQ(fetches.load(), 1);
  for (const Value& answer : answers) {
    EXPECT_EQ(answer, Value::bag({Value::integer(42)}));
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, uint64_t{kThreads - 1});
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheStormTest, WaitersReRaceWhenTheLeaderAbandons) {
  ResultCache cache(CacheOptions{.enabled = true});
  algebra::LogicalPtr remote = algebra::get("person0", "x");
  constexpr int kThreads = 8;

  std::atomic<int> leads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        Lookup lookup = cache.get_or_begin("r0", remote);
        if (lookup.kind != Kind::Lead) return;  // served by a later leader
        if (leads.fetch_add(1) == 0) {
          // First leader simulates a failed fetch: ticket dies, the
          // waiters re-race and one of them must take over.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;  // abandoned (Lookup destructor) — try again as client
        }
        cache.publish(lookup.ticket, rows({7}));
        return;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GE(leads.load(), 2);  // the abandoner plus at least one successor
  EXPECT_TRUE(cache.contains("r0", remote));
  EXPECT_EQ(cache.get_or_begin("r0", remote).result->data,
            Value::bag({Value::integer(7)}));
}

// ----------------------------------------------- mediator integration ---

Mediator::Options cached_options() {
  Mediator::Options options;
  options.cache.enabled = true;
  return options;
}

TEST(MediatorCacheTest, DisabledByDefault) {
  PaperWorld world;
  EXPECT_EQ(world.mediator.result_cache(), nullptr);
  const std::string query = "select x.name from x in person";
  Answer first = world.mediator.query(query);
  const uint64_t calls_after_first = world.mediator.traffic_stats().calls;
  Answer second = world.mediator.query(query);
  // No cache: the second query re-pays every source call.
  EXPECT_GT(world.mediator.traffic_stats().calls, calls_after_first);
  EXPECT_EQ(first.data(), second.data());
  CacheStats stats = world.mediator.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced, 0u);
}

TEST(MediatorCacheTest, WarmQueryCostsZeroSourceCalls) {
  PaperWorld world(cached_options());
  const std::string query = "select x.name from x in person";
  Answer cold = world.mediator.query(query);
  ASSERT_TRUE(cold.complete());
  const uint64_t cold_calls = world.mediator.traffic_stats().calls;
  ASSERT_GT(cold_calls, 0u);

  Answer warm = world.mediator.query(query);
  ASSERT_TRUE(warm.complete());
  EXPECT_EQ(warm.data(), cold.data());
  // The acceptance surface: a fully warm query touches no source.
  EXPECT_EQ(world.mediator.traffic_stats().calls, cold_calls);
  EXPECT_EQ(warm.stats().run.cache_hits, warm.stats().run.exec_calls);
  // A fully cached answer is faster than the fastest source: no
  // simulated network latency is charged at all.
  EXPECT_LT(warm.stats().run.elapsed_s, 1e-9);

  CacheStats stats = world.mediator.cache_stats();
  EXPECT_GE(stats.hits, warm.stats().run.cache_hits);
  EXPECT_EQ(stats.entries, stats.insertions);
}

TEST(MediatorCacheTest, CachedAnswerIsolatesConsumers) {
  // Two queries served from the same entry must not be able to corrupt
  // each other through the shared payload (Value is shared-immutable).
  PaperWorld world(cached_options());
  const std::string query = "select x.name from x in person";
  Answer a = world.mediator.query(query);
  Answer b = world.mediator.query(query);
  Value copy = a.data();
  EXPECT_EQ(copy, b.data());
}

TEST(MediatorCacheTest, ExplicitInvalidateForcesRefetch) {
  PaperWorld world(cached_options());
  const std::string query = "select x.name from x in person";
  (void)world.mediator.query(query);
  const uint64_t warm_calls = world.mediator.traffic_stats().calls;

  world.mediator.invalidate_cache();
  (void)world.mediator.query(query);
  EXPECT_GT(world.mediator.traffic_stats().calls, warm_calls);
  EXPECT_GE(world.mediator.cache_stats().invalidations, 1u);
}

TEST(MediatorCacheTest, InvalidationIsScopedToWhatTheUpdateTouched) {
  PaperWorld world(cached_options());
  const std::string query = "select x.name from x in person";
  (void)world.mediator.query(query);
  ASSERT_GT(world.mediator.cache_stats().entries, 0u);

  // Interface definitions change what queries *mean* — they still drop
  // every cached reply ("the mediator must monitor updates to extents",
  // §3.3).
  world.mediator.execute_odl(R"(
    interface Dept (extent dept) { attribute Long id; };
  )");
  EXPECT_EQ(world.mediator.cache_stats().entries, 0u);

  (void)world.mediator.query(query);
  const uint64_t warm = world.mediator.cache_stats().entries;
  ASSERT_GT(warm, 0u);

  // A brand-new repository has no cached answers; registering it keeps
  // every warm entry (epoch-scoped invalidation).
  world.mediator.register_repository(
      catalog::Repository{"r9", "new", "db", "9.9.9.9"});
  EXPECT_EQ(world.mediator.cache_stats().entries, warm);
  // Likewise a new wrapper binding: no extent references it yet.
  world.mediator.register_wrapper(
      "w9", std::make_shared<wrapper::MemDbWrapper>());
  EXPECT_EQ(world.mediator.cache_stats().entries, warm);

  // Registering an extent drops only its repository's entries: r1's
  // cached submit survives an extent landing in r0.
  world.mediator.execute_odl(
      "extent person9 of Person wrapper w0 repository r0;");
  const cache::CacheStats after = world.mediator.cache_stats();
  EXPECT_LT(after.entries, warm);
  EXPECT_GT(after.entries, 0u);
}

Mediator::Options cached_breaker_options() {
  Mediator::Options options;
  options.cache.enabled = true;
  options.health.enabled = true;
  options.health.failure_threshold = 3;
  options.health.open_cooldown_s = 1.0;
  return options;
}

TEST(MediatorCacheTest, CircuitTransitionDropsThatRepositoryOnly) {
  PaperWorld world(cached_breaker_options());
  const std::string query = "select x.name from x in person";
  (void)world.mediator.query(query);
  const uint64_t entries_warm = world.mediator.cache_stats().entries;
  ASSERT_EQ(entries_warm, 2u);  // one submit each against r0 and r1

  // r0 goes dark; three failing queries trip its breaker. The Closed->
  // Open transition must drop r0's cached entries (the source's world
  // may have moved) while r1's survive. r1's answers keep being served
  // from the cache during the storm, so its entry stays warm.
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  world.mediator.invalidate_cache();  // force real r0 traffic
  for (int i = 0; i < 3; ++i) {
    Answer a = world.mediator.query(query, QueryOptions{.deadline_s = 0.1});
    EXPECT_FALSE(a.complete());
  }
  ASSERT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Open);

  // r1's submit is still cached; r0 has nothing (failures are never
  // cached, and the transition invalidated the repository).
  CacheStats stats = world.mediator.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.invalidations, 1u);

  // Recovery (Open -> HalfOpen -> Closed) also fires the listener: the
  // resubmitted residual refetches instead of seeing pre-outage data.
  world.mediator.network().set_availability("r0",
                                            net::Availability::always_up());
  world.mediator.clock().advance(2.0);
  Answer healed = world.mediator.query(query);
  ASSERT_TRUE(healed.complete());
  EXPECT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Closed);
}

TEST(MediatorCacheTest, ExplainReportsServedFromCache) {
  PaperWorld world(cached_options());
  const std::string query = "select x.name from x in person";

  Mediator::ExplainReport cold = world.mediator.explain_report(query);
  for (const auto& submit : cold.submits) EXPECT_FALSE(submit.cached);

  (void)world.mediator.query(query);
  Mediator::ExplainReport warm = world.mediator.explain_report(query);
  ASSERT_FALSE(warm.submits.empty());
  for (const auto& submit : warm.submits) EXPECT_TRUE(submit.cached);
  EXPECT_NE(warm.to_string().find("(served from cache)"),
            std::string::npos);
}

// --------------------------------------- 16-thread identical storm ------

/// Counts every submit() per (repository, shipped expression), then
/// delegates to the real wrapper. The storm asserts each unique submit
/// reached the source exactly once.
class CountingWrapper : public wrapper::Wrapper {
 public:
  explicit CountingWrapper(std::shared_ptr<wrapper::Wrapper> inner)
      : inner_(std::move(inner)) {}

  grammar::Grammar capabilities() const override {
    return inner_->capabilities();
  }

  wrapper::SubmitResult submit(const catalog::Repository& repository,
                               const algebra::LogicalPtr& expr,
                               const wrapper::BindingMap& bindings) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counts_[repository.name + "\n" + algebra::to_algebra_string(expr)];
    }
    // Widen the race window so the storm's queries overlap the fetch.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return inner_->submit(repository, expr, bindings);
  }

  std::string kind() const override { return inner_->kind(); }

  std::map<std::string, int> counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }

 private:
  std::shared_ptr<wrapper::Wrapper> inner_;
  mutable std::mutex mutex_;
  std::map<std::string, int> counts_;
};

TEST(MediatorCacheStormTest, SixteenIdenticalQueriesOneDispatchEach) {
  // Wall-clock mode so the 16 client threads genuinely overlap inside
  // the mediator; the counting wrapper's 10ms submit makes coalescing
  // all but certain (and the assertion holds either way: hit or
  // coalesced, the source is called once per unique submit).
  Mediator::Options options;
  options.cache.enabled = true;
  options.exec.workers = 4;
  options.exec.latency_scale = 0.001;

  // The PaperWorld federation, but wired through the counting wrapper.
  Mediator mediator(options);
  memdb::Database db0{"db0"};
  memdb::Database db1{"db1"};
  auto real = std::make_shared<wrapper::MemDbWrapper>();
  auto& p0 = db0.create_table("person0", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
  p0.insert({Value::integer(1), Value::string("Mary"), Value::integer(200)});
  auto& p1 = db1.create_table("person1", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
  p1.insert({Value::integer(2), Value::string("Sam"), Value::integer(50)});
  real->attach_database("r0", &db0);
  real->attach_database("r1", &db1);
  auto counted = std::make_shared<CountingWrapper>(real);
  CountingWrapper* counter = counted.get();
  mediator.register_wrapper("w0", std::move(counted));
  mediator.register_repository(catalog::Repository{"r0", "a", "db", "1"},
                               net::LatencyModel{0.010, 0.0001, 0});
  mediator.register_repository(catalog::Repository{"r1", "b", "db", "2"},
                               net::LatencyModel{0.020, 0.0001, 0});
  mediator.execute_odl(R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
    extent person1 of Person wrapper w0 repository r1;
  )");

  constexpr int kThreads = 16;
  const std::string query = "select x.name from x in person";
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  std::vector<Value> answers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Answer answer = mediator.query(query);
      if (!answer.complete()) failures.fetch_add(1);
      answers[t] = answer.data();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(answers[t], answers[0]);

  // Exactly one dispatcher call per unique submit across the whole storm.
  std::map<std::string, int> counts = counter->counts();
  EXPECT_EQ(counts.size(), 2u);  // one submit against r0, one against r1
  for (const auto& [key, count] : counts) {
    EXPECT_EQ(count, 1) << key;
  }
  CacheStats stats = mediator.cache_stats();
  EXPECT_EQ(stats.misses, counts.size());
  EXPECT_EQ(stats.hits + stats.coalesced,
            uint64_t{kThreads} * counts.size() - counts.size());
}

// ----------------------------------- cached vs uncached differential ---

/// The heterogeneous memdb/CSV/KV federation from the obs differential,
/// parameterized by mediator options so the same data can be served with
/// and without the cache.
struct TriSourceWorld {
  explicit TriSourceWorld(Mediator::Options options) : mediator(options) {
    auto& t = db.create_table("person0", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
    for (int i = 0; i < 20; ++i) {
      t.insert({Value::integer(i), Value::string("m" + std::to_string(i)),
                Value::integer(i * 10)});
    }
    auto wm = std::make_shared<wrapper::MemDbWrapper>();
    wm->attach_database("r0", &db);
    mediator.register_wrapper("wm", std::move(wm));
    mediator.register_repository(catalog::Repository{"r0", "h0", "db", "1"},
                                 net::LatencyModel{0.002, 1e-5, 0});

    std::string text = "id,name,salary\n";
    for (int i = 0; i < 20; ++i) {
      text += std::to_string(100 + i) + ",c" + std::to_string(i) + "," +
              std::to_string(i * 7) + "\n";
    }
    auto wc = std::make_shared<wrapper::CsvWrapper>();
    wc->attach_table("r1", csv::parse_csv("person1", text));
    mediator.register_wrapper("wc", std::move(wc));
    mediator.register_repository(catalog::Repository{"r1", "h1", "csv", "2"},
                                 net::LatencyModel{0.004, 1e-5, 0});

    kvstore::KvCollection& c = kv.create_collection("person2", "id");
    for (int i = 0; i < 20; ++i) {
      c.put(Value::strct({{"id", Value::integer(200 + i)},
                          {"name", Value::string("k" + std::to_string(i))},
                          {"salary", Value::integer(i * 13)}}));
    }
    auto wk = std::make_shared<wrapper::KvWrapper>();
    wk->attach_store("r2", &kv);
    mediator.register_wrapper("wk", std::move(wk));
    mediator.register_repository(catalog::Repository{"r2", "h2", "kv", "3"},
                                 net::LatencyModel{0.001, 1e-5, 0});

    mediator.execute_odl(R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
      extent person0 of Person wrapper wm repository r0;
      extent person1 of Person wrapper wc repository r1;
      extent person2 of Person wrapper wk repository r2;
    )");
  }

  memdb::Database db{"db0"};
  kvstore::KvStore kv{"kv0"};
  Mediator mediator;
};

std::string differential_query(SplitMix64& rng) {
  const std::string extent =
      rng.next_below(2) == 0
          ? "person"
          : "person" + std::to_string(rng.next_below(3));
  switch (rng.next_below(4)) {
    case 0:
      return "select x.name from x in " + extent;
    case 1:
      return "select x.name from x in " + extent + " where x.salary > " +
             std::to_string(rng.next_in(0, 250));
    case 2:
      return "select x.name from x in " + extent + " where x.id = " +
             std::to_string(rng.next_in(0, 220));
    default:
      return "select struct(n: x.name, s: x.salary) from x in " + extent +
             " where x.salary >= " + std::to_string(rng.next_in(0, 150));
  }
}

TEST(CacheDifferentialTest, CachedAndUncachedAnswersAgree) {
  // For 30 seeded random queries over the heterogeneous federation, the
  // uncached answer, the cache-cold answer and the cache-warm answer
  // must be identical multisets — the cache may never change semantics.
  TriSourceWorld plain((Mediator::Options()));
  TriSourceWorld cached(cached_options());
  SplitMix64 rng(0xcac4e);
  uint64_t warm_hits = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string query = differential_query(rng);
    Answer reference = plain.mediator.query(query);
    Answer cold = cached.mediator.query(query);
    Answer warm = cached.mediator.query(query);
    ASSERT_TRUE(reference.complete()) << query;
    EXPECT_EQ(Value::set(reference.data().items()),
              Value::set(cold.data().items()))
        << query;
    EXPECT_EQ(Value::set(reference.data().items()),
              Value::set(warm.data().items()))
        << query;
    warm_hits += warm.stats().run.cache_hits;
  }
  EXPECT_GT(warm_hits, 0u);
}

}  // namespace
}  // namespace disco
