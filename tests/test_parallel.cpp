// Tests for the deterministic parallel execution layer: the ThreadPool
// itself (ordering, exception propagation, degenerate sizes, nested and
// concurrent jobs) and the hard bit-exactness contract — serial and
// parallel runs of the capture campaign and the evaluation grid must
// produce identical bits.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "hpc/capture.h"
#include "ml/classifier.h"
#include "sim/workloads.h"
#include "support/check.h"
#include "support/parallel.h"
#include "test_util.h"

namespace hmd {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests.

TEST(ParseThreadCount, AcceptsPositiveIntegers) {
  EXPECT_EQ(support::parse_thread_count("1"), 1u);
  EXPECT_EQ(support::parse_thread_count("4"), 4u);
  EXPECT_EQ(support::parse_thread_count("128"), 128u);
}

TEST(ParseThreadCount, RejectsJunk) {
  EXPECT_FALSE(support::parse_thread_count(nullptr).has_value());
  EXPECT_FALSE(support::parse_thread_count("").has_value());
  EXPECT_FALSE(support::parse_thread_count("0").has_value());
  EXPECT_FALSE(support::parse_thread_count("-2").has_value());
  EXPECT_FALSE(support::parse_thread_count("4x").has_value());
  EXPECT_FALSE(support::parse_thread_count("abc").has_value());
  EXPECT_FALSE(support::parse_thread_count("99999").has_value());
}

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(support::resolve_threads(3), 3u);
  EXPECT_EQ(support::resolve_threads(1), 1u);
  EXPECT_GE(support::resolve_threads(0), 1u);  // env or hardware, at least 1
}

TEST(ThreadPool, MapReturnsResultsInInputOrder) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const auto out =
      pool.parallel_map(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, SingleThreadRunsInlineInIndexOrder) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;  // no mutex needed: inline execution
  pool.parallel_for(64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  support::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(501);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  support::ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, PropagatesException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("unit 37");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, LowestIndexExceptionWinsDeterministically) {
  support::ThreadPool pool(4);
  try {
    pool.parallel_for(300, [](std::size_t i) {
      if (i == 11) throw std::runtime_error("eleven");
      if (i == 250) throw std::runtime_error("two-fifty");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "eleven");
  }
}

TEST(ThreadPool, ExceptionOnSingleThreadPool) {
  support::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   5, [](std::size_t i) {
                     if (i == 2) throw PreconditionError("boom");
                   }),
               PreconditionError);
}

TEST(ThreadPool, PoolIsReusableAfterException) {
  support::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  const auto out = pool.parallel_map(10, [](std::size_t i) { return i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  support::ThreadPool outer(2);
  const auto out = outer.parallel_map(8, [](std::size_t i) {
    support::ThreadPool inner(4);  // degrades to inline inside a worker
    std::size_t sum = 0;
    inner.parallel_for(10, [&](std::size_t j) { sum += i * 10 + j; });
    return sum;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], i * 100 + 45);
}

TEST(ThreadPool, CurrentNamesTheWorkersPool) {
  EXPECT_EQ(support::ThreadPool::current(), nullptr);
  support::ThreadPool pool(3);
  const auto seen = pool.parallel_map(
      6, [](std::size_t) { return support::ThreadPool::current(); });
  for (support::ThreadPool* p : seen) EXPECT_EQ(p, &pool);
  EXPECT_EQ(support::ThreadPool::current(), nullptr);
}

/// Outer unit i, inner unit j -> a value unique to (i, j).
std::vector<std::vector<std::size_t>> nested_squares(support::ThreadPool& pool,
                                                     std::size_t outer,
                                                     std::size_t inner) {
  return pool.parallel_map(outer, [&](std::size_t i) {
    return support::ThreadPool::current()->parallel_map(
        inner, [&](std::size_t j) { return (i * 1000 + j) * (i + j + 1); });
  });
}

TEST(ThreadPool, SamePoolNestedMapEqualsSerial) {
  support::ThreadPool serial(1);
  std::vector<std::vector<std::size_t>> expected(9);
  for (std::size_t i = 0; i < expected.size(); ++i)
    for (std::size_t j = 0; j < 13; ++j)
      expected[i].push_back((i * 1000 + j) * (i + j + 1));
  for (const std::size_t threads : {2u, 4u}) {
    support::ThreadPool pool(threads);
    EXPECT_EQ(nested_squares(pool, 9, 13), expected) << threads;
  }
  // A size-1 pool runs inline and is never current(): callers fall back.
  const auto inline_out = serial.parallel_map(9, [&](std::size_t i) {
    EXPECT_EQ(support::ThreadPool::current(), nullptr);
    return serial.parallel_map(
        13, [&](std::size_t j) { return (i * 1000 + j) * (i + j + 1); });
  });
  EXPECT_EQ(inline_out, expected);
}

TEST(ThreadPool, LowestIndexExceptionCrossesANestedJob) {
  support::ThreadPool pool(4);
  for (int rep = 0; rep < 5; ++rep) {
    try {
      pool.parallel_for(6, [&](std::size_t i) {
        support::ThreadPool::current()->parallel_for(50, [&](std::size_t j) {
          if ((i == 1 && j == 40) || (i == 4 && j == 3) || (i == 1 && j == 45))
            throw std::runtime_error(std::to_string(i) + "-" +
                                     std::to_string(j));
        });
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1-40");
    }
  }
  // The pool stays usable after a nested failure.
  EXPECT_EQ(nested_squares(pool, 2, 3)[1][2], (1000 + 2) * 4u);
}

TEST(ThreadPool, ThreeDeepNestingOnTwoThreadsFinishes) {
  support::ThreadPool pool(2);
  std::atomic<std::size_t> leaves{0};
  const auto sums = pool.parallel_map(5, [&](std::size_t a) {
    return support::ThreadPool::current()
        ->parallel_map(4,
                       [&](std::size_t b) {
                         std::atomic<std::size_t> s{0};
                         support::ThreadPool::current()->parallel_for(
                             7, [&](std::size_t c) {
                               s += a * 100 + b * 10 + c;
                               ++leaves;
                             });
                         return s.load();
                       });
  });
  EXPECT_EQ(leaves.load(), 5u * 4 * 7);
  for (std::size_t a = 0; a < sums.size(); ++a)
    for (std::size_t b = 0; b < 4; ++b)
      EXPECT_EQ(sums[a][b], 7 * (a * 100 + b * 10) + 21);
}

TEST(ThreadPool, TwoOutsideCallersShareOnePool) {
  support::ThreadPool pool(3);
  std::vector<std::size_t> a, b;
  std::thread first([&] {
    for (int rep = 0; rep < 20; ++rep)
      a = pool.parallel_map(40, [](std::size_t i) { return i * 3; });
  });
  std::thread second([&] {
    for (int rep = 0; rep < 20; ++rep)
      b = pool.parallel_map(40, [](std::size_t i) { return i * 7; });
  });
  first.join();
  second.join();
  ASSERT_EQ(a.size(), 40u);
  ASSERT_EQ(b.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(a[i], i * 3);
    EXPECT_EQ(b[i], i * 7);
  }
}

TEST(ThreadPool, BaggingIsBitIdenticalInsideAndOutsidePools) {
  const ml::Dataset data = testutil::gaussian_blobs(80, 3, 2, 1.4, 23);
  auto scores_of = [&](const ml::Classifier& model) {
    std::vector<std::uint64_t> bits;
    for (std::size_t i = 0; i < data.num_rows(); ++i)
      bits.push_back(
          std::bit_cast<std::uint64_t>(model.predict_proba(data.row(i))));
    return bits;
  };
  auto make = [] {
    return ml::make_detector(ml::ClassifierKind::kJRip,
                             ml::EnsembleKind::kBagging, 5);
  };
  auto outside = make();
  outside->train(data);
  const auto expected = scores_of(*outside);
  for (const std::size_t threads : {1u, 4u}) {
    auto inside = make();
    support::ThreadPool pool(threads);
    pool.parallel_for(1, [&](std::size_t) { inside->train(data); });
    EXPECT_EQ(scores_of(*inside), expected) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// BoundedQueue: the serving layer's backpressure primitive.

TEST(BoundedQueue, FifoOrderSingleThread) {
  support::BoundedQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushRespectsCapacityAndLeavesValueIntact) {
  support::BoundedQueue<std::vector<int>> q(2);
  std::vector<int> a{1}, b{2}, c{3, 4, 5};
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));        // full: refused without blocking
  EXPECT_EQ(c, (std::vector<int>{3, 4, 5}));  // refused value untouched
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_TRUE(q.try_push(c));         // a slot freed: accepted
}

TEST(BoundedQueue, TryPopOnEmptyReturnsNothing) {
  support::BoundedQueue<int> q(4);
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.push(7));
  const auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CloseDrainsRemainingItemsThenEnds) {
  support::BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));  // producers are refused after close...
  const auto a = q.pop();   // ...but consumers drain what was queued
  const auto b = q.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_FALSE(q.pop().has_value());  // drained and closed: end of stream
  q.close();                          // idempotent
}

TEST(BoundedQueue, BackpressureBlocksProducerUntilConsumerDrains) {
  constexpr int kItems = 200;
  support::BoundedQueue<int> q(3);
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) EXPECT_TRUE(q.push(i));
    q.close();
  });
  std::vector<int> received;
  while (auto v = q.pop()) {
    EXPECT_LE(q.size(), q.capacity());  // the bound held while we slept
    received.push_back(*v);
  }
  producer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

TEST(BoundedQueue, PopBlocksUntilAnItemArrives) {
  support::BoundedQueue<int> q(1);
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.push(42));
  });
  const auto v = q.pop();  // must wait for the producer, not spin out
  producer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(BoundedQueue, CloseWakesABlockedConsumer) {
  support::BoundedQueue<int> q(1);
  std::optional<int> popped = std::nullopt;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    popped = q.pop();
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(done.load());
  EXPECT_FALSE(popped.has_value());
}

// ---------------------------------------------------------------------------
// Bit-exactness: serial (1 thread) vs parallel (4 threads) must agree on
// every bit of the capture, the grid metrics, and the model structures.

core::ExperimentConfig tiny_config(std::size_t threads) {
  core::ExperimentConfig cfg;
  cfg.corpus.benign_per_template = 1;
  cfg.corpus.malware_per_template = 1;
  cfg.corpus.intervals_per_app = 6;
  cfg.threads = threads;
  return cfg;
}

void expect_same_capture(const hpc::Capture& a, const hpc::Capture& b) {
  EXPECT_EQ(a.feature_names, b.feature_names);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.row_app, b.row_app);
  EXPECT_EQ(a.app_names, b.app_names);
  EXPECT_EQ(a.app_labels, b.app_labels);
  EXPECT_EQ(a.total_runs, b.total_runs);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.rows, b.rows);  // exact doubles, no tolerance
}

void expect_same_complexity(const ml::ModelComplexity& a,
                            const ml::ModelComplexity& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.comparators, b.comparators);
  EXPECT_EQ(a.adders, b.adders);
  EXPECT_EQ(a.multipliers, b.multipliers);
  EXPECT_EQ(a.table_entries, b.table_entries);
  EXPECT_EQ(a.nonlinearities, b.nonlinearities);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.inputs, b.inputs);
  ASSERT_EQ(a.children.size(), b.children.size());
  for (std::size_t i = 0; i < a.children.size(); ++i)
    expect_same_complexity(a.children[i], b.children[i]);
}

TEST(ParallelDeterminism, CaptureIsBitIdenticalAcrossThreadCounts) {
  const auto corpus = sim::build_corpus(tiny_config(1).corpus);
  hpc::CaptureConfig serial_cfg;
  serial_cfg.threads = 1;
  hpc::CaptureConfig parallel_cfg;
  parallel_cfg.threads = 4;
  const auto serial = hpc::capture_all_events(corpus, serial_cfg);
  const auto parallel = hpc::capture_all_events(corpus, parallel_cfg);
  expect_same_capture(serial, parallel);
}

TEST(ParallelDeterminism, MultiplexAndOracleCaptureMatchToo) {
  auto cfg = tiny_config(1);
  const auto corpus = sim::build_corpus(cfg.corpus);
  for (const auto protocol :
       {hpc::CaptureProtocol::kMultiplex, hpc::CaptureProtocol::kOracle}) {
    hpc::CaptureConfig serial_cfg;
    serial_cfg.protocol = protocol;
    serial_cfg.threads = 1;
    hpc::CaptureConfig parallel_cfg = serial_cfg;
    parallel_cfg.threads = 4;
    expect_same_capture(hpc::capture_all_events(corpus, serial_cfg),
                        hpc::capture_all_events(corpus, parallel_cfg));
  }
}

TEST(ParallelDeterminism, GridResultsAreBitIdenticalAcrossThreadCounts) {
  const auto serial_ctx = core::prepare_experiment(tiny_config(1));
  const auto parallel_ctx = core::prepare_experiment(tiny_config(4));

  // The contexts themselves must already agree bit-for-bit.
  expect_same_capture(serial_ctx.capture, parallel_ctx.capture);
  ASSERT_EQ(serial_ctx.ranking.size(), parallel_ctx.ranking.size());
  for (std::size_t i = 0; i < serial_ctx.ranking.size(); ++i) {
    EXPECT_EQ(serial_ctx.ranking[i].feature, parallel_ctx.ranking[i].feature);
    EXPECT_EQ(serial_ctx.ranking[i].score, parallel_ctx.ranking[i].score);
  }

  // A cheap but representative slice of the grid: 3 classifier families ×
  // 3 ensembles × {4, 2} HPCs = 18 cells.
  std::vector<core::GridCell> cells;
  for (ml::ClassifierKind kind :
       {ml::ClassifierKind::kJ48, ml::ClassifierKind::kOneR,
        ml::ClassifierKind::kBayesNet})
    for (ml::EnsembleKind ens : ml::all_ensemble_kinds())
      for (std::size_t hpcs : {4u, 2u}) cells.push_back({kind, ens, hpcs});

  const auto serial = core::run_grid(serial_ctx, cells, 1);
  const auto parallel = core::run_grid(parallel_ctx, cells, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].classifier, parallel[i].classifier);
    EXPECT_EQ(serial[i].ensemble, parallel[i].ensemble);
    EXPECT_EQ(serial[i].hpcs, parallel[i].hpcs);
    // Metrics must match to the last bit, not within a tolerance.
    EXPECT_EQ(serial[i].metrics.accuracy, parallel[i].metrics.accuracy);
    EXPECT_EQ(serial[i].metrics.auc, parallel[i].metrics.auc);
    expect_same_complexity(serial[i].complexity, parallel[i].complexity);
  }
}

TEST(ParallelDeterminism, CellScoresComeFromTheSameTrainingRun) {
  const auto ctx = core::prepare_experiment(tiny_config(2));
  const auto full = core::run_cell_full(ctx, ml::ClassifierKind::kRepTree,
                                        ml::EnsembleKind::kAdaBoost, 2);
  const auto result = core::run_cell(ctx, ml::ClassifierKind::kRepTree,
                                     ml::EnsembleKind::kAdaBoost, 2);
  const auto scores = core::run_cell_scores(ctx, ml::ClassifierKind::kRepTree,
                                            ml::EnsembleKind::kAdaBoost, 2);
  EXPECT_EQ(full.result.metrics.accuracy, result.metrics.accuracy);
  EXPECT_EQ(full.result.metrics.auc, result.metrics.auc);
  EXPECT_EQ(full.scores.scores, scores.scores);
  EXPECT_EQ(full.scores.labels, scores.labels);
  // The metrics derive from the very scores exposed for the ROC curves.
  const auto recomputed =
      ml::detector_metrics(full.scores.scores, full.scores.labels);
  EXPECT_EQ(recomputed.accuracy, full.result.metrics.accuracy);
  EXPECT_EQ(recomputed.auc, full.result.metrics.auc);
}

TEST(ParallelDeterminism, ProjectedSplitIsCachedAndStable) {
  const auto ctx = core::prepare_experiment(tiny_config(2));
  const ml::Split& first = ctx.projected_split(4);
  const ml::Split& again = ctx.projected_split(4);
  EXPECT_EQ(&first, &again);  // same materialisation, not a copy
  EXPECT_EQ(first.train.num_features(), 4u);
  EXPECT_EQ(first.test.num_features(), 4u);
  EXPECT_EQ(first.train.num_rows(), ctx.split.train.num_rows());

  // Concurrent first-touch from many threads builds each projection once
  // and never tears: all returned references must be identical.
  const auto fresh = core::prepare_experiment(tiny_config(4));
  support::ThreadPool pool(4);
  const auto refs = pool.parallel_map(16, [&](std::size_t i) {
    return &fresh.projected_split(i % 2 == 0 ? 4 : 2);
  });
  for (std::size_t i = 2; i < refs.size(); ++i)
    EXPECT_EQ(refs[i], refs[i - 2]);
}

}  // namespace
}  // namespace hmd
