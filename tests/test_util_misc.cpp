// Unit tests for formatting, tables, CSV, thread pool and ASCII plots.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/object_pool.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace tfpe::util {
namespace {

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2e3), "2.00 KB");
  EXPECT_EQ(format_bytes(80e9), "80.00 GB");
  EXPECT_EQ(format_bytes(1.5e12), "1.50 TB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(format_time(5e-7), "500.00 ns");
  EXPECT_EQ(format_time(2.5e-5), "25.00 us");
  EXPECT_EQ(format_time(0.004), "4.00 ms");
  EXPECT_EQ(format_time(12.0), "12.00 s");
  EXPECT_EQ(format_time(7200.0), "2.00 hr");
  EXPECT_EQ(format_time(3.0 * kSecondsPerDay), "3.00 days");
}

TEST(Units, FormatFlopsAndBandwidth) {
  EXPECT_EQ(format_flops(312e12), "312.00 TFLOP");
  EXPECT_EQ(format_bandwidth(900e9), "900.00 GB/s");
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.set_header({"a", "long_column"});
  t.add_row({"xx", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("a   long_column"), std::string::npos);
  EXPECT_NE(s.find("xx  1"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(CsvWriter, EscapesAndRoundTrips) {
  const std::string path = "tfpe_test_csv.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"x", "note"});
    csv.write_row(std::vector<std::string>{"1", "has,comma"});
    csv.write_row(std::vector<double>{2.5, 3.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,note");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsArityMismatch) {
  const std::string path = "tfpe_test_csv2.csv";
  CsvWriter csv(path);
  csv.write_header({"a", "b"});
  EXPECT_THROW(csv.write_row(std::vector<std::string>{"1"}),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(ObjectPool, ReusesReturnedObjectsWithCapacity) {
  ObjectPool<std::vector<int>> pool;
  const int* warm_data = nullptr;
  {
    auto lease = pool.acquire();
    lease->resize(1024);
    warm_data = lease->data();
  }  // returned to the pool, capacity intact
  auto again = pool.acquire();
  EXPECT_EQ(again->data(), warm_data);  // the same warm buffer came back
  EXPECT_GE(again->capacity(), 1024u);  // the pool never clears
  EXPECT_EQ(pool.constructions(), 1u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(ObjectPool, MoveTransfersOwnershipOnce) {
  ObjectPool<std::vector<int>> pool;
  auto a = pool.acquire();
  a->push_back(7);
  ObjectPool<std::vector<int>>::Lease b = std::move(a);
  EXPECT_EQ((*b)[0], 7);
  b = pool.acquire();  // assignment releases the first object back
  EXPECT_EQ(pool.constructions() + pool.reuses(), 2u);
}

TEST(ObjectPool, ConcurrentAcquireReleaseIsSafe) {
  // The sweep engines lease one scratch per chain task from many workers;
  // hammer that pattern so TSan sees the acquire/release paths race-free.
  // Steady-state constructions must stay at the peak concurrency, not the
  // task count — the free list really recycles under contention.
  ObjectPool<std::vector<int>> pool;
  ThreadPool tp(8);
  std::atomic<std::size_t> leased{0};
  parallel_for_dynamic(tp, 2048, [&](std::size_t i) {
    auto lease = pool.acquire();
    lease->assign(64, static_cast<int>(i));
    EXPECT_EQ(lease->back(), static_cast<int>(i));
    leased.fetch_add(1);
  });
  EXPECT_EQ(leased.load(), 2048u);
  EXPECT_EQ(pool.constructions() + pool.reuses(), 2048u);
  EXPECT_LE(pool.constructions(), 8u);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DynamicForCoversRangeOncePerIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1003);
  parallel_for_dynamic(pool, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DynamicForGrainedChunks) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(130);  // not a multiple of the grain
  parallel_for_dynamic(
      pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*grain=*/32);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DynamicForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_dynamic(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DynamicForCarriesWorkerExceptionToCaller) {
  // A body throwing on one index reaches the caller with its message intact
  // (instead of terminating the process), and the pool stays usable.
  ThreadPool pool(4);
  std::string caught;
  try {
    parallel_for_dynamic(pool, 100, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("body failed at index 7");
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_EQ(caught, "body failed at index 7");
  std::atomic<int> ran{0};
  parallel_for_dynamic(pool, 50, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, WaitIdleRethrowsTaskExceptionOnce) {
  // Every task still runs; wait_idle rethrows the one exception, then the
  // error is cleared for the next batch.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int t = 0; t < 20; ++t) {
    pool.submit([&ran, t] {
      ran.fetch_add(1);
      if (t == 7) throw std::runtime_error("task 7");
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_THROW(parallel_for_dynamic(pool, 100,
                                    [](std::size_t i) {
                                      if (i == 7) {
                                        throw std::runtime_error("index 7");
                                      }
                                    }),
               std::runtime_error);
}

TEST(ThreadPool, DynamicForSingleWorkerRunsInlineInClaimOrder) {
  // A one-worker pool runs the body on the calling thread, index by index
  // in claim order.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  parallel_for_dynamic(
      pool, 10,
      [&](std::size_t i) {
        order.push_back(i);
        on_caller = on_caller && std::this_thread::get_id() == caller;
      },
      /*grain=*/3);
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(AsciiHeatmap, RendersAndScales) {
  std::ostringstream os;
  ascii_heatmap(os, {{1.0, 10.0}, {100.0, 1000.0}}, {"r0", "r1"}, {"c0", "c1"});
  const std::string s = os.str();
  EXPECT_NE(s.find("scale:"), std::string::npos);
  EXPECT_NE(s.find('@'), std::string::npos);  // max glyph present
}

TEST(AsciiHeatmap, HandlesNaN) {
  std::ostringstream os;
  ascii_heatmap(os, {{std::nan(""), 2.0}}, {}, {});
  EXPECT_NE(os.str().find('.'), std::string::npos);
}

TEST(AsciiChart, RendersSeries) {
  std::ostringstream os;
  ascii_chart(os, {{"a", {1, 10, 100}, {1, 2, 4}}});
  const std::string s = os.str();
  EXPECT_NE(s.find("'o' = a"), std::string::npos);
}

}  // namespace
}  // namespace tfpe::util
