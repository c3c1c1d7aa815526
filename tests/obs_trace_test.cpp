#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_parser.hpp"
#include "obs/obs.hpp"

namespace forumcast::obs {
namespace {

// RAII guard: every test runs with a clean, enabled collector and leaves it
// disabled and empty, so trace state never leaks between tests.
struct CollectorScope {
  CollectorScope() {
    TraceCollector::global().clear();
    TraceCollector::global().set_enabled(true);
  }
  ~CollectorScope() {
    TraceCollector::global().set_enabled(false);
    TraceCollector::global().clear();
  }
};

TEST(ScopedSpanTest, DisabledCollectorRecordsNothing) {
  TraceCollector::global().clear();
  TraceCollector::global().set_enabled(false);
  {
    FORUMCAST_SPAN("test.invisible");
  }
  EXPECT_TRUE(TraceCollector::global().events().empty());
}

// The tests below exercise actual span recording, which -DFORUMCAST_OBS=OFF
// compiles out (ScopedSpan becomes an empty object); the export-path tests
// further down stay active in both build modes.
#if FORUMCAST_OBS_ENABLED

void spin_for_us(std::uint64_t us) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < static_cast<std::int64_t>(us)) {
  }
}

TEST(ScopedSpanTest, RecordsNameAndDuration) {
  CollectorScope scope;
  {
    FORUMCAST_SPAN("test.outer");
    spin_for_us(200);
  }
  const auto events = TraceCollector::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_GE(events[0].dur_us, 100u);
}

TEST(ScopedSpanTest, NestedSpansTrackDepthAndContainment) {
  CollectorScope scope;
  {
    FORUMCAST_SPAN("test.parent");
    spin_for_us(50);
    {
      FORUMCAST_SPAN("test.child");
      spin_for_us(50);
      {
        FORUMCAST_SPAN("test.grandchild");
        spin_for_us(50);
      }
      // Padding so each parent's interval strictly contains its child's even
      // after microsecond truncation of the timestamps.
      spin_for_us(50);
    }
    spin_for_us(50);
  }
  auto events = TraceCollector::global().events();
  ASSERT_EQ(events.size(), 3u);
  // events() sorts by start time, parents first.
  EXPECT_EQ(events[0].name, "test.parent");
  EXPECT_EQ(events[1].name, "test.child");
  EXPECT_EQ(events[2].name, "test.grandchild");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 2u);
  // Each child is contained in its parent's interval.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_us, events[i - 1].start_us);
    EXPECT_LE(events[i].start_us + events[i].dur_us,
              events[i - 1].start_us + events[i - 1].dur_us);
  }
}

TEST(ScopedSpanTest, EndIsIdempotentAndStopsTheClock) {
  CollectorScope scope;
  {
    FORUMCAST_SPAN_NAMED(span, "test.early_end");
    spin_for_us(100);
    span.end();
    span.end();  // second end is a no-op
    spin_for_us(500);
  }  // destructor must not record a second event
  const auto events = TraceCollector::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(events[0].dur_us, 500u);
}

TEST(ScopedSpanTest, ArgsAreAttached) {
  CollectorScope scope;
  {
    FORUMCAST_SPAN_NAMED(span, "test.args");
    span.arg("tokens", 1234.0);
    span.arg("rate", 8.5);
  }
  const auto events = TraceCollector::global().events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "tokens");
  EXPECT_EQ(events[0].args[0].second, 1234.0);
}

TEST(TraceCollectorTest, ThreadsGetDistinctTids) {
  CollectorScope scope;
  auto worker = [] {
    FORUMCAST_SPAN("test.worker");
    spin_for_us(50);
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  const auto events = TraceCollector::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceCollectorTest, AggregateFoldsByName) {
  CollectorScope scope;
  for (int i = 0; i < 3; ++i) {
    FORUMCAST_SPAN("test.repeat");
    spin_for_us(100);
  }
  {
    FORUMCAST_SPAN("test.once");
    spin_for_us(100);
  }
  const auto rows = TraceCollector::global().aggregate();
  ASSERT_EQ(rows.size(), 2u);
  const auto repeat = std::find_if(rows.begin(), rows.end(), [](const auto& r) {
    return r.name == "test.repeat";
  });
  ASSERT_NE(repeat, rows.end());
  EXPECT_EQ(repeat->count, 3u);
  EXPECT_GT(repeat->total_ms, 0.0);
  EXPECT_NEAR(repeat->mean_ms * 3.0, repeat->total_ms, 1e-9);
  EXPECT_GE(repeat->max_ms, repeat->min_ms);
}


TEST(ChromeTraceTest, ExportParsesAndEventsAreWellFormed) {
  CollectorScope scope;
  {
    FORUMCAST_SPAN("test.export \"quoted\"");
    spin_for_us(100);
    {
      FORUMCAST_SPAN_NAMED(child, "test.export.child");
      child.arg("items", 42.0);
      spin_for_us(100);
    }
  }
  const std::string json = TraceCollector::global().chrome_trace_json();
  const auto root = JsonParser(json).parse();
  const auto& top = as_object(root);
  ASSERT_TRUE(top.contains("traceEvents"));
  const auto& events = as_array(top.at("traceEvents"));
  ASSERT_EQ(events.size(), 2u);

  std::uint64_t previous_ts = 0;
  for (const auto& event : events) {
    const auto& fields = as_object(event);
    ASSERT_TRUE(fields.contains("name"));
    ASSERT_TRUE(fields.contains("ph"));
    ASSERT_TRUE(fields.contains("ts"));
    ASSERT_TRUE(fields.contains("dur"));
    ASSERT_TRUE(fields.contains("pid"));
    ASSERT_TRUE(fields.contains("tid"));
    EXPECT_EQ(as_string(fields.at("ph")), "X");
    // ts monotone (events are sorted by start), dur non-negative.
    const auto ts = static_cast<std::uint64_t>(as_number(fields.at("ts")));
    EXPECT_GE(ts, previous_ts);
    previous_ts = ts;
    EXPECT_GE(as_number(fields.at("dur")), 0.0);
  }

  // The quoted span name survived escaping, and the child kept its args.
  EXPECT_EQ(as_string(as_object(events[0]).at("name")),
            "test.export \"quoted\"");
  const auto& child_fields = as_object(events[1]);
  ASSERT_TRUE(child_fields.contains("args"));
  EXPECT_EQ(as_number(as_object(child_fields.at("args")).at("items")), 42.0);
}

#endif  // FORUMCAST_OBS_ENABLED

TEST(ChromeTraceTest, WriteChromeTraceMatchesString) {
  CollectorScope scope;
  {
    FORUMCAST_SPAN("test.stream");
  }
  std::ostringstream stream;
  TraceCollector::global().write_chrome_trace(stream);
  EXPECT_EQ(stream.str(), TraceCollector::global().chrome_trace_json());
}

TEST(ChromeTraceTest, EmptyCollectorProducesValidJson) {
  CollectorScope scope;
  const auto root = JsonParser(TraceCollector::global().chrome_trace_json()).parse();
  EXPECT_TRUE(as_array(as_object(root).at("traceEvents")).empty());
}

}  // namespace
}  // namespace forumcast::obs
