// SpanSink / SpanTracer: track interning, event bookkeeping, Chrome
// trace-event export shape, and the invariant that attaching a span sink
// never changes report bytes (docs/OBSERVABILITY.md).
#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "common/json_value.h"
#include "graphs/block_aa.h"
#include "graphs/block_index.h"
#include "graphs/graph.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "obs/report.h"
#include "trees/generators.h"

namespace treeaa::obs {
namespace {

TEST(SpanSink, TracksInternByProcessAndThreadName) {
  SpanSink sink;
  const TrackId a = sink.track("engine", "phases");
  const TrackId b = sink.track("engine", "rounds");
  const TrackId c = sink.track("parties", "party 0");
  const TrackId a2 = sink.track("engine", "phases");
  EXPECT_EQ(a.pid, a2.pid);
  EXPECT_EQ(a.tid, a2.tid);
  EXPECT_EQ(a.pid, b.pid);      // same process group
  EXPECT_NE(a.tid, b.tid);      // distinct thread rows
  EXPECT_NE(a.pid, c.pid);      // distinct process group
  const std::vector<std::string> names = sink.track_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "engine/phases");
  EXPECT_EQ(names[1], "engine/rounds");
  EXPECT_EQ(names[2], "parties/party 0");
}

TEST(SpanSink, CountsSpansInstantsAndFlowHalves) {
  SpanSink sink;
  const TrackId t = sink.track("p", "t");
  sink.complete(t, "work", 100, 300);
  sink.complete(t, "more", 300, 400, "{\"round\":1}");
  sink.instant(t, "mark", 250);
  sink.flow_start(t, 7, 150);
  sink.flow_finish(t, 7, 350);
  EXPECT_EQ(sink.span_count(), 2u);
  EXPECT_EQ(sink.instant_count(), 1u);
  EXPECT_EQ(sink.flow_count(), 2u);  // both halves
}

TEST(SpanSink, ChromeJsonParsesWithExpectedEventShapes) {
  SpanSink sink;
  const TrackId t = sink.track("proc", "thr");
  sink.complete(t, "span", 1000, 3000, "{\"k\":1}");
  sink.instant(t, "tick", 1500);
  sink.flow_start(t, 42, 1200);
  sink.flow_finish(t, 42, 2800);
  const auto doc = treeaa::JsonValue::parse(sink.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  const treeaa::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t meta = 0;
  bool saw_span = false, saw_instant = false;
  bool saw_flow_start = false, saw_flow_finish = false;
  for (const treeaa::JsonValue& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++meta;
      const std::string name = e.find("name")->as_string();
      EXPECT_TRUE(name == "process_name" || name == "thread_name");
      continue;
    }
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    if (ph == "X") {
      saw_span = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 1.0);   // µs
      EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 2.0);  // µs
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_DOUBLE_EQ(e.find("args")->find("k")->as_number(), 1.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.find("s")->as_string(), "t");
    } else if (ph == "s") {
      saw_flow_start = true;
      EXPECT_DOUBLE_EQ(e.find("id")->as_number(), 42.0);
    } else if (ph == "f") {
      saw_flow_finish = true;
      EXPECT_DOUBLE_EQ(e.find("id")->as_number(), 42.0);
      // bp:"e" binds the arrow to the enclosing slice — required for
      // Perfetto to render the edge.
      ASSERT_NE(e.find("bp"), nullptr);
      EXPECT_EQ(e.find("bp")->as_string(), "e");
    }
  }
  EXPECT_EQ(meta, 2u);  // one process_name + one thread_name
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_finish);
}

TEST(SpanSink, BackwardsSpanClampsToZeroDuration) {
  SpanSink sink;
  const TrackId t = sink.track("p", "t");
  sink.complete(t, "inverted", 5000, 1000);
  const auto doc = treeaa::JsonValue::parse(sink.to_chrome_json());
  ASSERT_TRUE(doc.has_value());
  for (const treeaa::JsonValue& e : doc->find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 0.0);
  }
}

TEST(DriverSpans, NullSinkIsInert) {
  DriverSpans spans(nullptr);
  spans.begin_round();
  spans.end_round("round 0");  // must not crash or dereference
}

TEST(SpanTracer, EngineRunRecordsAllTrackFamilies) {
  const auto tree = make_path(12);
  const auto inputs = harness::spread_vertex_inputs(tree, 4);
  SpanSink sink;
  Hooks hooks;
  hooks.spans = &sink;
  const auto run = core::run_tree_aa(tree, inputs, 1, {}, nullptr, &hooks);
  EXPECT_GT(run.rounds, 0u);
  EXPECT_GT(sink.span_count(), 0u);
  EXPECT_GT(sink.flow_count(), 0u);
  bool driver = false, phases = false, party = false;
  for (const std::string& name : sink.track_names()) {
    driver = driver || name == "engine/driver";
    phases = phases || name == "engine/phases";
    party = party || name.rfind("parties/party ", 0) == 0;
  }
  EXPECT_TRUE(driver);
  EXPECT_TRUE(phases);
  EXPECT_TRUE(party);
}

TEST(SpanTracer, PrefixNamespacesEveryTrack) {
  SpanSink sink;
  SpanTracer tracer(sink, nullptr, "replay ");
  tracer.on_round_begin(0);
  tracer.on_phase_begin(0, sim::Phase::kSend);
  tracer.on_phase_end(0, sim::Phase::kSend);
  for (const std::string& name : sink.track_names()) {
    EXPECT_EQ(name.rfind("replay ", 0), 0u) << name;
  }
  EXPECT_FALSE(sink.track_names().empty());
}

TEST(SpanTracer, AttachingSpansNeverChangesReportBytes) {
  const auto tree = make_spider(3, 5);
  const auto inputs = harness::spread_vertex_inputs(tree, 4);

  RunReport plain;
  Hooks plain_hooks;
  plain_hooks.report = &plain;
  (void)core::run_tree_aa(tree, inputs, 1, {}, nullptr, &plain_hooks);

  RunReport traced;
  SpanSink sink;
  Hooks traced_hooks;
  traced_hooks.report = &traced;
  traced_hooks.spans = &sink;
  (void)core::run_tree_aa(tree, inputs, 1, {}, nullptr, &traced_hooks);

  EXPECT_GT(sink.span_count(), 0u);
  // The canonical (timings-off) serialization must be byte-identical.
  EXPECT_EQ(plain.to_json(false), traced.to_json(false));
}

/// The names of the "engine/driver" spans in `sink`, in record order, read
/// back through the exported Chrome JSON.
std::vector<std::string> driver_span_names(const SpanSink& sink) {
  const auto doc = treeaa::JsonValue::parse(sink.to_chrome_json());
  EXPECT_TRUE(doc.has_value());
  if (!doc.has_value()) return {};
  const auto& events = doc->find("traceEvents")->items();
  double pid = -1.0;
  for (const treeaa::JsonValue& e : events) {
    if (e.find("name")->as_string() == "process_name" &&
        e.find("args")->find("name")->as_string() == "engine") {
      pid = e.find("pid")->as_number();
    }
  }
  double tid = -1.0;
  for (const treeaa::JsonValue& e : events) {
    if (e.find("name")->as_string() == "thread_name" &&
        e.find("pid")->as_number() == pid &&
        e.find("args")->find("name")->as_string() == "driver") {
      tid = e.find("tid")->as_number();
    }
  }
  std::vector<std::string> names;
  for (const treeaa::JsonValue& e : events) {
    if (e.find("ph")->as_string() == "X" &&
        e.find("pid")->as_number() == pid &&
        e.find("tid")->as_number() == tid) {
      names.push_back(e.find("name")->as_string());
    }
  }
  return names;
}

/// Driver spans of one registry protocol run on `tree` (n = 7, t = 2).
std::vector<std::string> registry_driver_names(harness::ProtocolKind p,
                                               const LabeledTree& tree) {
  SpanSink sink;
  Hooks hooks;
  hooks.spans = &sink;
  harness::RunSpec spec;
  spec.protocol = p;
  spec.n = 7;
  spec.t = 2;
  spec.hooks = &hooks;
  if (harness::is_vertex_protocol(p)) {
    spec.tree = &tree;
    spec.vertex_inputs = harness::spread_vertex_inputs(tree, spec.n);
  } else {
    spec.eps = 0.5;
    spec.known_range = 100.0;
    spec.real_inputs = harness::spread_real_inputs(spec.n, 0.0, 100.0);
  }
  (void)harness::run_protocol(std::move(spec));
  return driver_span_names(sink);
}

/// Pins the protocol-aware round names on the "engine/driver" track: TreeAA
/// names its phase-1 flooding rounds and its phase-2 gradecast sub-rounds,
/// BlockAA on a tree names them exactly like TreeAA, RealAA names gradecast
/// sub-rounds, and protocols without a namer fall back to "round R".
TEST(DriverSpans, ProtocolRoundNames) {
  const auto tree = make_spider(3, 3);
  const auto inputs = harness::spread_vertex_inputs(tree, 7);

  SpanSink tree_sink;
  Hooks tree_hooks;
  tree_hooks.spans = &tree_sink;
  const auto run = core::run_tree_aa(tree, inputs, 2, {}, nullptr, &tree_hooks);
  const auto tree_names = driver_span_names(tree_sink);
  ASSERT_EQ(tree_names.size(), run.rounds);
  EXPECT_EQ(tree_names.front(), "phase1 \xc2\xb7 round 1");
  EXPECT_NE(std::find(tree_names.begin(), tree_names.end(),
                      "phase2 \xc2\xb7 iter 1 \xc2\xb7 leader"),
            tree_names.end());

  const graphs::BlockIndex index(graphs::graph_from_tree(tree));
  SpanSink block_sink;
  Hooks block_hooks;
  block_hooks.spans = &block_sink;
  (void)graphs::run_block_aa(index, inputs, 2, {}, nullptr, &block_hooks);
  EXPECT_EQ(driver_span_names(block_sink), tree_names);

  const auto real_names =
      registry_driver_names(harness::ProtocolKind::kRealAA, tree);
  ASSERT_GE(real_names.size(), 3u);
  EXPECT_EQ(real_names[0], "iter 1 \xc2\xb7 leader");
  EXPECT_EQ(real_names[1], "iter 1 \xc2\xb7 echo");
  EXPECT_EQ(real_names[2], "iter 1 \xc2\xb7 support");

  const auto iterated_names =
      registry_driver_names(harness::ProtocolKind::kIteratedTreeAA, tree);
  ASSERT_FALSE(iterated_names.empty());
  EXPECT_EQ(iterated_names.front(), "round 1");
}

}  // namespace
}  // namespace treeaa::obs
