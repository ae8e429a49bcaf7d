#include <gtest/gtest.h>
#include "graph/datasets.h"
#include "graphdb/event_sim.h"
#include "partition/partitioner.h"

namespace sgp {
namespace {

GraphDatabase MakeDb(const Graph& g, PartitionId k) {
  PartitionConfig cfg;
  cfg.k = k;
  return GraphDatabase(g, CreatePartitioner("FNL")->Run(g, cfg));
}

SimConfig TracingSim(uint64_t queries = 2000) {
  SimConfig cfg;
  cfg.clients = 16;
  cfg.num_queries = queries;
  cfg.collect_traces = true;
  return cfg;
}

TEST(SimTraceTest, CollectsOneRecordPerMeasuredQuery) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, TracingSim());
  EXPECT_EQ(r.query_traces.size(), r.completed);
  EXPECT_EQ(r.query_traces.dropped(), 0u);
}

TEST(SimTraceTest, TracesConsistentWithLatencySummary) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, TracingSim());
  const std::vector<TraceEvent> traces = r.query_traces.Snapshot();
  double sum = 0;
  for (const TraceEvent& t : traces) {
    ASSERT_GE(t.end, t.start);  // completion after issue, simulated clock
    sum += t.end - t.start;
  }
  EXPECT_NEAR(sum / static_cast<double>(traces.size()), r.latency.mean,
              1e-9);
}

TEST(SimTraceTest, TraceFieldsMatchPlans) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, TracingSim());
  // Payload: args = binding, coordinator, reads, rounds.
  for (const TraceEvent& t : r.query_traces.Snapshot()) {
    ASSERT_LT(t.args[0], w.bindings().size());
    QueryPlan plan = db.Plan(w.bindings()[t.args[0]]);
    ASSERT_EQ(t.args[1], plan.coordinator);
    ASSERT_EQ(t.args[2], plan.total_reads);
    ASSERT_EQ(t.args[3], plan.rounds.size());
  }
}

TEST(SimTraceTest, TraceEventsAreNamedAndNumberedInCompletionOrder) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimResult r = SimulateClosedLoop(db, w, TracingSim(500));
  const std::vector<TraceEvent> events = r.query_traces.Snapshot();
  ASSERT_GT(events.size(), 0u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "query");
    EXPECT_EQ(events[i].id, static_cast<uint32_t>(i));
  }
}

TEST(SimTraceTest, CapRespected) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimConfig cfg = TracingSim(4000);
  cfg.max_traces = 100;
  SimResult r = SimulateClosedLoop(db, w, cfg);
  EXPECT_EQ(r.query_traces.size(), 100u);
  // Appends beyond the cap are counted, not stored.
  EXPECT_EQ(r.query_traces.dropped(), r.completed - 100u);
  // Statistics still cover every measured query, not just the traced ones.
  EXPECT_EQ(r.latency.count, r.completed);
}

TEST(SimTraceTest, IdenticalSeedsProduceIdenticalTraces) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimResult a = SimulateClosedLoop(db, w, TracingSim());
  SimResult b = SimulateClosedLoop(db, w, TracingSim());
  const std::vector<TraceEvent> at = a.query_traces.Snapshot();
  const std::vector<TraceEvent> bt = b.query_traces.Snapshot();
  ASSERT_EQ(at.size(), bt.size());
  for (size_t i = 0; i < at.size(); ++i) {
    EXPECT_EQ(at[i].args, bt[i].args);
    EXPECT_DOUBLE_EQ(at[i].start, bt[i].start);
    EXPECT_DOUBLE_EQ(at[i].end, bt[i].end);
  }
}

TEST(SimTraceTest, ExplicitlyDisabledIgnoresCap) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimConfig cfg = TracingSim(1000);
  cfg.collect_traces = false;
  cfg.max_traces = 100;  // cap must be irrelevant when collection is off
  SimResult r = SimulateClosedLoop(db, w, cfg);
  EXPECT_TRUE(r.query_traces.empty());
  EXPECT_GT(r.completed, 0u);
}

TEST(SimTraceTest, ZeroCapCollectsNothing) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimConfig cfg = TracingSim(1000);
  cfg.max_traces = 0;
  SimResult r = SimulateClosedLoop(db, w, cfg);
  EXPECT_TRUE(r.query_traces.empty());
  EXPECT_EQ(r.latency.count, r.completed);
}

TEST(SimTraceTest, DisabledByDefault) {
  Graph g = MakeDataset("ldbc", 9);
  GraphDatabase db = MakeDb(g, 4);
  Workload w(g, {});
  SimConfig cfg;
  cfg.clients = 8;
  cfg.num_queries = 500;
  SimResult r = SimulateClosedLoop(db, w, cfg);
  EXPECT_TRUE(r.query_traces.empty());
}

}  // namespace
}  // namespace sgp
