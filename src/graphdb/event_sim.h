#ifndef SGP_GRAPHDB_EVENT_SIM_H_
#define SGP_GRAPHDB_EVENT_SIM_H_

#include <cstdint>
#include <vector>

#include <string>

#include "common/faults.h"
#include "common/monitor.h"
#include "common/statistics.h"
#include "common/telemetry.h"
#include "graphdb/graphdb.h"
#include "graphdb/workload.h"
#include "partition/dynamic/reshard.h"

namespace sgp {

/// A live reshard running concurrently with the simulated workload: the
/// controller starts at `start_time` on the simulated clock and migrates
/// batches while clients keep issuing queries. Reads of a vertex whose
/// master already moved are redirected (miss → forward to the new owner,
/// never an error); SimResult::reshard reports availability, tail latency
/// and wire volume measured through the transition.
struct LiveReshardSpec {
  ReshardOp op;  // kind == kNone leaves the simulation unchanged
  double start_time = 0;
  ReshardConfig config;

  bool active() const { return op.kind != ReshardOpKind::kNone; }
};

/// Live monitoring inside the simulation. When enabled, a kMonitorSample
/// event fires every `sample_interval` simulated seconds: the current
/// registry is sampled into a TimeSeriesStore, every SLO is evaluated,
/// and each fired alert (annotated with the active reshard phase when a
/// live reshard is in flight) triggers a flight-recorder dump. Because
/// sampling rides the simulated clock — never a wall clock — the sampled
/// series, the alert stream, and every dump are byte-identical given
/// identical seeds (and a fresh / scoped MetricsRegistry per run, the
/// experiment-grid pattern).
struct MonitorSpec {
  bool enabled = false;

  /// Simulated seconds between registry samples.
  double sample_interval = 0.05;

  /// Ring capacity of every sampled series.
  size_t series_capacity = 4096;

  /// Objectives evaluated at every sample tick. Measured-window query
  /// outcomes feed the tracker (warmup completions are excluded, like
  /// every other SimResult statistic).
  std::vector<SloConfig> slos;

  FlightRecorderConfig recorder;

  /// Also dump on every failed / timed-out query (subject to the
  /// recorder's max_dumps budget), not just on alerts.
  bool dump_on_query_failure = false;
};

/// Closed-loop load-generation configuration (Section 5.2.4): `clients`
/// concurrent clients each issue the next query as soon as the previous
/// one completes. The paper's medium load is 12 clients per worker, high
/// load is 24.
struct SimConfig {
  uint32_t clients = 64;

  /// Total completed queries to simulate.
  uint64_t num_queries = 20000;

  /// Fraction of initial completions excluded from measurement (cache /
  /// queue warm-up, as in Section 5.2.3).
  double warmup_fraction = 0.1;

  uint64_t seed = 123;

  /// Collect a per-query trace (for debugging and latency-breakdown
  /// analysis). Off by default — traces cost memory.
  bool collect_traces = false;

  /// Cap on collected trace records when collect_traces is set.
  uint32_t max_traces = 1u << 20;

  /// Injected faults (worker outages, stragglers, message loss). An empty
  /// plan reproduces the healthy-cluster simulation bit-for-bit; with a
  /// non-empty plan, failure and recovery events interleave with query
  /// events and SimResult::availability is populated.
  FaultPlan faults;

  /// How clients react to failed sub-requests when `faults` is non-empty:
  /// capped exponential backoff retries plus a per-query deadline.
  RetryPolicy retry;

  /// Optional live reshard executed during the run (inactive by default —
  /// an inactive spec reproduces the plain simulation bit-for-bit).
  LiveReshardSpec reshard;

  /// Optional live monitoring (disabled by default — a disabled spec
  /// reproduces the plain simulation bit-for-bit).
  MonitorSpec monitor;
};

/// Availability metrics of a faulty run — what the paper's healthy-cluster
/// evaluation cannot see. Counters cover the measurement window unless
/// noted; all zeros / defaults when SimConfig::faults is empty.
struct AvailabilityStats {
  /// Queries finished in the measurement window, by outcome. `succeeded`
  /// equals SimResult::completed.
  uint64_t succeeded = 0;
  uint64_t failed = 0;     // retry attempts exhausted, or start data lost
  uint64_t timed_out = 0;  // client deadline expired

  /// Sub-request retry attempts (whole run, warmup included).
  uint64_t retries = 0;

  /// Vertex reads served by a non-master replica after failover (whole
  /// run). Nonzero only for vertex-cut / hybrid placements — replication
  /// is what lets those placements keep serving through an outage.
  uint64_t degraded_reads = 0;

  /// One-way hops dropped by the message-loss process (whole run).
  uint64_t lost_messages = 0;

  /// succeeded / (succeeded + failed + timed_out); 1.0 for an empty window.
  double availability = 1.0;

  /// Latency of successful queries whose lifetime overlapped an outage
  /// window, vs. those fully in steady state (p99 during the outage vs.
  /// p99 in steady state).
  DistributionSummary latency_during_outage;
  DistributionSummary latency_steady;
};

/// What the simulator measured about a live reshard that ran concurrently
/// with the workload (SimConfig::reshard). All fields are deterministic
/// per seed. "During" counters cover queries in the measurement window
/// whose lifetime overlapped [start_time, end of the reshard].
struct ReshardSimStats {
  bool ran = false;
  ReshardPhase phase = ReshardPhase::kPlanned;
  double start_time = 0;
  double end_time = 0;  // 0 when the run ended before the reshard did

  uint64_t planned_moves = 0;
  uint64_t moved_vertices = 0;
  uint64_t migration_bytes = 0;  // MigrationCostModel wire volume
  uint64_t batches_committed = 0;
  uint64_t batch_retries = 0;
  uint64_t batches_rolled_back = 0;
  uint64_t moves_replanned = 0;
  uint64_t moves_cancelled = 0;

  /// Reads redirected because their vertex had already moved, and the
  /// queries (whole run) that needed at least one such redirect.
  uint64_t forwarded_reads = 0;
  uint64_t forwarded_queries = 0;

  /// Availability through the transition: outcomes of measured queries
  /// overlapping the reshard, and their latency distribution.
  uint64_t succeeded_during = 0;
  uint64_t failed_during = 0;
  uint64_t timed_out_during = 0;
  double availability_during = 1.0;
  DistributionSummary latency_during;
};

/// Everything the paper measures about one online-workload run.
struct SimResult {
  /// Measurement-window duration in simulated seconds.
  double window_seconds = 0;

  /// Queries completed inside the measurement window.
  uint64_t completed = 0;

  /// Aggregate cluster throughput (Figure 6).
  double throughput_qps = 0;

  /// Latency distribution in seconds (Table 5 reports mean and p99).
  DistributionSummary latency;

  /// Vertex reads served by each worker (Figures 7 and 15).
  std::vector<double> reads_per_worker;

  /// Cluster-internal traffic of the whole run (Figure 5).
  uint64_t total_network_bytes = 0;
  uint64_t total_remote_messages = 0;

  /// Bounded per-query trace buffer (telemetry API): one "query" event
  /// per measured query, oldest first, capped at SimConfig::max_traces.
  /// start/end are issue and completion on the simulated clock; args are
  /// {binding (index into Workload::bindings()), coordinator, total vertex
  /// reads of the plan, fork-join rounds}. Empty unless
  /// SimConfig::collect_traces.
  TraceBuffer query_traces{0};

  /// Availability metrics under the injected FaultPlan (defaults when the
  /// plan is empty).
  AvailabilityStats availability;

  /// Live-reshard metrics (defaults when SimConfig::reshard is inactive).
  /// When a reshard ran, reads_per_worker covers the post-reshape id
  /// space (one extra slot after a split).
  ReshardSimStats reshard;

  /// Live-monitoring output (all empty unless SimConfig::monitor.enabled).
  /// `alerts` is every burn-rate alert in fire order; `time_series` is the
  /// full sgp.timeseries.v1 export of the sampled store; `blackbox` holds
  /// the sgp.blackbox.v1 flight-recorder dumps in trigger order.
  std::vector<Alert> alerts;
  std::string time_series;
  std::vector<std::string> blackbox;

  /// The sampled store itself — what RecommendFromTimeSeries consumes
  /// (`time_series` above is its serialized form).
  TimeSeriesStore monitor_series;
};

/// Discrete-event simulation of the JanusGraph cluster: FIFO single-server
/// workers with per-read service time, fixed one-way network latency per
/// hop, closed-loop clients drawing Zipf-popular bindings. Queueing at hot
/// workers — not modeled by any structural partitioning metric — is what
/// produces the tail-latency inflation of Table 5.
///
/// With a non-empty SimConfig::faults, failure and recovery events
/// interleave with query events: requests arriving at a dead worker fail
/// over to a live data replica (vertex-cut / hybrid placements), are
/// retried under SimConfig::retry, or time out at the client deadline;
/// stragglers stretch service times; lossy hops drop sub-requests. Given
/// identical inputs and seeds the result is bit-identical.
SimResult SimulateClosedLoop(const GraphDatabase& db, const Workload& workload,
                             const SimConfig& config);

}  // namespace sgp

#endif  // SGP_GRAPHDB_EVENT_SIM_H_
