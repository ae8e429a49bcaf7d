#include "graphdb/event_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/random.h"

namespace sgp {

namespace {

enum class EventType : uint8_t {
  kIssue,
  kTaskArrival,
  kAdvance,
  kDeadline,
  kForward,        // redirected reads of moved vertices (live reshard)
  kReshardStep,    // advance the ReshardController
  kMonitorSample,  // periodic live-monitoring tick (SimConfig::monitor)
};

struct Event {
  double time = 0;
  uint64_t seq = 0;  // tie-breaker for deterministic ordering
  EventType type = EventType::kIssue;
  uint32_t client = 0;
  uint32_t round = 0;
  uint32_t task = 0;
  uint32_t gen = 0;      // query generation; stale events are dropped
  uint32_t attempt = 0;  // failed tries of this sub-request so far
  // kForward only: destination worker and redirected read count.
  PartitionId worker = 0;
  uint64_t reads = 0;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

// Per-client in-flight query bookkeeping.
struct InFlight {
  const QueryPlan* plan = nullptr;
  uint32_t binding = 0;
  uint32_t round = 0;
  uint32_t remaining_tasks = 0;
  double round_end = 0;    // completion time of the slowest task so far
  double start_time = 0;   // when the client issued the query
  double deadline = std::numeric_limits<double>::infinity();
  uint32_t gen = 0;        // bumped whenever the query finishes
  bool forwarded = false;  // some read was redirected by the live reshard
};

enum class Outcome : uint8_t { kSuccess, kFailed, kTimedOut };

// Per-query-kind latency histograms (simulated clock — deterministic)
// plus fault / retry counters of the online simulator. Published into the
// calling thread's current registry (see ScopedMetricsRegistry).
struct SimMetrics {
  Histogram* latency_by_kind[3] = {nullptr, nullptr, nullptr};
  Counter* sims = nullptr;
  Counter* queries_completed = nullptr;
  Counter* retries = nullptr;
  Counter* failed = nullptr;
  Counter* timed_out = nullptr;
  Counter* lost_messages = nullptr;
  Counter* degraded_reads = nullptr;
  Counter* network_bytes = nullptr;
  Counter* remote_messages = nullptr;
  Counter* forwarded_reads = nullptr;
  Counter* forwarded_queries = nullptr;
  Counter* monitor_samples = nullptr;
  Counter* monitor_alerts = nullptr;
  Counter* monitor_dumps = nullptr;

  SimMetrics() = default;
  explicit SimMetrics(MetricsRegistry& reg) {
    latency_by_kind[static_cast<int>(QueryKind::kOneHop)] =
        reg.GetHistogram("graphdb.query_latency.one_hop.sim_seconds");
    latency_by_kind[static_cast<int>(QueryKind::kTwoHop)] =
        reg.GetHistogram("graphdb.query_latency.two_hop.sim_seconds");
    latency_by_kind[static_cast<int>(QueryKind::kShortestPath)] =
        reg.GetHistogram("graphdb.query_latency.shortest_path.sim_seconds");
    sims = reg.GetCounter("graphdb.sim.runs");
    queries_completed = reg.GetCounter("graphdb.sim.queries.completed");
    retries = reg.GetCounter("graphdb.sim.retries");
    failed = reg.GetCounter("graphdb.sim.queries.failed");
    timed_out = reg.GetCounter("graphdb.sim.queries.timed_out");
    lost_messages = reg.GetCounter("graphdb.sim.messages.lost");
    degraded_reads = reg.GetCounter("graphdb.sim.reads.degraded");
    network_bytes = reg.GetCounter("graphdb.sim.network.bytes");
    remote_messages = reg.GetCounter("graphdb.sim.messages.remote");
    forwarded_reads = reg.GetCounter("reshard.reads.forwarded");
    forwarded_queries = reg.GetCounter("reshard.queries.forwarded");
    monitor_samples = reg.GetCounter("monitor.samples");
    monitor_alerts = reg.GetCounter("monitor.alerts");
    monitor_dumps = reg.GetCounter("monitor.dumps");
  }

  static SimMetrics& Get() { return CurrentRegistryMetrics<SimMetrics>(); }
};

}  // namespace

SimResult SimulateClosedLoop(const GraphDatabase& db, const Workload& workload,
                             const SimConfig& config) {
  SimResult result;
  result.reads_per_worker.assign(db.k(), 0.0);
  result.query_traces.set_capacity(config.collect_traces ? config.max_traces
                                                         : 0);
  // Degenerate configurations produce a well-defined empty result instead
  // of hanging, dividing by zero, or aborting.
  if (config.clients == 0 || config.num_queries == 0 ||
      config.warmup_fraction >= 1.0 || config.warmup_fraction < 0.0) {
    return result;
  }
  SimMetrics& metrics = SimMetrics::Get();
  metrics.sims->Increment();
  const DbCostModel& cost = db.cost_model();
  const double latency_hop = cost.network_latency_seconds;
  const FaultPlan& faults = config.faults;
  const RetryPolicy& retry = config.retry;
  const bool has_faults = !faults.empty();
  const bool has_outages = !faults.outages.empty();
  const bool has_reshard = config.reshard.active();
  if (has_faults) {
    faults.Validate(db.k());
    retry.Validate();
  }

  // Live reshard: the move plan is computed eagerly, then replayed by
  // kReshardStep events on the simulated clock. `cur_owner` is the live
  // ownership view the forwarding path re-resolves reads against; query
  // plans stay stale on purpose (the router learns lazily — a miss is a
  // redirect, never an error).
  std::unique_ptr<ReshardController> reshard_ctl;
  std::vector<PartitionId> cur_owner;
  PartitionId k_total = db.k();
  double reshard_end = std::numeric_limits<double>::infinity();
  if (has_reshard) {
    SGP_CHECK(config.reshard.start_time >= 0);
    const VertexId n = db.graph().num_vertices();
    cur_owner.resize(n);
    for (VertexId v = 0; v < n; ++v) cur_owner[v] = db.Owner(v);
    reshard_ctl = std::make_unique<ReshardController>(
        db.graph(), cur_owner, db.k(), config.reshard.op,
        config.reshard.config);
    k_total = reshard_ctl->k_after();
    result.reads_per_worker.assign(k_total, 0.0);
  }
  // Request + response hop loss folded into one draw per remote attempt.
  const double loss_round_trip =
      has_faults ? 1.0 - (1.0 - faults.message_loss_probability) *
                             (1.0 - faults.message_loss_probability)
                 : 0.0;

  // Plans are deterministic per binding and per live-worker set. Fault
  // epochs — maximal intervals with a constant down mask — are known
  // upfront, so one plan table is prebuilt per distinct mask; queries
  // issued during an outage fail over to replicas via their epoch's table.
  std::vector<std::vector<QueryPlan>> plan_tables;
  auto build_table = [&](const std::vector<char>& mask) {
    std::vector<QueryPlan> plans;
    plans.reserve(workload.bindings().size());
    for (const Query& q : workload.bindings()) {
      plans.push_back(db.Plan(q, mask, /*record_vertices=*/has_reshard));
    }
    return plans;
  };
  plan_tables.push_back(build_table({}));  // healthy table, index 0
  std::vector<double> epoch_starts{0.0};
  std::vector<uint32_t> epoch_table{0};
  if (has_outages) {
    std::map<std::vector<char>, uint32_t> mask_index;
    mask_index[{}] = 0;
    std::vector<double> transitions = faults.OutageTransitionTimes();
    for (double t : transitions) {
      std::vector<char> mask = faults.DownMask(db.k(), t);
      auto [it, inserted] =
          mask_index.emplace(mask, static_cast<uint32_t>(plan_tables.size()));
      if (inserted) plan_tables.push_back(build_table(mask));
      if (t <= 0.0) {
        epoch_table[0] = it->second;
      } else {
        epoch_starts.push_back(t);
        epoch_table.push_back(it->second);
      }
    }
  }
  auto plan_for = [&](double t, uint32_t binding) -> const QueryPlan* {
    size_t epoch = 0;
    if (has_outages) {
      epoch = static_cast<size_t>(
                  std::upper_bound(epoch_starts.begin(), epoch_starts.end(), t) -
                  epoch_starts.begin()) -
              1;
    }
    return &plan_tables[epoch_table[epoch]][binding];
  };

  // Live monitoring: registry samples, SLO evaluation and flight-recorder
  // dumps all ride the simulated clock (kMonitorSample events), so every
  // observation is deterministic per seed. The sampled registry is the
  // calling thread's current one — the same registry SimMetrics publishes
  // into, which is how a scoped per-run registry isolates the series.
  const MonitorSpec& monitor = config.monitor;
  const bool has_monitor = monitor.enabled && monitor.sample_interval > 0;
  MetricsRegistry& registry = MetricsRegistry::Current();
  TimeSeriesStoreOptions store_options;
  store_options.capacity_per_series = monitor.series_capacity;
  TimeSeriesStore store(store_options);
  SloTracker slo_tracker(monitor.slos);
  FlightRecorder recorder(monitor.recorder);
  if (has_monitor) recorder.ArmBaseline(registry);

  Rng rng(config.seed);
  // Lognormal service-time multiplier with mean 1 and the configured
  // coefficient of variation.
  const double cv = cost.service_time_cv;
  const double lognorm_sigma =
      cv > 0 ? std::sqrt(std::log(1.0 + cv * cv)) : 0.0;
  const double lognorm_mu = -0.5 * lognorm_sigma * lognorm_sigma;
  auto service_noise = [&]() {
    if (cv <= 0) return 1.0;
    // Box-Muller.
    double u1 = std::max(rng.UniformReal(), 1e-12);
    double u2 = rng.UniformReal();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return std::exp(lognorm_mu + lognorm_sigma * z);
  };

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  uint64_t next_seq = 0;
  auto push = [&](Event e) {
    e.seq = next_seq++;
    events.push(e);
  };

  std::vector<InFlight> inflight(config.clients);
  std::vector<double> worker_available(k_total, 0.0);

  const uint64_t warmup =
      static_cast<uint64_t>(config.warmup_fraction *
                            static_cast<double>(config.num_queries));
  uint64_t completed_total = 0;  // finished queries, any outcome
  double window_start = 0;
  double last_completion = 0;
  std::vector<double> latencies;
  latencies.reserve(config.num_queries - warmup);
  std::vector<double> latencies_outage;
  std::vector<double> latencies_steady;
  std::vector<double> latencies_reshard;

  // Schedules the arrival events of one round; remote tasks pay the
  // request hop.
  auto schedule_round = [&](uint32_t client, double base_time) {
    InFlight& q = inflight[client];
    const auto& tasks = q.plan->rounds[q.round];
    q.remaining_tasks = static_cast<uint32_t>(tasks.size());
    q.round_end = base_time;
    for (uint32_t t = 0; t < tasks.size(); ++t) {
      double arrival = base_time +
                       (tasks[t].worker == q.plan->coordinator
                            ? 0.0
                            : latency_hop);
      push({arrival, 0, EventType::kTaskArrival, client, q.round, t, q.gen,
            0});
    }
  };

  // A query finished (successfully or not) at time `t`: account it,
  // invalidate its outstanding events, and have the closed-loop client
  // issue the next one.
  auto finish_query = [&](uint32_t client, double t, Outcome outcome) {
    InFlight& q = inflight[client];
    ++completed_total;
    last_completion = t;
    if (completed_total == warmup) window_start = t;
    if (q.forwarded) ++result.reshard.forwarded_queries;
    // Queries whose lifetime overlapped the reshard transition (from its
    // start until its last batch settled).
    const bool through_reshard = has_reshard &&
                                 t >= config.reshard.start_time &&
                                 q.start_time < reshard_end;
    if (completed_total > warmup) {
      switch (outcome) {
        case Outcome::kSuccess: {
          const double latency = t - q.start_time;
          latencies.push_back(latency);
          metrics
              .latency_by_kind[static_cast<int>(
                  workload.bindings()[q.binding].kind)]
              ->Record(latency);
          if (has_outages) {
            if (faults.AnyOutageOverlaps(q.start_time, t)) {
              latencies_outage.push_back(latency);
            } else {
              latencies_steady.push_back(latency);
            }
          }
          if (through_reshard) {
            ++result.reshard.succeeded_during;
            latencies_reshard.push_back(latency);
          }
          if (config.collect_traces) {
            TraceEvent trace;
            trace.name = "query";
            trace.start = q.start_time;
            trace.end = t;
            trace.id = result.query_traces.NextId();
            trace.args = {q.binding, q.plan->coordinator,
                          q.plan->total_reads,
                          static_cast<uint64_t>(q.plan->rounds.size())};
            result.query_traces.Append(std::move(trace));
          }
          break;
        }
        case Outcome::kFailed:
          ++result.availability.failed;
          if (through_reshard) ++result.reshard.failed_during;
          break;
        case Outcome::kTimedOut:
          ++result.availability.timed_out;
          if (through_reshard) ++result.reshard.timed_out_during;
          break;
      }
      if (has_monitor) {
        slo_tracker.RecordQuery(t, outcome == Outcome::kSuccess,
                                t - q.start_time);
        if (outcome != Outcome::kSuccess && monitor.dump_on_query_failure) {
          recorder.Dump(outcome == Outcome::kFailed ? "query_failed"
                                                    : "query_timed_out",
                        t, store, registry);
        }
      }
    }
    ++q.gen;  // drop stale task / deadline events of this query
    push({t, 0, EventType::kIssue, client, 0, 0, 0, 0});
  };

  auto issue_query = [&](uint32_t client, double now) {
    uint32_t binding = workload.SampleBindingIndex(rng);
    InFlight& q = inflight[client];
    ++q.gen;
    q.plan = plan_for(now, binding);
    q.binding = binding;
    q.round = 0;
    q.start_time = now;
    q.forwarded = false;
    q.deadline = has_faults ? now + retry.query_timeout_seconds
                            : std::numeric_limits<double>::infinity();
    if (has_faults && std::isfinite(q.deadline)) {
      push({q.deadline, 0, EventType::kDeadline, client, 0, 0, q.gen, 0});
    }
    if (!q.plan->reachable) {
      // Every live replica of some required vertex is gone: the router
      // cannot place the query. The client observes its timeout (or an
      // immediate routing error when no deadline is configured).
      if (!std::isfinite(q.deadline)) {
        finish_query(client, now + 2 * latency_hop, Outcome::kFailed);
      }
      return;
    }
    result.total_network_bytes += q.plan->network_bytes;
    result.total_remote_messages += q.plan->remote_messages;
    // Client → router → coordinator hop.
    schedule_round(client, now + latency_hop);
  };

  for (uint32_t c = 0; c < config.clients; ++c) {
    push({0.0, 0, EventType::kIssue, c, 0, 0, 0, 0});
  }
  if (has_reshard) {
    push({config.reshard.start_time, 0, EventType::kReshardStep});
  }
  if (has_monitor) {
    push({monitor.sample_interval, 0, EventType::kMonitorSample});
  }

  while (!events.empty() && completed_total < config.num_queries) {
    Event e = events.top();
    events.pop();
    switch (e.type) {
      case EventType::kIssue:
        issue_query(e.client, e.time);
        break;
      case EventType::kTaskArrival: {
        InFlight& q = inflight[e.client];
        if (e.gen != q.gen) break;  // query already finished
        const QueryPlan::Task& task = q.plan->rounds[e.round][e.task];
        const PartitionId w = task.worker;
        const bool remote = w != q.plan->coordinator;
        // A sub-request attempt fails when its round trip loses a message
        // or the worker is inside an outage window at arrival time.
        bool lost = remote && loss_round_trip > 0 &&
                    rng.Bernoulli(loss_round_trip);
        if (lost) ++result.availability.lost_messages;
        if (lost || (has_outages && faults.IsDown(w, e.time))) {
          const uint32_t failures = e.attempt + 1;
          if (failures >= retry.max_attempts) {
            finish_query(e.client, e.time, Outcome::kFailed);
            break;
          }
          const double retry_time =
              e.time + retry.BackoffSeconds(failures, rng);
          if (retry_time < q.deadline) {
            ++result.availability.retries;
            push({retry_time, 0, EventType::kTaskArrival, e.client, e.round,
                  e.task, e.gen, failures});
          }
          // Otherwise the deadline event fails the query at q.deadline.
          break;
        }
        // Live reshard: reads whose master record already moved off this
        // worker miss locally and are redirected to the current owner
        // (one forward hop per distinct destination). Replica reads
        // (w != master) still hit their physical copy — migration moves
        // the master record only.
        uint64_t local_reads = task.reads;
        std::vector<std::pair<PartitionId, uint64_t>> redirects;
        if (has_reshard) {
          local_reads = 0;
          for (VertexId v : task.vertices) {
            const PartitionId live = cur_owner[v];
            if (w == db.Owner(v) && live != w) {
              auto it = std::find_if(
                  redirects.begin(), redirects.end(),
                  [live](const auto& pr) { return pr.first == live; });
              if (it == redirects.end()) {
                redirects.emplace_back(live, 1);
              } else {
                ++it->second;
              }
            } else {
              ++local_reads;
            }
          }
          if (!redirects.empty()) {
            q.forwarded = true;
            q.remaining_tasks += static_cast<uint32_t>(redirects.size());
          }
        }
        // FIFO single-server worker queue. Remote sub-requests pay RPC
        // handling overhead on top of the storage reads; stragglers
        // stretch the whole service time.
        double service =
            (static_cast<double>(local_reads) * cost.seconds_per_read +
             (remote ? cost.seconds_per_remote_task : 0.0)) *
            service_noise();
        if (has_faults) service *= faults.Slowdown(w, e.time);
        double start = std::max(worker_available[w], e.time);
        double done = start + service;
        worker_available[w] = done;
        result.reads_per_worker[w] += static_cast<double>(local_reads);
        result.availability.degraded_reads += task.degraded_reads;
        // The worker discovers the tombstones while serving, so the
        // forwards leave when it finishes; each costs a network hop and a
        // request/response message pair.
        for (const auto& [dest, cnt] : redirects) {
          result.total_remote_messages += 2;
          result.total_network_bytes +=
              cost.bytes_per_request + cnt * cost.bytes_per_vertex_record;
          result.reshard.forwarded_reads += cnt;
          push({done + latency_hop, 0, EventType::kForward, e.client,
                e.round, 0, e.gen, 0, dest, cnt});
        }
        // Response hop back to the coordinator for remote tasks.
        double task_end = done + (remote ? latency_hop : 0.0);
        q.round_end = std::max(q.round_end, task_end);
        if (--q.remaining_tasks == 0) {
          push({q.round_end, 0, EventType::kAdvance, e.client, e.round, 0,
                e.gen, 0});
        }
        break;
      }
      case EventType::kForward: {
        // Redirected reads arriving at the vertex's current owner. Same
        // failure surface as a remote sub-request: message loss and
        // outages trigger client retries under the same policy.
        InFlight& q = inflight[e.client];
        if (e.gen != q.gen) break;
        const PartitionId w = e.worker;
        bool lost = loss_round_trip > 0 && rng.Bernoulli(loss_round_trip);
        if (lost) ++result.availability.lost_messages;
        if (lost || (has_outages && faults.IsDown(w, e.time))) {
          const uint32_t failures = e.attempt + 1;
          if (failures >= retry.max_attempts) {
            finish_query(e.client, e.time, Outcome::kFailed);
            break;
          }
          const double retry_time =
              e.time + retry.BackoffSeconds(failures, rng);
          if (retry_time < q.deadline) {
            ++result.availability.retries;
            Event r = e;
            r.time = retry_time;
            r.attempt = failures;
            push(r);
          }
          break;
        }
        double service =
            (static_cast<double>(e.reads) * cost.seconds_per_read +
             cost.seconds_per_remote_task) *
            service_noise();
        if (has_faults) service *= faults.Slowdown(w, e.time);
        double start = std::max(worker_available[w], e.time);
        double done = start + service;
        worker_available[w] = done;
        result.reads_per_worker[w] += static_cast<double>(e.reads);
        const double task_end = done + latency_hop;  // response hop back
        q.round_end = std::max(q.round_end, task_end);
        if (--q.remaining_tasks == 0) {
          push({q.round_end, 0, EventType::kAdvance, e.client, e.round, 0,
                e.gen, 0});
        }
        break;
      }
      case EventType::kReshardStep: {
        ReshardStepResult step = reshard_ctl->Step(e.time, faults);
        for (const VertexMove& m : step.applied) cur_owner[m.v] = m.to;
        if (step.bytes > 0) {
          // Migration traffic is cluster-internal traffic too.
          result.total_network_bytes += step.bytes;
          result.total_remote_messages += 2;
        }
        if (step.done || !std::isfinite(step.next_time)) {
          reshard_end = e.time;
        } else {
          push({step.next_time, 0, EventType::kReshardStep});
        }
        break;
      }
      case EventType::kMonitorSample: {
        store.Sample(registry, e.time);
        std::string detail;
        if (has_reshard && e.time >= config.reshard.start_time &&
            !std::isfinite(reshard_end)) {
          detail =
              std::string("reshard=") + ReshardPhaseName(reshard_ctl->phase());
        }
        for (const Alert& a : slo_tracker.Evaluate(e.time, detail)) {
          recorder.Dump("alert:" + a.slo, e.time, store, registry);
        }
        push({e.time + monitor.sample_interval, 0, EventType::kMonitorSample});
        break;
      }
      case EventType::kAdvance: {
        InFlight& q = inflight[e.client];
        if (e.gen != q.gen) break;
        ++q.round;
        if (q.round < q.plan->rounds.size()) {
          schedule_round(e.client, e.time);
          break;
        }
        // Query complete: response hop to the client.
        double completion = e.time + latency_hop;
        if (completion > q.deadline) break;  // deadline event fires first
        finish_query(e.client, completion, Outcome::kSuccess);
        break;
      }
      case EventType::kDeadline: {
        InFlight& q = inflight[e.client];
        if (e.gen != q.gen) break;  // query already finished
        finish_query(e.client, e.time, Outcome::kTimedOut);
        break;
      }
    }
  }

  result.completed = latencies.size();
  result.window_seconds = std::max(1e-12, last_completion - window_start);
  result.throughput_qps =
      static_cast<double>(result.completed) / result.window_seconds;
  AvailabilityStats& avail = result.availability;
  avail.succeeded = result.completed;
  const uint64_t finished = avail.succeeded + avail.failed + avail.timed_out;
  avail.availability =
      finished == 0 ? 1.0
                    : static_cast<double>(avail.succeeded) /
                          static_cast<double>(finished);
  avail.latency_during_outage = Summarize(std::move(latencies_outage));
  avail.latency_steady = Summarize(std::move(latencies_steady));
  result.latency = Summarize(std::move(latencies));
  if (has_reshard) {
    ReshardSimStats& rs = result.reshard;
    rs.ran = true;
    rs.phase = reshard_ctl->phase();
    rs.start_time = config.reshard.start_time;
    rs.end_time = std::isfinite(reshard_end) ? reshard_end : 0.0;
    rs.planned_moves = reshard_ctl->planned_moves().size();
    const ReshardStats& cs = reshard_ctl->stats();
    rs.moved_vertices = cs.moved_vertices;
    rs.migration_bytes = cs.migration_bytes;
    rs.batches_committed = cs.batches_committed;
    rs.batch_retries = cs.batch_retries;
    rs.batches_rolled_back = cs.batches_rolled_back;
    rs.moves_replanned = cs.moves_replanned;
    rs.moves_cancelled = cs.moves_cancelled;
    const uint64_t during =
        rs.succeeded_during + rs.failed_during + rs.timed_out_during;
    rs.availability_during =
        during == 0 ? 1.0
                    : static_cast<double>(rs.succeeded_during) /
                          static_cast<double>(during);
    rs.latency_during = Summarize(std::move(latencies_reshard));
    metrics.forwarded_reads->Increment(rs.forwarded_reads);
    metrics.forwarded_queries->Increment(rs.forwarded_queries);
  }

  if (has_monitor) {
    result.alerts = slo_tracker.alerts();
    result.time_series = ExportTimeSeriesJson(store);
    result.blackbox = recorder.dumps();
    result.monitor_series = store;
    // Flushed after the last sample, so the monitor never observes its
    // own counters mid-run.
    metrics.monitor_samples->Increment(store.num_samples());
    metrics.monitor_alerts->Increment(result.alerts.size());
    metrics.monitor_dumps->Increment(result.blackbox.size());
  }

  metrics.queries_completed->Increment(result.completed);
  metrics.retries->Increment(avail.retries);
  metrics.failed->Increment(avail.failed);
  metrics.timed_out->Increment(avail.timed_out);
  metrics.lost_messages->Increment(avail.lost_messages);
  metrics.degraded_reads->Increment(avail.degraded_reads);
  metrics.network_bytes->Increment(result.total_network_bytes);
  metrics.remote_messages->Increment(result.total_remote_messages);
  return result;
}

}  // namespace sgp
