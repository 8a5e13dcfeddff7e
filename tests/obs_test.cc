// Observability-layer tests: the Tracer/Span capture semantics, the
// Registry's value kinds and deterministic JSON, and the acceptance check
// for the whole subsystem — a fig6-style 2-worker sharded run whose Chrome
// trace must be schema-valid JSON with a span for every Controller phase,
// per-shard CP pass, and per-lane DP round, and whose RunReport must carry
// every RoundMetrics/transport counter.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "config/parser.h"
#include "config/vendor.h"
#include "core/report.h"
#include "core/s2.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "topo/fattree.h"

namespace s2 {
namespace {

// Re-enables a pristine tracer state when a test exits early.
struct TracerGuard {
  ~TracerGuard() {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
  }
};

// ----------------------------------------------------------- tracer unit

TEST(TracerTest, DisabledSpansRecordNothing) {
  TracerGuard guard;
  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
  {
    obs::Span span("test", "test.noop");
    span.Arg("x", 1);
  }
  EXPECT_EQ(obs::Tracer::Get().event_count(), 0u);
}

TEST(TracerTest, EnabledSpansRecordCompleteEvents) {
  TracerGuard guard;
  obs::Tracer::Get().Enable();
  {
    obs::Span span("test", "test.outer");
    span.Arg("worker", 3);
    obs::Span inner("test", "test.inner");
  }
  obs::Tracer::Get().Disable();
  std::vector<obs::Tracer::Event> events = obs::Tracer::Get().events();
  ASSERT_EQ(events.size(), 2u);  // inner destructs (and records) first
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.outer");
  EXPECT_STREQ(events[1].category, "test");
  EXPECT_GE(events[1].dur_us, events[0].dur_us);  // outer encloses inner
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_STREQ(events[1].args[0].first, "worker");
  EXPECT_EQ(events[1].args[0].second, 3);
}

TEST(TracerTest, EnableResetsCaptureAndEpoch) {
  TracerGuard guard;
  obs::Tracer::Get().Enable();
  { obs::Span span("test", "test.first"); }
  ASSERT_EQ(obs::Tracer::Get().event_count(), 1u);
  obs::Tracer::Get().Enable();  // restart
  EXPECT_EQ(obs::Tracer::Get().event_count(), 0u);
  { obs::Span span("test", "test.second"); }
  std::vector<obs::Tracer::Event> events = obs::Tracer::Get().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.second");
  EXPECT_GE(events[0].ts_us, 0.0);  // fresh epoch
}

TEST(TracerTest, SummaryAggregatesPerName) {
  TracerGuard guard;
  obs::Tracer::Get().Enable();
  for (int i = 0; i < 3; ++i) {
    obs::Span span("test", "test.repeat");
  }
  obs::Tracer::Get().Disable();
  std::string summary = obs::Tracer::Get().Summary();
  EXPECT_NE(summary.find("test.repeat"), std::string::npos);
  EXPECT_NE(summary.find("3"), std::string::npos);  // the count column
}

// --------------------------------------------------------- registry unit

TEST(RegistryTest, CountersGaugesAndLabels) {
  obs::Registry registry;
  registry.SetCounter("a.count", 7);
  registry.AddCounter("a.count", 5);
  registry.AddCounter("b.fresh", 2);  // Add on absent key creates it
  registry.SetGauge("a.seconds", 1.5);
  registry.SetLabel("run.status", "ok");
  EXPECT_EQ(registry.counter("a.count"), 12);
  EXPECT_EQ(registry.counter("b.fresh"), 2);
  EXPECT_DOUBLE_EQ(registry.gauge("a.seconds"), 1.5);
  EXPECT_EQ(registry.label("run.status"), "ok");
  EXPECT_TRUE(registry.Has("a.count"));
  EXPECT_FALSE(registry.Has("missing"));
  EXPECT_EQ(registry.counter("missing"), 0);
  EXPECT_EQ(registry.size(), 4u);
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, ToJsonIsDeterministicAndSorted) {
  auto build = [] {
    obs::Registry registry;
    registry.SetCounter("z.last", 1);
    registry.SetCounter("a.first", 2);
    registry.SetGauge("m.middle", 0.25);
    registry.SetLabel("schema", "test.v1");
    return registry.ToJson();
  };
  std::string json = build();
  EXPECT_EQ(json, build());  // byte-identical run to run
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\""), std::string::npos);
}

TEST(RegistryTest, PublishEngineStatsCoversEveryField) {
  cp::EngineStats stats;
  stats.ospf_rounds = 2;
  stats.bgp_rounds = 9;
  stats.shards_executed = 4;
  stats.compute_seconds = 0.5;
  stats.modeled_seconds = 1.5;
  stats.total_best_routes = 123;
  obs::Registry registry;
  core::PublishEngineStats(stats, registry);
  EXPECT_EQ(registry.counter("engine.ospf_rounds"), 2);
  EXPECT_EQ(registry.counter("engine.bgp_rounds"), 9);
  EXPECT_EQ(registry.counter("engine.shards_executed"), 4);
  EXPECT_DOUBLE_EQ(registry.gauge("engine.compute_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("engine.modeled_seconds"), 1.5);
  EXPECT_EQ(registry.counter("engine.total_best_routes"), 123);
}

// --------------------------------------------------- minimal JSON parser
//
// Just enough of RFC 8259 to schema-check the trace and report exports
// without pulling in a dependency. Strict where it matters: balanced
// structure, quoted keys, no trailing commas.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Is(Kind k) const { return kind == k; }
  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue& out) {
    bool ok = Value(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool String(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': case 'f': out.push_back('?'); break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;
            out.push_back('?');
            break;
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number(double& out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }

  bool Value(JsonValue& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::kObject;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
      for (;;) {
        SkipSpace();
        std::string key;
        if (!String(key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        JsonValue value;
        if (!Value(value)) return false;
        out.object.emplace(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::kArray;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
      for (;;) {
        JsonValue value;
        if (!Value(value)) return false;
        out.array.push_back(std::move(value));
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') { ++pos_; continue; }
        if (text_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::kString;
      return String(out.str);
    }
    if (c == 't') { out.kind = JsonValue::kBool; out.boolean = true;
                    return Literal("true"); }
    if (c == 'f') { out.kind = JsonValue::kBool; out.boolean = false;
                    return Literal("false"); }
    if (c == 'n') { out.kind = JsonValue::kNull; return Literal("null"); }
    out.kind = JsonValue::kNumber;
    return Number(out.number);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ------------------------------------------------- end-to-end acceptance

// A fig6-style run: FatTree k=4 configs parsed from text, 2 workers,
// prefix sharding on, 2 DP lanes, one reachability query — the setup that
// exercises every instrumented phase.
core::VerifyResult TracedFig6Run(core::S2Verifier& verifier) {
  topo::FatTreeParams params;
  params.k = 4;
  topo::Network net = topo::MakeFatTree(params);
  std::vector<std::string> texts = config::SynthesizeConfigs(net);
  auto parsed = config::ParseNetwork(texts);
  dp::Query query;
  query.header_space.dst = util::MustParsePrefix("10.0.0.0/8");
  query.sources = {parsed.graph.FindByName("edge-0-0")};
  query.destinations = {parsed.graph.FindByName("edge-1-0")};
  return verifier.Verify(texts, {query});
}

dist::ControllerOptions Fig6Options() {
  dist::ControllerOptions options;
  options.num_workers = 2;
  options.num_shards = 4;
  return options;
}

TEST(ObsAcceptanceTest, Fig6TraceIsValidChromeJsonWithAllPhaseSpans) {
  TracerGuard guard;
  obs::Tracer::Get().Enable();
  core::S2Verifier verifier(Fig6Options());
  core::VerifyResult result = TracedFig6Run(verifier);
  obs::Tracer::Get().Disable();
  ASSERT_TRUE(result.ok()) << result.failure_detail;

  std::string json = obs::Tracer::Get().ToChromeJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(root)) << "trace is not valid JSON";
  ASSERT_TRUE(root.Is(JsonValue::kObject));
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->Is(JsonValue::kArray));
  ASSERT_FALSE(events->array.empty());

  std::map<std::string, int> by_name;
  for (const JsonValue& event : events->array) {
    ASSERT_TRUE(event.Is(JsonValue::kObject));
    const JsonValue* name = event.Find("name");
    const JsonValue* cat = event.Find("cat");
    const JsonValue* ph = event.Find("ph");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    const JsonValue* pid = event.Find("pid");
    const JsonValue* tid = event.Find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->Is(JsonValue::kString));
    ASSERT_NE(cat, nullptr);
    ASSERT_TRUE(cat->Is(JsonValue::kString));
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->str, "X");  // complete events only
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->Is(JsonValue::kNumber));
    EXPECT_GE(ts->number, 0.0);
    ASSERT_NE(dur, nullptr);
    ASSERT_TRUE(dur->Is(JsonValue::kNumber));
    EXPECT_GE(dur->number, 0.0);
    ASSERT_NE(pid, nullptr);
    ASSERT_TRUE(pid->Is(JsonValue::kNumber));
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(tid->Is(JsonValue::kNumber));
    const JsonValue* args = event.Find("args");
    if (args != nullptr) {
      ASSERT_TRUE(args->Is(JsonValue::kObject));
    }
    ++by_name[name->str];
  }

  // Every Controller phase, the parse phase (text overload), per-shard CP
  // passes, per-round CP barriers, per-worker DP forwarding, and sidecar
  // drains.
  for (const char* required :
       {"controller.parse", "controller.partition",
        "controller.control_plane", "controller.dp_build",
        "controller.query", "cp.shard", "cp.round", "dp.worker_build",
        "dp.round", "dp.worker_forward", "sidecar.drain"}) {
    EXPECT_GT(by_name[required], 0) << "missing span " << required;
  }
  // One cp.shard span per shard in the plan.
  EXPECT_EQ(by_name["cp.shard"], 4);
  // cp.shard spans carry their shard index as an arg.
  for (const JsonValue& event : events->array) {
    if (event.Find("name")->str != "cp.shard") continue;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->Find("shard"), nullptr);
  }
}

TEST(ObsAcceptanceTest, RunReportCoversAllMetricCounters) {
  core::S2Verifier verifier(Fig6Options());
  core::VerifyResult result = TracedFig6Run(verifier);
  ASSERT_TRUE(result.ok()) << result.failure_detail;

  std::string json = verifier.RunReportJson(result);
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(root)) << "report is not valid JSON";
  const JsonValue* counters = root.Find("counters");
  const JsonValue* gauges = root.Find("gauges");
  const JsonValue* labels = root.Find("labels");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(labels, nullptr);

  // Every RoundMetrics field, for every phase.
  for (const char* phase : {"cp", "dp_build", "dp_forward"}) {
    for (const char* field :
         {".rounds", ".comm_bytes", ".comm_messages", ".bdd_cache_hits",
          ".bdd_cache_misses", ".bdd_cache_evictions"}) {
      EXPECT_NE(counters->Find(std::string(phase) + field), nullptr)
          << phase << field;
    }
    for (const char* field : {".wall_seconds", ".modeled_seconds"}) {
      EXPECT_NE(gauges->Find(std::string(phase) + field), nullptr)
          << phase << field;
    }
  }
  // Memory, routes, comm, transport, fabric, per-shard CP metrics.
  for (const char* key :
       {"mem.max_worker_peak_bytes", "mem.worker_peak_bytes.w0",
        "mem.worker_peak_bytes.w1", "routes.total_best", "comm.total_bytes",
        "dp.forwarding_steps", "transport.retransmits",
        "transport.frames_dropped", "transport.duplicates_suppressed",
        "controller.worker_recoveries", "queries.count",
        "controller.num_workers", "fabric.total_bytes",
        "fabric.bytes_sent.w0", "fabric.max_queue_depth.w0",
        "cp.shards_run", "cp.shard.0.rounds", "cp.shard.3.rounds"}) {
    EXPECT_NE(counters->Find(key), nullptr) << key;
  }
  for (const char* key : {"parse.seconds", "partition.seconds"}) {
    EXPECT_NE(gauges->Find(key), nullptr) << key;
  }
  const JsonValue* schema = labels->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "s2.run_report.v1");
  const JsonValue* status = labels->Find("run.status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->str, "ok");

  // Counter values agree with the result they were published from.
  EXPECT_EQ(static_cast<int64_t>(counters->Find("routes.total_best")->number),
            static_cast<int64_t>(result.total_best_routes));
  EXPECT_EQ(static_cast<int64_t>(counters->Find("cp.rounds")->number),
            result.control_plane.rounds);
}

}  // namespace
}  // namespace s2
