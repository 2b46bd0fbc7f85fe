// Tests for the observability layer: the Json writer's escaping/number
// policy, the record serializers against a golden schema file, the
// describe-vs-JSON no-drift guarantee, and the sink's path semantics.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "base/error.h"
#include "core/report.h"
#include "obs/records.h"
#include "obs/sink.h"

namespace simulcast::obs {
namespace {

// ---------------------------------------------------------------- Json ----

TEST(Json, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(Json::escape("plain ascii"), "plain ascii");
  EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(Json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(Json::escape("\b\t\n\f\r"), "\\b\\t\\n\\f\\r");
  EXPECT_EQ(Json::escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(Json::quote("x\ty"), "\"x\\ty\"");
}

/// Inverse of Json::escape for the subset the writer emits — a tiny parser
/// so the round-trip test does not depend on an external JSON library.
std::string unescape(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'f': out += '\f'; break;
      case 'r': out += '\r'; break;
      case 'u':
        out += static_cast<char>(std::stoi(std::string(s.substr(i + 1, 4)), nullptr, 16));
        i += 4;
        break;
      default: ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::string nasty = "quote\" backslash\\ tab\t newline\n bell\x07 ctrl\x01 end";
  EXPECT_EQ(unescape(Json::escape(nasty)), nasty);
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02e23, 1e-312, -2.5, 123456789.0}) {
    const std::string text = Json::number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Json::number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, BuilderRejectsMalformedDocuments) {
  Json truncated;
  truncated.object_begin();
  EXPECT_THROW((void)truncated.str(), UsageError);  // unclosed object

  Json keyless;
  keyless.object_begin();
  EXPECT_THROW(keyless.value("v"), UsageError);  // object value without key

  Json dangling;
  dangling.object_begin().key("k");
  EXPECT_THROW(dangling.object_end(), UsageError);  // key without value

  Json two_roots;
  two_roots.value(true);
  EXPECT_THROW(two_roots.value(false), UsageError);
}

// ------------------------------------------------------------- records ----

/// A fully deterministic record: every double is an exact binary fraction
/// so std::to_chars output is stable, and one gap is NaN to pin the
/// non-finite -> null policy in the golden file.
ExperimentRecord golden_record() {
  ExperimentRecord rec;
  rec.id = "E0/golden";
  rec.paper_claim = "schema fixture: field layout of record schema v9";
  rec.setup = "hand-built record with \"quotes\", back\\slash and tab\there";
  rec.reproduced = true;
  rec.detail = "2 cells, 1 statistic + 1 check";
  rec.seed = 0xE0;

  ExperimentCell cr;
  cr.label = "gennaro x uniform";
  cr.verdict.kind = "CR";
  cr.verdict.pass = true;
  cr.verdict.gap = 0.0625;
  cr.verdict.radius = 0.125;
  cr.verdict.detail = "max gap 0.0625 (radius 0.1250) at P0";
  rec.cells.push_back(cr);

  ExperimentCell shape;
  shape.label = "shape";
  shape.verdict = check(false, "wall clock was not measurable");
  shape.verdict.gap = std::numeric_limits<double>::quiet_NaN();
  rec.cells.push_back(shape);

  rec.perf.report.executions = 32;
  rec.perf.report.threads = 4;
  rec.perf.report.wall_seconds = 0.5;
  rec.perf.report.throughput = 64.0;
  rec.perf.report.total_rounds = 96;
  rec.perf.report.traffic.messages = 448;
  rec.perf.report.traffic.point_to_point = 384;
  rec.perf.report.traffic.broadcasts = 64;
  // Wire accounting: serialized frame bytes are the only byte counts since
  // schema v6 dropped the payload-only counters.
  rec.perf.report.traffic.wire_bytes = 17600;
  rec.perf.report.traffic.wire_delivered_bytes = 23040;
  rec.perf.report.traffic.dropped = 7;
  rec.perf.report.traffic.delayed = 3;
  rec.perf.report.traffic.blocked = 2;
  rec.perf.report.traffic.crashed = 1;
  rec.perf.report.phases.sampling = 0.125;
  rec.perf.report.phases.execution = 0.25;
  rec.perf.report.phases.evaluation = 0.0625;
  // Campaign resilience (schema v4): an interrupted batch — 30 of 32 slots
  // done, one quarantined with its reproducer seed, one left pending.
  rec.perf.report.completed = 30;
  rec.perf.report.partial = true;
  rec.perf.report.quarantine.push_back(
      {17, 0xDEADBEEFULL, "timeout: run_execution: watchdog deadline expired"});
  rec.partial = true;

  // Hand-built registry snapshot (schema v2): 32 executions of 3 rounds
  // each, matching the perf block above.
  rec.metrics.counters.push_back({"exec.executions", 32});
  rec.metrics.counters.push_back({"exec.inconsistent", 0});
  HistogramSnapshot rounds;
  rounds.name = "exec.rounds_per_execution";
  rounds.lo = 0;
  rounds.hi = 8;
  rounds.buckets = {0, 0, 0, 32, 0, 0, 0, 0};
  rounds.count = 32;
  rounds.sum = 96;
  rec.metrics.histograms.push_back(rounds);

  // Fault plan (schema v3): exercises every serialized field, including a
  // finite and an open-ended partition window.
  rec.faults.drop_probability = 0.0625;
  rec.faults.max_delay = 2;
  rec.faults.crashes.push_back({1, 0});
  rec.faults.partitions.push_back({{0, 2}, 1, 3});

  // Transport backend (schema v5).
  rec.transport = "inproc";

  // Campaign correlation ids (schema v7): the 16-hex digest of each batch
  // that fed the record, exactly as correlation_hex renders it.
  rec.campaigns.push_back("00000000000000e0");
  rec.campaigns.push_back("deadbeefcafef00d");
  return rec;
}

std::string data_path(const std::string& name) {
  return std::string(SIMULCAST_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void replace_all(std::string& text, std::string_view from, std::string_view to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size()))
    text.replace(pos, from.size(), to);
}

// The golden file pins schema v1 byte for byte.  Environment-dependent
// metadata ({{COMPILER}}, {{BUILD}}) is substituted at test time so the
// fixture is stable across toolchains.
TEST(Records, GoldenExperimentSchema) {
  const ExperimentRecord rec = golden_record();
  const std::string actual = to_json(rec);

  std::string expected = read_file(data_path("golden_experiment.json"));
#ifdef __VERSION__
  replace_all(expected, "{{COMPILER}}", Json::escape(__VERSION__));
#else
  replace_all(expected, "{{COMPILER}}", "unknown");
#endif
#ifdef NDEBUG
  replace_all(expected, "{{BUILD}}", "release");
#else
  replace_all(expected, "{{BUILD}}", "debug");
#endif

  if (expected != actual) {
    // Ease re-authoring after an intentional schema bump: dump what the
    // serializer produced next to the golden.
    std::ofstream(data_path("golden_experiment.json.actual"), std::ios::binary) << actual;
  }
  EXPECT_EQ(expected, actual)
      << "schema drift — diff against golden_experiment.json.actual; an "
         "intentional layout change must also bump obs::kSchemaVersion";
}

TEST(Records, SchemaVersionIsDeclared) {
  const std::string doc = to_json(golden_record());
  EXPECT_NE(doc.find("\"schema_version\": " + Json::number(kSchemaVersion)), std::string::npos);
}

// The no-drift guarantee: the printed table text and the emitted JSON are
// rendered from the SAME VerdictRecord, so the describe() string and the
// serialized fields must agree on every value.
TEST(Records, DescribeAndJsonRenderFromSameRecord) {
  testers::CrVerdict v;
  v.independent = false;
  v.max_gap = 0.1875;
  v.radius = 0.03125;
  v.samples = 4000;
  v.worst.party = 2;
  v.worst.predicate = "W3=1";
  v.worst.p_wi_zero = 0.5;
  v.worst.p_predicate = 0.25;
  v.worst.p_joint = 0.1875;

  const VerdictRecord rec = record(v);
  EXPECT_EQ(core::describe(v), "CR VIOLATED: " + rec.detail);
  EXPECT_EQ(core::describe(v), core::describe(rec));

  Json json;
  append(json, rec);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"detail\": " + Json::quote(rec.detail)), std::string::npos);
  EXPECT_NE(text.find("\"gap\": " + Json::number(rec.gap)), std::string::npos);
  EXPECT_NE(text.find("\"radius\": " + Json::number(rec.radius)), std::string::npos);
  EXPECT_NE(text.find("\"pass\": false"), std::string::npos);
}

// Same guarantee for the engine accounting: the [exec] line and the perf
// object are rendered from the same BatchReport.
TEST(Records, PerfLineAndJsonAgree) {
  const PerfRecord perf = golden_record().perf;
  const std::string line = core::describe(perf);
  EXPECT_NE(line.find("executions=32"), std::string::npos) << line;
  EXPECT_NE(line.find("threads=4"), std::string::npos) << line;
  EXPECT_NE(line.find("rounds=96"), std::string::npos) << line;
  EXPECT_NE(line.find("messages=448"), std::string::npos) << line;

  Json json;
  append(json, perf);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"executions\": 32"), std::string::npos);
  EXPECT_NE(text.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"total_rounds\": 96"), std::string::npos);
  EXPECT_NE(text.find("\"messages\": 448"), std::string::npos);
  EXPECT_NE(text.find("\"evaluation_seconds\": 0.0625"), std::string::npos);
}

// ---------------------------------------------------------------- sink ----

TEST(Sink, BenchFilenameSanitizesId) {
  EXPECT_EQ(bench_filename("E2/cr-impossibility"), "BENCH_E2_cr-impossibility.json");
  EXPECT_EQ(bench_filename("micro/crypto"), "BENCH_micro_crypto.json");
  EXPECT_EQ(bench_filename("a b\tc"), "BENCH_a_b_c.json");
}

// Degenerate ids (empty / all separators) would all sanitize to the same
// "BENCH_.json" and silently clobber each other; the sink refuses them.
TEST(Sink, BenchFilenameRejectsDegenerateIds) {
  EXPECT_THROW((void)bench_filename(""), UsageError);
  EXPECT_THROW((void)bench_filename("///"), UsageError);
  EXPECT_THROW((void)bench_filename(" \t\n "), UsageError);
}

TEST(Sink, WriteRecordRejectsDegenerateIdIntoDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "simulcast_obs_degenerate";
  fs::remove_all(dir);
  ExperimentRecord rec = golden_record();
  rec.id = "//";
  EXPECT_THROW((void)write_record(rec, dir.string()), UsageError);
  fs::remove_all(dir);
}

TEST(Sink, WritesExactFileOrIntoDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "simulcast_obs_test";
  fs::remove_all(dir);
  const ExperimentRecord rec = golden_record();

  const std::string exact = (dir / "nested" / "exact.json").string();
  EXPECT_EQ(write_record(rec, exact), exact);
  EXPECT_EQ(read_file(exact), to_json(rec));

  const std::string in_dir = write_record(rec, dir.string());
  EXPECT_EQ(fs::path(in_dir).filename().string(), bench_filename(rec.id));
  EXPECT_EQ(fs::path(in_dir).parent_path(), dir);
  EXPECT_EQ(read_file(in_dir), to_json(rec));

  fs::remove_all(dir);
}

}  // namespace
}  // namespace simulcast::obs
