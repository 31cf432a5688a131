// perfbench_harness: the timed half of the end-to-end benchmark.
//
// run.py generates the inputs, computes every expected answer with the
// reference evaluator (reference.py) and then calls this program, which
// links the meetxml library and drives it through its public API:
//
//   prep      --docs F --image IMG
//             Bulk-loads each listed XML file, builds its text index and
//             saves the catalog image (the set-up of every workload).
//   query     --image IMG --queries F --seconds S --trace 0|1
//             One caller thread runs store::MultiExecutor::ExecuteText
//             against a warmed catalog.
//   cold_open --image IMG --queries F --seconds S --trace 0|1
//             Each operation opens the image lazily in view mode,
//             answers one query and drops the catalog.
//   ingest    --image IMG --queries F --pool F --seconds S --trace 0|1
//             Each operation bulk-loads one XML file, replaces the
//             oldest catalog document with it and publishes the image.
//   serve     --port P --pid PID --image IMG --queries F --clients C
//             --seconds S --trace 0|1
//             C closed-loop connections send QUERY frames to meetxmld.
//
// Every answer is compared with the expected rows; the last line of
// stdout is one JSON object of raw measurements that run.py turns into
// the benchmark's metrics. With --trace 1 the first half of the run is
// untraced and the second half traced: per-layer figures come from the
// traced half (obs::QueryTrace stages, the daemon's DUMP exposition and
// timed calls into each layer's public functions), and the ratio of the
// two halves' throughput is the tracing overhead.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/meet_general.h"
#include "model/bulk_load.h"
#include "model/storage_io.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "query/path_match.h"
#include "server/protocol.h"
#include "store/catalog.h"
#include "store/multi_executor.h"
#include "text/index_io.h"
#include "text/search.h"
#include "util/net.h"
#include "xml/parser.h"

using namespace meetxml;  // benchmark program; the library never does this

namespace {

// ---------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

void CheckOk(const util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// CLOCK_MONOTONIC seconds: the same clock as Python's time.monotonic(),
// so run.py can place this process's events on its own time line.
double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSecondsSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) /
             1e6;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// High-water resident set of a process ("self" or a pid), from
// /proc/<pid>/status. Unlike getrusage's ru_maxrss it starts afresh at
// exec, so it never counts the parent that forked the process.
double PeakRssMib(const std::string& pid) {
  std::istringstream in(ReadFileOrDie("/proc/" + pid + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  Die("no VmHWM for process " + pid);
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) Die("cannot stat " + path);
  return static_cast<uint64_t>(st.st_size);
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// Nearest-rank percentile of unsorted values.
double Quantile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return Percentile(values, pct);
}

// Every timing is taken over stretches of the run (windows, latency
// groups) and reported as the best decile across them: the 90th
// percentile of the stretches' throughput, the 10th of their latency
// and CPU per operation. The shared machine runs in fast and slow
// spells of seconds, and the share of a run that falls in slow spells
// varies from run to run; the best decile reads the program in the
// fast spells, which almost every run reaches, where a median would
// read that share.
constexpr double kBestDecile = 10.0;

// Tail latency over groups of consecutive operations, each just large
// enough to leave ten samples beyond the workload's tail percentile
// (1000 operations for p99): the best decile over groups of each
// group's tail. A run shorter than one group falls back to its highest
// percentile with ten samples beyond it, over all samples.
struct LatencySummary {
  double tail_us = 0;
  double tail_pct = 50;
  size_t samples = 0;
  size_t group = 0;
  size_t groups = 0;
};

LatencySummary Summarize(const std::vector<double>& latencies_us,
                         double tail_pct) {
  LatencySummary out;
  out.samples = latencies_us.size();
  const size_t group =
      static_cast<size_t>(std::llround(1000.0 / (100.0 - tail_pct)));
  if (out.samples >= group) {
    std::vector<double> tails;
    for (size_t begin = 0; begin + group <= out.samples; begin += group) {
      std::vector<double> chunk(latencies_us.begin() + begin,
                                latencies_us.begin() + begin + group);
      tails.push_back(Quantile(std::move(chunk), tail_pct));
    }
    out.tail_us = Quantile(tails, kBestDecile);
    out.tail_pct = tail_pct;
    out.group = group;
    out.groups = tails.size();
    return out;
  }
  std::vector<double> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  out.tail_us = Median(sorted);
  out.group = out.samples;
  out.groups = out.samples > 0 ? 1 : 0;
  const double candidates[] = {99.0, 95.0, 90.0, 75.0};
  for (double pct : candidates) {
    if (pct < tail_pct &&
        static_cast<double>(out.samples) * (100.0 - pct) / 100.0 >= 10.0) {
      out.tail_pct = pct;
      out.tail_us = Percentile(sorted, pct);
      break;
    }
  }
  return out;
}

// Minimal JSON writer for flat objects of numbers, strings and nested
// objects.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.9g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "0");
    }
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.Render());
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

// Median-per-operation accumulator for the traced half.
class Series {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  void Set(const std::string& name, double value) { fixed_[name] = value; }
  void Export(JsonObject* out) const {
    std::map<std::string, double> all = fixed_;
    for (const auto& [name, values] : values_) all[name] = Median(values);
    for (const auto& [name, value] : all) out->Num(name, value);
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  std::map<std::string, double> fixed_;
};

// ---------------------------------------------------------------------
// Command line and input files
// ---------------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) Die("missing --" + key);
    return it->second;
  }
  double Number(const std::string& key) const {
    return std::strtod(Get(key).c_str(), nullptr);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("bad argument " + key);
    args.values[key.substr(2)] = argv[i + 1];
  }
  return args;
}

// One distinct (scope, query) pair with its expected answer.
struct QuerySpec {
  std::string scope;
  std::string text;
  // "fig6" (search-bound), "fig7" (meet-bound) or empty: which layer
  // figures the traced half takes from this query.
  std::string label;
  std::vector<std::vector<std::string>> rows;
  // Trace-only extras: the CONTAINS terms whose search the traced half
  // times, and per (variable, document) the meet inputs the reference
  // bound, which feed the timed core::MeetGeneral call.
  std::vector<std::string> terms;
  struct Inputs {
    size_t var;
    std::string doc;
    std::vector<bat::Oid> nodes;
  };
  std::vector<Inputs> inputs;
};

struct QueryFile {
  std::vector<QuerySpec> queries;
  std::vector<std::string> names;  // expected catalog names (cold_open)
};

QueryFile LoadQueries(const std::string& path) {
  QueryFile file;
  std::istringstream in(ReadFileOrDie(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells = SplitTabs(line);
    const std::string& tag = cells[0];
    if (tag == "Q") {
      if (cells.size() != 4) Die("bad Q line in " + path);
      QuerySpec spec;
      spec.scope = cells[1];
      spec.text = cells[2];
      spec.label = cells[3];
      file.queries.push_back(std::move(spec));
    } else if (tag == "R") {
      if (file.queries.empty()) Die("R before Q in " + path);
      file.queries.back().rows.emplace_back(cells.begin() + 1, cells.end());
    } else if (tag == "T") {
      file.queries.back().terms.push_back(cells.at(1));
    } else if (tag == "I") {
      QuerySpec::Inputs inputs;
      inputs.var = std::strtoul(cells.at(1).c_str(), nullptr, 10);
      inputs.doc = cells.at(2);
      if (cells.size() > 3 && !cells[3].empty()) {
        std::istringstream oids(cells[3]);
        std::string oid;
        while (std::getline(oids, oid, ',')) {
          inputs.nodes.push_back(
              static_cast<bat::Oid>(std::strtoull(oid.c_str(), nullptr, 10)));
        }
      }
      file.queries.back().inputs.push_back(std::move(inputs));
    } else if (tag == "N") {
      file.names.assign(cells.begin() + 1, cells.end());
    } else {
      Die("unknown line tag '" + tag + "' in " + path);
    }
  }
  if (file.queries.empty()) Die("no queries in " + path);
  return file;
}

// Expected rows may name the document as "$DOC" (ingest names each new
// document after the operation that loads it).
bool RowsMatch(const std::vector<std::vector<std::string>>& expected,
               const std::vector<std::vector<std::string>>& got,
               const std::string& doc_name = "") {
  if (expected.size() != got.size()) return false;
  for (size_t r = 0; r < expected.size(); ++r) {
    if (expected[r].size() != got[r].size()) return false;
    for (size_t c = 0; c < expected[r].size(); ++c) {
      const std::string& want =
          expected[r][c] == "$DOC" ? doc_name : expected[r][c];
      if (want != got[r][c]) return false;
    }
  }
  return true;
}

// Outcome counters shared by every workload.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // the program returned an error
  uint64_t mismatched = 0;  // an OK answer that differs from the reference
  std::string first_problem;

  void Fail(const std::string& what) {
    ++failed;
    if (first_problem.empty()) first_problem = what;
  }
  void Mismatch(const std::string& what) {
    ++mismatched;
    if (first_problem.empty()) first_problem = what;
  }
};

// Shortest window of operation time that throughput and CPU per
// operation are taken over.
constexpr double kWindowSeconds = 0.25;

// The timed phase of a workload. Throughput, median latency and CPU
// per operation are taken per window (whole rounds of the query mix on
// the single-caller workloads) and reported as the best decile over
// windows, so a burst or a slow spell from outside the benchmark moves
// a few windows rather than the figure. On the
// single-caller workloads busy time and CPU are summed over the
// operations only: answer checks and per-layer probes between
// operations cost neither throughput nor CPU per op.
struct Phase {
  std::vector<double> latencies_us;
  std::vector<double> window_rate;    // operations per second
  std::vector<double> window_cpu_us;  // CPU microseconds per operation
  std::vector<double> window_p50_us;  // median latency of the window
  size_t window_first = 0;  // index of the open window's first latency
  size_t window_ops = 0;
  double window_busy_s = 0;
  double window_cpu_s = 0;

  void Record(double busy_s, double cpu_s) {
    latencies_us.push_back(busy_s * 1e6);
    ++window_ops;
    window_busy_s += busy_s;
    window_cpu_s += cpu_s;
  }
  // Called at each round boundary: closes the window once it is long
  // enough (or, with `force`, whenever it holds operations).
  void EndRound(bool force = false) {
    if (window_ops == 0 || (!force && window_busy_s < kWindowSeconds)) {
      return;
    }
    AddWindow(window_ops, window_busy_s, window_cpu_s);
    AddWindowLatencies(latencies_us.begin() + window_first,
                       latencies_us.end());
    window_first = latencies_us.size();
    window_ops = 0;
    window_busy_s = 0;
    window_cpu_s = 0;
  }
  void AddWindow(uint64_t ops, double seconds, double cpu_s) {
    if (ops == 0 || seconds <= 0) return;
    window_rate.push_back(static_cast<double>(ops) / seconds);
    window_cpu_us.push_back(cpu_s * 1e6 / static_cast<double>(ops));
  }
  template <typename It>
  void AddWindowLatencies(It begin, It end) {
    if (begin != end) {
      window_p50_us.push_back(Median(std::vector<double>(begin, end)));
    }
  }
  double OpsPerSecond() const {
    return Quantile(window_rate, 100.0 - kBestDecile);
  }
  double CpuUsPerOp() const { return Quantile(window_cpu_us, kBestDecile); }
  double LatencyP50Us() const { return Quantile(window_p50_us, kBestDecile); }
};

// Times one operation into `phase`; a null phase (warm-up) records
// nothing.
class OpTimer {
 public:
  explicit OpTimer(Phase* phase)
      : phase_(phase),
        cpu0_(phase != nullptr ? CpuSecondsSelf() : 0),
        t0_(NowSeconds()) {}
  void Stop() {
    if (phase_ == nullptr) return;
    double elapsed = NowSeconds() - t0_;
    phase_->Record(elapsed, CpuSecondsSelf() - cpu0_);
    phase_ = nullptr;
  }

 private:
  Phase* phase_;
  double cpu0_;
  double t0_;
};

double MicrosSince(double t0) { return (NowSeconds() - t0) * 1e6; }

void SleepUntil(double mono_seconds) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(mono_seconds))));
}

// The CPUs this process may run on. A single-caller workload moves its
// caller to the next one each time a window closes, so that every run
// samples every CPU: on the shared machine each CPU has slow spells of
// its own, and a caller the scheduler leaves on one CPU can spend a
// whole run in one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[++turn_ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t turn_ = 0;
};

// Drives a single-caller workload through rounds of `round` operations
// (operation `op` uses input op % round): `one(op, phase, traced)` runs
// untimed (phase null) for `warmup` seconds, then timed for `seconds` —
// with --trace 1 the first half untraced and the second half traced.
// Each phase starts on a round boundary; the caller changes CPU after
// each window. `one` returns false to stop early.
template <typename Fn>
void DriveLoop(const Args& args, size_t round, Phase* untraced,
               Phase* traced_phase, Fn one) {
  const double warmup = args.Number("warmup");
  const double seconds = args.Number("seconds");
  const bool traced = args.Number("trace") != 0;
  size_t op = 0;
  const double warm_end = NowSeconds() + warmup;
  while (NowSeconds() < warm_end || op % round != 0) {
    if (!one(op++, nullptr, false)) return;
  }
  const double first_op = NowSeconds();
  const double untraced_end = first_op + (traced ? seconds / 2 : seconds);
  const double end = first_op + seconds;
  Phase* phase = untraced;
  CpuRotation cpus;
  while (NowSeconds() < end) {
    if (phase == untraced && traced && op % round == 0 &&
        NowSeconds() >= untraced_end) {
      phase = traced_phase;
    }
    if (!one(op, phase, phase == traced_phase)) break;
    if (++op % round == 0) {
      size_t windows = phase->window_rate.size();
      phase->EndRound();
      if (phase->window_rate.size() != windows) cpus.Next();
    }
  }
  for (Phase* p : {untraced, traced_phase}) {
    if (p->window_rate.empty()) p->EndRound(/*force=*/true);
  }
}

// Size of the persisted text indexes (TIDX sections) of an image.
double IndexMib(const std::string& image_path) {
  std::string bytes = ReadFileOrDie(image_path);
  util::Result<model::SectionImage> image =
      model::LoadSectionsFromBytes(bytes);
  CheckOk(image.status(), "scan " + image_path);
  uint64_t total = 0;
  for (const model::SectionView& section : image->sections) {
    if (section.id == model::kTextIndexSectionId) {
      total += section.bytes.size();
    }
  }
  return static_cast<double>(total) / (1024.0 * 1024.0);
}

// The result line every workload prints. `ready_mono` is when the
// program was ready for its first operation (the end of set-up).
void PrintResult(const Outcome& outcome, double tail_pct,
                 double ready_mono, const Phase& phase,
                 double peak_rss_mib, const JsonObject* layers) {
  LatencySummary latency = Summarize(phase.latencies_us, tail_pct);
  JsonObject out;
  out.Num("attempted", static_cast<double>(outcome.attempted))
      .Num("failed", static_cast<double>(outcome.failed))
      .Num("mismatched", static_cast<double>(outcome.mismatched))
      .Str("first_problem", outcome.first_problem)
      .Num("ready_mono", ready_mono)
      .Num("ops_per_s", phase.OpsPerSecond())
      .Num("latency_p50_us", phase.LatencyP50Us())
      .Num("latency_tail_us", latency.tail_us)
      .Num("latency_tail_pct", latency.tail_pct)
      .Num("latency_samples", static_cast<double>(latency.samples))
      .Num("latency_group", static_cast<double>(latency.group))
      .Num("latency_groups", static_cast<double>(latency.groups))
      .Num("cpu_us_per_op", phase.CpuUsPerOp())
      .Num("windows", static_cast<double>(phase.window_rate.size()))
      .Num("peak_rss_mib", peak_rss_mib);
  if (layers != nullptr) out.Obj("layers", *layers);
  std::printf("%s\n", out.Render().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// prep: XML files -> catalog image
// ---------------------------------------------------------------------

int RunPrep(const Args& args) {
  std::istringstream in(ReadFileOrDie(args.Get("docs")));
  std::string line;
  store::Catalog catalog;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells = SplitTabs(line);
    if (cells.size() != 3 || cells[0] != "D") Die("bad docs line: " + line);
    util::Result<model::StoredDocument> doc =
        model::BulkShredXmlFile(cells[2]);
    CheckOk(doc.status(), "load " + cells[2]);
    CheckOk(catalog.Add(cells[1], std::move(*doc)).status(), "add");
    CheckOk(catalog.EnsureIndex(cells[1]), "index " + cells[1]);
  }
  CheckOk(catalog.SaveToFile(args.Get("image")), "save");
  return 0;
}

// ---------------------------------------------------------------------
// query: in-process ExecuteText over a warmed catalog
// ---------------------------------------------------------------------

// Per-layer probes of one query, run between traced operations: each
// call into a layer's public function is timed on its own. No public
// call hands out the node sets the executor binds, so the timed
// core::MeetGeneral runs on the sets the reference bound; on the Fig. 7
// queries (no LIMIT) its meets must number the expected rows, which
// ties those inputs to the program's answer.
void ProbeQuery(const store::Catalog& catalog, const QuerySpec& spec,
                Series* series, Outcome* outcome) {
  double t0 = NowSeconds();
  util::Result<query::Query> parsed = query::ParseQuery(spec.text);
  series->Add("query.parse_us", MicrosSince(t0));
  CheckOk(parsed.status(), "parse " + spec.text);

  double match_us = 0;
  double search_us = 0;
  double matches = 0;
  double meet_us = 0;
  double execute_us = 0;
  core::MeetGeneralStats meet_total;
  size_t meets = 0;
  for (const std::string& name : catalog.MatchNames(spec.scope)) {
    util::Result<const query::Executor*> executor = catalog.ExecutorFor(name);
    CheckOk(executor.status(), "executor " + name);
    const model::StoredDocument& doc = (*executor)->doc();
    for (const query::Binding& binding : parsed->bindings) {
      t0 = NowSeconds();
      util::Result<std::vector<bat::PathId>> paths =
          query::MatchPattern(doc.paths(), binding.pattern);
      match_us += MicrosSince(t0);
      CheckOk(paths.status(), "match");
    }
    util::Result<const text::FullTextSearch*> search =
        (*executor)->TextSearch();
    CheckOk(search.status(), "text search");
    for (const std::string& term : spec.terms) {
      t0 = NowSeconds();
      util::Result<text::TermMatches> hits =
          (*search)->Search(term, text::MatchMode::kContains);
      search_us += MicrosSince(t0);
      CheckOk(hits.status(), "search");
      for (const core::AssocSet& set : hits->sets) matches += set.size();
    }

    // The meet on the sets the bindings produced (per variable, grouped
    // by path as the executor hands them over).
    std::vector<core::AssocSet> inputs;
    for (const QuerySpec::Inputs& bound : spec.inputs) {
      if (bound.doc != name) continue;
      std::map<bat::PathId, core::AssocSet> by_path;
      for (bat::Oid node : bound.nodes) {
        core::AssocSet& set = by_path[doc.path(node)];
        set.path = doc.path(node);
        set.nodes.push_back(node);
      }
      for (auto& [path, set] : by_path) inputs.push_back(std::move(set));
    }
    if (!inputs.empty()) {
      core::MeetOptions options;
      for (const query::PathPattern& exclude : parsed->excludes) {
        util::Result<std::vector<bat::PathId>> excluded =
            query::MatchPattern(doc.paths(), exclude);
        CheckOk(excluded.status(), "exclude");
        options.excluded_paths.insert(excluded->begin(), excluded->end());
      }
      if (parsed->within.has_value()) options.max_distance = *parsed->within;
      if (parsed->limit.has_value()) {
        options.max_results = static_cast<size_t>(*parsed->limit);
      }
      core::MeetGeneralStats stats;
      t0 = NowSeconds();
      util::Result<std::vector<core::GeneralMeet>> found =
          core::MeetGeneral(doc, inputs, options, &stats);
      meet_us += MicrosSince(t0);
      CheckOk(found.status(), "meet");
      meets += found->size();
      meet_total.items_seeded += stats.items_seeded;
      meet_total.lifts += stats.lifts;
      meet_total.paths_touched += stats.paths_touched;
      meet_total.meets_found += stats.meets_found;
      meet_total.meets_materialized += stats.meets_materialized;
      meet_total.meets_pruned += stats.meets_pruned;
    }

    t0 = NowSeconds();
    util::Result<query::QueryResult> executed = (*executor)->Execute(*parsed);
    execute_us += MicrosSince(t0);
    CheckOk(executed.status(), "execute");
  }
  series->Add("query.path_match_us", match_us);
  series->Add("query.execute_us", execute_us);
  series->Add("query.unattributed_us",
              execute_us - match_us - search_us - meet_us);
  if (spec.label == "fig6") {
    series->Add("text.search_us", search_us);
    series->Add("text.matches", matches);
  }
  if (spec.label == "fig7") {
    if (meets != spec.rows.size()) {
      outcome->Mismatch("meet probe inputs give " + std::to_string(meets) +
                        " meets for " + spec.text);
    }
    series->Add("core.meet_us", meet_us);
    series->Add("core.items_seeded", meet_total.items_seeded);
    series->Add("core.lifts", meet_total.lifts);
    series->Add("core.paths_touched", meet_total.paths_touched);
    series->Add("core.meets_found", meet_total.meets_found);
    series->Add("core.meets_materialized", meet_total.meets_materialized);
    series->Add("core.meets_pruned", meet_total.meets_pruned);
  }
}

void AddTraceStages(const obs::QueryTrace& trace, Series* series) {
  series->Add("store.route_us", trace.stage_us(obs::Stage::kRoute));
  series->Add("store.execute_us", trace.stage_us(obs::Stage::kExecute));
  series->Add("store.merge_us", trace.stage_us(obs::Stage::kMerge));
  series->Add("store.decode_us", trace.stage_us(obs::Stage::kDecode));
  series->Add("store.index_build_us",
              trace.stage_us(obs::Stage::kIndexBuild));
}

void AddResultCounts(const store::MultiResult& result, Series* series) {
  series->Add("store.fanout_docs",
              static_cast<double>(result.per_document.size()));
  series->Add("store.rows_found", static_cast<double>(result.rows_found));
  series->Add("store.rows_examined",
              static_cast<double>(result.rows_examined));
  series->Add("store.rows_pruned", static_cast<double>(result.rows_pruned));
}

// The result line of a single-caller workload; with --trace 1 it
// carries the traced half's layer figures.
void Finish(const Args& args, const Outcome& outcome, double ready,
            const Phase& untraced, const Phase& traced_phase,
            Series* series) {
  const bool traced = args.Number("trace") != 0;
  JsonObject layers;
  if (traced) {
    series->Set("text.index_mib", IndexMib(args.Get("image")));
    series->Set("obs.trace_overhead_pct",
                (1.0 - traced_phase.OpsPerSecond() / untraced.OpsPerSecond()) *
                    100.0);
    series->Export(&layers);
  }
  PrintResult(outcome, args.Number("tail-pct"), ready, untraced,
              PeakRssMib("self"), traced ? &layers : nullptr);
}

int RunQuery(const Args& args) {
  QueryFile file = LoadQueries(args.Get("queries"));
  store::CatalogLoadOptions load_options;
  load_options.mode = model::LoadMode::kView;
  util::Result<store::Catalog> catalog =
      store::Catalog::LoadFromFile(args.Get("image"), load_options);
  CheckOk(catalog.status(), "open " + args.Get("image"));
  CheckOk(catalog->Warm(/*build_text_indexes=*/true), "warm");
  store::MultiExecutor executor(&*catalog);
  const double ready = NowSeconds();

  Outcome outcome;
  Phase untraced;
  Phase traced_phase;
  Series series;
  DriveLoop(args, file.queries.size(), &untraced, &traced_phase,
            [&](size_t op, Phase* phase, bool traced) {
    const QuerySpec& spec = file.queries[op % file.queries.size()];
    ++outcome.attempted;
    obs::QueryTrace trace;
    OpTimer timer(phase);
    util::Result<store::MultiResult> result = executor.ExecuteText(
        spec.scope, spec.text, {}, traced ? &trace : nullptr);
    timer.Stop();
    if (!result.ok()) {
      outcome.Fail(spec.text + ": " + result.status().ToString());
      return true;
    }
    if (!RowsMatch(spec.rows, result->rows)) {
      outcome.Mismatch("wrong answer to " + spec.text);
    }
    if (traced) {
      AddTraceStages(trace, &series);
      AddResultCounts(*result, &series);
      ProbeQuery(*catalog, spec, &series, &outcome);
    }
    return true;
  });
  Finish(args, outcome, ready, untraced, traced_phase, &series);
  return 0;
}

// ---------------------------------------------------------------------
// cold_open: open image -> first answer -> drop, per operation
// ---------------------------------------------------------------------

// Layer probes of the cold path on the routed document: container
// framing and checksums, the document decode and the index decode.
void ProbeColdOpen(const std::string& image_bytes, size_t entry_index,
                   Series* series) {
  double t0 = NowSeconds();
  util::Result<model::SectionImage> image =
      model::LoadSectionsFromBytes(image_bytes);
  series->Add("model.section_load_us", MicrosSince(t0));
  CheckOk(image.status(), "section load");
  // A freshly written image stores each entry's sections together, in
  // entry order: document section first, then its index and derived
  // sections.
  const model::SectionView* doc_section = nullptr;
  const model::SectionView* index_section = nullptr;
  size_t entry = 0;
  bool in_entry = false;
  for (const model::SectionView& section : image->sections) {
    if (model::IsDocumentSectionId(section.id)) {
      if (in_entry) ++entry;
      in_entry = true;
      if (entry == entry_index) doc_section = &section;
    } else if (section.id == model::kTextIndexSectionId && in_entry &&
               entry == entry_index) {
      index_section = &section;
    }
  }
  if (doc_section == nullptr || index_section == nullptr) {
    Die("image lacks the sections of entry " + std::to_string(entry_index));
  }
  model::LoadOptions options;
  options.mode = model::LoadMode::kView;
  t0 = NowSeconds();
  util::Result<model::StoredDocument> doc = model::ParseAnyDocumentSection(
      doc_section->id, doc_section->bytes, options);
  series->Add("model.doc_decode_us", MicrosSince(t0));
  CheckOk(doc.status(), "document decode");
  t0 = NowSeconds();
  util::Result<text::InvertedIndex> index =
      text::DeserializeIndex(index_section->bytes);
  series->Add("text.index_decode_us", MicrosSince(t0));
  CheckOk(index.status(), "index decode");
}

int RunColdOpen(const Args& args) {
  const std::string image_path = args.Get("image");
  QueryFile file = LoadQueries(args.Get("queries"));
  if (file.names.empty()) Die("cold_open needs the expected names (N line)");
  std::string image_bytes =
      args.Number("trace") != 0 ? ReadFileOrDie(image_path) : "";

  store::CatalogLoadOptions load_options;
  load_options.mode = model::LoadMode::kView;
  load_options.lazy = true;
  // Nothing is opened before the first operation: each opens the image.
  const double ready = NowSeconds();

  Outcome outcome;
  Phase untraced;
  Phase traced_phase;
  Series series;
  DriveLoop(args, file.queries.size(), &untraced, &traced_phase,
            [&](size_t op, Phase* phase, bool traced) {
    const QuerySpec& spec = file.queries[op % file.queries.size()];
    ++outcome.attempted;
    std::vector<std::string> names;
    util::Result<store::MultiResult> result =
        util::Status::Internal("not run");
    OpTimer timer(phase);
    {
      double t0 = NowSeconds();
      util::Result<store::Catalog> catalog =
          store::Catalog::LoadFromFile(image_path, load_options);
      if (traced) series.Add("store.open_us", MicrosSince(t0));
      if (!catalog.ok()) {
        outcome.Fail("open: " + catalog.status().ToString());
        return true;
      }
      store::MultiExecutor executor(&*catalog);
      if (traced) {
        // First touch on its own, then the (now warm) query.
        obs::QueryTrace touch;
        touch.SetDocs({spec.scope});
        t0 = NowSeconds();
        util::Result<const query::Executor*> first =
            catalog->ExecutorFor(spec.scope, &touch, touch.doc(0));
        series.Add("store.first_touch_us", MicrosSince(t0));
        if (!first.ok()) {
          outcome.Fail("first touch: " + first.status().ToString());
          return true;
        }
        obs::QueryTrace trace;
        result = executor.ExecuteText(spec.scope, spec.text, {}, &trace);
        series.Add("store.decode_us", touch.stage_us(obs::Stage::kDecode));
        series.Add("store.index_build_us",
                   touch.stage_us(obs::Stage::kIndexBuild));
        series.Add("store.route_us", trace.stage_us(obs::Stage::kRoute));
        series.Add("store.execute_us", trace.stage_us(obs::Stage::kExecute));
        series.Add("store.merge_us", trace.stage_us(obs::Stage::kMerge));
      } else {
        result = executor.ExecuteText(spec.scope, spec.text);
      }
      names = catalog->MatchNames("*");
      // The catalog and its file mapping drop here, inside the timed
      // operation: closing is part of the cold path. The answer rows
      // are owned strings and outlive it.
    }
    timer.Stop();
    if (!result.ok()) {
      outcome.Fail(spec.text + ": " + result.status().ToString());
      return true;
    }
    if (names != file.names) {
      outcome.Mismatch("opened catalog lists other document names");
    } else if (!RowsMatch(spec.rows, result->rows)) {
      outcome.Mismatch("wrong answer to " + spec.scope + ": " + spec.text);
    }
    if (traced) {
      AddResultCounts(*result, &series);
      size_t entry = static_cast<size_t>(
          std::find(file.names.begin(), file.names.end(), spec.scope) -
          file.names.begin());
      ProbeColdOpen(image_bytes, entry, &series);
    }
    return true;
  });
  Finish(args, outcome, ready, untraced, traced_phase, &series);
  return 0;
}

// ---------------------------------------------------------------------
// ingest: bulk load -> replace oldest -> publish, per operation
// ---------------------------------------------------------------------

struct PoolFile {
  std::string path;
  uint64_t node_count = 0;
  size_t query = 0;  // index into the query file
  uint64_t bytes = 0;
};

int RunIngest(const Args& args) {
  const std::string image_path = args.Get("image");
  QueryFile file = LoadQueries(args.Get("queries"));
  std::vector<PoolFile> pool;
  {
    std::istringstream in(ReadFileOrDie(args.Get("pool")));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::vector<std::string> cells = SplitTabs(line);
      if (cells.size() != 4 || cells[0] != "F") Die("bad pool line: " + line);
      PoolFile entry;
      entry.path = cells[1];
      entry.node_count = std::strtoull(cells[2].c_str(), nullptr, 10);
      entry.query = std::strtoul(cells[3].c_str(), nullptr, 10);
      entry.bytes = FileSize(entry.path);
      if (entry.query >= file.queries.size()) Die("bad pool query index");
      pool.push_back(std::move(entry));
    }
  }
  if (pool.empty()) Die("empty pool");

  store::CatalogLoadOptions load_options;
  load_options.mode = model::LoadMode::kView;
  util::Result<store::Catalog> opened =
      store::Catalog::LoadFromFile(image_path, load_options);
  CheckOk(opened.status(), "open " + image_path);
  store::Catalog catalog = std::move(*opened);
  // Catalog names are load<k>; the k-th load used pool file k % size.
  std::vector<std::string> resident;
  for (const store::NamedDocument* entry : catalog.entries()) {
    resident.push_back(entry->name);
  }
  size_t next = resident.size();
  std::vector<uint64_t> resident_bytes;
  for (size_t k = 0; k < resident.size(); ++k) {
    resident_bytes.push_back(pool[k % pool.size()].bytes);
  }
  const double ready = NowSeconds();

  Outcome outcome;
  Phase untraced;
  Phase traced_phase;
  Series series;
  DriveLoop(args, pool.size(), &untraced, &traced_phase,
            [&](size_t, Phase* phase, bool traced) {
    const PoolFile& source = pool[next % pool.size()];
    const std::string name = "load" + std::to_string(next);
    ++next;
    ++outcome.attempted;
    util::Status status = util::Status::OK();
    double shred_us = 0;
    double index_us = 0;
    double save_us = 0;
    {
      OpTimer timer(phase);
      double t0 = NowSeconds();
      util::Result<model::StoredDocument> doc =
          model::BulkShredXmlFile(source.path);
      shred_us = MicrosSince(t0);
      status = doc.status();
      if (status.ok()) status = catalog.Remove(resident.front());
      if (status.ok()) status = catalog.Add(name, std::move(*doc)).status();
      if (status.ok()) {
        t0 = NowSeconds();
        status = catalog.EnsureIndex(name);
        index_us = MicrosSince(t0);
      }
      if (status.ok()) {
        t0 = NowSeconds();
        status = catalog.SaveToFile(image_path);
        save_us = MicrosSince(t0);
      }
      timer.Stop();
    }
    if (!status.ok()) {
      outcome.Fail("ingest " + source.path + ": " + status.ToString());
      return false;  // the catalog is in an unknown state
    }
    resident.erase(resident.begin());
    resident.push_back(name);
    resident_bytes.erase(resident_bytes.begin());
    resident_bytes.push_back(source.bytes);

    // Check the publish: reopen the image from disk and look at the
    // new document.
    store::CatalogLoadOptions check_options;
    check_options.mode = model::LoadMode::kView;
    check_options.lazy = true;
    util::Result<store::Catalog> reopened =
        store::Catalog::LoadFromFile(image_path, check_options);
    if (!reopened.ok()) {
      outcome.Mismatch("reopen: " + reopened.status().ToString());
      return true;
    }
    util::Result<const model::StoredDocument*> stored = reopened->Get(name);
    if (!stored.ok() || (*stored)->node_count() != source.node_count ||
        reopened->MatchNames("*") != resident) {
      outcome.Mismatch("published image lacks " + name + " as loaded");
      return true;
    }
    const QuerySpec& spec = file.queries[source.query];
    store::MultiExecutor executor(&*reopened);
    util::Result<store::MultiResult> result =
        executor.ExecuteText(name, spec.text);
    if (!result.ok()) {
      outcome.Mismatch("query after publish: " + result.status().ToString());
    } else if (!RowsMatch(spec.rows, result->rows, name)) {
      outcome.Mismatch("wrong answer on " + name + ": " + spec.text);
    }

    if (traced) {
      double input_mib = static_cast<double>(source.bytes) / (1024.0 * 1024.0);
      series.Add("model.bulk_shred_us", shred_us);
      series.Add("model.input_mib_per_s", input_mib / (shred_us / 1e6));
      series.Add("text.index_build_us", index_us);
      series.Add("store.save_us", save_us);
      std::string xml_text = ReadFileOrDie(source.path);
      double t0 = NowSeconds();
      util::Result<xml::Document> dom = xml::Parse(xml_text);
      double parse_us = MicrosSince(t0);
      CheckOk(dom.status(), "xml parse");
      series.Add("xml.parse_mib_per_s", input_mib / (parse_us / 1e6));
      t0 = NowSeconds();
      util::Result<std::string> encoded = catalog.SaveToBytes();
      double encode_us = MicrosSince(t0);
      CheckOk(encoded.status(), "encode");
      series.Add("model.encode_us", encode_us);
      series.Add("util.write_sync_us", save_us - encode_us);
      uint64_t input_bytes = 0;
      for (uint64_t bytes : resident_bytes) input_bytes += bytes;
      series.Add("model.image_bytes_per_input_byte",
                 static_cast<double>(FileSize(image_path)) /
                     static_cast<double>(input_bytes));
    }
    return true;
  });
  Finish(args, outcome, ready, untraced, traced_phase, &series);
  return 0;
}

// ---------------------------------------------------------------------
// serve: closed-loop QUERY load against meetxmld over loopback TCP
// ---------------------------------------------------------------------

// Reads one response frame; codec time (decode) is added to *codec_us.
util::Result<server::Response> ReadResponse(int fd, double* codec_us) {
  char prefix[4];
  MEETXML_RETURN_NOT_OK(util::ReadFull(fd, prefix, sizeof(prefix)));
  uint32_t length = server::DecodeFrameLength(prefix);
  if (length == 0 || length > server::kMaxFrameBytes) {
    return util::Status::Internal("bad response frame length ", length);
  }
  std::string payload(length, '\0');
  MEETXML_RETURN_NOT_OK(util::ReadFull(fd, payload.data(), length));
  double t0 = NowSeconds();
  util::Result<server::Response> response = server::DecodeResponse(payload);
  if (codec_us != nullptr) *codec_us += MicrosSince(t0);
  return response;
}

util::Result<server::Response> Roundtrip(int fd,
                                         const server::Request& request) {
  MEETXML_RETURN_NOT_OK(util::WriteFull(
      fd, server::EncodeFrame(server::EncodeRequest(request))));
  return ReadResponse(fd, nullptr);
}

util::Result<int> OpenSession(uint16_t port) {
  MEETXML_ASSIGN_OR_RETURN(int fd, util::ConnectTcp("127.0.0.1", port, 5000));
  MEETXML_RETURN_NOT_OK(util::SetRecvTimeoutMs(fd, 30000));
  MEETXML_RETURN_NOT_OK(util::SetSendTimeoutMs(fd, 30000));
  server::Request hello;
  hello.opcode = server::Opcode::kHello;
  hello.protocol_version = server::kProtocolVersion;
  util::Result<server::Response> reply = Roundtrip(fd, hello);
  if (!reply.ok() || !reply->ok) {
    util::CloseSocket(fd);
    return util::Status::Unavailable("HELLO failed");
  }
  return fd;
}

// The data rows of a rendered table: skip the header and the rule,
// split each line on runs of blanks (no cell of these workloads holds
// a blank).
std::vector<std::vector<std::string>> TableRows(const std::string& table,
                                                uint64_t row_count) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(table);
  std::string line;
  size_t index = 0;
  while (std::getline(in, line) && rows.size() < row_count) {
    if (index++ < 2) continue;
    std::vector<std::string> cells;
    std::istringstream words(line);
    std::string cell;
    while (words >> cell) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return rows;
}

// Sums and counts read from one DUMP exposition.
using Exposition = std::unordered_map<std::string, double>;

Exposition ParseExposition(const std::string& text) {
  Exposition out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

Exposition Dump(uint16_t port) {
  util::Result<int> fd = OpenSession(port);
  CheckOk(fd.status(), "DUMP connection");
  server::Request request;
  request.opcode = server::Opcode::kDump;
  util::Result<server::Response> reply = Roundtrip(*fd, request);
  util::CloseSocket(*fd);
  CheckOk(reply.status(), "DUMP");
  if (!reply->ok) Die("DUMP refused: " + reply->message);
  return ParseExposition(reply->dump);
}

// utime + stime of a whole process (every thread, live or exited), in
// seconds, and its system share, from /proc/<pid>/stat.
struct ProcCpu {
  double user_s = 0;
  double system_s = 0;
};

ProcCpu ReadProcCpu(long pid) {
  std::string stat = ReadFileOrDie("/proc/" + std::to_string(pid) + "/stat");
  size_t close = stat.rfind(')');
  if (close == std::string::npos) Die("bad /proc stat");
  std::istringstream fields(stat.substr(close + 2));
  std::vector<std::string> values;
  std::string value;
  while (fields >> value) values.push_back(value);
  // Fields after the command: state(3) ... utime(14) stime(15).
  if (values.size() < 13) Die("short /proc stat");
  double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcCpu cpu;
  cpu.user_s = std::strtod(values[11].c_str(), nullptr) / ticks;
  cpu.system_s = std::strtod(values[12].c_str(), nullptr) / ticks;
  return cpu;
}

struct ClientTotals {
  std::vector<double> latencies_us;
  std::vector<double> ends;  // completion times, parallel to latencies_us
  std::vector<double> codec_us;
  uint64_t attempted = 0;
  uint64_t untraced_ops = 0;
  uint64_t traced_ops = 0;
};

int RunServe(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(args.Number("port"));
  const long pid = static_cast<long>(args.Number("pid"));
  const double seconds = args.Number("seconds");
  const bool traced = args.Number("trace") != 0;
  const size_t clients = static_cast<size_t>(args.Number("clients"));
  QueryFile file = LoadQueries(args.Get("queries"));

  std::vector<int> fds;
  for (size_t c = 0; c < clients; ++c) {
    util::Result<int> fd = OpenSession(port);
    CheckOk(fd.status(), "connect");
    fds.push_back(*fd);
  }
  const double ready = NowSeconds();

  std::mutex mu;
  Outcome outcome;
  std::vector<ClientTotals> totals(clients);
  std::atomic<uint64_t> completed{0};  // timed operations answered

  // Every client runs the same phases: warm-up (checked, not timed),
  // the untraced half and, with --trace 1, the traced half.
  const double first_op = NowSeconds() + args.Number("warmup");
  const double untraced_end = first_op + (traced ? seconds / 2 : seconds);
  const double end = first_op + seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTotals& mine = totals[c];
      const size_t n = file.queries.size();
      size_t next = c * n / clients;
      while (true) {
        double now = NowSeconds();
        if (now >= end) break;
        const bool warming = now < first_op;
        const bool trace_this = traced && now >= untraced_end;
        const QuerySpec& spec = file.queries[next++ % n];
        server::Request request;
        request.opcode = server::Opcode::kQuery;
        request.scope = spec.scope;
        request.query = spec.text;
        ++mine.attempted;
        double codec = 0;
        double t0 = NowSeconds();
        std::string frame = server::EncodeFrame(server::EncodeRequest(request));
        if (trace_this) codec += MicrosSince(t0);
        util::Status sent = util::WriteFull(fds[c], frame);
        util::Result<server::Response> reply =
            sent.ok() ? ReadResponse(fds[c], trace_this ? &codec : nullptr)
                      : util::Result<server::Response>(sent);
        double latency_us = MicrosSince(t0);
        if (!reply.ok() || !reply->ok) {
          std::lock_guard<std::mutex> lock(mu);
          outcome.Fail(reply.ok() ? "QUERY error: " + reply->message
                                  : "transport: " + reply.status().ToString());
          if (!reply.ok()) break;  // the connection is gone
          continue;
        }
        if (reply->truncated ||
            !RowsMatch(spec.rows, TableRows(reply->table, reply->row_count))) {
          std::lock_guard<std::mutex> lock(mu);
          outcome.Mismatch("wrong answer to " + spec.scope + ": " + spec.text);
        }
        if (warming) continue;
        completed.fetch_add(1, std::memory_order_relaxed);
        mine.latencies_us.push_back(latency_us);
        mine.ends.push_back(t0 + latency_us / 1e6);
        if (trace_this) {
          ++mine.traced_ops;
          mine.codec_us.push_back(codec);
        } else {
          ++mine.untraced_ops;
        }
      }
    });
  }

  // Throughput and the daemon's CPU per query, sampled in windows of
  // kWindowSeconds from /proc/<pid>/stat; `cpu` accumulates the phase's
  // user and system time.
  Phase untraced;
  Phase traced_phase;
  ProcCpu traced_cpu;
  std::vector<double> window_ends;  // of the untraced half
  auto sample = [&](double to, Phase* phase, ProcCpu* cpu,
                    std::vector<double>* ends) {
    double t = NowSeconds();
    uint64_t ops = completed.load();
    ProcCpu before = ReadProcCpu(pid);
    while (t + kWindowSeconds <= to) {
      SleepUntil(t + kWindowSeconds);
      double now = NowSeconds();
      uint64_t ops_now = completed.load();
      ProcCpu after = ReadProcCpu(pid);
      double user = after.user_s - before.user_s;
      double system = after.system_s - before.system_s;
      phase->AddWindow(ops_now - ops, now - t, user + system);
      if (ends != nullptr) ends->push_back(now);
      if (cpu != nullptr) {
        cpu->user_s += user;
        cpu->system_s += system;
      }
      t = now;
      ops = ops_now;
      before = after;
    }
    SleepUntil(to);
  };
  SleepUntil(first_op);
  sample(untraced_end, &untraced, nullptr, &window_ends);
  Exposition dump_before;
  if (traced) dump_before = Dump(port);
  sample(end, &traced_phase, &traced_cpu, nullptr);
  for (std::thread& thread : threads) thread.join();
  for (int fd : fds) util::CloseSocket(fd);

  // Untraced latencies in completion order across clients, so latency
  // groups are consecutive in time.
  std::vector<std::pair<double, double>> by_end;
  std::vector<double> traced_latency;
  std::vector<double> codec;
  for (const ClientTotals& mine : totals) {
    outcome.attempted += mine.attempted;
    for (size_t i = 0; i < mine.latencies_us.size(); ++i) {
      if (i < mine.untraced_ops) {
        by_end.emplace_back(mine.ends[i], mine.latencies_us[i]);
      } else {
        traced_latency.push_back(mine.latencies_us[i]);
      }
    }
    codec.insert(codec.end(), mine.codec_us.begin(), mine.codec_us.end());
  }
  std::sort(by_end.begin(), by_end.end());
  for (const auto& [when, latency] : by_end) {
    untraced.latencies_us.push_back(latency);
  }
  // Each sampling window's median latency, over the queries that
  // completed in it.
  size_t first = 0;
  for (double window_end : window_ends) {
    size_t last = first;
    while (last < by_end.size() && by_end[last].first <= window_end) ++last;
    untraced.AddWindowLatencies(untraced.latencies_us.begin() + first,
                                untraced.latencies_us.begin() + last);
    first = last;
  }

  JsonObject layers;
  if (traced) {
    Exposition dump_after = Dump(port);
    Series series;
    const std::string requests =
        "meetxml_server_request_us_count{op=\"query\"}";
    double queries = dump_after[requests] - dump_before[requests];
    auto per_query = [&](const std::string& key) {
      return queries > 0 ? (dump_after[key] - dump_before[key]) / queries : 0;
    };
    double roundtrip_mean = 0;
    for (double v : traced_latency) roundtrip_mean += v;
    if (!traced_latency.empty()) {
      roundtrip_mean /= static_cast<double>(traced_latency.size());
    }
    // DUMP quantiles are log-bucket bounds; the sums give exact means.
    double dispatch = per_query("meetxml_server_request_us_sum{op=\"query\"}");
    series.Set("server.roundtrip_us", Median(traced_latency));
    series.Set("server.codec_us", Median(codec));
    series.Set("server.dispatch_us", dispatch);
    series.Set("server.outside_dispatch_us", roundtrip_mean - dispatch);
    double cpu_total = traced_cpu.user_s + traced_cpu.system_s;
    series.Set("server.sys_cpu_share",
               cpu_total > 0 ? traced_cpu.system_s / cpu_total : 0);
    for (const char* stage :
         {"route", "execute", "merge", "decode", "index_build"}) {
      series.Set(std::string("store.") + stage + "_us",
                 per_query(std::string("meetxml_query_stage_us_sum{stage=\"") +
                           stage + "\"}"));
    }
    // The execute stage records one sample per routed document.
    series.Set("store.fanout_docs",
               per_query("meetxml_query_stage_us_count{stage=\"execute\"}"));
    double examined = per_query("meetxml_query_rows_examined_total");
    double pruned = per_query("meetxml_query_rows_pruned_total");
    series.Set("store.rows_examined", examined);
    series.Set("store.rows_pruned", pruned);
    series.Set("store.rows_found", examined + pruned);
    // ParseQuery on the same texts, in-process and after the load has
    // stopped, so the probe never slows the clients.
    std::vector<double> parse;
    for (int round = 0; round < 20; ++round) {
      for (const QuerySpec& spec : file.queries) {
        double p0 = NowSeconds();
        util::Result<query::Query> parsed = query::ParseQuery(spec.text);
        parse.push_back(MicrosSince(p0));
        CheckOk(parsed.status(), "parse " + spec.text);
      }
    }
    series.Set("query.parse_us", Median(parse));
    series.Set("text.index_mib", IndexMib(args.Get("image")));
    series.Set("obs.trace_overhead_pct",
               (1.0 - traced_phase.OpsPerSecond() / untraced.OpsPerSecond()) *
                   100.0);
    series.Export(&layers);
  }
  PrintResult(outcome, args.Number("tail-pct"), ready, untraced,
              PeakRssMib(std::to_string(pid)), traced ? &layers : nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_harness <mode> --key value ...");
  std::string mode = argv[1];
  Args args = ParseArgs(argc, argv);
  if (mode == "prep") return RunPrep(args);
  if (mode == "query") return RunQuery(args);
  if (mode == "cold_open") return RunColdOpen(args);
  if (mode == "ingest") return RunIngest(args);
  if (mode == "serve") return RunServe(args);
  Die("unknown mode " + mode);
}
