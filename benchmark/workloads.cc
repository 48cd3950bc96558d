// Workload definitions, input generation, set-up, and the untraced run that
// measures every end-to-end metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>

#include "bench.h"

namespace bench {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- generator

uint64_t Gen::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Gen::Uniform() { return double(Next() >> 11) * 0x1.0p-53; }

double Gen::Gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  do {
    u = Uniform();
  } while (u <= 0.0);
  const double v = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  spare_ = r * std::sin(2.0 * M_PI * v);
  has_spare_ = true;
  return r * std::cos(2.0 * M_PI * v);
}

size_t Gen::Below(size_t n) { return size_t(Next() % n); }

// ------------------------------------------------------------- workloads

std::vector<Spec> AllSpecs(bool small) {
  Spec isd;
  isd.name = "knn-isd100";
  isd.kind = Kind::kItakuraSaito;
  isd.storage = Storage::kMemoryDurable;
  isd.n = 10000;
  isd.d = 100;
  isd.k = 20;
  isd.clusters = 24;
  isd.cluster_std = 0.4;
  isd.positive = true;
  isd.round_s = 5.2;
  isd.knn_queries = 32;
  isd.range_queries = 64;

  Spec file;
  file.name = "file-l2-64";
  file.kind = Kind::kSquaredL2;
  file.storage = Storage::kFile;
  file.n = 50000;
  file.d = 64;
  file.k = 10;
  file.clusters = 64;
  file.cluster_std = 0.05;
  file.pool_pages = 16;
  file.round_s = 4.1;
  file.joins = 2;

  Spec churn;
  churn.name = "churn-l2";
  churn.kind = Kind::kSquaredL2;
  churn.storage = Storage::kMemoryDurable;
  churn.n = 10000;
  churn.d = 20;
  churn.k = 10;
  churn.clusters = 24;
  churn.cluster_std = 0.4;
  churn.write_pairs = 2000;
  churn.write_heavy = true;
  churn.round_s = 0.8;
  churn.knn_queries = 100;
  churn.range_queries = 200;

  std::vector<Spec> specs = {isd, file, churn};
  if (small) {
    for (Spec& s : specs) {
      s.n = s.name == "file-l2-64" ? 3000 : 1500;
      s.round_s = 0.34;
      s.knn_queries = 6;
      s.range_queries = 12;
      s.batches = 1;
      s.traced_queries = 6;
    }
  }
  return specs;
}

size_t Rounds(const Spec& spec, double seconds) {
  return std::max(kMinRounds, size_t(std::lround(seconds / spec.round_s)));
}

const char* DivergenceName(Kind kind) {
  return kind == Kind::kItakuraSaito ? "itakura_saito" : "squared_l2";
}

Mixture::Mixture(const Spec& spec, Gen& model)
    : spec_(spec), centers_(spec.clusters, spec.d) {
  for (size_t c = 0; c < spec.clusters; ++c) {
    for (double& v : centers_.MutableRow(c)) v = -2.0 + 4.0 * model.Uniform();
  }
}

std::vector<double> Mixture::Sample(Gen& gen) const {
  const auto center = centers_.Row(gen.Below(spec_.clusters));
  std::vector<double> x(spec_.d);
  for (size_t j = 0; j < spec_.d; ++j) {
    x[j] = center[j] + spec_.cluster_std * gen.Gaussian();
    if (spec_.positive) x[j] = 1.5 * std::exp(x[j]);
  }
  return x;
}

Matrix Mixture::SampleMatrix(Gen& gen, size_t rows) const {
  Matrix m(rows, spec_.d);
  for (size_t i = 0; i < rows; ++i) {
    const std::vector<double> x = Sample(gen);
    std::copy(x.begin(), x.end(), m.MutableRow(i).begin());
  }
  return m;
}

namespace {

/// FNV-1a of the workload's name: the seed of its fixed model stream.
uint64_t ModelSeed(const std::string& name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : name) h = (h ^ uint8_t(c)) * 0x100000001b3ULL;
  return h;
}

}  // namespace

Inputs::Inputs(const Spec& spec, uint64_t seed, size_t queries)
    : model(ModelSeed(spec.name)),
      mixture(spec, model),
      data(mixture.SampleMatrix(model, spec.n)),
      gen(seed),
      queries(mixture.SampleMatrix(gen, queries)) {}

uint32_t LiveSet::Pick(Gen& gen) const {
  while (true) {
    const auto id = uint32_t(gen.Below(alive_.size()));
    if (alive_[id] != 0) return id;
  }
}

// ----------------------------------------------------------- bookkeeping

void Report::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

bool Report::Op(const std::string& type, bool ok) {
  OpCount& c = ops[type];
  ++c.attempted;
  if (!ok) ++c.failed;
  return ok;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, Metric{value, unit}});
}

uint64_t Report::attempted() const {
  uint64_t total = 0;
  for (const auto& [type, c] : ops) total += c.attempted;
  return total;
}

uint64_t Report::failed() const {
  uint64_t total = 0;
  for (const auto& [type, c] : ops) total += c.failed;
  return total;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : uint64_t(size);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------- set-up

Files FilesFor(const Spec& spec, const std::string& dir, size_t slot) {
  const std::string base = dir + "/index-" + std::to_string(slot);
  return {base + ".brep",
          spec.storage == Storage::kMemoryDurable ? base + ".wal"
                                                  : std::string()};
}

brep::StatusOr<brep::Index> SetUp(const Spec& spec, const Matrix& data,
                                  const Files& files) {
  std::error_code ec;
  std::filesystem::remove(files.checkpoint, ec);
  if (!files.wal.empty()) std::filesystem::remove(files.wal, ec);

  brep::IndexBuilder builder(DivergenceName(spec.kind));
  builder.PageSize(32 * 1024).PoolPages(spec.pool_pages).Seed(kBuildSeed);
  if (spec.storage == Storage::kMemoryDurable) {
    brep::DurabilityOptions durability;
    durability.wal_path = files.wal;
    durability.fsync_mode = brep::FsyncMode::kNone;
    builder.Durability(durability);
  }
  BREP_ASSIGN_OR_RETURN(brep::Index index, builder.Build(data));
  BREP_RETURN_IF_ERROR(index.Save(files.checkpoint));
  if (spec.storage == Storage::kMemoryDurable) return index;
  return brep::Index::Open(files.checkpoint);
}

void WritePair(brep::Index& index, LiveSet& live, Inputs& in, Report& rep,
               std::vector<double>* write_ms, std::vector<WriteOp>* log) {
  WriteOp ins{true, 0, in.mixture.Sample(in.gen)};
  auto t0 = Clock::now();
  const auto id = index.Insert(ins.point);
  const double insert_ms = MsSince(t0);
  if (rep.Op("insert", id.ok())) {
    ins.id = *id;
    live.Insert(ins.id, ins.point);
    if (write_ms != nullptr) write_ms->push_back(insert_ms);
    if (log != nullptr) log->push_back(std::move(ins));
  }

  const WriteOp del{false, live.Pick(in.gen), {}};
  t0 = Clock::now();
  const brep::Status st = index.Delete(del.id);
  const double delete_ms = MsSince(t0);
  if (rep.Op("delete", st.ok())) {
    live.Erase(del.id);
    if (write_ms != nullptr) write_ms->push_back(delete_ms);
    if (log != nullptr) log->push_back(del);
  }
}

bool Replay(brep::Index& index, const WriteOp& op, double* ms) {
  const auto t0 = Clock::now();
  if (op.insert) {
    const auto id = index.Insert(op.point);
    *ms = MsSince(t0);
    return id.ok() && *id == op.id;
  }
  const brep::Status st = index.Delete(op.id);
  *ms = MsSince(t0);
  return st.ok();
}

void WarmUp(const brep::SearchIndex& index, const Spec& spec,
            const Matrix& queries, Report& rep) {
  for (size_t i = 0; i < kWarmup; ++i) {
    rep.Op("warmup_knn",
           index.Knn(queries.Row(i % queries.rows()), spec.k).ok());
  }
}

void CheckAfterWrites(const brep::Index& index, const Spec& spec,
                      const Inputs& in, const LiveSet& live, Oracle& oracle,
                      Report& rep) {
  if (index.num_points() != live.size()) {
    rep.Fail("num_points " + std::to_string(index.num_points()) +
             " != live count " + std::to_string(live.size()));
  }
  for (size_t qi = 0; qi < std::min<size_t>(16, in.queries.rows()); ++qi) {
    const auto got = index.Knn(in.queries.Row(qi), spec.k);
    std::string why;
    if (rep.Op("check_knn", got.ok()) &&
        !oracle.CheckKnn(in.queries.Row(qi), spec.k, *got, &why)) {
      rep.Fail("after writes: " + why);
    }
  }
}

// -------------------------------------------------------- untraced run

namespace {

/// Prints each phase's wall time to standard error: where a run's time
/// goes, for sizing the phases.
class PhaseClock {
 public:
  explicit PhaseClock(const std::string& workload)
      : workload_(workload), last_(Clock::now()) {}
  void Mark(const char* phase) {
    std::fprintf(stderr, "[%s] %-8s %7.2f s\n", workload_.c_str(), phase,
                 MsSince(last_) / 1e3);
    last_ = Clock::now();
  }

 private:
  std::string workload_;
  Clock::time_point last_;
};

/// Round r's part of `total` operations spread evenly over `rounds`.
size_t Share(size_t total, size_t r, size_t rounds) {
  return (r + 1) * total / rounds - r * total / rounds;
}

/// Check one kNN answer; `what` names the phase in the failure message.
void CheckOne(Oracle& oracle, std::span<const double> q, size_t k,
              const std::vector<Neighbor>& got, const char* what,
              Report& rep) {
  std::string why;
  if (!oracle.CheckKnn(q, k, got, &why)) {
    rep.Fail(std::string(what) + ": " + why);
  }
}

/// Rows `first`.. of `queries` as a matrix of `rows` rows.
Matrix Slice(const Matrix& queries, size_t first, size_t rows) {
  Matrix m(rows, queries.cols());
  for (size_t j = 0; j < rows; ++j) {
    const auto q = queries.Row(first + j);
    std::copy(q.begin(), q.end(), m.MutableRow(j).begin());
  }
  return m;
}

/// How fast the host runs, from a fixed piece of work that is the
/// benchmark's own and never the index's: a closed-form Itakura-Saito scan
/// over 4 MB of synthetic rows, ten times (logs and L3 streaming, like the
/// workloads, for ~27 ms, as long as a kNN call). Sampled every
/// kSampleEvery seconds all through a run; the 10th percentile of the
/// samples is the host's speed during the run. The shared host's speed
/// moves by tens of percent from run to run, and scaling by this figure
/// removes most of that, where the fastest sample would not: a
/// millisecond-long operation can slip between other tenants' bursts, one
/// as long as a kNN call cannot.
class HostSpeed {
 public:
  static constexpr double kSampleEvery = 0.5;

  HostSpeed() : rows_(5000 * 100), query_(100) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      rows_[i] = 1.0 + double(i * 7919 % 1000) / 500.0;
    }
    for (size_t j = 0; j < query_.size(); ++j) {
      query_[j] = 1.5 + double(j) / 200.0;
    }
    Scan();  // warm-up: page faults, caches
  }

  /// A sample, if kSampleEvery seconds have passed since the last one.
  void MaybeSample() {
    if (!samples_.empty() && MsSince(last_) < 1e3 * kSampleEvery) return;
    samples_.push_back(Scan());
    last_ = Clock::now();
  }

  /// The samples' 10th percentile, in ms.
  double calibration_ms() const { return Percentile(samples_, 10); }
  /// The samples' median: how loaded the host was on the whole.
  double median_ms() const { return Percentile(samples_, 50); }
  size_t samples() const { return samples_.size(); }
  /// Multiplies a time measured in this run into one at the reference
  /// speed (kReferenceCalibrationMs).
  double scale() const { return kReferenceCalibrationMs / calibration_ms(); }

 private:
  double Scan() {
    const size_t d = query_.size();
    const auto t0 = Clock::now();
    double nearest = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < 10; ++pass) {
      for (size_t r = 0; r + d <= rows_.size(); r += d) {
        nearest = std::min(nearest, OracleDivergence(Kind::kItakuraSaito,
                                                     {rows_.data() + r, d},
                                                     query_));
      }
    }
    const double ms = MsSince(t0);
    // Keep the scan's result alive.
    if (nearest < 0.0) rows_[0] = nearest;
    return ms;
  }

  std::vector<double> rows_;
  std::vector<double> query_;
  std::vector<double> samples_;
  Clock::time_point last_;
};

/// Rows of the query set: enough for the kNN and range queries, every
/// batch and the join.
size_t QueryRows(const Spec& spec) {
  return std::max({spec.knn_queries, spec.range_queries,
                   spec.batches * kBatchRows, kJoinRows});
}

/// The write stream of an untraced run, fed to every replica. The primary
/// (replica 0, the one `live` mirrors and every read is served by) makes
/// each step's writes; replica j replays step s during step s + j * lag,
/// on the same index state, so each write runs kReplicas times at
/// different moments of the run and its latency is the fastest of them.
class ReplicatedWrites {
 public:
  ReplicatedWrites(std::vector<std::optional<brep::Index>>& replicas,
                   size_t lag, Report& rep)
      : replicas_(replicas), lag_(lag), rep_(rep) {}

  /// The next step: `pairs` insert/delete pairs on the primary (with a
  /// checked kNN every kChurnKnnEvery writes when `check` is set), then
  /// the replicas' lagging replays.
  void Step(size_t pairs, LiveSet& live, Inputs& in, const Spec& spec,
            Oracle& oracle, bool check) {
    for (size_t p = 0; p < pairs; ++p) {
      WritePair(*replicas_[0], live, in, rep_, &best_ms_, &log_);
      if (!check || ++checked_pairs_ % (kChurnKnnEvery / 2) != 0) continue;
      const auto q = in.queries.Row(checked_pairs_ % in.queries.rows());
      const auto got = replicas_[0]->Knn(q, spec.k);
      if (rep_.Op("churn_knn", got.ok())) {
        CheckOne(oracle, q, spec.k, *got, "during churn", rep_);
      }
    }
    step_ends_.push_back(log_.size());
    ReplayAt(step_ends_.size() - 1);
  }

  /// The replicas' replays of the last steps, which lag behind the primary.
  void CatchUp() {
    const size_t steps = step_ends_.size();
    for (size_t s = steps; s < steps + (replicas_.size() - 1) * lag_; ++s) {
      ReplayAt(s);
    }
  }

  /// Each acknowledged write's fastest run.
  const std::vector<double>& best_ms() const { return best_ms_; }

 private:
  /// Every replica's replay due at step `s`.
  void ReplayAt(size_t s) {
    for (size_t j = 1; j < replicas_.size(); ++j) {
      if (s < j * lag_ || s - j * lag_ >= step_ends_.size()) continue;
      const size_t step = s - j * lag_;
      const size_t begin = step == 0 ? 0 : step_ends_[step - 1];
      for (size_t i = begin; i < step_ends_[step]; ++i) {
        double ms = 0.0;
        const bool ok = bench::Replay(*replicas_[j], log_[i], &ms);
        if (!rep_.Op(log_[i].insert ? "replica_insert" : "replica_delete",
                     ok)) {
          rep_.Fail("replica " + std::to_string(j) +
                    " diverged from the primary at write " +
                    std::to_string(i));
          continue;
        }
        best_ms_[i] = std::min(best_ms_[i], ms);
      }
    }
  }

  std::vector<std::optional<brep::Index>>& replicas_;
  size_t lag_;
  Report& rep_;
  std::vector<WriteOp> log_;
  std::vector<double> best_ms_;
  std::vector<size_t> step_ends_;
  size_t checked_pairs_ = 0;
};

}  // namespace

// The untraced run measures in rounds, and every latency is an
// operation's fastest of several runs spread over the whole run: on a
// shared host the same call's time moves by tens of percent from moment
// to moment, and its fastest run moves far less. Each round walks the
// distinct kNN queries once, with the range queries, the batches, the join
// and the writes interleaved, so every metric samples the whole run. The
// p50s are taken over the queries of each one's fastest call. Writes
// cannot be repeated on one index, so kReplicas identical indexes (the
// last set-ups) are each fed the whole write stream, one lagging behind
// the other, and each write counts with its fastest run. What is left of
// the host's drift, a slow stretch as long as a whole run, HostSpeed
// measures and the reported timings are scaled by.
Report RunUntraced(const Spec& spec, const RunOptions& opt) {
  Report rep;
  rep.workload = spec.name;
  PhaseClock phase(spec.name);
  const size_t rounds = Rounds(spec, opt.seconds);
  Inputs in(spec, opt.seed, QueryRows(spec));

  HostSpeed host;
  // Set-up, repeated; the last kReplicas indexes built serve the run.
  std::vector<std::optional<brep::Index>> replicas(kReplicas);
  std::vector<double> setup_s;
  double setup_total = 0.0;
  static_assert(kMinSetups >= kReplicas && kMaxSetups >= kMinSetups);
  for (size_t i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && setup_total >= kSetupSeconds) break;
    std::optional<brep::Index>& slot = replicas[i % kReplicas];
    slot.reset();
    const auto t0 = Clock::now();
    auto built = SetUp(spec, in.data, FilesFor(spec, opt.dir, i % kReplicas));
    setup_s.push_back(MsSince(t0) / 1e3);
    setup_total += setup_s.back();
    if (!rep.Op("setup", built.ok())) {
      rep.Fail("set-up failed: " + built.status().ToString());
      return rep;
    }
    slot.emplace(*std::move(built));
    host.MaybeSample();
  }
  phase.Mark("setup");
  brep::Index& index = *replicas[0];
  const Files files = FilesFor(spec, opt.dir, 0);
  const double initial_bytes =
      double(FileBytes(files.checkpoint) + FileBytes(files.wal));

  LiveSet live(spec.kind, spec.d);
  for (uint32_t i = 0; i < in.data.rows(); ++i) live.Insert(i, in.data.Row(i));
  Oracle oracle(live);
  // One step per churn step and per query slot (below). Replica j replays
  // a read-heavy write j/kReplicas of a round after the primary made it,
  // and the churn j/kReplicas of the way through the rounds.
  const size_t lag =
      (spec.write_heavy ? rounds : 1) * spec.knn_queries / kReplicas;
  ReplicatedWrites writes(replicas, lag, rep);
  auto par = index.Parallel(2);
  if (!rep.Op("parallel_handle", par.ok())) {
    rep.Fail("Parallel(2): " + par.status().ToString());
    return rep;
  }

  // Write-heavy: the whole churn ahead of the reads.
  if (spec.write_heavy) {
    for (size_t s = 0; s < kChurnSteps; ++s) {
      writes.Step(Share(spec.write_pairs, s, kChurnSteps), live, in, spec,
                  oracle, /*check=*/true);
      host.MaybeSample();
    }
    phase.Mark("churn");
  }

  // Warm-up: caches, pools and the batch pool's threads.
  WarmUp(index, spec, in.queries, rep);
  rep.Op("warmup_batch",
         par->KnnBatch(Slice(in.queries, 0, kBatchRows), spec.k).ok());

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> knn_best(spec.knn_queries, inf), knn_all;
  std::vector<double> range_best(spec.range_queries, inf);
  std::vector<double> batch_best(spec.batches, inf);
  double join_best = inf;
  size_t pairs_done = 0;
  bool stop = false;
  const auto rounds_start = Clock::now();
  // A round walks the query slots once. Slot i issues the kNN call of
  // query i and the range calls of its share of the range queries; the
  // batches, the join and (read-heavy) the writes are spread over the
  // slots.
  const size_t slots = spec.knn_queries;
  for (size_t r = 0; r < rounds; ++r) {
    const bool last_planned = r + 1 == rounds;
    const size_t round_pairs = Share(spec.write_pairs, r, rounds);
    for (size_t i = 0; i < slots; ++i) {
      host.MaybeSample();
      const auto q = in.queries.Row(i);
      {
        const auto t0 = Clock::now();
        const auto got = index.Knn(q, spec.k);
        const double ms = MsSince(t0);
        if (rep.Op("knn", got.ok())) {
          knn_all.push_back(ms);
          knn_best[i] = std::min(knn_best[i], ms);
          CheckOne(oracle, q, spec.k, *got, "knn", rep);
        }
      }

      // Range at each query's true k-th distance over the current live set.
      const size_t range_first = i * spec.range_queries / slots;
      const size_t range_end = (i + 1) * spec.range_queries / slots;
      for (size_t ri = range_first; ri < range_end; ++ri) {
        const auto q = in.queries.Row(ri);
        const double radius =
            oracle.KthDistance(q, std::min(spec.k, live.size()));
        const auto t0 = Clock::now();
        const auto got = index.Range(q, radius);
        const double ms = MsSince(t0);
        std::string why;
        if (rep.Op("range", got.ok())) {
          range_best[ri] = std::min(range_best[ri], ms);
          if (!oracle.CheckRange(q, radius, *got, &why)) {
            rep.Fail("range: " + why);
          }
        }
      }

      // Batch b on the 2-thread handle at slot (2b + 1) * slots / (2B).
      for (size_t b = 0; b < spec.batches; ++b) {
        if (i != (2 * b + 1) * slots / (2 * spec.batches)) continue;
        const Matrix batch = Slice(in.queries, b * kBatchRows, kBatchRows);
        const auto t0 = Clock::now();
        const auto got = par->KnnBatch(batch, spec.k);
        const double ms = MsSince(t0);
        if (rep.Op("batch", got.ok())) {
          batch_best[b] = std::min(batch_best[b], ms);
          for (size_t j = 0; j < batch.rows(); ++j) {
            CheckOne(oracle, batch.Row(j), spec.k, (*got)[j], "batch", rep);
          }
        }
      }

      // Join j of the first kJoinRows queries at slot (2j + 1) * slots /
      // (2J).
      for (size_t j = 0; j < spec.joins; ++j) {
        if (i != (2 * j + 1) * slots / (2 * spec.joins)) continue;
        const Matrix left = Slice(in.queries, 0, kJoinRows);
        const auto t0 = Clock::now();
        const auto got = index.KnnJoin(left, spec.k);
        const double ms = MsSince(t0);
        if (rep.Op("join", got.ok())) {
          join_best = std::min(join_best, ms);
          for (size_t row = 0; row < left.rows(); ++row) {
            CheckOne(oracle, left.Row(row), spec.k, got->neighbors[row],
                     "join", rep);
          }
        }
      }

      // Read-heavy: this slot's share of the round's writes (a run that
      // stops early makes the rest of the run's writes in its last slot);
      // then the replicas' replays due now.
      if (i + 1 == slots) {
        stop = !last_planned && r + 1 >= kMinRounds &&
               MsSince(rounds_start) > 1250.0 * opt.seconds;
      }
      const size_t pairs = spec.write_heavy ? 0
                           : stop       ? spec.write_pairs - pairs_done
                                        : Share(round_pairs, i, slots);
      writes.Step(pairs, live, in, spec, oracle, /*check=*/false);
      pairs_done += pairs;
    }
    if (stop) break;
  }
  writes.CatchUp();
  phase.Mark("rounds");
  CheckAfterWrites(index, spec, in, live, oracle, rep);
  // Every replica must hold the primary's points and answer like it.
  for (size_t j = 1; j < kReplicas; ++j) {
    if (replicas[j]->num_points() != live.size()) {
      rep.Fail("replica " + std::to_string(j) + " holds " +
               std::to_string(replicas[j]->num_points()) + " points, want " +
               std::to_string(live.size()));
    }
    for (size_t i = 0; i < std::min<size_t>(4, spec.knn_queries); ++i) {
      const auto want = index.Knn(in.queries.Row(i), spec.k);
      const auto got = replicas[j]->Knn(in.queries.Row(i), spec.k);
      if (rep.Op("check_replica", want.ok() && got.ok()) && *got != *want) {
        rep.Fail("replica " + std::to_string(j) +
                 " answers differently from the primary on query " +
                 std::to_string(i));
      }
    }
  }

  std::vector<double> batch_qps;
  for (double ms : batch_best) batch_qps.push_back(kBatchRows / (ms / 1e3));
  const std::vector<double>& write_ms = writes.best_ms();
  // Every timing at the reference host speed: times multiplied by the
  // scale, rates divided by it.
  const double scale = host.scale();
  rep.Set("setup_s", Median(setup_s) * scale, "s");
  rep.Set("knn_p50_ms", Percentile(knn_best, 50) * scale, "ms");
  rep.Set("range_p50_ms", Percentile(range_best, 50) * scale, "ms");
  rep.Set("batch_qps", Median(batch_qps) / scale, "1/s");
  rep.Set("join_rows_per_s", kJoinRows / (join_best / 1e3) / scale, "1/s");
  rep.Set("write_p50_ms", Percentile(write_ms, 50) * scale, "ms");
  rep.Set("write_p95_ms", Percentile(write_ms, 95) * scale, "ms");

  // Space: checkpoint plus log after a final Save, per raw live byte.
  const brep::Status saved = index.Save(files.checkpoint);
  if (!rep.Op("save", saved.ok())) rep.Fail("save: " + saved.ToString());
  const double raw = double(live.size()) * double(spec.d) * 8.0;
  const double final_bytes =
      double(FileBytes(files.checkpoint) + FileBytes(files.wal));
  rep.Set("space_amp", final_bytes / raw, "ratio");
  std::fprintf(stderr,
               "[%s] space: %.0f bytes after set-up, %.0f after writes "
               "(live %zu x d %zu x 8 = %.0f raw)\n",
               spec.name.c_str(), initial_bytes, final_bytes, live.size(),
               spec.d, raw);
  std::fprintf(stderr,
               "[%s] host: calibration %.4f ms (p10 of %zu samples, p50 "
               "%.4f; reference %.1f ms), timings scaled by %.4f; the "
               "figures below are as measured\n",
               spec.name.c_str(), host.calibration_ms(), host.samples(),
               host.median_ms(), kReferenceCalibrationMs, scale);
  auto spread = [&](const char* what, const std::vector<double>& v) {
    std::fprintf(stderr,
                 "[%s] %-6s n=%-5zu p10 %.4g  p25 %.4g  p50 %.4g  p75 %.4g  "
                 "p90 %.4g\n",
                 spec.name.c_str(), what, v.size(), Percentile(v, 10),
                 Percentile(v, 25), Percentile(v, 50), Percentile(v, 75),
                 Percentile(v, 90));
  };
  spread("knn", knn_best);
  spread("knn*", knn_all);
  spread("range", range_best);
  spread("batch", batch_qps);
  spread("write", write_ms);
  return rep;
}

}  // namespace bench
