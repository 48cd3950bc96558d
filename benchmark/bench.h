#ifndef BREP_BENCHMARK_BENCH_H_
#define BREP_BENCHMARK_BENCH_H_

// Shared pieces of the end-to-end benchmark: the seeded input generator,
// the workload specs, the benchmark's own brute-force oracle, and the
// metric/operation bookkeeping every workload reports through.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/index.h"
#include "common/top_k.h"
#include "dataset/matrix.h"

namespace bench {

using brep::Matrix;
using brep::Neighbor;

// ------------------------------------------------------------- generator

/// splitmix64 stream with Box-Muller normals: the same seed gives the same
/// inputs on every platform (no std:: distribution is involved).
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  double Gaussian();
  /// Uniform in [0, n).
  size_t Below(size_t n);

 private:
  uint64_t state_;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

// ------------------------------------------------------------- workloads

enum class Kind { kItakuraSaito, kSquaredL2 };

enum class Storage {
  /// Built in memory, first checkpoint Save, every write logged to a WAL
  /// (fsync_mode none) and applied to the in-memory serving state.
  kMemoryDurable,
  /// Built, Save()d, reopened with Index::Open: every read and write goes
  /// through the FilePager and a node pool smaller than the trees.
  kFile,
};

/// Per-run constants shared by the workloads.
constexpr size_t kMinSetups = 3;       // set-ups per untraced run (median),
constexpr size_t kMaxSetups = 15;      // repeated until kSetupSeconds of
constexpr double kSetupSeconds = 2.0;  // set-up time, within these bounds
constexpr size_t kReplicas = 3;        // identical indexes fed every write
constexpr size_t kMinRounds = 3;       // measuring rounds per untraced run
constexpr size_t kWarmup = 10;         // warm-up kNN calls before measuring
constexpr size_t kBatchRows = 16;      // rows per KnnBatch call
constexpr size_t kJoinRows = 8;        // rows per KnnJoin call
constexpr size_t kChurnKnnEvery = 20;  // writes between checked churn kNNs
constexpr size_t kChurnSteps = 20;     // steps the churn is applied in
/// The host-speed calibration's time on the reference host (a 4-vCPU
/// Sapphire Rapids VM with no other load); untraced timings are reported
/// as if the run's host had that speed.
constexpr double kReferenceCalibrationMs = 27.0;

struct Spec {
  std::string name;
  Kind kind = Kind::kSquaredL2;
  Storage storage = Storage::kMemoryDurable;
  size_t n = 0;
  size_t d = 0;
  size_t k = 0;
  size_t clusters = 24;
  double cluster_std = 0.4;
  /// Map samples through 1.5 * exp(x) (the Itakura-Saito domain).
  bool positive = false;
  /// Buffer-pool pages per subspace tree (IndexBuilder::PoolPages).
  size_t pool_pages = 64;
  /// Estimated seconds one measuring round takes on the reference host; a
  /// run of --seconds S makes Rounds(spec, S) rounds.
  double round_s = 3.0;
  /// Distinct kNN queries, each issued once per round.
  size_t knn_queries = 48;
  /// Distinct range queries (the first rows of the same query set), each
  /// issued once per round.
  size_t range_queries = 100;
  /// Distinct KnnBatch calls of kBatchRows rows, each issued once per
  /// round.
  size_t batches = 2;
  /// KnnJoin calls per round, all of the same kJoinRows queries.
  size_t joins = 1;
  /// Distinct queries of the traced run.
  size_t traced_queries = 100;
  /// Insert/delete pairs per run: spread evenly over the rounds, between
  /// the reads, or -- write-heavy -- all ahead of the first round, in
  /// kChurnSteps steps with a checked kNN every kChurnKnnEvery writes.
  size_t write_pairs = 200;
  bool write_heavy = false;
};

/// The three workloads; `small` shrinks every size so a full run with all
/// checks takes seconds.
std::vector<Spec> AllSpecs(bool small);

/// Measuring rounds planned for a run of `seconds` (at least kMinRounds).
/// A run on a slower host stops early, after kMinRounds or more rounds,
/// once its rounds have taken 1.25 * `seconds`.
size_t Rounds(const Spec& spec, double seconds);

const char* DivergenceName(Kind kind);

/// The workload's Gaussian mixture: centers uniform in [-2, 2]^d,
/// isotropic noise of cluster_std, optionally mapped into the positive
/// orthant.
class Mixture {
 public:
  /// Centers drawn from `model`.
  Mixture(const Spec& spec, Gen& model);
  /// A fresh point of a uniformly chosen cluster.
  std::vector<double> Sample(Gen& gen) const;
  Matrix SampleMatrix(Gen& gen, size_t rows) const;

 private:
  const Spec& spec_;
  Matrix centers_;
};

/// A run's inputs. The indexed points are part of the workload's
/// definition, like a dataset file: they and the mixture's centers come
/// from a fixed stream seeded by the workload's name. The run's seed draws
/// the traffic: `queries` distinct queries (fresh mixture samples) and the
/// write stream (`gen` continues into it).
struct Inputs {
  Inputs(const Spec& spec, uint64_t seed, size_t queries);
  Gen model;
  Mixture mixture;
  Matrix data;
  Gen gen;
  Matrix queries;
};

// ---------------------------------------------------------------- oracle

/// Closed-form divergence D(x, y) (x a stored point, y the query):
/// Itakura-Saito sum x/y - log(x/y) - 1, squared L2 sum (x - y)^2.
double OracleDivergence(Kind kind, std::span<const double> x,
                        std::span<const double> y);

/// The benchmark's own record of the live point set, mirroring every
/// acknowledged Insert/Delete by the id the index returned.
class LiveSet {
 public:
  LiveSet(Kind kind, size_t d) : kind_(kind), d_(d) {}
  void Insert(uint32_t id, std::span<const double> x);
  void Erase(uint32_t id);
  bool Contains(uint32_t id) const {
    return id < alive_.size() && alive_[id] != 0;
  }
  size_t size() const { return live_; }
  size_t dim() const { return d_; }
  Kind kind() const { return kind_; }
  std::span<const double> Point(uint32_t id) const {
    return {rows_.data() + size_t(id) * d_, d_};
  }
  /// Coordinate-wise log of Point(id) (Itakura-Saito only).
  std::span<const double> LogPoint(uint32_t id) const {
    return {logs_.data() + size_t(id) * d_, d_};
  }
  /// A uniformly chosen live id (rejection over the id space, which stays
  /// dense because the index reuses deleted ids).
  uint32_t Pick(Gen& gen) const;
  /// Live ids ascending.
  std::vector<uint32_t> Ids() const;
  /// Live points as a matrix, row i = Ids()[i].
  Matrix Rows() const;
  /// Bumped by every mutation (invalidates cached truths).
  uint64_t version() const { return version_; }

  double Distance(uint32_t id, std::span<const double> q) const {
    return OracleDivergence(kind_, Point(id), q);
  }

 private:
  Kind kind_;
  size_t d_;
  std::vector<double> rows_;
  std::vector<double> logs_;
  std::vector<char> alive_;
  size_t live_ = 0;
  uint64_t version_ = 0;
};

/// Brute-force checks against a LiveSet. Each returns false and sets
/// `*why` on the first violation.
class Oracle {
 public:
  explicit Oracle(const LiveSet& live) : live_(live) {}

  /// kNN: k (or live) results, sorted by (distance, id) without
  /// duplicates, only live ids, each distance within a relative 1e-9 of
  /// the closed form, and the id set equal to the brute-force top-k up to
  /// ties at the k-th distance.
  bool CheckKnn(std::span<const double> q, size_t k,
                const std::vector<Neighbor>& got, std::string* why);
  /// The true k-th smallest distance from `q` over the live set (k at most
  /// the live count), cached like CheckKnn's truth.
  double KthDistance(std::span<const double> q, size_t k);
  /// Range: ascending unique live ids; every point within radius (less a
  /// relative 1e-9) present, nothing beyond radius (plus 1e-9) returned.
  bool CheckRange(std::span<const double> q, double radius,
                  const std::vector<uint32_t>& got, std::string* why);

 private:
  /// Every live (distance, id) with distance <= cutoff, sorted; cutoff is
  /// the k-th smallest distance plus a relative 1e-6.
  struct Truth {
    std::vector<double> query;
    uint64_t version = 0;
    size_t k = 0;
    double cutoff = 0.0;
    std::vector<Neighbor> top;
  };
  /// Cached per query row address, valid while k, the live-set version
  /// and the query's values are unchanged.
  const Truth& TruthFor(std::span<const double> q, size_t k);
  /// Every live (distance, id) with distance <= radius, sorted.
  std::vector<Neighbor> Within(std::span<const double> q, double radius) const;

  const LiveSet& live_;
  std::map<const double*, Truth> cache_;
};

// ----------------------------------------------------------- bookkeeping

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What one workload run reports.
struct Report {
  std::string workload;
  bool correct = true;
  std::vector<std::string> errors;
  /// Per operation type (knn, range, batch, join, insert, delete, ...).
  std::map<std::string, OpCount> ops;
  std::vector<std::pair<std::string, Metric>> metrics;

  void Fail(const std::string& why);
  /// Count one operation; returns `ok` so call sites can branch on it.
  bool Op(const std::string& type, bool ok);
  void Set(const std::string& name, double value, const std::string& unit);
  uint64_t attempted() const;
  uint64_t failed() const;
};

/// Nearest-rank percentile (p in [0, 100]) of `v` (copied).
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// One acknowledged write of the stream, as the index applied it.
struct WriteOp {
  bool insert = false;
  uint32_t id = 0;
  std::vector<double> point;  // inserts only
};

/// The files of one served index.
struct Files {
  std::string checkpoint;
  std::string wal;  // empty for Storage::kFile
};

/// The files of index `slot` of a run in `dir`.
Files FilesFor(const Spec& spec, const std::string& dir, size_t slot);

/// The index's own construction seed (k-means, cost-model samples): a
/// fixed part of the configuration, so a given point set always builds the
/// same index.
constexpr uint64_t kBuildSeed = 1;

/// Build the spec's index over `data` and bring it to its serving state:
/// first checkpoint Save (plus Index::Open for Storage::kFile). Any
/// previous files are removed first.
brep::StatusOr<brep::Index> SetUp(const Spec& spec, const Matrix& data,
                                  const Files& files);

/// One insert (a fresh mixture point) followed by one delete (a uniformly
/// chosen live id), mirrored into `live`. Latencies are appended to
/// `write_ms` and the applied ops to `log` when those are non-null.
void WritePair(brep::Index& index, LiveSet& live, Inputs& in, Report& rep,
               std::vector<double>* write_ms, std::vector<WriteOp>* log);

/// Apply `op` (as the served index applied it) to another index built
/// from the same points; false unless it succeeds and an insert gets the
/// same id. Its latency goes to `*ms`.
bool Replay(brep::Index& index, const WriteOp& op, double* ms);

/// Untimed kNN calls that warm caches and pools before a timed phase.
void WarmUp(const brep::SearchIndex& index, const Spec& spec,
            const Matrix& queries, Report& rep);

/// Post-write properties: num_points equals the live count, and kNN
/// answers on the current live set pass the oracle.
void CheckAfterWrites(const brep::Index& index, const Spec& spec,
                      const Inputs& in, const LiveSet& live, Oracle& oracle,
                      Report& rep);

/// Regular file size, 0 when absent.
uint64_t FileBytes(const std::string& path);

/// Milliseconds since `start`.
double MsSince(std::chrono::steady_clock::time_point start);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool small = false;
  /// Scratch directory for the run's checkpoint and log files.
  std::string dir;
};

/// The untraced run: every end-to-end metric of `spec`.
Report RunUntraced(const Spec& spec, const RunOptions& opt);
/// The traced run: every per-layer metric of `spec`, with the staged
/// replay checked byte-identical against Index::Knn.
Report RunTraced(const Spec& spec, const RunOptions& opt);

}  // namespace bench

#endif  // BREP_BENCHMARK_BENCH_H_
