// Google-benchmark microbenchmarks of the library's hot paths:
// classification, the allocators, the matching/LP solvers, and the cluster
// simulator's event loop. Not a paper figure; used to track performance of
// the implementation itself.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "alloc/random_allocator.h"
#include "alloc/search_kernel.h"
#include "cluster/event_queue.h"
#include "cluster/simulator.h"
#include "common/random.h"
#include "common/simd.h"
#include "model/metrics.h"
#include "solver/hungarian.h"
#include "solver/simplex.h"
#include "workload/classifier.h"
#include "workloads/synthetic_scale.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

// Global allocation counter: the GarbageCollect/EvaluateDelta benchmarks
// assert (via the "allocs/iter" counter) that the steady-state hot path does
// not touch the heap.
static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// GCC pairs the built-in operator new with the built-in operator delete at
// call sites and flags our std::free as mismatched; with the replaced
// operator new above (malloc-backed), free() is exactly right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace qcap {
namespace {

void BM_ClassifyTpchColumn(benchmark::State& state) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  Classifier classifier(catalog, {Granularity::kColumn, 4, true});
  for (auto _ : state) {
    auto cls = classifier.Classify(journal);
    benchmark::DoNotOptimize(cls);
  }
}
BENCHMARK(BM_ClassifyTpchColumn);

void BM_GreedyTpchColumn(benchmark::State& state) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  Classifier classifier(catalog, {Granularity::kColumn, 4, true});
  Classification cls = classifier.Classify(journal).value();
  const auto backends = HomogeneousBackends(state.range(0));
  GreedyAllocator greedy;
  for (auto _ : state) {
    auto alloc = greedy.Allocate(cls, backends);
    benchmark::DoNotOptimize(alloc);
  }
}
BENCHMARK(BM_GreedyTpchColumn)->Arg(2)->Arg(5)->Arg(10);

void BM_MemeticIterationTpcApp(benchmark::State& state) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = classifier.Classify(journal).value();
  const auto backends = HomogeneousBackends(10);
  GreedyAllocator greedy;
  Allocation seed = greedy.Allocate(cls, backends).value();
  MemeticOptions opts;
  opts.iterations = 1;
  opts.population_size = 9;
  for (auto _ : state) {
    MemeticAllocator memetic(opts);
    auto alloc = memetic.Improve(cls, backends, seed);
    benchmark::DoNotOptimize(alloc);
  }
}
BENCHMARK(BM_MemeticIterationTpcApp);

/// Shared fixture for the search-kernel benchmarks: TPC-App at table
/// granularity on 10 backends, greedy seed, bound sizes.
struct KernelFixture {
  Classification cls;
  std::vector<BackendSpec> backends;
  ClassificationIndex index;
  Allocation seed;

  static KernelFixture Make() {
    const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
    const QueryJournal journal = workloads::TpcAppJournal(200000);
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    Classification cls = classifier.Classify(journal).value();
    auto backends = HomogeneousBackends(10);
    GreedyAllocator greedy;
    Allocation seed = greedy.Allocate(cls, backends).value();
    seed.BindSizes(cls.catalog);
    ClassificationIndex index(cls);
    return KernelFixture{std::move(cls), std::move(backends), std::move(index),
                         std::move(seed)};
  }
};

void BM_GarbageCollect(benchmark::State& state) {
  auto fx = KernelFixture::Make();
  alloc_internal::SearchKernel kernel(fx.cls, fx.index, fx.backends);
  Allocation work = fx.seed;
  kernel.GarbageCollect(&work);  // Warm the scratch buffers.
  uint64_t allocs = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    kernel.GarbageCollect(&work);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    benchmark::DoNotOptimize(work);
  }
  state.counters["allocs/iter"] =
      iters == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(iters);
}
BENCHMARK(BM_GarbageCollect);

void BM_EvaluateFull(benchmark::State& state) {
  auto fx = KernelFixture::Make();
  alloc_internal::SearchKernel kernel(fx.cls, fx.index, fx.backends);
  kernel.GarbageCollect(&fx.seed);
  for (auto _ : state) {
    auto cost = kernel.Evaluate(fx.seed);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_EvaluateFull);

void BM_EvaluateDelta(benchmark::State& state) {
  auto fx = KernelFixture::Make();
  alloc_internal::SearchKernel kernel(fx.cls, fx.index, fx.backends);
  kernel.GarbageCollect(&fx.seed);
  kernel.BeginDelta(fx.seed, kernel.Evaluate(fx.seed));
  // A representative trial: read share moved between two backends, counted
  // collection of the touched rows.
  Allocation trial = fx.seed;
  const double share = trial.read_assign(0, 0);
  trial.add_read_assign(0, 0, -share);
  trial.add_read_assign(1, 0, share);
  trial.PlaceBits(1, fx.index.read_bits(0));
  alloc_internal::ShareCounts counts;
  kernel.CountShares(trial, &counts);
  std::vector<size_t> touched;
  const size_t bs[2] = {0, 1};
  kernel.CollectCounted(&trial, counts, bs, 2, &touched);
  uint64_t allocs = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    auto cost = kernel.EvaluateDelta(trial, touched);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["allocs/iter"] =
      iters == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(iters);
}
BENCHMARK(BM_EvaluateDelta);

void BM_Hungarian(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.NextDouble() * 1000.0;
  }
  for (auto _ : state) {
    auto result = SolveAssignment(cost);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(128);

void BM_SimplexTransportation(benchmark::State& state) {
  const size_t m = 8, n = 10;
  Rng rng(11);
  LinearProgram lp;
  lp.num_vars = m * n;
  lp.objective.resize(lp.num_vars);
  for (double& c : lp.objective) c = 1.0 + rng.NextDouble() * 9.0;
  std::vector<double> supply(m, 10.0), demand(n, 8.0);
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row(lp.num_vars, 0.0);
    for (size_t j = 0; j < n; ++j) row[i * n + j] = 1.0;
    lp.AddConstraint(std::move(row), Relation::kEqual, supply[i]);
  }
  for (size_t j = 0; j < n; ++j) {
    std::vector<double> col(lp.num_vars, 0.0);
    for (size_t i = 0; i < m; ++i) col[i * n + j] = 1.0;
    lp.AddConstraint(std::move(col), Relation::kEqual, demand[j]);
  }
  for (auto _ : state) {
    auto sol = SolveLp(lp);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_SimplexTransportation);

void BM_SimulatorClosedLoop(benchmark::State& state) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = classifier.Classify(journal).value();
  const auto backends = HomogeneousBackends(10);
  GreedyAllocator greedy;
  Allocation alloc = greedy.Allocate(cls, backends).value();
  SimulationConfig config;
  uint64_t requests = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    config.seed++;
    auto sim = ClusterSimulator::Create(cls, alloc, backends, config);
    auto stats = sim->RunClosed(requests, 40);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(requests));
}
BENCHMARK(BM_SimulatorClosedLoop)->Arg(10000)->Arg(50000);

void BM_SimulatorOpenLoop(benchmark::State& state) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = classifier.Classify(journal).value();
  const auto backends = HomogeneousBackends(10);
  GreedyAllocator greedy;
  Allocation alloc = greedy.Allocate(cls, backends).value();
  SimulationConfig config;
  auto sim = ClusterSimulator::Create(cls, alloc, backends, config).value();
  SimStats out;
  // Warm-up: the first run grows the pooled scratch (event arena, request
  // slots, response samples) to its high-water mark; the measured runs
  // repeat the same seed, so steady state reuses it and the loop must
  // report allocs/iter = 0.
  if (!sim.RunOpen(1.0, 2000.0, &out).ok()) state.SkipWithError("warm-up");
  const uint64_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    auto status = sim.RunOpen(1.0, 2000.0, &out);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(out);
  }
  state.counters["allocs/iter"] = static_cast<double>(
      g_alloc_count.load() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimulatorOpenLoop);

void BM_DispatchReadWide(benchmark::State& state) {
  // Full replication over many backends: every read class's candidate
  // list spans the whole cluster, putting the per-dispatch weight on the
  // pending-index pick instead of the service itself.
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(100000);
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = classifier.Classify(journal).value();
  const auto backends = HomogeneousBackends(32);
  FullReplicationAllocator full;
  Allocation alloc = full.Allocate(cls, backends).value();
  SimulationConfig config;
  auto sim = ClusterSimulator::Create(cls, alloc, backends, config).value();
  SimStats out;
  uint64_t requests = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    sim.set_seed(sim.seed() + 1);
    auto status = sim.RunClosed(requests, 64, &out);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(requests));
}
BENCHMARK(BM_DispatchReadWide)->Arg(20000);

void BM_EventQueue(benchmark::State& state) {
  // Steady-state churn at a fixed population: push/pop cycles against a
  // warmed arena must recycle slots without touching the allocator.
  const size_t population = static_cast<size_t>(state.range(0));
  EventQueue queue;
  queue.Reserve(population + 1);
  Rng rng(5);
  uint64_t seq = 0;
  double now = 0.0;
  for (size_t i = 0; i < population; ++i) {
    SimEvent ev;
    ev.time = now + rng.NextDouble();
    ev.seq = seq++;
    queue.Push(ev);
  }
  SimEvent popped;
  const uint64_t allocs_before = g_alloc_count.load();
  for (auto _ : state) {
    queue.Pop(&popped);
    now = popped.time;
    SimEvent ev;
    ev.time = now + rng.NextDouble();
    ev.seq = seq++;
    queue.Push(ev);
    benchmark::DoNotOptimize(popped);
  }
  state.counters["allocs/iter"] = static_cast<double>(
      g_alloc_count.load() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(64)->Arg(4096);

// --- Large-instance scale-up family (ISSUE 10 / ROADMAP item 2) ---
//
// Synthetic instances far past paper scale, built by the deterministic
// workloads::MakeScaleClassification generator. Each bench is registered
// twice via the "simd" arg: simd:0 forces every kernel through the scalar
// fallback, simd:1 uses runtime dispatch — the committed BENCH json carries
// both rows, so the scalar-vs-SIMD speedup at scale is a recorded baseline.

/// Peak resident set of this process in MB (Linux ru_maxrss is in KB).
double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Committed peak-RSS budget for the full B=256 x 10k-fragment x
/// 100k-class search run (fixture + index + allocations + kernel scratch).
/// BM_LargeSearchFootprint fails if the process exceeds it.
constexpr double kLargePeakRssBudgetMb = 4096.0;

/// Flips the SIMD dispatch for one benchmark run and restores it on exit.
class SimdArgGuard {
 public:
  explicit SimdArgGuard(const benchmark::State& state) {
    simd::ForceScalar(state.range(0) == 0);
  }
  ~SimdArgGuard() { simd::ForceScalar(false); }
};

struct LargeFixture {
  Classification cls;
  std::vector<BackendSpec> backends;
  ClassificationIndex index;
  Allocation seed;

  static LargeFixture Make(size_t fragments, size_t reads, size_t updates,
                           size_t num_backends) {
    workloads::ScaleOptions opt;
    opt.num_fragments = fragments;
    opt.num_read_classes = reads;
    opt.num_update_classes = updates;
    Classification cls = workloads::MakeScaleClassification(opt);
    auto backends = HomogeneousBackends(num_backends);
    // The seed layout stays RandomAllocator(42), as when the committed
    // large-bench numbers were measured, so that they remain comparable.
    RandomAllocator rand(/*seed=*/42);
    Allocation seed = rand.Allocate(cls, backends).value();
    seed.BindSizes(cls.catalog);
    ClassificationIndex index(cls);
    return LargeFixture{std::move(cls), std::move(backends), std::move(index),
                        std::move(seed)};
  }
};

/// The acceptance-scale instance, built once and shared by the delta and
/// footprint benches (the generator is deterministic, and SIMD on/off does
/// not change any produced bit).
const LargeFixture& SearchLargeFixture() {
  static LargeFixture fx = LargeFixture::Make(10000, 100000, 2000, 256);
  return fx;
}

void BM_EvaluateDeltaLarge(benchmark::State& state) {
  // One full memetic trial step at B=256 x 10k x 100k: counted collection
  // of the two touched backends (retain/place word-skip from the counts'
  // needed bits, pin rewrite) + orphan scan + delta scoring.
  const LargeFixture& fx = SearchLargeFixture();
  SimdArgGuard simd_guard(state);
  alloc_internal::SearchKernel kernel(fx.cls, fx.index, fx.backends);
  Allocation base = fx.seed;
  kernel.GarbageCollect(&base);
  kernel.BeginDelta(base, kernel.Evaluate(base));
  Allocation trial = base;
  const double share = trial.read_assign(0, 0);
  trial.add_read_assign(0, 0, -share);
  trial.add_read_assign(1, 0, share);
  trial.PlaceBits(1, fx.index.read_bits(0));
  alloc_internal::ShareCounts counts;
  kernel.CountShares(trial, &counts);
  std::vector<size_t> touched;
  const size_t bs[2] = {0, 1};
  kernel.CollectCounted(&trial, counts, bs, 2, &touched);  // Warm scratch.
  uint64_t allocs = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    kernel.CollectCounted(&trial, counts, bs, 2, &touched);
    auto cost = kernel.EvaluateDelta(trial, touched);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["allocs/iter"] =
      iters == 0 ? 0.0
                 : static_cast<double>(allocs) / static_cast<double>(iters);
  state.counters["peakRSS_MB"] = PeakRssMb();
}
// The large family pins its own MinTime: the JSON baseline targets pass
// --benchmark_min_time=0.01 to keep the paper-size points quick, which
// under-measures these ms-scale bodies (a handful of cold iterations).
// Per-benchmark MinTime takes precedence over the flag.
BENCHMARK(BM_EvaluateDeltaLarge)->ArgName("simd")->Arg(0)->Arg(1)->MinTime(0.5);

void BM_MemeticIterationLarge(benchmark::State& state) {
  static LargeFixture fx = LargeFixture::Make(4000, 20000, 1000, 32);
  SimdArgGuard simd_guard(state);
  MemeticOptions opts;
  opts.iterations = 1;
  opts.population_size = 5;
  for (auto _ : state) {
    MemeticAllocator memetic(opts);
    auto alloc = memetic.Improve(fx.cls, fx.backends, fx.seed);
    benchmark::DoNotOptimize(alloc);
  }
  state.counters["peakRSS_MB"] = PeakRssMb();
}
BENCHMARK(BM_MemeticIterationLarge)
    ->ArgName("simd")
    ->Arg(0)
    ->Arg(1)
    ->MinTime(2.0)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorClosedLoopLarge(benchmark::State& state) {
  // Large along the cluster axis — 1024 backends x 4 servers each: the
  // calendar's global (time, seq) argmin scans a 1024-entry hi/lo column
  // pair per event pop and each slot change rescans a 4-slot block — the
  // simulator's SIMD hot spot at scale. Class count stays moderate so the
  // (unchanged, sequential-by-spec) frequency scan does not mask the
  // event core.
  static LargeFixture fx = LargeFixture::Make(2000, 2000, 200, 1024);
  SimdArgGuard simd_guard(state);
  SimulationConfig config;
  config.servers_per_backend = 4;
  auto sim = ClusterSimulator::Create(fx.cls, fx.seed, fx.backends, config)
                 .value();
  SimStats out;
  const uint64_t requests = 20000;
  for (auto _ : state) {
    sim.set_seed(sim.seed() + 1);
    auto status = sim.RunClosed(requests, 4096, &out);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(requests));
  state.counters["peakRSS_MB"] = PeakRssMb();
}
BENCHMARK(BM_SimulatorClosedLoopLarge)
    ->ArgName("simd")
    ->Arg(0)
    ->Arg(1)
    ->MinTime(2.0)
    ->Unit(benchmark::kMillisecond);

void BM_LargeSearchFootprint(benchmark::State& state) {
  // Acceptance run: a full garbage-collect + evaluate sweep of all 256
  // backends at B=256 x 10k fragments x 100k classes. Checks the committed
  // peak-RSS budget and that the steady-state sweep stays off the heap.
  const LargeFixture& fx = SearchLargeFixture();
  alloc_internal::SearchKernel kernel(fx.cls, fx.index, fx.backends);
  Allocation work = fx.seed;
  kernel.GarbageCollect(&work);  // Warm the scratch buffers.
  uint64_t allocs = 0;
  uint64_t iters = 0;
  for (auto _ : state) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    kernel.GarbageCollect(&work);
    auto cost = kernel.Evaluate(work);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    benchmark::DoNotOptimize(cost);
  }
  state.counters["allocs/iter"] =
      iters == 0 ? 0.0
                 : static_cast<double>(allocs) / static_cast<double>(iters);
  const double peak_mb = PeakRssMb();
  state.counters["peakRSS_MB"] = peak_mb;
  state.counters["budget_MB"] = kLargePeakRssBudgetMb;
  if (peak_mb > kLargePeakRssBudgetMb) {
    state.SkipWithError("peak RSS exceeds the committed large-instance budget");
  }
}
BENCHMARK(BM_LargeSearchFootprint)->MinTime(0.5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qcap

BENCHMARK_MAIN();
