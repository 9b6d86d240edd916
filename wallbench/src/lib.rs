//! Wall-clock benchmark of the Harmony engine.
//!
//! One process builds a workload's engine through the public `harmony`
//! API, drives it from at most two client threads, checks every answer,
//! and prints one JSON result line. Nothing in the engine is changed: the
//! benchmark times the calls it makes and reads the counters the engine
//! already exposes (`collect_stats`, `cluster_snapshot`).
//!
//! ```text
//! wallbench        --workload <name> --seed <n> --seconds <s> [--rounds <n>] [--out <dir>]
//! wallbench-traced (same flags)
//! ```
//!
//! `wallbench` reports the end-to-end metrics. `wallbench-traced` installs
//! the tracking allocator, records a span around every call into a layer,
//! runs the per-layer replays and reports the per-layer metrics; its spans
//! go to `<out>/spans-<workload>-<seed>.jsonl`. `run.py` next to this
//! package builds both and is the command the benchmark is run with.
//!
//! Every workload runs two engine workers and at most two client threads
//! with k = 10. The seed only shapes the generated inputs; the engine's
//! own seed is fixed. `METRICS.md` records why each workload exists and
//! which end-to-end metric each per-layer metric should move.

mod host;
mod replay;
mod trace;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use harmony::baseline::FaissLikeEngine;
use harmony::cluster::{mem, ClusterSnapshot, TransportKind};
use harmony::core::{
    EngineStats, HarmonyConfig, HarmonyEngine, NamespaceConfig, SearchOptions, Temperature,
};
use harmony::data::ground_truth::ground_truth;
use harmony::data::{DatasetAnalog, SyntheticSpec};
use harmony::index::{BlockRepr, Metric, Neighbor, VectorStore};
use rand::prelude::*;

use trace::Tracer;

const K: usize = 10;
/// `nproc` is 2 on the reference host; more workers oversubscribe it.
const N_MACHINES: usize = 2;
/// The engine's clustering seed, shared with the single-node oracle.
const ENGINE_SEED: u64 = 0x04A1_0D0E ^ 0x5EED;
const QUERIES: usize = 400;
const BATCH: usize = 200;
const MAX_INFLIGHT: usize = 64;
const WRITES_PER_S: f64 = 1_000.0;
/// Rate of the paced reader beside the writer.
const READS_PER_S: f64 = 500.0;
const TIMEOUT_MS: u64 = 10_000;
const RATE_CHUNK: usize = 32;
const TAIL_SEGMENT: usize = 1_000;
/// Mean recall@10 the SQ8 churn workload must reach over the live set.
const CHURN_RECALL_FLOOR: f64 = 0.9;
const TENANTS: usize = 16;
const TENANT_MAX_VECTORS: usize = 32_000;
const TENANT_QUERIES: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small probes over TCP loopback: per-message work dominates.
    ShallowTcp,
    /// Wide, diffuse text vectors with deep probes: the worker scan and
    /// prune hop dominates.
    GloveDeep,
    /// SQ8 blocks; most of the run is the churn phase, whose writer
    /// compacts only every 2,000 writes, so delta scans grow long.
    ChurnSq8,
    /// Sixteen cold tenants whose working set is four times the block
    /// cache: tier faults and the persist read path do the work.
    TenantsCold,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ShallowTcp,
        Workload::GloveDeep,
        Workload::ChurnSq8,
        Workload::TenantsCold,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ShallowTcp => "shallow-tcp",
            Workload::GloveDeep => "glove-deep",
            Workload::ChurnSq8 => "churn-sq8",
            Workload::TenantsCold => "tenants-cold",
        }
    }

    fn shape(self) -> Shape {
        let sift = |repr, tcp, batch, single, write| Shape {
            analog: DatasetAnalog::Sift1M,
            scale: 0.05,
            nlist: 222,
            nprobe: 8,
            repr,
            tcp,
            batch,
            single,
            write,
            paced_reads: false,
            compact_every: 500,
        };
        match self {
            Workload::ShallowTcp => sift(BlockRepr::F32, true, 0.3, 0.35, 0.35),
            Workload::GloveDeep => Shape {
                analog: DatasetAnalog::Glove1_2M,
                scale: 0.04,
                nlist: 218,
                nprobe: 32,
                repr: BlockRepr::F32,
                tcp: false,
                batch: 0.3,
                single: 0.35,
                write: 0.35,
                paced_reads: false,
                compact_every: 500,
            },
            // Most of the time goes to the churn phase.
            Workload::ChurnSq8 => Shape {
                compact_every: 2_000,
                paced_reads: true,
                ..sift(BlockRepr::Sq8, false, 0.2, 0.2, 0.6)
            },
            // The default namespace is a small hot corpus nobody queries;
            // the tenants carry the load.
            Workload::TenantsCold => Shape {
                scale: 0.004,
                nlist: 32,
                ..sift(BlockRepr::F32, false, 0.0, 1.0, 0.0)
            },
        }
    }
}

/// Index shape and phase plan of one workload. The phase fields are the
/// shares of `--seconds` given to the batch phase, the single-query
/// closed loop, and the churn phase (the open-loop writer, with a paced
/// reader beside it where `paced_reads` is set).
struct Shape {
    analog: DatasetAnalog,
    scale: f64,
    nlist: usize,
    nprobe: usize,
    repr: BlockRepr,
    tcp: bool,
    batch: f64,
    single: f64,
    write: f64,
    /// Whether a reader paced at [`READS_PER_S`] runs beside the writer.
    paced_reads: bool,
    /// The writer compacts after this many writes. Where the churn phase
    /// lasts under two seconds per round, 500 puts compaction stalls in
    /// every round, so `wall.write_p99_ms` measures them rather than host
    /// jitter.
    compact_every: usize,
}

impl Shape {
    fn transport(&self) -> TransportKind {
        if self.tcp {
            TransportKind::tcp()
        } else {
            TransportKind::InProc
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    rounds: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut rounds = 3;
    let mut out = PathBuf::from("wallbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| {
                            bad("one of shallow-tcp, glove-deep, churn-sq8, tenants-cold")
                        })?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
            }
            "--rounds" => {
                rounds = value.parse().map_err(|_| bad("a positive count"))?;
                if rounds == 0 {
                    return Err(bad("a positive count"));
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        rounds,
        out,
    })
}

/// One query of the pool the clients cycle through.
struct Query {
    ns: u16,
    vector: Vec<f32>,
    /// The single-node IVF answer with the engine's nlist, seed and
    /// nprobe, for workloads whose blocks are exact f32 and never change.
    oracle: Option<Vec<Neighbor>>,
    /// Exact top-k over the data the query searches.
    truth: Vec<Neighbor>,
}

/// Everything generated from the seed before the engine is built.
struct Inputs {
    base: VectorStore,
    /// Extra namespaces' corpora (tenants-cold only).
    tenants: Vec<(VectorStore, usize)>,
    pool: Vec<Query>,
    /// Order in which the single-query loop visits the pool.
    order: Vec<usize>,
    /// The oracle over `base`, kept for the wall-time reference.
    faiss: FaissLikeEngine,
}

/// Deterministic 64-bit mix of the workload seed with a salt.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn oracle(base: &VectorStore, nlist: usize) -> FaissLikeEngine {
    FaissLikeEngine::build(nlist, Metric::L2, ENGINE_SEED, base).expect("oracle IVF builds")
}

fn tenant_nlist(n: usize) -> usize {
    ((n as f64).sqrt() as usize).clamp(16, 222)
}

fn generate(w: Workload, shape: &Shape, seed: u64) -> Inputs {
    let spec = shape
        .analog
        .spec(shape.scale)
        .with_seed(mix(seed, 1))
        .with_queries(QUERIES);
    let data = spec.generate();
    let faiss = oracle(&data.base, shape.nlist);
    if w == Workload::TenantsCold {
        return generate_tenants(&spec, seed, data.base, faiss);
    }
    let truth = ground_truth(&data.base, &data.queries, K, Metric::L2);
    let exact_blocks = shape.repr == BlockRepr::F32;
    let pool: Vec<Query> = truth
        .into_iter()
        .enumerate()
        .map(|(i, truth)| {
            let vector = data.queries.row(i).to_vec();
            let oracle = exact_blocks.then(|| {
                faiss
                    .search(&vector, K, shape.nprobe)
                    .expect("oracle search")
            });
            Query {
                ns: 0,
                vector,
                oracle,
                truth,
            }
        })
        .collect();
    let order = (0..pool.len()).collect();
    Inputs {
        base: data.base,
        tenants: Vec::new(),
        pool,
        order,
        faiss,
    }
}

/// Tenant `i` holds `32,000 / (i + 1)` Sift-shaped vectors; queries pick
/// tenants Zipf(1) over a popularity order drawn from the seed.
fn generate_tenants(
    spec: &SyntheticSpec,
    seed: u64,
    base: VectorStore,
    faiss: FaissLikeEngine,
) -> Inputs {
    let mut tenants = Vec::new();
    let mut per_tenant: Vec<Vec<Query>> = Vec::new();
    for t in 0..TENANTS {
        let n = TENANT_MAX_VECTORS / (t + 1);
        let nlist = tenant_nlist(n);
        let data = SyntheticSpec {
            n,
            n_queries: TENANT_QUERIES,
            components: ((n as f64).sqrt() as usize / 4).clamp(16, 256),
            seed: mix(seed, 100 + t as u64),
            ..spec.clone()
        }
        .generate();
        let ivf = oracle(&data.base, nlist);
        let truth = ground_truth(&data.base, &data.queries, K, Metric::L2);
        let ns = (t + 1) as u16;
        per_tenant.push(
            truth
                .into_iter()
                .enumerate()
                .map(|(i, truth)| {
                    let vector = data.queries.row(i).to_vec();
                    let oracle = Some(ivf.search(&vector, K, 8).expect("oracle search"));
                    Query {
                        ns,
                        vector,
                        oracle,
                        truth,
                    }
                })
                .collect(),
        );
        tenants.push((data.base, nlist));
    }
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let mut popularity: Vec<usize> = (0..TENANTS).collect();
    popularity.shuffle(&mut rng);
    let weights: Vec<f64> = (0..TENANTS).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let pool: Vec<Query> = per_tenant.into_iter().flatten().collect();
    let order = (0..20_000)
        .map(|i| {
            let mut u = rng.random_range(0.0..total);
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(TENANTS - 1);
            popularity[rank] * TENANT_QUERIES + i % TENANT_QUERIES
        })
        .collect();
    Inputs {
        base,
        tenants,
        pool,
        order,
        faiss,
    }
}

/// Operations attempted and how they failed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    errors: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
    }

    fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        if self.errors < 5 {
            eprintln!("[wallbench] {what} failed: {e}");
        }
        self.errors += 1;
    }

    fn wrong(&mut self, what: &str, detail: impl std::fmt::Debug) {
        if self.wrong < 5 {
            eprintln!("[wallbench] wrong {what}: {detail:?}");
        }
        self.wrong += 1;
    }
}

/// Deletes the writer has had acknowledged, in order, so a reader can
/// tell which ids must no longer appear in an answer.
#[derive(Default)]
struct Deletes {
    acked: AtomicU64,
    order: RwLock<HashMap<u64, u64>>,
}

impl Deletes {
    fn record(&self, id: u64) {
        let n = self.acked.load(Ordering::SeqCst) + 1;
        self.order
            .write()
            .expect("delete log lock poisoned")
            .insert(id, n);
        self.acked.store(n, Ordering::SeqCst);
    }

    fn snapshot(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    /// Whether `id`'s delete was acknowledged within the first `snap`.
    fn hides(&self, id: u64, snap: u64) -> bool {
        self.order
            .read()
            .expect("delete log lock poisoned")
            .get(&id)
            .is_some_and(|&n| n <= snap)
    }
}

/// Same answer as the oracle, allowing tie swaps between equal scores.
fn same_as_oracle(got: &[Neighbor], want: &[Neighbor]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(x, y)| {
            x.id == y.id || (x.score - y.score).abs() <= 1e-3 * x.score.abs().max(1.0)
        })
}

/// The answer check: the oracle where one exists and no writer runs,
/// else k unique ids none of which was deleted before the query was
/// issued.
fn answer_ok(got: &[Neighbor], q: &Query, deletes: Option<(&Deletes, u64)>) -> bool {
    if let (Some(want), None) = (&q.oracle, deletes) {
        return same_as_oracle(got, want);
    }
    let unique: HashSet<u64> = got.iter().map(|n| n.id).collect();
    if got.len() != K || unique.len() != K {
        return false;
    }
    deletes.is_none_or(|(d, snap)| got.iter().all(|n| !d.hides(n.id, snap)))
}

fn recall(got: &[Neighbor], truth: &[Neighbor]) -> f64 {
    let want: HashSet<u64> = truth.iter().map(|n| n.id).collect();
    let hits = got.iter().take(K).filter(|n| want.contains(&n.id)).count();
    hits as f64 / want.len().clamp(1, K) as f64
}

/// One sample and the stretch of the run, in [`host::now_s`] seconds, it
/// was taken over.
#[derive(Debug, Clone, Copy)]
struct Timed {
    start: f64,
    end: f64,
    value: f64,
}

/// Process CPU per query of one closed loop, in µs: what all threads ran
/// between one query's completion and the next's (`cpu_s` is the process
/// CPU clock read as each query completed). Like latency, a noisy stretch
/// moves the queries it falls in, not their median; longer chunks would
/// nearly all hold some stretch of steal.
fn query_cpu_us(queries: &[Timed], cpu_s: &[f64]) -> Vec<Timed> {
    queries
        .windows(2)
        .zip(cpu_s.windows(2))
        .map(|(q, c)| Timed {
            start: q[0].end,
            end: q[1].end,
            value: (c[1] - c[0]) * 1e6,
        })
        .collect()
}

/// Completion rates over runs of [`RATE_CHUNK`] consecutive queries of
/// one closed loop. Their median is the throughput figure: a stall moves
/// the chunks it falls in, not the whole figure.
fn chunk_rates(queries: &[Timed]) -> Vec<Timed> {
    queries
        .windows(RATE_CHUNK + 1)
        .step_by(RATE_CHUNK)
        .map(|w| Timed {
            start: w[0].end,
            end: w[RATE_CHUNK].end,
            value: RATE_CHUNK as f64 / (w[RATE_CHUNK].end - w[0].end).max(1e-9),
        })
        .collect()
}

/// The values of the samples no stolen stretch touches, with the share
/// of samples that kept. When steal touched nearly all of them, every
/// value is kept instead, and the share reads 1.
fn unstolen(samples: &[Timed], log: &host::StealLog) -> (Vec<f64>, f64) {
    let kept: Vec<f64> = samples
        .iter()
        .filter(|t| log.clean(t.start, t.end))
        .map(|t| t.value)
        .collect();
    if kept.len() * 10 < samples.len() || kept.is_empty() {
        return (samples.iter().map(|t| t.value).collect(), 1.0);
    }
    let share = kept.len() as f64 / samples.len() as f64;
    (kept, share)
}

/// The 99th percentile of each run of [`TAIL_SEGMENT`] consecutive
/// latencies (a short remainder joins the last run). Their median is the
/// tail figure: each run has ten samples beyond its p99, and a burst of
/// host stalls moves the runs it falls in, not the whole figure. Fewer
/// samples than one run make one short run.
fn segment_p99s(lat_ms: &[f64]) -> Vec<f64> {
    let n = (lat_ms.len() / TAIL_SEGMENT).max(1);
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                lat_ms.len()
            } else {
                (i + 1) * TAIL_SEGMENT
            };
            host::quantile(&lat_ms[(i * TAIL_SEGMENT).min(end)..end], 0.99)
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a single-query closed loop measured.
#[derive(Default)]
struct Reads {
    /// Latency of each query, in ms; paced queries are timed from when
    /// they were due.
    lat: Vec<Timed>,
    /// The process CPU clock, in seconds, as each query completed.
    cpu_s: Vec<f64>,
    recall_sum: f64,
    /// CPU the reader spent waiting for paced queries to fall due.
    pacing_cpu_s: f64,
    tally: Tally,
}

/// Single `search` calls until `until`: back to back (a closed loop)
/// without `pace`, else one every `pace` (an open loop; every query due
/// before `until` is issued, however late). Beside the writer, pass its
/// `deletes` so answers are checked against the live set.
fn closed_loop(
    engine: &HarmonyEngine,
    inputs: &Inputs,
    opts: &SearchOptions,
    until: Instant,
    pace: Option<Duration>,
    deletes: Option<&Deletes>,
    tracer: &mut Tracer,
) -> Reads {
    let mut r = Reads::default();
    let first = Instant::now();
    let first_s = host::now_s();
    for i in 0usize.. {
        let due = pace.map(|p| first + p * i as u32);
        match due {
            Some(due) if due >= until => break,
            Some(due) => r.pacing_cpu_s += wait_until(due),
            None if Instant::now() >= until => break,
            None => {}
        }
        let q = &inputs.pool[inputs.order[i % inputs.order.len()]];
        let snap = deletes.map(|d| (d, d.snapshot()));
        let start = due.map_or_else(host::now_s, |d| first_s + (d - first).as_secs_f64());
        let res = tracer.span("engine.search", i as u64 + 1, || {
            engine.search_ns(q.ns, &q.vector, opts)
        });
        let end = host::now_s();
        r.cpu_s.push(host::process_cpu_s());
        r.lat.push(Timed {
            start,
            end,
            value: (end - start) * 1e3,
        });
        r.tally.attempted += 1;
        match res {
            Ok(res) => {
                if !answer_ok(&res.neighbors, q, snap) {
                    r.tally.wrong("search answer", (&res.neighbors, &q.oracle));
                }
                r.recall_sum += recall(&res.neighbors, &q.truth);
            }
            Err(e) => r.tally.error("search", e),
        }
    }
    r
}

/// What the batch phase measured, one sample per `search_batch` call.
#[derive(Default)]
struct Batches {
    qps: Vec<Timed>,
    /// Process CPU per query, in µs.
    cpu_us: Vec<Timed>,
    tally: Tally,
}

/// Batches of [`BATCH`] pool queries, each through `search_batch`.
fn batch_loop(
    engine: &HarmonyEngine,
    inputs: &Inputs,
    opts: &SearchOptions,
    until: Instant,
    tracer: &mut Tracer,
) -> Batches {
    let batches: Vec<(usize, VectorStore)> = (0..inputs.pool.len())
        .step_by(BATCH)
        .map(|first| {
            let mut s = VectorStore::new(inputs.base.dim());
            for q in &inputs.pool[first..(first + BATCH).min(inputs.pool.len())] {
                s.push(0, &q.vector)
                    .expect("query width matches the corpus");
            }
            (first, s)
        })
        .collect();
    let mut out = Batches::default();
    let mut b = 0usize;
    while Instant::now() < until {
        let (first, queries) = &batches[b % batches.len()];
        b += 1;
        out.tally.attempted += queries.len() as u64;
        let cpu0 = host::process_cpu_s();
        let start = host::now_s();
        let res = tracer.span("engine.search_batch", b as u64, || {
            engine.search_batch(queries, opts)
        });
        let end = host::now_s();
        let cpu = host::process_cpu_s() - cpu0;
        match res {
            Ok(res) => {
                let n = queries.len() as f64;
                let at = |value| Timed { start, end, value };
                out.qps.push(at(n / (end - start).max(1e-9)));
                out.cpu_us.push(at(cpu * 1e6 / n));
                let tally = &mut out.tally;
                for (i, got) in res.results.iter().enumerate() {
                    if !answer_ok(got, &inputs.pool[first + i], None) {
                        tally.wrong("batch answer", (got, &inputs.pool[first + i].oracle));
                    }
                }
            }
            Err(e) => out.tally.error("search_batch", e),
        }
    }
    out
}

/// The writer's op stream: three upserts (half fresh ids, half replaced
/// live ids) for every delete of a live id. Deleted ids never return.
struct Churn<'a> {
    rng: StdRng,
    base: &'a VectorStore,
    live: Vec<u64>,
    next_id: u64,
    vectors: HashMap<u64, Vec<f32>>,
    deleted: HashSet<u64>,
}

enum Op {
    Upsert(u64, Vec<f32>),
    Delete(u64),
}

impl<'a> Churn<'a> {
    fn new(base: &'a VectorStore, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(mix(seed, 3)),
            base,
            live: base.ids().to_vec(),
            next_id: base.ids().iter().max().map_or(0, |m| m + 1),
            vectors: HashMap::new(),
            deleted: HashSet::new(),
        }
    }

    fn next(&mut self, i: usize) -> Op {
        if i % 4 == 3 {
            let at = self.rng.random_range(0..self.live.len());
            let id = self.live.swap_remove(at);
            self.vectors.remove(&id);
            self.deleted.insert(id);
            return Op::Delete(id);
        }
        let row = self.base.row(self.rng.random_range(0..self.base.len()));
        let v: Vec<f32> = row
            .iter()
            .map(|x| x + self.rng.random_range(-0.05..0.05f32))
            .collect();
        let id = if self.rng.random_bool(0.5) {
            let id = self.next_id;
            self.next_id += 1;
            self.live.push(id);
            id
        } else {
            self.live[self.rng.random_range(0..self.live.len())]
        };
        self.vectors.insert(id, v.clone());
        Op::Upsert(id, v)
    }

    /// The logical live set after every op so far.
    fn live_store(&self) -> VectorStore {
        let mut s = VectorStore::with_capacity(self.base.dim(), self.live.len());
        for (id, row) in self.base.iter() {
            if !self.deleted.contains(&id) && !self.vectors.contains_key(&id) {
                s.push(id, row).expect("width matches");
            }
        }
        let mut fresh: Vec<_> = self.vectors.iter().collect();
        fresh.sort_by_key(|(id, _)| **id);
        for (&id, v) in fresh {
            s.push(id, v).expect("width matches");
        }
        s
    }
}

/// What the open-loop writer measured.
#[derive(Default)]
struct Writes {
    /// Latency of each write from when it was due, in ms.
    lat: Vec<Timed>,
    late_ms_max: f64,
    /// Duration of each compaction that folded something, in ms.
    compactions: Vec<Timed>,
    folded: u64,
    dropped: u64,
    delta_rows_max: u64,
    tombstones_max: u64,
    /// CPU the writer spent waiting for writes to fall due.
    pacing_cpu_s: f64,
    tally: Tally,
}

/// Sleeps until shortly before `t`, then spins: a sleep alone wakes tens
/// of microseconds late, which would read as latency. Returns the CPU
/// seconds the wait cost this thread, which the CPU metrics leave out.
fn wait_until(t: Instant) -> f64 {
    let cpu0 = host::thread_cpu_s();
    let now = Instant::now();
    if t > now + Duration::from_micros(150) {
        std::thread::sleep(t - now - Duration::from_micros(120));
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
    host::thread_cpu_s() - cpu0
}

fn compact(engine: &HarmonyEngine, w: &mut Writes, tracer: &mut Tracer) {
    if tracer.enabled() {
        if let Ok(s) = tracer.span("engine.collect_stats", 0, || engine.collect_stats()) {
            w.delta_rows_max = w.delta_rows_max.max(s.delta_rows);
            w.tombstones_max = w.tombstones_max.max(s.tombstone_entries);
        }
    }
    w.tally.attempted += 1;
    let start = host::now_s();
    match tracer.span("engine.compact", 0, || engine.compact()) {
        Ok(report) => {
            let end = host::now_s();
            if !report.noop {
                w.compactions.push(Timed {
                    start,
                    end,
                    value: (end - start) * 1e3,
                });
            }
            w.folded += report.folded_rows as u64;
            w.dropped += report.dropped_tombstones as u64;
        }
        Err(e) => w.tally.error("compact", e),
    }
}

/// Open loop at [`WRITES_PER_S`]; each write is timed from when it was
/// due, and the writer compacts after every `compact_every` writes.
fn write_loop(
    engine: &HarmonyEngine,
    churn: &mut Churn<'_>,
    deletes: &Deletes,
    until: Instant,
    compact_every: usize,
    tracer: &mut Tracer,
) -> Writes {
    let mut w = Writes::default();
    let start = Instant::now();
    let start_s = host::now_s();
    let period = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    for i in 0.. {
        let due = start + period * i as u32;
        if due >= until {
            break;
        }
        w.pacing_cpu_s += wait_until(due);
        w.late_ms_max = w.late_ms_max.max(ms(due.elapsed()));
        w.tally.attempted += 1;
        let res = match churn.next(i) {
            Op::Upsert(id, v) => {
                tracer.span("engine.upsert", id, || engine.upsert(id, &v).map(|_| true))
            }
            Op::Delete(id) => tracer
                .span("engine.delete", id, || engine.delete(id))
                .inspect(|_| deletes.record(id)),
        };
        let late = due.elapsed().as_secs_f64();
        let due_s = start_s + (due - start).as_secs_f64();
        w.lat.push(Timed {
            start: due_s,
            end: due_s + late,
            value: late * 1e3,
        });
        match res {
            Ok(true) => {}
            // Only live ids are deleted, so the engine must know them.
            Ok(false) => w
                .tally
                .wrong("delete of a live id", "the engine did not know it"),
            Err(e) => w.tally.error("write", e),
        }
        if (i + 1) % compact_every == 0 {
            compact(engine, &mut w, tracer);
        }
    }
    w
}

fn config(shape: &Shape, spill: &Path, cache_budget: Option<usize>) -> HarmonyConfig {
    let mut b = HarmonyConfig::builder()
        .n_machines(N_MACHINES)
        .nlist(shape.nlist)
        .seed(ENGINE_SEED)
        .max_inflight(MAX_INFLIGHT)
        .transport(shape.transport())
        .repr(shape.repr)
        .spill_dir(spill.to_path_buf());
    if let Some(bytes) = cache_budget {
        b = b.cache_budget_bytes(bytes);
    }
    b.build().expect("benchmark configuration is valid")
}

/// Raw f32 bytes of `n` vectors of width `dim`.
fn f32_bytes(n: usize, dim: usize) -> usize {
    n * dim * std::mem::size_of::<f32>()
}

/// With tenants, the per-worker block-cache budget is a quarter of each
/// worker's tenant bytes, so the cold working set is four times the
/// cache. Without, the engine's default stands.
fn cache_budget(inputs: &Inputs) -> Option<usize> {
    if inputs.tenants.is_empty() {
        return None;
    }
    let tenant_bytes: usize = inputs
        .tenants
        .iter()
        .map(|(b, _)| f32_bytes(b.len(), b.dim()))
        .sum();
    Some(tenant_bytes / N_MACHINES / 4)
}

/// Builds the engine and, for tenants-cold, its cold tenants. This is
/// what `setup_s` times.
fn set_up(
    shape: &Shape,
    inputs: &Inputs,
    spill: &Path,
    tracer: &mut Tracer,
) -> Result<HarmonyEngine, String> {
    let cfg = config(shape, spill, cache_budget(inputs));
    let engine = tracer
        .span("engine.build", 0, || {
            HarmonyEngine::build(cfg, &inputs.base)
        })
        .map_err(|e| format!("build: {e}"))?;
    for (base, nlist) in &inputs.tenants {
        let ns_cfg = NamespaceConfig::default()
            .with_nlist(*nlist)
            .with_seed(ENGINE_SEED);
        let ns = tracer
            .span("engine.create_namespace", 0, || {
                engine.create_namespace(&ns_cfg, base)
            })
            .map_err(|e| format!("create_namespace: {e}"))?;
        tracer
            .span("engine.set_namespace_tier", ns as u64, || {
                engine.set_namespace_tier(ns, Temperature::Cold)
            })
            .map_err(|e| format!("set_namespace_tier: {e}"))?;
    }
    Ok(engine)
}

/// Counter deltas over one phase.
struct Window {
    stats: EngineStats,
    snap: ClusterSnapshot,
    allocs: usize,
}

impl Window {
    fn open(engine: &HarmonyEngine, tracer: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            stats: tracer
                .span("engine.collect_stats", 0, || engine.collect_stats())
                .map_err(|e| format!("collect_stats: {e}"))?,
            snap: engine.cluster_snapshot(),
            allocs: mem::total_allocations(),
        })
    }
}

/// One metric of the result line.
struct Measure {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Measure>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Measure {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    fn line(&self, correct: bool, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.attempted.max(1),
            tally.errors + tally.wrong,
            metrics.join(", ")
        )
    }
}

/// Runs one workload and prints the result line. `traced` selects the
/// per-layer run.
pub fn run(traced: bool) {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_workload(&args, traced) {
        eprintln!("wallbench: {e}");
        std::process::exit(1);
    }
}

/// Samples pooled over every round of a run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    batch_qps: Vec<Timed>,
    search_ms: Vec<Timed>,
    search_rates: Vec<Timed>,
    recall_sum: f64,
    recall_n: usize,
    write_ms: Vec<Timed>,
    compact_ms: Vec<Timed>,
    churn_read_ms: Vec<Timed>,
    /// Process CPU per query of each batch, in µs.
    batch_cpu_us: Vec<Timed>,
    /// Process CPU per closed-loop query, in µs.
    search_cpu_us: Vec<Timed>,
    /// Process CPU per operation of each round's churn phase, in µs.
    churn_cpu_us: Vec<f64>,
}

fn run_workload(args: &Args, traced: bool) -> Result<(), String> {
    let w = args.workload;
    let shape = w.shape();
    let mut tracer = Tracer::new(traced);
    let cores = host::cores();
    let clients = if shape.paced_reads { 2 } else { 1 };
    if N_MACHINES + clients > cores {
        eprintln!(
            "[wallbench] warning: {N_MACHINES} engine workers + {clients} client threads exceed {cores} cores"
        );
    }
    let run_dir = args
        .out
        .join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let jiffies0 = host::cpu_jiffies();
    let monitor = host::StealMonitor::start();

    let t_gen = Instant::now();
    let open = tracer.begin("bench.generate", 0);
    let inputs = generate(w, &shape, args.seed);
    tracer.end(open);
    eprintln!(
        "[wallbench] {}: {} x {}d, {} queries, inputs in {:.1}s",
        w.name(),
        inputs.base.len(),
        inputs.base.dim(),
        inputs.pool.len(),
        t_gen.elapsed().as_secs_f64()
    );

    let opts = SearchOptions::new(K)
        .with_nprobe(shape.nprobe)
        .with_timeout_ms(TIMEOUT_MS);
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut layers = Report::default();
    let mut resident_ratio = None;
    // Each round sets a fresh engine up and runs every phase on it for
    // its share of the time. Samples pool over rounds, so neither one
    // engine instance nor one stretch of a shared host sets the figures.
    let rounds = args.rounds;
    let secs = args.seconds / rounds as f64;
    for round in 0..rounds {
        let spill = run_dir.join(format!("spill{round}"));
        let t0 = Instant::now();
        let engine = set_up(&shape, &inputs, &spill, &mut tracer)?;
        s.setup_s.push(t0.elapsed().as_secs_f64());
        let phase_end = |share: f64| Instant::now() + Duration::from_secs_f64(secs * share);

        // Phase A: pipelined batches.
        if shape.batch > 0.0 {
            let open = tracer.begin("phase.batch", 0);
            let b = batch_loop(&engine, &inputs, &opts, phase_end(shape.batch), &mut tracer);
            tracer.end(open);
            s.batch_qps.extend(b.qps);
            s.batch_cpu_us.extend(b.cpu_us);
            tally.add(b.tally);
        }

        // Phase B: the single-query closed loop, alone.
        let window0 = if traced {
            Some(Window::open(&engine, &mut tracer)?)
        } else {
            None
        };
        // The traced run samples the transport's send-queue gauge from a
        // thread of its own: the client thread only ever sees it between
        // its calls, when the queues have drained.
        let sampling = AtomicBool::new(traced);
        let (reads, buffered_max) = std::thread::scope(|sc| {
            let sampler = sc.spawn(|| host::sample_max(&sampling, mem::transport_buffered_bytes));
            let open = tracer.begin("phase.single", 0);
            let until = phase_end(shape.single);
            let r = closed_loop(&engine, &inputs, &opts, until, None, None, &mut tracer);
            tracer.end(open);
            sampling.store(false, Ordering::Relaxed);
            let max = sampler.join().expect("gauge sampler thread panicked");
            (r, max)
        });
        let windows = match window0 {
            Some(w0) => Some((w0, Window::open(&engine, &mut tracer)?)),
            None => None,
        };
        tally.add(reads.tally);
        s.search_ms.extend(&reads.lat);
        s.search_rates.extend(chunk_rates(&reads.lat));
        s.search_cpu_us
            .extend(query_cpu_us(&reads.lat, &reads.cpu_s));
        s.recall_sum += reads.recall_sum;
        s.recall_n += reads.lat.len();

        // Phase C: the open-loop writer, compacting as it goes, with a
        // paced reader beside it on churn-sq8. Both issue a fixed number of
        // operations per second, so the phase's CPU per operation does not
        // depend on how fast the host ran it.
        let deletes = Deletes::default();
        let mut churn = Churn::new(&inputs.base, args.seed);
        let mut writes = None;
        if shape.write > 0.0 {
            let open = tracer.begin("phase.churn", 0);
            let until = phase_end(shape.write);
            let cpu0 = host::process_cpu_s();
            let (mixed, mut wr) = std::thread::scope(|sc| {
                let mut reader_tracer = tracer.fork();
                let (e, i, o, d) = (&engine, &inputs, &opts, &deletes);
                let reader = shape.paced_reads.then(|| {
                    let pace = Duration::from_secs_f64(1.0 / READS_PER_S);
                    sc.spawn(move || {
                        let r =
                            closed_loop(e, i, o, until, Some(pace), Some(d), &mut reader_tracer);
                        (r, reader_tracer)
                    })
                });
                let wr = write_loop(
                    &engine,
                    &mut churn,
                    &deletes,
                    until,
                    shape.compact_every,
                    &mut tracer,
                );
                let mixed = match reader {
                    Some(reader) => {
                        let (r, t) = reader.join().expect("reader thread panicked");
                        tracer.absorb(t);
                        r
                    }
                    None => Reads::default(),
                };
                (mixed, wr)
            });
            compact(&engine, &mut wr, &mut tracer);
            let cpu = host::process_cpu_s() - cpu0 - wr.pacing_cpu_s - mixed.pacing_cpu_s;
            let ops = (wr.lat.len() + mixed.lat.len()).max(1);
            s.churn_cpu_us.push(cpu * 1e6 / ops as f64);
            tracer.end(open);
            tally.add(mixed.tally);
            tally.add(wr.tally);
            s.churn_read_ms.extend(&mixed.lat);
            s.write_ms.extend(&wr.lat);
            s.compact_ms.extend(&wr.compactions);
            writes = Some(wr);
        }

        if round + 1 < rounds {
            engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            continue;
        }
        if w == Workload::ChurnSq8 {
            // Recall over the live set, after the writer stopped and
            // compacted.
            let (sum, t) = live_recall(&engine, &inputs, &opts, &churn, &deletes);
            tally.add(t);
            s.recall_sum = sum;
            s.recall_n = inputs.pool.len();
        }
        let end_stats = tracer
            .span("engine.collect_stats", 0, || engine.collect_stats())
            .map_err(|e| format!("collect_stats: {e}"))?;
        let live = churn.live.len() + inputs.tenants.iter().map(|(b, _)| b.len()).sum::<usize>();
        let resident = (end_stats.f32_block_bytes
            + end_stats.sq8_block_bytes
            + end_stats.delta_block_bytes
            + end_stats.cache_block_bytes) as f64;
        if let Some((w0, w1)) = windows {
            let ctx = LayerCtx {
                w,
                shape: &shape,
                inputs: &inputs,
                engine: &engine,
                reads: &reads,
                buffered_max,
                writes: writes.as_ref(),
                w0: &w0,
                w1: &w1,
                end_stats: &end_stats,
                run_dir: &run_dir,
            };
            layer_metrics(&ctx, &mut tracer, &mut layers)?;
        }
        if w == Workload::TenantsCold {
            report_tenant_defect(&inputs, reads.tally);
        }
        resident_ratio = Some(resident / f32_bytes(live, inputs.base.dim()) as f64);
        engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    let resident_ratio = resident_ratio.expect("at least one round");

    let recall_at_10 = s.recall_sum / s.recall_n.max(1) as f64;
    let mut correct = tally.wrong == 0;
    if w == Workload::ChurnSq8 && recall_at_10 < CHURN_RECALL_FLOOR {
        eprintln!("[wallbench] recall@10 {recall_at_10:.4} over the live set is below the floor {CHURN_RECALL_FLOOR}");
        correct = false;
    }

    let stolen = monitor.finish();
    let (batch_qps, _) = unstolen(&s.batch_qps, &stolen);
    let (search_rates, _) = unstolen(&s.search_rates, &stolen);
    let (search_ms, clean_frac) = unstolen(&s.search_ms, &stolen);
    let (churn_read_ms, _) = unstolen(&s.churn_read_ms, &stolen);
    let (write_ms, _) = unstolen(&s.write_ms, &stolen);
    let (compact_ms, _) = unstolen(&s.compact_ms, &stolen);
    let (batch_cpu_us, _) = unstolen(&s.batch_cpu_us, &stolen);
    let (search_cpu_us, _) = unstolen(&s.search_cpu_us, &stolen);
    let search_p99s = segment_p99s(&search_ms);
    let p = |v: &[f64], q: f64| host::quantile(v, q);
    // The bounded end-to-end metrics: set-up time, CPU per operation of
    // each phase, answer quality and memory.
    let mut report = Report::default();
    report.put("setup_s", host::median(&s.setup_s), "s");
    report.put("batch_cpu_us", host::median(&batch_cpu_us), "us");
    report.put("search_cpu_us", host::median(&search_cpu_us), "us");
    // One figure per round: a churn phase holds a compaction or two, so
    // shorter stretches would differ by whether one fell in them.
    report.put("churn_cpu_us", host::median(&s.churn_cpu_us), "us");
    report.put("recall_at_10", recall_at_10, "ratio");
    report.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    report.put("resident_ratio", resident_ratio, "ratio");
    // Wall-clock figures. On a small shared host they move with other
    // tenants' load, so they are recorded without a bound.
    let mut wall = Report::default();
    wall.put("wall.batch_qps", host::median(&batch_qps), "1/s");
    wall.put("wall.search_qps", host::median(&search_rates), "1/s");
    wall.put("wall.search_p50_ms", p(&search_ms, 0.5), "ms");
    wall.put("wall.search_p99_ms", host::median(&search_p99s), "ms");
    wall.put("wall.churn_read_p50_ms", p(&churn_read_ms, 0.5), "ms");
    wall.put("wall.write_p50_ms", p(&write_ms, 0.5), "ms");
    // Pooled, not segmented: the writer's tail is its compaction stalls,
    // which come every `compact_every` writes by design.
    wall.put("wall.write_p99_ms", p(&write_ms, 0.99), "ms");
    wall.put("wall.compact_ms", host::median(&compact_ms), "ms");

    let steal = host::steal_frac(jiffies0, host::cpu_jiffies());
    eprintln!(
        "[wallbench] {} rounds, set-up {:?} s; steal {:.3}; kept outside stolen stretches: \
         {} of {} searches ({} p99 segments), {} of {} writes, {} of {} batches, {} of {} compactions",
        rounds,
        s.setup_s,
        steal,
        search_ms.len(),
        s.search_ms.len(),
        search_p99s.len(),
        write_ms.len(),
        s.write_ms.len(),
        batch_qps.len(),
        s.batch_qps.len(),
        compact_ms.len(),
        s.compact_ms.len(),
    );

    if traced {
        layers.put("host.cores", cores as f64, "count");
        layers.put("host.steal_frac", steal, "ratio");
        layers.put("host.clean_frac", clean_frac, "ratio");
        layers.put("trace.spans", tracer.len() as f64, "count");
        // The traced run's own end-to-end figures, for the overhead.
        for m in &report.metrics {
            layers.put(&format!("traced.{}", m.name), m.value, m.unit);
        }
        layers.put("traced.search_p50_ms", p(&search_ms, 0.5), "ms");
        let spans = args
            .out
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        eprintln!(
            "[wallbench] {} spans written to {}",
            tracer.len(),
            spans.display()
        );
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    println!(
        "{{\"host\": {{\"cores\": {cores}, \"steal_frac\": {steal:?}, \"clean_frac\": {clean_frac:?}, \"workers\": {N_MACHINES}, \"client_threads\": {clients}}}}}"
    );
    let out = if traced {
        layers
    } else {
        report.metrics.extend(wall.metrics);
        report
    };
    println!("{}", out.line(correct, tally));
    Ok(())
}

/// Searches every pool query once and scores it against exact truth
/// over the writer's live set. Returns the recall sum and the tally.
fn live_recall(
    engine: &HarmonyEngine,
    inputs: &Inputs,
    opts: &SearchOptions,
    churn: &Churn<'_>,
    deletes: &Deletes,
) -> (f64, Tally) {
    let live = churn.live_store();
    let truth = ground_truth(&live, &pool_store(inputs), K, Metric::L2);
    let mut tally = Tally::default();
    let mut sum = 0.0;
    for (q, truth) in inputs.pool.iter().zip(&truth) {
        tally.attempted += 1;
        match engine.search(&q.vector, opts) {
            Ok(res) => {
                if !answer_ok(&res.neighbors, q, Some((deletes, deletes.snapshot()))) {
                    tally.wrong("live-set answer", &res.neighbors);
                }
                sum += recall(&res.neighbors, truth);
            }
            Err(e) => tally.error("search", e),
        }
    }
    (sum, tally)
}

/// The pool's vectors as one store.
fn pool_store(inputs: &Inputs) -> VectorStore {
    let mut s = VectorStore::with_capacity(inputs.base.dim(), inputs.pool.len());
    for q in &inputs.pool {
        s.push(0, &q.vector)
            .expect("query width matches the corpus");
    }
    s
}

/// What the per-layer metrics are computed from: the last round's engine
/// and its counter windows around the single-query phase.
struct LayerCtx<'a> {
    w: Workload,
    shape: &'a Shape,
    inputs: &'a Inputs,
    engine: &'a HarmonyEngine,
    reads: &'a Reads,
    buffered_max: usize,
    writes: Option<&'a Writes>,
    w0: &'a Window,
    w1: &'a Window,
    end_stats: &'a EngineStats,
    run_dir: &'a Path,
}

fn layer_metrics(c: &LayerCtx<'_>, tracer: &mut Tracer, layers: &mut Report) -> Result<(), String> {
    let (w0, w1) = (c.w0, c.w1);
    let plan = c.engine.plan();
    let queries = c.reads.lat.len().max(1) as f64;
    let compute_ns = w1.stats.compute_ns.saturating_sub(w0.stats.compute_ns) as f64;
    let point_dims = w1
        .stats
        .scanned_point_dims
        .saturating_sub(w0.stats.scanned_point_dims) as f64;
    let wall_ns: f64 = c.reads.lat.iter().map(|t| t.value).sum::<f64>() * 1e6;
    let scan_frac = compute_ns / wall_ns.max(1.0);
    let delta = |v1: &[u64], v0: &[u64], i: usize| {
        v1.get(i)
            .copied()
            .unwrap_or(0)
            .saturating_sub(v0.get(i).copied().unwrap_or(0)) as f64
    };
    let seen = |i| delta(&w1.stats.slices.seen, &w0.stats.slices.seen, i);
    let pruned = |i| delta(&w1.stats.slices.pruned, &w0.stats.slices.pruned, i);
    let last = w1.stats.slices.seen.len().saturating_sub(1);
    let net = w1.snap.total().delta(&w0.snap.total());
    let width = c.inputs.base.dim() / plan.dim_blocks.max(1);
    let chunk = replay::sample_chunk(width, c.shape.nprobe);
    let (enc, dec) = tracer.span("replay.codec", 0, || replay::codec_ns(&chunk));
    let rtt = tracer.span("replay.transport", 0, || {
        replay::transport_roundtrip_us(
            &c.shape.transport(),
            harmony::cluster::Wire::to_bytes(&chunk),
        )
    })?;
    let f32_dim = tracer.span("replay.distance_f32", 0, || replay::f32_ns_per_dim(width));
    let u8_dim = tracer.span("replay.distance_u8", 0, || replay::u8_ns_per_dim(width));
    let qrefs: Vec<&[f32]> = c.inputs.pool.iter().map(|q| q.vector.as_slice()).collect();
    let centroid_us = tracer.span("replay.centroid_scan", 0, || {
        replay::centroid_scan_us(&qrefs, c.engine.centroids(), c.shape.nprobe)
    });
    let block_rows = c
        .inputs
        .tenants
        .first()
        .map_or(c.inputs.base.len(), |(b, _)| b.len());
    let persist = tracer.span("replay.persist", 0, || {
        replay::persist_read_us_per_mb(c.run_dir, f32_bytes(block_rows, width))
    })?;
    let faiss_qps = if c.w == Workload::TenantsCold {
        0.0
    } else {
        let qs = pool_store(c.inputs);
        let (_, wall) = tracer
            .span("replay.faiss_1t", 0, || {
                c.inputs
                    .faiss
                    .search_batch_sequential(&qs, K, c.shape.nprobe)
            })
            .map_err(|e| format!("faiss reference: {e}"))?;
        qs.len() as f64 / wall.as_secs_f64()
    };
    let us = |name: &str| host::median(&tracer.durations(name)) / 1e3;
    let wr = c.writes;
    layers.put(
        "worker.scan_ns_per_point_dim",
        compute_ns / point_dims.max(1.0),
        "ns",
    );
    layers.put("worker.point_dims_per_query", point_dims / queries, "count");
    layers.put("worker.scan_frac", scan_frac, "ratio");
    layers.put("engine.nonscan_frac", 1.0 - scan_frac, "ratio");
    layers.put(
        "pruning.slice0.pruned_frac",
        pruned(0) / seen(0).max(1.0),
        "ratio",
    );
    layers.put(
        "pruning.slice1.pruned_frac",
        pruned(1) / seen(1).max(1.0),
        "ratio",
    );
    layers.put(
        "pruning.survivor_frac",
        (seen(last) - pruned(last)) / seen(0).max(1.0),
        "ratio",
    );
    layers.put("distance.f32_ns_per_dim", f32_dim, "ns");
    layers.put("distance.u8_ns_per_dim", u8_dim, "ns");
    layers.put("messages.per_query", net.msgs_tx as f64 / queries, "count");
    layers.put(
        "messages.payload_bytes_per_query",
        net.bytes_tx as f64 / queries,
        "B",
    );
    layers.put(
        "transport.wire_bytes_per_query",
        net.wire_tx_bytes as f64 / queries,
        "B",
    );
    layers.put("transport.roundtrip_us", rtt, "us");
    layers.put("transport.buffered_bytes_max", c.buffered_max as f64, "B");
    layers.put("codec.chunk_encode_ns", enc, "ns");
    layers.put("codec.chunk_decode_ns", dec, "ns");
    layers.put("engine.plan_vec_shards", plan.vec_shards as f64, "count");
    layers.put("engine.plan_dim_blocks", plan.dim_blocks as f64, "count");
    layers.put("kmeans.centroid_scan_us", centroid_us, "us");
    layers.put(
        "kmeans.train_s",
        c.inputs.faiss.build_stats().train.as_secs_f64(),
        "s",
    );
    layers.put("engine.build_s", us("engine.build") / 1e6, "s");
    layers.put("engine.upsert_us", us("engine.upsert"), "us");
    layers.put("engine.delete_us", us("engine.delete"), "us");
    layers.put(
        "engine.compact_folded_rows",
        wr.map_or(0, |w| w.folded) as f64,
        "count",
    );
    layers.put(
        "engine.compact_dropped_tombstones",
        wr.map_or(0, |w| w.dropped) as f64,
        "count",
    );
    layers.put(
        "delta.rows_max",
        wr.map_or(0, |w| w.delta_rows_max) as f64,
        "count",
    );
    layers.put(
        "delta.tombstones_max",
        wr.map_or(0, |w| w.tombstones_max) as f64,
        "count",
    );
    layers.put("gen.late_ms_max", wr.map_or(0.0, |w| w.late_ms_max), "ms");
    layers.put(
        "tier.cache_bytes",
        c.end_stats.cache_block_bytes as f64,
        "B",
    );
    layers.put(
        "tier.spilled_bytes",
        c.end_stats.spilled_block_bytes as f64,
        "B",
    );
    layers.put(
        "tier.set_tier_ms",
        us("engine.set_namespace_tier") / 1e3,
        "ms",
    );
    layers.put(
        "engine.create_namespace_s",
        us("engine.create_namespace") / 1e6,
        "s",
    );
    layers.put("persist.read_us_per_mb", persist, "us/MiB");
    layers.put(
        "alloc.per_query",
        w1.allocs.saturating_sub(w0.allocs) as f64 / queries,
        "count",
    );
    layers.put("stats.collect_ms", us("engine.collect_stats") / 1e3, "ms");
    layers.put("ref.faiss_1t_qps", faiss_qps, "1/s");
    Ok(())
}

/// A tenant whose per-worker block is larger than the cache budget is
/// faulted in and evicted again at once, and its queries are answered
/// from prewarm samples only. Prints the share of queries sent to such
/// tenants next to the failure share.
fn report_tenant_defect(inputs: &Inputs, reads: Tally) {
    let budget = cache_budget(inputs).expect("tenants-cold has tenants");
    let over: HashSet<u16> = inputs
        .tenants
        .iter()
        .enumerate()
        .filter(|(_, (b, _))| f32_bytes(b.len(), b.dim()) / N_MACHINES > budget)
        .map(|(t, _)| (t + 1) as u16)
        .collect();
    let n = reads.attempted as usize;
    let sent_over = (0..n)
        .filter(|i| over.contains(&inputs.pool[inputs.order[i % inputs.order.len()]].ns))
        .count();
    eprintln!(
        "[wallbench] tenants over the {budget}-byte cache budget: {over:?}; {:.4} of queries went to them, {:.4} failed",
        sent_over as f64 / n.max(1) as f64,
        (reads.errors + reads.wrong) as f64 / reads.attempted.max(1) as f64
    );
}
