//! Seeded request streams and the open/closed-loop runners that replay
//! them.
//!
//! Everything a stream contains — cell keys, pass pipelines, send times —
//! is a pure function of the seed, so two runs with one seed offer the
//! program exactly the same load. Only the runners look at the clock.
//!
//! Open-loop latency is timed from each request's *scheduled* send time,
//! not from when a free worker got round to it: a stall in the system
//! under test delays every request queued behind it, and that wait shows
//! in their latency (and in how late the generator ran) instead of
//! silently lowering the offered load.

use kernel_ir::opt::Pass;
use sim_rng::SplitMix64;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cells in one full grid: 9 benchmarks x 2 precisions x 4 versions.
pub const GRID_CELLS: usize = 72;
const BENCHES: usize = 9;
/// Cells of one benchmark, consecutive in grid order.
const CELLS_PER_BENCH: usize = GRID_CELLS / BENCHES;

/// Uniform draw in [0, 1) with 53 bits of precision.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (unit(rng) * n as f64) as usize % n.max(1)
}

/// Seeded Fisher-Yates permutation of `0..n`.
fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, below(rng, i + 1));
    }
    p
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular), sampled by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded, non-empty pass pipeline: a random ordered selection of the
/// optimizer's passes, rendered in the comma form `--passes` accepts.
pub fn random_pipeline(rng: &mut SplitMix64) -> String {
    let order = permutation(rng, Pass::ALL.len());
    let len = 1 + below(rng, Pass::ALL.len());
    order[..len]
        .iter()
        .map(|&i| Pass::ALL[i].name())
        .collect::<Vec<_>>()
        .join(",")
}

/// `n` pairwise-distinct seeded pipelines.
pub fn distinct_pipelines(seed: u64, n: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = random_pipeline(&mut rng);
        if seen.insert(p.clone()) {
            out.push(p);
        }
    }
    out
}

/// The serving key space: every grid cell under each of a few pass
/// pipelines, and their popularity order. Pipeline 0 is "no passes"; key
/// `p * GRID_CELLS + c` is cell `c` under pipeline `p`.
#[derive(Clone, Debug, PartialEq)]
pub struct KeySpace {
    pub pipelines: Vec<Option<String>>,
    /// Every key, most popular first (a seeded permutation).
    pub ranking: Vec<usize>,
}

impl KeySpace {
    /// No-pass pipeline plus `extra` seeded ones, in a seeded popularity
    /// order.
    pub fn new(seed: u64, extra: usize) -> KeySpace {
        let mut pipelines = vec![None];
        pipelines.extend(
            distinct_pipelines(seed ^ 0x5eed_7a55, extra)
                .into_iter()
                .map(Some),
        );
        let ranking = permutation(
            &mut SplitMix64::new(seed ^ 0x2a4c),
            pipelines.len() * GRID_CELLS,
        );
        KeySpace { pipelines, ranking }
    }

    pub fn len(&self) -> usize {
        self.pipelines.len() * GRID_CELLS
    }

    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }
}

/// One `POST /v1/sweep` of a few cells under one pipeline, optionally
/// followed at once by `GET /v1/cell/<key>` for one of those cells (its
/// scheduled time is the sweep's completion, so the cell is certainly
/// cached when it is asked for).
#[derive(Clone, Debug, PartialEq)]
pub struct Sweep {
    pub pipeline: usize,
    pub cells: Vec<usize>,
    pub get: Option<usize>,
}

impl Sweep {
    /// Key ids (`pipeline * GRID_CELLS + cell`) this sweep touches.
    pub fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.cells
            .iter()
            .map(move |&c| self.pipeline * GRID_CELLS + c)
    }
}

/// A request with its scheduled send offset from the start of the phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Scheduled {
    pub at_us: u64,
    pub sweep: Sweep,
}

/// `serve-zipf`'s cache capacity (cells). The key space holds 288 keys,
/// so the stream keeps evicting, yet most sweeps are answered from the
/// cache alone, which keeps the median request on the hit path and well
/// away from the miss latencies.
pub const ZIPF_CAPACITY: usize = 240;
/// The key space and its popularity order are part of the workload, so
/// they are fixed; `--seed` varies the request draws.
const ZIPF_LAYOUT_SEED: u64 = 0x2f1b;
/// Pipelines in the key space besides "no passes".
const ZIPF_EXTRA_PIPELINES: usize = 3;
/// Every this-many-th open-loop sweep is cold. With a cell GET after one
/// sweep in four, cold sweeps are 4% of the open-loop requests, so p99
/// lies inside their latency mode: eight cells evaluated, about 30 ms,
/// which a few milliseconds of host stall move little. Without them p99
/// sat on the steep upper edge of the Zipf misses, where those stalls set
/// it.
pub const ZIPF_COLD_EVERY: usize = 20;

/// `serve-zipf`'s key space and its request stream at `rate` sweeps/s:
/// Zipf(1.0) draws of 1-8-cell sweeps, one in four followed by a cell GET,
/// and every `ZIPF_COLD_EVERY`-th a cold sweep.
pub fn zipf_workload(seed: u64, rate: f64) -> (KeySpace, ZipfStream) {
    let keys = KeySpace::new(ZIPF_LAYOUT_SEED, ZIPF_EXTRA_PIPELINES);
    let stream = ZipfStream {
        seed,
        s: 1.0,
        max_cells: 8,
        get_every: 4,
        cold_every: ZIPF_COLD_EVERY,
        rate,
    };
    (keys, stream)
}

/// Parameters of the Zipf serving stream.
#[derive(Clone, Debug)]
pub struct ZipfStream {
    pub seed: u64,
    /// Zipf exponent over the key ranks.
    pub s: f64,
    /// Cells per sweep are uniform in `1..=max_cells`.
    pub max_cells: usize,
    /// One sweep in `get_every` is followed by a cell GET.
    pub get_every: usize,
    /// Every `cold_every`-th sweep (none when 0) is cold: one cell
    /// (uniform version and precision) of each of `max_cells` distinct
    /// seeded benchmarks, under a fresh pass pipeline, so every cell misses
    /// and is evaluated. Drawing one cell per benchmark keeps the cost of a
    /// cold sweep close to that of every other (per-cell cost differs
    /// tenfold between benchmarks), and a fixed spacing keeps their share
    /// of a run fixed. The first cold sweep names pipeline
    /// `keys.pipelines.len()`, the next one the index after it, and so on
    /// (see [`ZipfStream::cold_pipelines`]).
    pub cold_every: usize,
    /// Offered load in sweeps per second (open loop).
    pub rate: f64,
}

impl ZipfStream {
    /// `n` seeded pipelines for the cold sweeps, none of them in the key
    /// space, so a cold sweep never hits a cached key-space cell.
    pub fn cold_pipelines(&self, keys: &KeySpace, n: usize) -> Vec<String> {
        let taken: HashSet<&str> = keys
            .pipelines
            .iter()
            .flatten()
            .map(String::as_str)
            .collect();
        distinct_pipelines(self.seed ^ 0xc01d_5eed, n + taken.len())
            .into_iter()
            .filter(|p| !taken.contains(p.as_str()))
            .take(n)
            .collect()
    }

    /// `n` requests at a fixed rate. The first cell of a sweep is a Zipf
    /// draw over every key; it fixes the sweep's pipeline, and the other
    /// cells are Zipf draws over that pipeline's keys in rank order. Cold
    /// sweeps are drawn apart from the key space.
    pub fn generate(&self, keys: &KeySpace, n: usize) -> Vec<Scheduled> {
        let ranking = &keys.ranking;
        let mut by_pipe: Vec<Vec<usize>> = vec![Vec::new(); keys.pipelines.len()];
        for &k in ranking {
            by_pipe[k / GRID_CELLS].push(k % GRID_CELLS);
        }
        let all = Zipf::new(keys.len(), self.s);
        let within = Zipf::new(GRID_CELLS, self.s);
        let mut rng = SplitMix64::new(self.seed);
        let interval_us = 1e6 / self.rate;
        let mut cold = 0;
        (0..n)
            .map(|i| {
                let at_us = (i as f64 * interval_us) as u64;
                if self.cold_every > 0 && i % self.cold_every == self.cold_every - 1 {
                    let cells: Vec<usize> = permutation(&mut rng, BENCHES)
                        .into_iter()
                        .take(self.max_cells)
                        .map(|b| b * CELLS_PER_BENCH + below(&mut rng, CELLS_PER_BENCH))
                        .collect();
                    let get = (below(&mut rng, self.get_every) == 0)
                        .then(|| below(&mut rng, cells.len()));
                    cold += 1;
                    return Scheduled {
                        at_us,
                        sweep: Sweep {
                            pipeline: keys.pipelines.len() + cold - 1,
                            cells,
                            get,
                        },
                    };
                }
                let first = ranking[all.sample(&mut rng)];
                let pipeline = first / GRID_CELLS;
                let want = 1 + below(&mut rng, self.max_cells);
                let mut cells = vec![first % GRID_CELLS];
                while cells.len() < want {
                    let c = by_pipe[pipeline][within.sample(&mut rng)];
                    if !cells.contains(&c) {
                        cells.push(c);
                    }
                }
                let get =
                    (below(&mut rng, self.get_every) == 0).then(|| below(&mut rng, cells.len()));
                Scheduled {
                    at_us,
                    sweep: Sweep {
                        pipeline,
                        cells,
                        get,
                    },
                }
            })
            .collect()
    }
}

/// Single-cell probes at a fixed rate, cells uniform over the grid. Every
/// `miss_every`-th probe (none when 0) names a fresh pass pipeline —
/// pipeline 1 for the first such probe, 2 for the next, and so on — so it
/// misses every cache and must be evaluated; the rest name no passes.
pub fn probe_stream(seed: u64, rate: f64, n: usize, miss_every: usize) -> Vec<Scheduled> {
    let mut rng = SplitMix64::new(seed ^ 0x9b0be);
    let interval_us = 1e6 / rate;
    let mut fresh = 0;
    (0..n)
        .map(|i| {
            let cell = below(&mut rng, GRID_CELLS);
            let miss = miss_every > 0 && i % miss_every == miss_every - 1;
            if miss {
                fresh += 1;
            }
            Scheduled {
                at_us: (i as f64 * interval_us) as u64,
                sweep: Sweep {
                    pipeline: if miss { fresh } else { 0 },
                    cells: vec![cell],
                    get: None,
                },
            }
        })
        .collect()
}

/// What one HTTP request observed, in microseconds from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When it was due (open loop) or sent (closed loop).
    pub due_us: u64,
    pub sent_us: u64,
    pub done_us: u64,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.done_us.saturating_sub(self.due_us) as f64 / 1e3
    }

    pub fn late_ms(&self) -> f64 {
        self.sent_us.saturating_sub(self.due_us) as f64 / 1e3
    }
}

/// The clock a request handler reads: microseconds since the phase start.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// Replay `ops` open loop on `workers` threads: each worker takes the next
/// request in order, sleeps until it is due, and sends it. `send(i, clock,
/// due_us)` performs request `i` (and any follow-up) and returns what it
/// recorded. Requests not yet due when `limit` runs out are not sent.
pub fn open_loop<T, F>(ops: &[Scheduled], workers: usize, limit: Duration, send: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Clock, u64) -> Vec<T> + Sync,
{
    let clock = Clock(Instant::now());
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let limit_us = limit.as_micros() as u64;
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(op) = ops.get(i) else { break };
                if op.at_us >= limit_us {
                    break;
                }
                let now = clock.now_us();
                if now < op.at_us {
                    std::thread::sleep(Duration::from_micros(op.at_us - now));
                }
                let got = send(i, clock, op.at_us);
                out.lock().unwrap().extend(got);
            });
        }
    });
    out.into_inner().unwrap()
}

/// Send requests back to back on `workers` threads for `limit`: each
/// worker takes the next request index and sends it as soon as its
/// previous one completes. Returns what `send` recorded and the phase
/// length.
pub fn closed_loop<T, F>(workers: usize, limit: Duration, send: F) -> (Vec<T>, Duration)
where
    T: Send,
    F: Fn(usize, Clock, u64) -> Vec<T> + Sync,
{
    let clock = Clock(Instant::now());
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| {
                while clock.0.elapsed() < limit {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let got = send(i, clock, clock.now_us());
                    out.lock().unwrap().extend(got);
                }
            });
        }
    });
    let elapsed = clock.0.elapsed();
    (out.into_inner().unwrap(), elapsed)
}
