//! # sim-faults — deterministic fault injection for the simulation stack
//!
//! Long measurement campaigns on real boards die in boring ways: the OpenCL
//! compiler rejects a kernel, an enqueue returns `CL_OUT_OF_RESOURCES`, the
//! governor throttles the GPU mid-run, the power meter drops samples. This
//! crate models those failure paths as a reproducible *fault plan*: every
//! injected fault is a **pure function** of `(fault seed, scope, site,
//! sequence number)` — no shared RNG stream, no global mutable state on the
//! decision path — so a chaos run is byte-identical at any thread count and
//! any scheduling order.
//!
//! * [`FaultPlan`] — the seeded plan. [`FaultPlan::derive`] forks a child
//!   plan for a sub-scope (e.g. one suite cell, one retry attempt) so that
//!   faults in one cell are independent of every other cell.
//! * [`FaultSite`] — where a fault can strike (build, enqueue, meter, DVFS,
//!   worker thread). Each site has its own probability in [`FaultRates`].
//! * Ambient plumbing — [`with_plan`] scopes a plan to the current thread
//!   for the duration of a closure (the harness wraps each suite cell this
//!   way, so a cell's faults come from its own configuration and nothing
//!   process-wide). Injection hooks read [`current`].
//! * [`stats`] — per-site counters of faults actually injected, so the
//!   harness can report what the chaos run did.
//!
//! Injected errors embed [`TAG`] in their message so the retry policy can
//! distinguish simulated faults from genuine model errors ([`is_injected`]).

use sim_rng::SplitMix64;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker embedded in every injected error / panic message.
pub const TAG: &str = "[injected-fault]";

/// True when an error message carries the injected-fault marker.
pub fn is_injected(msg: &str) -> bool {
    msg.contains(TAG)
}

/// FNV-1a over a string — a stable, dependency-free way for injection
/// sites to key a fault decision on a program or benchmark name.
pub fn hash_key(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `clBuildProgram` rejects the kernel (transient in the simulation:
    /// a retry may build a fresh context successfully).
    BuildFailure,
    /// `CL_OUT_OF_RESOURCES` at enqueue time (transient).
    EnqueueOutOfResources,
    /// `CL_INVALID_KERNEL_ARGS` at enqueue time (transient).
    InvalidKernelArgs,
    /// The meter misses a 10 Hz sample window (dropout).
    MeterDropout,
    /// A meter sample carries extra noise beyond the rated accuracy.
    MeterJitter,
    /// The governor throttles the device mid-run, stretching the timing.
    DvfsThrottle,
    /// A pool worker thread dies (panic) while holding a task.
    WorkerPanic,
    /// The TCP connect to a peer is refused (the fleet's shard died, a
    /// restart is racing the request).
    NetConnectRefused,
    /// A socket read/write stalls. The stall duration is *recorded*, not
    /// slept (like the cell retry backoff), so chaos runs stay fast.
    NetStall,
    /// The peer's response is cut short mid-stream (FIN mid-body).
    NetTruncatedResponse,
    /// The response status line arrives as garbage (proxy corruption,
    /// protocol desync).
    NetGarbageStatus,
}

impl FaultSite {
    pub const ALL: [FaultSite; 11] = [
        FaultSite::BuildFailure,
        FaultSite::EnqueueOutOfResources,
        FaultSite::InvalidKernelArgs,
        FaultSite::MeterDropout,
        FaultSite::MeterJitter,
        FaultSite::DvfsThrottle,
        FaultSite::WorkerPanic,
        FaultSite::NetConnectRefused,
        FaultSite::NetStall,
        FaultSite::NetTruncatedResponse,
        FaultSite::NetGarbageStatus,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::BuildFailure => 0,
            FaultSite::EnqueueOutOfResources => 1,
            FaultSite::InvalidKernelArgs => 2,
            FaultSite::MeterDropout => 3,
            FaultSite::MeterJitter => 4,
            FaultSite::DvfsThrottle => 5,
            FaultSite::WorkerPanic => 6,
            FaultSite::NetConnectRefused => 7,
            FaultSite::NetStall => 8,
            FaultSite::NetTruncatedResponse => 9,
            FaultSite::NetGarbageStatus => 10,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            FaultSite::BuildFailure => "build-failure",
            FaultSite::EnqueueOutOfResources => "enqueue-oor",
            FaultSite::InvalidKernelArgs => "invalid-args",
            FaultSite::MeterDropout => "meter-dropout",
            FaultSite::MeterJitter => "meter-jitter",
            FaultSite::DvfsThrottle => "dvfs-throttle",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::NetConnectRefused => "net-connect-refused",
            FaultSite::NetStall => "net-stall",
            FaultSite::NetTruncatedResponse => "net-truncate",
            FaultSite::NetGarbageStatus => "net-garbage-status",
        }
    }
}

/// Per-site fault probabilities (fractions in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRates {
    pub build_failure: f64,
    pub enqueue_oor: f64,
    pub invalid_args: f64,
    pub meter_dropout: f64,
    pub meter_jitter: f64,
    pub dvfs_throttle: f64,
    pub worker_panic: f64,
    pub net_connect_refused: f64,
    pub net_stall: f64,
    pub net_truncated_response: f64,
    pub net_garbage_status: f64,
}

impl Default for FaultRates {
    /// Chaos-test defaults: high enough that a 72-cell suite sees several
    /// faults of each class, low enough that most cells still complete
    /// (possibly after retries).
    fn default() -> Self {
        FaultRates {
            build_failure: 0.06,
            enqueue_oor: 0.06,
            invalid_args: 0.03,
            meter_dropout: 0.05,
            meter_jitter: 0.05,
            dvfs_throttle: 0.10,
            worker_panic: 0.03,
            net_connect_refused: 0.08,
            net_stall: 0.08,
            net_truncated_response: 0.08,
            net_garbage_status: 0.05,
        }
    }
}

impl FaultRates {
    /// Rates that never fire; `FaultPlan` with these is inert.
    pub fn zero() -> Self {
        FaultRates {
            build_failure: 0.0,
            enqueue_oor: 0.0,
            invalid_args: 0.0,
            meter_dropout: 0.0,
            meter_jitter: 0.0,
            dvfs_throttle: 0.0,
            worker_panic: 0.0,
            net_connect_refused: 0.0,
            net_stall: 0.0,
            net_truncated_response: 0.0,
            net_garbage_status: 0.0,
        }
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::BuildFailure => self.build_failure,
            FaultSite::EnqueueOutOfResources => self.enqueue_oor,
            FaultSite::InvalidKernelArgs => self.invalid_args,
            FaultSite::MeterDropout => self.meter_dropout,
            FaultSite::MeterJitter => self.meter_jitter,
            FaultSite::DvfsThrottle => self.dvfs_throttle,
            FaultSite::WorkerPanic => self.worker_panic,
            FaultSite::NetConnectRefused => self.net_connect_refused,
            FaultSite::NetStall => self.net_stall,
            FaultSite::NetTruncatedResponse => self.net_truncated_response,
            FaultSite::NetGarbageStatus => self.net_garbage_status,
        }
    }
}

/// A seeded fault plan. Copyable and cheap: carries no RNG state, only the
/// seed, a scope hash, and the rate table. Every decision is recomputed as
/// a hash of `(seed, scope, site, seq)`, so two plans with equal fields
/// make identical decisions regardless of call order or thread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    scope: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// Root plan for `--fault-seed seed` with the default chaos rates.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            scope: SplitMix64::new(seed).next_u64(),
            rates: FaultRates::default(),
        }
    }

    pub fn with_rates(mut self, rates: FaultRates) -> Self {
        self.rates = rates;
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Fork a child plan scoped by a string salt (e.g.
    /// `"spmv/OpenCL-opt/f32/a0"`). Children of distinct salts make
    /// independent decisions; the same salt always yields the same child.
    pub fn derive(&self, salt: &str) -> FaultPlan {
        self.derive_u64(hash_key(salt))
    }

    /// Fork a child plan scoped by an integer salt.
    pub fn derive_u64(&self, salt: u64) -> FaultPlan {
        let mut sm = SplitMix64::new(self.scope ^ salt.rotate_left(23));
        FaultPlan {
            seed: self.seed,
            scope: sm.next_u64(),
            rates: self.rates,
        }
    }

    /// The raw 64 decision bits for `(site, seq)` — a pure function of the
    /// plan's fields.
    fn bits(&self, site: FaultSite, seq: u64) -> u64 {
        let site_salt = (site.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut sm = SplitMix64::new(self.scope ^ site_salt);
        let lane = sm.next_u64();
        SplitMix64::new(lane ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
    }

    /// Uniform in `[0, 1)` for `(site, seq)`.
    fn unit(&self, site: FaultSite, seq: u64) -> f64 {
        (self.bits(site, seq) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does the fault at `site` strike for occurrence `seq`? Deterministic;
    /// does **not** record stats (see [`note`]).
    pub fn roll(&self, site: FaultSite, seq: u64) -> bool {
        self.unit(site, seq) < self.rates.rate(site)
    }

    /// Deterministic uniform draw in `[lo, hi)` tied to `(site, seq)` —
    /// used for fault magnitudes (throttle factor, jitter amplitude).
    /// Decorrelated from the [`roll`] decision at the same `(site, seq)`.
    pub fn uniform(&self, site: FaultSite, seq: u64, lo: f64, hi: f64) -> f64 {
        let bits = SplitMix64::new(self.bits(site, seq) ^ 0xA5A5_A5A5_5A5A_5A5A).next_u64();
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + u * (hi - lo)
    }

    /// Worker-death hook: panic (with the injected-fault tag) if this plan
    /// says the worker running task `task` dies. Call from inside the
    /// pool task's `catch_unwind`, so the death becomes that task's
    /// failure and nothing else's.
    pub fn maybe_kill_worker(&self, task: u64) {
        if self.roll(FaultSite::WorkerPanic, task) {
            note(FaultSite::WorkerPanic);
            panic!("{TAG} worker thread died on task {task}");
        }
    }
}

// ---- ambient plan ----

thread_local! {
    /// Per-thread scope stack: the top entry (even `None`) is the plan
    /// injection hooks see. The harness pushes a per-cell derived plan here
    /// so every injection hook a cell reaches sees that cell's scope.
    static OVERRIDE: RefCell<Vec<Option<FaultPlan>>> = const { RefCell::new(Vec::new()) };
}

/// The plan injection hooks should consult right now: the innermost
/// [`with_plan`] scope on this thread, else none (injection off).
pub fn current() -> Option<FaultPlan> {
    OVERRIDE.with(|s| s.borrow().last().copied().flatten())
}

struct PopGuard;

impl Drop for PopGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Run `f` with `plan` as this thread's ambient fault plan (shadowing any
/// enclosing scope; `None` disables injection inside `f`). Unwind-safe:
/// the scope is popped even if `f` panics.
pub fn with_plan<R>(plan: Option<FaultPlan>, f: impl FnOnce() -> R) -> R {
    OVERRIDE.with(|s| s.borrow_mut().push(plan));
    let _guard = PopGuard;
    f()
}

// ---- stats ----

static STATS: [AtomicU64; 11] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Record one injected fault at `site`. Hooks call this *only* when they
/// actually inject — so [`stats`] reports faults delivered, not rolls made.
pub fn note(site: FaultSite) {
    STATS[site.index()].fetch_add(1, Ordering::Relaxed);
}

/// Injected-fault counts per site, in [`FaultSite::ALL`] order.
pub fn stats() -> [(FaultSite, u64); 11] {
    let mut out = [(FaultSite::BuildFailure, 0); 11];
    for (i, site) in FaultSite::ALL.into_iter().enumerate() {
        out[i] = (site, STATS[site.index()].load(Ordering::Relaxed));
    }
    out
}

pub fn reset_stats() {
    for s in &STATS {
        s.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_pure_functions() {
        let p = FaultPlan::new(7);
        let q = FaultPlan::new(7);
        for site in FaultSite::ALL {
            for seq in 0..64 {
                assert_eq!(p.roll(site, seq), q.roll(site, seq));
                assert_eq!(
                    p.uniform(site, seq, 0.0, 1.0).to_bits(),
                    q.uniform(site, seq, 0.0, 1.0).to_bits()
                );
            }
        }
    }

    #[test]
    fn call_order_does_not_matter() {
        let p = FaultPlan::new(3);
        let forward: Vec<bool> = (0..32)
            .map(|i| p.roll(FaultSite::BuildFailure, i))
            .collect();
        let backward: Vec<bool> = (0..32)
            .rev()
            .map(|i| p.roll(FaultSite::BuildFailure, i))
            .collect();
        let rev: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, rev);
    }

    #[test]
    fn seeds_and_scopes_decorrelate() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        let hits = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|i| p.roll(FaultSite::DvfsThrottle, i))
                .collect()
        };
        assert_ne!(hits(&a), hits(&b), "different seeds, different plans");
        let c1 = a.derive("cell-1");
        let c2 = a.derive("cell-2");
        assert_ne!(hits(&c1), hits(&c2), "different scopes, different plans");
        assert_eq!(
            hits(&c1),
            hits(&a.derive("cell-1")),
            "same scope, same plan"
        );
    }

    #[test]
    fn rates_scale_hit_frequency() {
        let lo = FaultPlan::new(5).with_rates(FaultRates {
            build_failure: 0.01,
            ..FaultRates::zero()
        });
        let hi = FaultPlan::new(5).with_rates(FaultRates {
            build_failure: 0.5,
            ..FaultRates::zero()
        });
        let count = |p: &FaultPlan| {
            (0..10_000)
                .filter(|&i| p.roll(FaultSite::BuildFailure, i))
                .count()
        };
        let (nlo, nhi) = (count(&lo), count(&hi));
        assert!(nlo < 300, "1% rate fired {nlo}/10000");
        assert!((4000..6000).contains(&nhi), "50% rate fired {nhi}/10000");
        let zero = FaultPlan::new(5).with_rates(FaultRates::zero());
        assert_eq!(count(&zero), 0, "zero rates never fire");
    }

    #[test]
    fn uniform_respects_bounds() {
        let p = FaultPlan::new(11);
        for seq in 0..1000 {
            let x = p.uniform(FaultSite::MeterJitter, seq, 1.1, 1.4);
            assert!((1.1..1.4).contains(&x), "{x} out of range");
        }
    }

    #[test]
    fn with_plan_scopes_nest_and_unwind() {
        assert_eq!(current(), None, "no scope, no plan");
        with_plan(Some(FaultPlan::new(42)), || {
            assert_eq!(current().map(|p| p.seed()), Some(42));
            let inner = with_plan(Some(FaultPlan::new(9)), || current().map(|p| p.seed()));
            assert_eq!(inner, Some(9));
            let masked = with_plan(None, current);
            assert_eq!(masked, None, "explicit None masks the enclosing plan");
            // Unwind-safety: the inner scope is popped on panic.
            let _ = std::panic::catch_unwind(|| with_plan(Some(FaultPlan::new(1)), || panic!("x")));
            assert_eq!(current().map(|p| p.seed()), Some(42));
        });
        assert_eq!(current(), None);
    }

    #[test]
    fn worker_death_is_a_tagged_roll() {
        let p = FaultPlan::new(7);
        let task = (0..256)
            .find(|&t| p.roll(FaultSite::WorkerPanic, t))
            .expect("3% rate fires within 256 tasks");
        let err = std::panic::catch_unwind(|| p.maybe_kill_worker(task)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert_eq!(*msg, format!("{TAG} worker thread died on task {task}"));
        let quiet = (0..256)
            .find(|&t| !p.roll(FaultSite::WorkerPanic, t))
            .unwrap();
        p.maybe_kill_worker(quiet);
    }

    #[test]
    fn stats_count_notes() {
        reset_stats();
        note(FaultSite::MeterDropout);
        note(FaultSite::MeterDropout);
        note(FaultSite::WorkerPanic);
        let s: std::collections::HashMap<_, _> = stats().into_iter().collect();
        assert_eq!(s[&FaultSite::MeterDropout], 2);
        assert_eq!(s[&FaultSite::WorkerPanic], 1);
        assert_eq!(s[&FaultSite::BuildFailure], 0);
        reset_stats();
        assert!(stats().iter().all(|(_, n)| *n == 0));
    }

    #[test]
    fn tag_and_hash_helpers() {
        assert!(is_injected(&format!("launch failure: {TAG} boom")));
        assert!(!is_injected("launch failure: boom"));
        assert_eq!(hash_key("spmv"), hash_key("spmv"));
        assert_ne!(hash_key("spmv"), hash_key("vecop"));
    }
}
