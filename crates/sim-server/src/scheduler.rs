//! The job scheduler: coalesce duplicate in-flight cells, batch distinct
//! cells, bound the queue, and push the overflow back to the client.
//!
//! One dispatcher thread owns all simulation work. Request handlers
//! [`admit`](Scheduler::admit) the cells a sweep still needs (all-or-
//! nothing against the queue bound — a partially admitted sweep would
//! strand queued work when the rest is rejected) and then block on the
//! returned [`Slot`]s. The dispatcher drains the queue (by the lane rule
//! below) into one batch and hands it to the evaluation function, which
//! fans the batch out on `sim-pool` — so distinct cells from concurrent
//! sweeps share one fork/join region, and the pool is never entered from
//! two threads at once.
//!
//! Coalescing: a cell that is already queued or running is *joined*, not
//! re-queued — both sweeps wait on the same slot and the simulator runs
//! the cell exactly once. Determinism is preserved trivially: the
//! evaluation function is a pure function of the spec, so batching,
//! coalescing and arrival order can only change *when* a result is
//! computed, never its bytes.
//!
//! Priority: admission carries a [`Lane`], and the queue is a `Lanes`
//! — the one lane policy of the serving stack, which the HTTP reactor's
//! worker dispatch uses too. Interactive cells (single lookups, small
//! sweeps) queue ahead of bulk full-grid work: the dispatcher drains the
//! interactive queue into a batch and leaves bulk cells parked, but a
//! bulk queue passed over for [`AGING_ROUNDS`] consecutive pickups is
//! merged into the next batch (a *promotion*), so bulk work is delayed,
//! never starved. Lanes move only *when* a cell is evaluated; its bytes
//! are lane-independent.
//!
//! CPU priority: the dispatcher thread — and so every `sim-pool` worker
//! it forks, which inherits the policy — runs under Linux `SCHED_IDLE`.
//! Request I/O (the HTTP reactor and handlers) stays at normal priority
//! and preempts cell evaluation the moment it wakes, which carries the
//! interactive-before-bulk promise down to the CPU.

use crate::key::{CellKey, CellSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which queue of a `Lanes` a cell or request rides. Interactive work is
/// taken ahead of bulk; see the module docs for the aging rule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Lane {
    /// Cell lookups, probes and small sweeps: drained first.
    #[default]
    Interactive,
    /// Full-grid sweeps and other large batches: drained when the
    /// interactive queue is empty, or via aging.
    Bulk,
}

impl Lane {
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Bulk => 1,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Bulk => "bulk",
        }
    }
}

/// A bulk queue passed over for this many consecutive pickups is taken
/// by the next one regardless of interactive pressure.
pub const AGING_ROUNDS: u32 = 2;

/// Two FIFO queues, one per [`Lane`], and the aging clock that decides
/// between them. The scheduler's dispatcher takes a whole batch per
/// pickup ([`pickup_all`](Lanes::pickup_all)); the HTTP reactor's
/// workers take one request ([`pickup`](Lanes::pickup)). Both follow the
/// same rule, so priority means the same thing at both levels.
pub(crate) struct Lanes<T> {
    queues: [VecDeque<T>; 2],
    /// Consecutive pickups that left a non-empty bulk queue behind.
    passed_over: u32,
}

impl<T> Default for Lanes<T> {
    fn default() -> Self {
        Lanes {
            queues: [VecDeque::new(), VecDeque::new()],
            passed_over: 0,
        }
    }
}

impl<T> Lanes<T> {
    pub fn push(&mut self, lane: Lane, item: T) {
        self.queues[lane.index()].push_back(item);
    }

    /// Items queued in `lane`.
    pub fn depth(&self, lane: Lane) -> usize {
        self.queues[lane.index()].len()
    }

    /// Items queued in both lanes.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Start a pickup: whether it takes bulk work, and whether that is a
    /// promotion (bulk taken past waiting interactive work because it was
    /// passed over [`AGING_ROUNDS`] consecutive pickups). Ticks the clock.
    fn start_pickup(&mut self) -> (bool, bool) {
        let waiting = |lane: Lane| !self.queues[lane.index()].is_empty();
        let (interactive, bulk) = (waiting(Lane::Interactive), waiting(Lane::Bulk));
        let promoted = interactive && bulk && self.passed_over >= AGING_ROUNDS;
        let takes_bulk = promoted || !interactive;
        self.passed_over = if bulk && !takes_bulk {
            self.passed_over + 1
        } else {
            0
        };
        (takes_bulk, promoted)
    }

    /// Take one item: the oldest interactive one, or the oldest bulk one
    /// when no interactive item waits or bulk is promoted. Returns the
    /// item and whether the pickup was a promotion.
    pub fn pickup(&mut self) -> Option<(T, bool)> {
        let (takes_bulk, promoted) = self.start_pickup();
        let lane = if takes_bulk {
            Lane::Bulk
        } else {
            Lane::Interactive
        };
        Some((self.queues[lane.index()].pop_front()?, promoted))
    }

    /// Take every eligible item: the whole interactive queue, then the
    /// whole bulk queue when no interactive item waits or bulk is
    /// promoted. Returns the items and whether the pickup was a promotion.
    pub fn pickup_all(&mut self) -> (Vec<T>, bool) {
        let (takes_bulk, promoted) = self.start_pickup();
        let [interactive, bulk] = &mut self.queues;
        let mut items: Vec<T> = interactive.drain(..).collect();
        if takes_bulk {
            items.extend(bulk.drain(..));
        }
        (items, promoted)
    }
}

/// Why a sweep could not be admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue bound would be exceeded: the client should retry later
    /// (HTTP 429).
    Busy {
        queue_depth: usize,
        queue_cap: usize,
    },
    /// The scheduler is draining for shutdown (HTTP 503).
    ShuttingDown,
    /// The dispatcher thread is gone (its setup panicked or it aborted):
    /// nothing will ever drain the queue again (HTTP 500).
    Poisoned,
}

/// A cell whose evaluation was abandoned: the batch evaluator panicked
/// (or broke its one-payload-per-spec contract), so this slot will never
/// carry a payload. Waiters must surface an error, not retry the wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Abandoned {
    pub message: String,
}

/// Where one cell's wall-clock went: admission-to-dispatch wait, then
/// batch evaluation. Coalesced waiters on a shared slot see the timing of
/// the one evaluation that actually ran. Feeds the per-cell `queue_wait`
/// and `eval_batch` stage histograms — sample counts depend only on the
/// cells evaluated, never on how requests were sharded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotTiming {
    /// Microseconds from admission to dispatcher pickup.
    pub queue_us: u64,
    /// Microseconds the cell's batch spent in the evaluation function.
    pub eval_us: u64,
}

/// A future result of one cell. Waiters block on [`wait`](Slot::wait).
#[derive(Debug)]
pub struct Slot {
    result: Mutex<Option<(Result<String, Abandoned>, SlotTiming)>>,
    done: Condvar,
    admitted: Instant,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
            admitted: Instant::now(),
        })
    }

    /// Block until the dispatcher settles this slot: the payload on
    /// success, [`Abandoned`] when the evaluation died. A slot is always
    /// settled eventually — fulfilled by a completed batch, or abandoned
    /// by the dispatcher's panic guards — so this cannot hang forever.
    pub fn wait(&self) -> Result<String, Abandoned> {
        self.wait_timed().0
    }

    /// [`wait`](Slot::wait), also reporting where the time went.
    pub fn wait_timed(&self) -> (Result<String, Abandoned>, SlotTiming) {
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((r, t)) = guard.as_ref() {
                return (r.clone(), *t);
            }
            guard = self.done.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// [`wait_timed`](Slot::wait_timed) with a deadline: returns `None`
    /// if the slot is still unsettled after `timeout`. The safety nets
    /// (batch panic guard, dispatcher poison guard) settle slots on
    /// every failure path they can see, but an evaluation that *wedges*
    /// without panicking — a deadlock or unbounded loop in simulator
    /// code — settles nothing; before this existed such a cell hung its
    /// handler, and the connection, forever.
    pub fn wait_deadline(
        &self,
        timeout: Duration,
    ) -> Option<(Result<String, Abandoned>, SlotTiming)> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((r, t)) = guard.as_ref() {
                return Some((r.clone(), *t));
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (g, wait) = self
                .done
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
            if wait.timed_out() && guard.is_none() {
                return None;
            }
        }
    }

    fn settle(&self, result: Result<String, Abandoned>, timing: SlotTiming) {
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        // First writer wins: a batch-panic abandonment and the dispatcher
        // exit guard may both reach the same slot.
        if guard.is_none() {
            *guard = Some((result, timing));
        }
        self.done.notify_all();
    }

    /// Microseconds this slot has been waiting since admission.
    fn queued_us(&self) -> u64 {
        self.admitted.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

struct Job {
    spec: CellSpec,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct State {
    /// Admitted cells not yet picked up by the dispatcher.
    queue: Lanes<CellKey>,
    /// Every admitted-but-unfinished cell (queued or in the running
    /// batch); the coalescing index.
    active: HashMap<CellKey, Job>,
    /// Cells in the batch currently being evaluated.
    running: usize,
    shutdown: bool,
    /// The dispatcher is gone without draining; nothing new is admitted.
    poisoned: bool,
    // Monotone counters for /metrics.
    simulated: u64,
    coalesced: u64,
    rejected: u64,
    batches: u64,
    eval_panics: u64,
    abandoned: u64,
    bulk_promotions: u64,
}

/// Live + lifetime scheduler numbers for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    pub queue_depth: usize,
    /// Queued cells in the interactive lane.
    pub interactive_depth: usize,
    /// Queued cells in the bulk lane.
    pub bulk_depth: usize,
    pub in_flight: usize,
    pub simulated: u64,
    pub coalesced: u64,
    pub rejected: u64,
    pub batches: u64,
    /// Batches whose evaluation panicked (every cell in them abandoned).
    pub eval_panics: u64,
    /// Cells abandoned by panicking evaluations or a dying dispatcher.
    pub abandoned: u64,
    /// Times an aged bulk queue was merged into a batch despite queued
    /// interactive work.
    pub bulk_promotions: u64,
}

struct Shared {
    st: Mutex<State>,
    work: Condvar,
}

/// The coalescing batch scheduler. See the module docs for the contract.
pub struct Scheduler {
    shared: Arc<Shared>,
    queue_cap: usize,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Start the dispatcher (at idle CPU priority, see the module docs).
    ///
    /// `make_eval` runs once *on the dispatcher thread* and returns the
    /// batch evaluation function — this indirection lets the owner build
    /// thread-bound state (benchmark suites are `Sync` but not `Send`)
    /// without requiring it to cross threads. The evaluation function
    /// must return exactly one payload per input spec, in order.
    pub fn start<M, F>(queue_cap: usize, make_eval: M) -> Scheduler
    where
        M: FnOnce() -> F + Send + 'static,
        F: FnMut(&[CellSpec]) -> Vec<String>,
    {
        let shared = Arc::new(Shared {
            st: Mutex::new(State::default()),
            work: Condvar::new(),
        });
        let dispatcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("sim-server-dispatcher".into())
                .spawn(move || {
                    lower_to_idle_priority();
                    dispatcher_loop(&shared, make_eval)
                })
                .expect("spawn dispatcher")
        };
        Scheduler {
            shared,
            queue_cap,
            dispatcher: Some(dispatcher),
        }
    }

    /// Admit the distinct cells a sweep still needs, into `lane`. Returns
    /// one slot per input (coalesced cells share slots with earlier
    /// sweeps, regardless of lane — the cell runs once either way). All-
    /// or-nothing: when the *new* cells would push the combined queue
    /// past its bound, nothing is enqueued and the caller gets
    /// [`AdmitError::Busy`].
    pub fn admit(&self, cells: &[CellSpec], lane: Lane) -> Result<Vec<Arc<Slot>>, AdmitError> {
        // Hash every spec before taking the lock: the canonicalization is
        // the expensive part and needs no shared state.
        let keys: Vec<CellKey> = cells.iter().map(CellSpec::key).collect();
        let mut st = self.shared.st.lock().unwrap_or_else(|e| e.into_inner());
        if st.shutdown {
            return Err(AdmitError::ShuttingDown);
        }
        if st.poisoned {
            return Err(AdmitError::Poisoned);
        }
        // First pass: count how many are genuinely new (a sweep may also
        // carry duplicates within itself — those coalesce too). A set, not
        // a `contains` scan: paper-scale sweeps made this pass O(n²).
        let mut new_keys: HashSet<CellKey> = HashSet::with_capacity(keys.len());
        for key in &keys {
            if !st.active.contains_key(key) {
                new_keys.insert(*key);
            }
        }
        if st.queue.len() + new_keys.len() > self.queue_cap {
            st.rejected += 1;
            return Err(AdmitError::Busy {
                queue_depth: st.queue.len(),
                queue_cap: self.queue_cap,
            });
        }
        let mut slots = Vec::with_capacity(cells.len());
        for (spec, &key) in cells.iter().zip(&keys) {
            if let Some(job) = st.active.get(&key) {
                let shared = job.slot.clone();
                st.coalesced += 1;
                slots.push(shared);
                continue;
            }
            let slot = Slot::new();
            st.active.insert(
                key,
                Job {
                    spec: spec.clone(),
                    slot: slot.clone(),
                },
            );
            st.queue.push(lane, key);
            slots.push(slot);
        }
        drop(st);
        self.shared.work.notify_one();
        Ok(slots)
    }

    pub fn stats(&self) -> SchedulerStats {
        let st = self.shared.st.lock().unwrap_or_else(|e| e.into_inner());
        SchedulerStats {
            queue_depth: st.queue.len(),
            interactive_depth: st.queue.depth(Lane::Interactive),
            bulk_depth: st.queue.depth(Lane::Bulk),
            in_flight: st.running,
            simulated: st.simulated,
            coalesced: st.coalesced,
            rejected: st.rejected,
            batches: st.batches,
            eval_panics: st.eval_panics,
            abandoned: st.abandoned,
            bulk_promotions: st.bulk_promotions,
        }
    }

    /// Stop admitting, drain the queue, and join the dispatcher. Every
    /// already-admitted cell is still evaluated and its waiters released.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.st.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Put the calling thread (and threads it spawns later) under
/// `SCHED_IDLE`, once: an unprivileged thread can never raise itself back,
/// so there is no toggling. Failure (seccomp, a non-Linux host) costs
/// only the preemption guarantee, so it is logged and ignored.
fn lower_to_idle_priority() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_int;
        extern "C" {
            fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
        }
        const SCHED_IDLE: c_int = 5;
        // `struct sched_param` is one int, which must be 0 for SCHED_IDLE.
        let param: c_int = 0;
        // SAFETY: pid 0 names the calling thread and `param` points to a
        // live `struct sched_param` for the duration of the call.
        if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
            return;
        }
    }
    telemetry::log::debug(&format!(
        "dispatcher stays at normal CPU priority: SCHED_IDLE unavailable ({})",
        std::io::Error::last_os_error()
    ));
}

/// Last-resort poison guard: if the dispatcher thread unwinds past the
/// per-batch `catch_unwind` (e.g. `make_eval` itself panicked), mark the
/// scheduler poisoned and abandon every admitted job, so waiters error
/// out instead of blocking on slots nobody will ever settle.
struct DispatcherGuard<'a> {
    shared: &'a Shared,
    clean_exit: bool,
}

impl Drop for DispatcherGuard<'_> {
    fn drop(&mut self) {
        if self.clean_exit {
            return;
        }
        let mut st = self.shared.st.lock().unwrap_or_else(|e| e.into_inner());
        st.poisoned = true;
        st.running = 0;
        st.queue = Lanes::default();
        let orphans: Vec<Arc<Slot>> = st.active.drain().map(|(_, job)| job.slot).collect();
        st.abandoned += orphans.len() as u64;
        drop(st);
        for slot in orphans {
            let timing = SlotTiming {
                queue_us: slot.queued_us(),
                eval_us: 0,
            };
            slot.settle(
                Err(Abandoned {
                    message: "scheduler dispatcher died".into(),
                }),
                timing,
            );
        }
    }
}

fn dispatcher_loop<M, F>(shared: &Shared, make_eval: M)
where
    M: FnOnce() -> F,
    F: FnMut(&[CellSpec]) -> Vec<String>,
{
    let mut guard = DispatcherGuard {
        shared,
        clean_exit: false,
    };
    let mut eval = make_eval();
    loop {
        let batch: Vec<(CellKey, CellSpec, Arc<Slot>)> = {
            let mut st = shared.st.lock().unwrap_or_else(|e| e.into_inner());
            while st.queue.is_empty() && !st.shutdown {
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.queue.is_empty() && st.shutdown {
                guard.clean_exit = true;
                return;
            }
            let (keys, promoted) = st.queue.pickup_all();
            st.bulk_promotions += u64::from(promoted);
            st.running = keys.len();
            st.batches += 1;
            keys.into_iter()
                .map(|k| {
                    let job = st.active.get(&k).expect("queued key is active");
                    (k, job.spec.clone(), job.slot.clone())
                })
                .collect()
        };
        // Queue-wait ends at pickup; everything after is evaluation time.
        let queue_us: Vec<u64> = batch.iter().map(|(_, _, slot)| slot.queued_us()).collect();
        let eval_started = Instant::now();

        let specs: Vec<CellSpec> = batch.iter().map(|(_, s, _)| s.clone()).collect();
        // A panic in the evaluation function must not kill the dispatcher:
        // before this guard existed it abandoned every in-flight slot and
        // handler threads hung in `Slot::wait` forever. The payload-count
        // contract is checked inside the same guard so a miscounting eval
        // abandons its batch instead of tearing the thread down.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| eval(&specs)))
            .map_err(|p| {
                format!(
                    "batch evaluation panicked: {}",
                    crate::panic_message(p.as_ref())
                )
            })
            .and_then(|payloads| {
                if payloads.len() == batch.len() {
                    Ok(payloads)
                } else {
                    Err(format!(
                        "batch evaluation returned {} payloads for {} specs",
                        payloads.len(),
                        batch.len()
                    ))
                }
            });

        let eval_us = eval_started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut st = shared.st.lock().unwrap_or_else(|e| e.into_inner());
        st.running = 0;
        match outcome {
            Ok(payloads) => {
                st.simulated += batch.len() as u64;
                for (((key, _, slot), payload), queue_us) in
                    batch.into_iter().zip(payloads).zip(&queue_us)
                {
                    st.active.remove(&key);
                    slot.settle(
                        Ok(payload),
                        SlotTiming {
                            queue_us: *queue_us,
                            eval_us,
                        },
                    );
                }
            }
            Err(message) => {
                telemetry::log::debug(&message);
                st.eval_panics += 1;
                st.abandoned += batch.len() as u64;
                for ((key, _, slot), queue_us) in batch.into_iter().zip(&queue_us) {
                    st.active.remove(&key);
                    slot.settle(
                        Err(Abandoned {
                            message: message.clone(),
                        }),
                        SlotTiming {
                            queue_us: *queue_us,
                            eval_us,
                        },
                    );
                }
            }
        }
    }
}

/// The calling thread's scheduling policy (`SCHED_OTHER` = 0,
/// `SCHED_IDLE` = 5), for tests that pin who runs at which priority.
#[cfg(all(test, target_os = "linux"))]
pub(crate) fn current_sched_policy() -> i32 {
    extern "C" {
        fn sched_getscheduler(pid: std::ffi::c_int) -> std::ffi::c_int;
    }
    // SAFETY: a plain query of the calling thread (pid 0); no pointers.
    unsafe { sched_getscheduler(0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Evaluation runs under `SCHED_IDLE`, and threads it forks (as
    /// `sim-pool` does per batch) inherit the policy.
    #[cfg(target_os = "linux")]
    #[test]
    fn evaluation_runs_at_idle_priority() {
        let sched = Scheduler::start(64, || {
            |specs: &[CellSpec]| {
                let forked = std::thread::spawn(current_sched_policy).join().unwrap();
                let own = current_sched_policy();
                specs.iter().map(|_| format!("{own}/{forked}")).collect()
            }
        });
        let slots = sched.admit(&[spec("prio")], Lane::Interactive).unwrap();
        assert_eq!(slots[0].wait().unwrap(), "5/5", "SCHED_IDLE is policy 5");
        assert_eq!(
            current_sched_policy(),
            0,
            "the admitting thread is untouched"
        );
    }

    /// The one lane rule at both pickup widths, driven through the same
    /// pushes: interactive first, bulk promoted on the pickup after
    /// `AGING_ROUNDS` consecutive pickups passed it over, the clock
    /// restarting after each promotion, and bulk taken without a
    /// promotion once no interactive item waits.
    #[test]
    fn lanes_promote_bulk_passed_over_for_aging_rounds_pickups() {
        let a = AGING_ROUNDS as usize;
        let i = |n: usize| format!("i{n}");
        let (mut one, mut all) = (Lanes::default(), Lanes::default());
        let (mut got_one, mut got_all) = (Vec::new(), Vec::new());
        for cycle in 0..2 {
            one.push(Lane::Bulk, format!("b{cycle}"));
            all.push(Lane::Bulk, format!("b{cycle}"));
            for r in 0..=a {
                one.push(Lane::Interactive, i(cycle * (a + 1) + r));
                all.push(Lane::Interactive, i(cycle * (a + 1) + r));
                got_one.push(one.pickup().unwrap());
                got_all.push(all.pickup_all());
            }
        }
        // A one-job pickup takes the promoted bulk item alone...
        let want_one: Vec<(String, bool)> = (0..a)
            .map(|n| (i(n), false))
            .chain([("b0".into(), true)])
            .chain((a..2 * a).map(|n| (i(n), false)))
            .chain([("b1".into(), true)])
            .collect();
        assert_eq!(got_one, want_one);
        // ...a whole-queue pickup merges it behind the interactive queue,
        // at the same pickups.
        let want_all: Vec<(Vec<String>, bool)> = (0..2)
            .flat_map(|c| {
                let base = c * (a + 1);
                (0..a)
                    .map(move |r| (vec![i(base + r)], false))
                    .chain([(vec![i(base + a), format!("b{c}")], true)])
            })
            .collect();
        assert_eq!(got_all, want_all);
        assert!(all.is_empty());
        assert_eq!(all.pickup_all(), (Vec::new(), false));
        // The one-job queue still holds two interactive items; a bulk item
        // pushed now waits for them, then goes without a promotion.
        assert_eq!(one.depth(Lane::Interactive), 2);
        one.push(Lane::Bulk, "b2".into());
        assert_eq!((one.depth(Lane::Bulk), one.len()), (1, 3));
        assert_eq!(one.pickup(), Some((i(2 * a), false)));
        assert_eq!(one.pickup(), Some((i(2 * a + 1), false)));
        assert_eq!(one.pickup(), Some(("b2".into(), false)));
        assert_eq!(one.pickup(), None);
    }

    fn spec(bench: &str) -> CellSpec {
        CellSpec {
            sim_version: "0.1.0".into(),
            device: "dev".into(),
            scale: "test".into(),
            bench: bench.into(),
            version: "Serial".into(),
            precision: 32,
            fault_seed: None,
            passes: None,
        }
    }

    fn echo_eval() -> impl FnMut(&[CellSpec]) -> Vec<String> {
        |specs: &[CellSpec]| specs.iter().map(|s| format!("r:{}", s.bench)).collect()
    }

    #[test]
    fn evaluates_and_fulfills() {
        let sched = Scheduler::start(64, echo_eval);
        let slots = sched
            .admit(&[spec("a"), spec("b")], Lane::Interactive)
            .unwrap();
        assert_eq!(slots[0].wait().unwrap(), "r:a");
        assert_eq!(slots[1].wait().unwrap(), "r:b");
        let st = sched.stats();
        assert_eq!(st.simulated, 2);
        assert_eq!(st.queue_depth, 0);
        assert_eq!(st.in_flight, 0);
    }

    /// Two identical concurrent submissions run the simulation once: the
    /// second joins the first's slot while the eval function is gated.
    #[test]
    fn duplicate_in_flight_cells_coalesce() {
        let evals = Arc::new(AtomicU64::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = {
            let evals = evals.clone();
            let gate = gate.clone();
            Scheduler::start(64, move || {
                move |specs: &[CellSpec]| {
                    evals.fetch_add(specs.len() as u64, Ordering::SeqCst);
                    // Hold the batch until the test opens the gate, so the
                    // second submission provably arrives while in-flight.
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    specs.iter().map(|s| format!("r:{}", s.bench)).collect()
                }
            })
        };

        let s1 = sched.admit(&[spec("x")], Lane::Interactive).unwrap();
        // Wait until the dispatcher has picked the batch up (in_flight=1).
        while sched.stats().in_flight != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let s2 = sched.admit(&[spec("x")], Lane::Interactive).unwrap();
        assert_eq!(sched.stats().coalesced, 1);
        // Same slot object: both waiters get the single evaluation.
        assert!(Arc::ptr_eq(&s1[0], &s2[0]));

        let waiter = std::thread::spawn(move || (s1[0].wait().unwrap(), s2[0].wait().unwrap()));
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let (r1, r2) = waiter.join().unwrap();
        assert_eq!(r1, "r:x");
        assert_eq!(r2, "r:x");
        assert_eq!(evals.load(Ordering::SeqCst), 1, "exactly one simulation");
    }

    /// Duplicates inside a single sweep also collapse to one evaluation.
    #[test]
    fn intra_sweep_duplicates_coalesce() {
        let sched = Scheduler::start(64, echo_eval);
        let slots = sched
            .admit(&[spec("a"), spec("a"), spec("a")], Lane::Interactive)
            .unwrap();
        for s in &slots {
            assert_eq!(s.wait().unwrap(), "r:a");
        }
        assert_eq!(sched.stats().simulated, 1);
        assert_eq!(sched.stats().coalesced, 2);
    }

    #[test]
    fn queue_bound_rejects_all_or_nothing() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = {
            let gate = gate.clone();
            Scheduler::start(2, move || {
                move |specs: &[CellSpec]| {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    specs.iter().map(|s| format!("r:{}", s.bench)).collect()
                }
            })
        };
        // First admission is drained into the running batch immediately;
        // park it behind the gate.
        let s0 = sched.admit(&[spec("warm")], Lane::Interactive).unwrap();
        while sched.stats().in_flight != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queue capacity is 2: two queued cells fit...
        let s1 = sched
            .admit(&[spec("a"), spec("b")], Lane::Interactive)
            .unwrap();
        // ...a third does not, and the oversized sweep is rejected whole —
        // even its coalescible member "a" is not joined on rejection.
        let err = sched
            .admit(&[spec("a"), spec("c"), spec("d")], Lane::Interactive)
            .unwrap_err();
        assert_eq!(
            err,
            AdmitError::Busy {
                queue_depth: 2,
                queue_cap: 2
            }
        );
        assert_eq!(sched.stats().rejected, 1);
        // Coalescing against queued cells needs no capacity and still works.
        let s2 = sched.admit(&[spec("a")], Lane::Interactive).unwrap();
        assert!(Arc::ptr_eq(&s1[0], &s2[0]));

        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        assert_eq!(s0[0].wait().unwrap(), "r:warm");
        assert_eq!(s1[1].wait().unwrap(), "r:b");
        assert_eq!(s2[0].wait().unwrap(), "r:a");
    }

    /// Concurrent distinct sweeps end up in one fork/join batch when they
    /// arrive while the dispatcher is busy.
    #[test]
    fn distinct_cells_batch_together() {
        let batches = Arc::new(Mutex::new(Vec::<usize>::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = {
            let batches = batches.clone();
            let gate = gate.clone();
            Scheduler::start(64, move || {
                let mut first = true;
                move |specs: &[CellSpec]| {
                    batches.lock().unwrap().push(specs.len());
                    if first {
                        first = false;
                        let (lock, cv) = &*gate;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                    }
                    specs.iter().map(|s| format!("r:{}", s.bench)).collect()
                }
            })
        };
        let s0 = sched.admit(&[spec("w")], Lane::Interactive).unwrap();
        while sched.stats().in_flight != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // These three sweeps queue while the first batch is gated...
        let sa = sched.admit(&[spec("a")], Lane::Interactive).unwrap();
        let sb = sched.admit(&[spec("b")], Lane::Interactive).unwrap();
        let sc = sched.admit(&[spec("c")], Lane::Interactive).unwrap();
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        s0[0].wait().unwrap();
        sa[0].wait().unwrap();
        sb[0].wait().unwrap();
        sc[0].wait().unwrap();
        // ...and are drained as one 3-cell batch.
        assert_eq!(*batches.lock().unwrap(), vec![1, 3]);
    }

    /// A panic in the batch evaluation function used to kill the
    /// dispatcher and leave every waiter blocked in `Slot::wait` forever.
    /// Now the batch is abandoned (waiters get `Err`), the dispatcher
    /// survives, and the next batch evaluates normally.
    #[test]
    fn eval_panic_releases_waiters_and_dispatcher_survives() {
        let sched = Scheduler::start(64, || {
            |specs: &[CellSpec]| {
                if specs.iter().any(|s| s.bench == "boom") {
                    panic!("injected eval panic");
                }
                specs.iter().map(|s| format!("r:{}", s.bench)).collect()
            }
        });

        let doomed = sched
            .admit(&[spec("boom"), spec("boom2")], Lane::Interactive)
            .unwrap();
        let err = doomed[0].wait().unwrap_err();
        assert!(
            err.message.contains("injected eval panic"),
            "abandonment must carry the panic message, got: {}",
            err.message
        );
        // boom2 rode in the same batch; it is abandoned too, not hung.
        assert!(doomed[1].wait().is_err());

        let st = sched.stats();
        assert_eq!(st.eval_panics, 1);
        assert_eq!(st.abandoned, 2);
        assert_eq!(st.simulated, 0);
        assert_eq!(st.in_flight, 0, "abandoned batch is not left in flight");

        // The dispatcher survived: fresh work still evaluates, and the
        // previously-abandoned key is admittable again (not stuck active).
        let ok = sched
            .admit(&[spec("fine"), spec("boom2")], Lane::Interactive)
            .unwrap();
        assert_eq!(ok[0].wait().unwrap(), "r:fine");
        assert_eq!(ok[1].wait().unwrap(), "r:boom2");
        assert_eq!(sched.stats().simulated, 2);
    }

    /// An evaluation function that breaks the one-payload-per-spec
    /// contract abandons its batch instead of tearing the dispatcher down.
    #[test]
    fn wrong_payload_count_abandons_batch() {
        let sched = Scheduler::start(64, || |_specs: &[CellSpec]| vec!["only-one".to_string()]);
        let slots = sched
            .admit(&[spec("a"), spec("b")], Lane::Interactive)
            .unwrap();
        let err = slots[0].wait().unwrap_err();
        assert!(err.message.contains("1 payloads for 2 specs"), "{err:?}");
        assert_eq!(sched.stats().abandoned, 2);
    }

    /// If `make_eval` itself panics the dispatcher thread is gone for
    /// good: admitted slots are abandoned by the poison guard and later
    /// admissions fail fast with `Poisoned` instead of queueing work
    /// nobody will drain.
    #[test]
    fn dispatcher_death_poisons_the_scheduler() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = {
            let gate = gate.clone();
            Scheduler::start(64, move || {
                // Stall setup until a victim sweep is admitted, then die.
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                // `*open` is always true here; the branch just keeps the
                // returned closure reachable for type inference.
                if *open {
                    panic!("make_eval failed");
                }
                |_specs: &[CellSpec]| -> Vec<String> { Vec::new() }
            })
        };
        let slots = sched.admit(&[spec("victim")], Lane::Interactive).unwrap();
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        // The guard flips the poison flag *before* settling the orphaned
        // slots, so once the victim's wait has returned the flag is
        // guaranteed visible to new admissions.
        let err = slots[0].wait().unwrap_err();
        assert!(err.message.contains("dispatcher died"), "{err:?}");
        assert!(matches!(
            sched.admit(&[spec("later")], Lane::Interactive),
            Err(AdmitError::Poisoned)
        ));
        assert_eq!(sched.stats().abandoned, 1);
    }

    /// `wait_timed` attributes wall-clock to queue-wait vs evaluation,
    /// and coalesced waiters observe the timing of the one evaluation
    /// that ran.
    #[test]
    fn wait_timed_reports_queue_and_eval_time() {
        let sched = Scheduler::start(64, || {
            |specs: &[CellSpec]| {
                std::thread::sleep(Duration::from_millis(5));
                specs.iter().map(|s| format!("r:{}", s.bench)).collect()
            }
        });
        let s1 = sched.admit(&[spec("t")], Lane::Interactive).unwrap();
        let s2 = sched.admit(&[spec("t")], Lane::Interactive).unwrap();
        let (r1, t1) = s1[0].wait_timed();
        let (r2, t2) = s2[0].wait_timed();
        assert_eq!(r1.unwrap(), "r:t");
        assert_eq!(r2.unwrap(), "r:t");
        assert!(t1.eval_us >= 5_000, "eval covers the sleep: {t1:?}");
        assert_eq!(t1, t2, "coalesced waiters share one timing");
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let mut sched = Scheduler::start(64, echo_eval);
        let slots = sched
            .admit(&[spec("a"), spec("b"), spec("c")], Lane::Interactive)
            .unwrap();
        sched.shutdown();
        for (s, b) in slots.iter().zip(["a", "b", "c"]) {
            assert_eq!(s.wait().unwrap(), format!("r:{b}"));
        }
        assert!(matches!(
            sched.admit(&[spec("d")], Lane::Interactive),
            Err(AdmitError::ShuttingDown)
        ));
    }

    /// With both lanes populated behind a gated batch, the next pickup
    /// takes only the interactive queue; the bulk cell waits for a later
    /// batch. Evaluation results are identical either way — the lane
    /// changes only *when* the bulk cell runs.
    #[test]
    fn interactive_lane_is_drained_before_bulk() {
        let batches = Arc::new(Mutex::new(Vec::<Vec<String>>::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = {
            let batches = batches.clone();
            let gate = gate.clone();
            Scheduler::start(64, move || {
                let mut first = true;
                move |specs: &[CellSpec]| {
                    batches
                        .lock()
                        .unwrap()
                        .push(specs.iter().map(|s| s.bench.clone()).collect());
                    if first {
                        first = false;
                        let (lock, cv) = &*gate;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                    }
                    specs.iter().map(|s| format!("r:{}", s.bench)).collect()
                }
            })
        };
        // Park the dispatcher on a warm batch, then queue bulk BEFORE
        // interactive.
        let w = sched.admit(&[spec("w")], Lane::Interactive).unwrap();
        while sched.stats().in_flight != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = sched.admit(&[spec("bulk")], Lane::Bulk).unwrap();
        let i = sched.admit(&[spec("inter")], Lane::Interactive).unwrap();
        assert_eq!(sched.stats().bulk_depth, 1);
        assert_eq!(sched.stats().interactive_depth, 1);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert_eq!(w[0].wait().unwrap(), "r:w");
        assert_eq!(i[0].wait().unwrap(), "r:inter");
        assert_eq!(b[0].wait().unwrap(), "r:bulk");
        // The interactive cell got its own batch ahead of the bulk cell,
        // despite being admitted after it.
        assert_eq!(
            *batches.lock().unwrap(),
            vec![vec!["w"], vec!["inter"], vec!["bulk"]]
        );
        assert_eq!(sched.stats().bulk_promotions, 0);
    }

    /// A bulk queue passed over for `AGING_ROUNDS` pickups is merged
    /// into the next batch even though interactive work is still queued —
    /// bulk is delayed, never starved.
    #[test]
    fn aged_bulk_queue_is_promoted_past_interactive_work() {
        let batches = Arc::new(Mutex::new(Vec::<Vec<String>>::new()));
        // A counting semaphore of batch permits: each release lets the
        // evaluation function finish exactly one batch, so the test can
        // interleave admissions between pickups deterministically.
        let permits = Arc::new((Mutex::new(0u64), Condvar::new()));
        let sched = {
            let batches = batches.clone();
            let permits = permits.clone();
            Scheduler::start(64, move || {
                move |specs: &[CellSpec]| {
                    batches
                        .lock()
                        .unwrap()
                        .push(specs.iter().map(|s| s.bench.clone()).collect());
                    let (lock, cv) = &*permits;
                    let mut n = lock.lock().unwrap();
                    while *n == 0 {
                        n = cv.wait(n).unwrap();
                    }
                    *n -= 1;
                    specs.iter().map(|s| format!("r:{}", s.bench)).collect()
                }
            })
        };
        let release = || {
            let (lock, cv) = &*permits;
            *lock.lock().unwrap() += 1;
            cv.notify_all();
        };
        let await_pickup = |want: usize| {
            while batches.lock().unwrap().len() != want {
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Batch 1 ("w") holds the dispatcher while bulk and the first
        // interactive cell queue up behind it.
        let mut slots = vec![sched.admit(&[spec("w")], Lane::Interactive).unwrap()];
        await_pickup(1);
        slots.push(sched.admit(&[spec("bulk")], Lane::Bulk).unwrap());
        slots.push(sched.admit(&[spec("i0")], Lane::Interactive).unwrap());
        // Each released batch evaluates one interactive cell and skips
        // the parked bulk queue, ticking the aging clock; admit the next
        // interactive cell only after the pickup, so the bulk queue is
        // provably non-empty at every skip.
        for round in 0..AGING_ROUNDS {
            release(); // finish current batch -> next pickup skips bulk
            await_pickup(2 + round as usize);
            slots.push(
                sched
                    .admit(&[spec(&format!("i{}", round + 1))], Lane::Interactive)
                    .unwrap(),
            );
        }
        // The aging clock has now hit AGING_ROUNDS: the next pickup
        // merges the bulk queue in despite queued interactive work.
        release();
        await_pickup(2 + AGING_ROUNDS as usize);
        let final_batch = batches.lock().unwrap().last().unwrap().clone();
        assert!(
            final_batch.contains(&"bulk".to_string()),
            "aged bulk cell must ride the promoted batch: {final_batch:?}"
        );
        release();
        for s in slots.iter().flatten() {
            assert!(s.wait().is_ok());
        }
        assert_eq!(sched.stats().bulk_promotions, 1);
        assert_eq!(sched.stats().bulk_depth, 0);
        // Drain any stray permit waiters before drop joins the thread.
        release();
    }

    /// `wait_deadline` returns `None` when evaluation wedges without
    /// settling the slot, and a settled slot still resolves normally.
    #[test]
    fn wait_deadline_times_out_on_wedged_eval_and_resolves_after() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let sched = {
            let gate = gate.clone();
            Scheduler::start(64, move || {
                move |specs: &[CellSpec]| {
                    // Simulate a wedged (not panicking) evaluation.
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                    specs.iter().map(|s| format!("r:{}", s.bench)).collect()
                }
            })
        };
        let slots = sched.admit(&[spec("stuck")], Lane::Interactive).unwrap();
        let started = Instant::now();
        assert!(
            slots[0].wait_deadline(Duration::from_millis(50)).is_none(),
            "deadline must fire while the evaluation is wedged"
        );
        assert!(started.elapsed() >= Duration::from_millis(50));
        // Un-wedge; the same slot then settles and waiters resolve.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let (result, _) = slots[0]
            .wait_deadline(Duration::from_secs(30))
            .expect("slot settles once evaluation completes");
        assert_eq!(result.unwrap(), "r:stuck");
    }
}
