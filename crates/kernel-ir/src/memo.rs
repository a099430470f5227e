//! A process-wide memo of simulated launches, shared by both device paths.
//!
//! The paper's grid runs one kernel under several versions, and the pass
//! pipeline is part of every cell's identity, so one process launches the
//! same program on the same inputs many times: the Serial and OpenMP
//! versions (§IV-B) are the same scalar code on one and two cores, and many
//! pass orderings optimize a kernel to the same executed program. The two
//! launch sites — `hpc_kernels::common::run_cpu_kernel` (a `CpuProfile`)
//! and `ocl_runtime::Context::enqueue_nd_range` (a `MaliReport`, before its
//! DVFS throttle roll) — simulate through [`launch`], which runs each such
//! launch once and hands the stored value to every repeat.
//!
//! * **Key**: everything a simulation reads — a 128-bit digest of the
//!   program the caller hands the device (Mali occupancy reads its
//!   register footprint), a digest of the program that executes after the
//!   ambient pass pipeline (so two pipelines that yield one program share
//!   an entry), a digest of the bindings and NDRange, a digest of every
//!   pool buffer's bit pattern (so `0.0` and `-0.0` differ), a digest of
//!   the device configuration, the stored value's type, and the execution
//!   engine and simulation thread count. The last two cannot change a
//!   byte; they are in the key so the in-process cross-engine and
//!   cross-thread oracles still compare two real simulations. Program,
//!   binding and configuration digests hash their `Debug` text, which is
//!   bit-faithful for float immediates and scalar arguments.
//! * **Value**: the simulation's result plus the buffers the launch wrote
//!   (their digest moved). Written buffers are interned by digest: launches
//!   that differ only in the executed program write identical outputs, so
//!   they share one copy. A hit writes those buffers into the caller's
//!   fresh pool, so the caller validates its own output as usual.
//! * **Runs**: the executed program's digest comes from a stored run of
//!   the ambient pipeline on the handed program — (handed digest,
//!   pipeline) to (executed digest, the run's `PassCounters`) — so a hit
//!   costs only its key; a miss runs the pipeline to execute it. A launch
//!   that reuses a stored run adds its counters to `opt::stats`, and one
//!   that runs the pipeline is counted by that run, so the stats read as
//!   if every launch had optimized once.
//! * **Lifetime**: a hit keeps its entry, in LRU order. Entries, runs and
//!   interned buffers together stay under [`BUDGET`] bytes, evicting the
//!   least recently used entry or run first; an entry larger than the
//!   budget is never stored.
//! * **Concurrency**: the lock is never held while simulating. A miss on a
//!   key another thread is already simulating waits for that result
//!   instead of simulating it again. A thread marks a key only right
//!   before it simulates, and a simulation never launches through the
//!   memo, so a waiter holds no marks and no wait cycle can form.

use crate::exec::{ArgBinding, Engine, NDRange};
use crate::memory::{BufferData, MemoryPool};
use crate::opt::{PassCounters, Pipeline};
use crate::program::Program;
use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{self, Debug, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, MutexGuard};

/// Bytes of stored values, pipeline runs and interned buffers the
/// process-wide memo holds at most.
pub const BUDGET: usize = 8 << 20;

static MEMO: LazyLock<Memo> = LazyLock::new(|| Memo::new(BUDGET));

thread_local! {
    /// Set while this thread simulates a marked key.
    static HOLDING: Cell<bool> = const { Cell::new(false) };
}

/// Simulate one launch through the process-wide memo, or take the stored
/// result of an identical earlier launch: either way `pool` ends as the
/// simulation leaves it.
///
/// `device` is the device configuration, `program` the program the device
/// receives, and `simulate` the device's pure simulation of this launch on
/// `pool`. `heap_bytes` sizes a value's heap allocations for the byte
/// budget. Errors are returned, never stored.
pub fn launch<V, E>(
    device: &dyn Debug,
    program: &Program,
    bindings: &[ArgBinding],
    pool: &mut MemoryPool,
    ndrange: NDRange,
    heap_bytes: fn(&V) -> usize,
    simulate: impl FnOnce(&mut MemoryPool) -> Result<V, E>,
) -> Result<V, E>
where
    V: Clone + Send + Sync + 'static,
{
    MEMO.launch(
        device, program, bindings, pool, ndrange, heap_bytes, simulate,
    )
}

/// Launches served from the memo instead of simulated, since process
/// start.
pub fn reuse_count() -> u64 {
    MEMO.reused.load(Ordering::Relaxed)
}

/// Launches simulated through the memo to a value, since process start.
/// A launch whose simulation returns an error (a device refusing its
/// resources) is not counted: errors are never stored, so every repeat
/// makes it again.
pub fn simulated_count() -> u64 {
    MEMO.simulated.load(Ordering::Relaxed)
}

/// Drop every stored entry and run (launches in flight still store
/// theirs).
pub fn clear() {
    MEMO.clear();
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    value: TypeId,
    engine: Engine,
    threads: usize,
    device: u128,
    handed: u128,
    executed: u128,
    launch: u128,
    inputs: Vec<u128>,
}

impl Key {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Key>() + self.inputs.len() * 16
    }
}

/// A handed program's digest under one pipeline.
type RunKey = (u128, Arc<Pipeline>);

/// What one pipeline run made of a handed program: digests, never the
/// program, so a stream of fresh pipelines stores a few bytes per launch.
struct Run {
    /// Digest of the program the run produced.
    executed: u128,
    /// The counters the run added to `opt::stats`.
    counters: PassCounters,
    /// Position in the LRU order.
    tick: u64,
}

fn run_bytes(key: &RunKey) -> usize {
    std::mem::size_of::<RunKey>()
        + std::mem::size_of::<Run>()
        + std::mem::size_of::<Pipeline>()
        + std::mem::size_of_val(key.1.passes())
}

/// One slot of the LRU order.
enum Slot {
    Launch(Key),
    Run(RunKey),
}

struct Entry {
    value: Box<dyn Any + Send + Sync>,
    /// (pool index, interned digest) of every buffer the launch wrote.
    outputs: Vec<(usize, u128)>,
    /// Bytes of this entry, interned buffers excluded.
    bytes: usize,
    /// Position in the LRU order.
    tick: u64,
}

#[derive(Default)]
struct State {
    entries: HashMap<Key, Entry>,
    /// Pipeline runs by (handed program, pipeline).
    runs: HashMap<RunKey, Run>,
    /// Entries and runs by last use, oldest first.
    order: BTreeMap<u64, Slot>,
    /// Written buffers by digest, with the number of entries holding each.
    buffers: HashMap<u128, (Arc<BufferData>, usize)>,
    /// Keys some thread is simulating now.
    in_flight: HashSet<Key>,
    /// Bytes of all entries, runs and interned buffers.
    bytes: usize,
    tick: u64,
}

impl State {
    /// Mark `key`'s entry most recently used; false if there is none.
    fn touch(&mut self, key: &Key) -> bool {
        let Some(entry) = self.entries.get_mut(key) else {
            return false;
        };
        self.tick += 1;
        let old = std::mem::replace(&mut entry.tick, self.tick);
        self.renew(old);
        true
    }

    /// The executed digest and counters of a stored run of `key`, now the
    /// most recently used.
    fn run(&mut self, key: &RunKey) -> Option<(u128, PassCounters)> {
        let run = self.runs.get_mut(key)?;
        self.tick += 1;
        let old = std::mem::replace(&mut run.tick, self.tick);
        let found = (run.executed, run.counters);
        self.renew(old);
        Some(found)
    }

    /// Move the slot ordered at `old` to the newest tick.
    fn renew(&mut self, old: u64) {
        let slot = self.order.remove(&old).expect("every slot is ordered");
        self.order.insert(self.tick, slot);
    }

    /// Order a new slot as the most recently used; returns its tick.
    fn push(&mut self, slot: Slot) -> u64 {
        self.tick += 1;
        self.order.insert(self.tick, slot);
        self.tick
    }

    fn evict_oldest(&mut self) {
        let key = match self.order.pop_first() {
            None => return,
            Some((_, Slot::Run(key))) => {
                self.runs.remove(&key).expect("every ordered run is stored");
                self.bytes -= run_bytes(&key);
                return;
            }
            Some((_, Slot::Launch(key))) => key,
        };
        let entry = self
            .entries
            .remove(&key)
            .expect("every ordered key is stored");
        self.bytes -= entry.bytes;
        for (_, d) in entry.outputs {
            let (buf, refs) = self.buffers.get_mut(&d).expect("outputs are interned");
            *refs -= 1;
            if *refs == 0 {
                self.bytes -= buf.bytes() as usize;
                self.buffers.remove(&d);
            }
        }
    }
}

/// The memo proper; one process-wide instance backs [`launch`].
struct Memo {
    budget: usize,
    state: Mutex<State>,
    done: Condvar,
    reused: AtomicU64,
    simulated: AtomicU64,
}

/// Drops a key's in-flight mark and wakes its waiters, also when the
/// simulation fails or panics.
struct Mark<'a> {
    memo: &'a Memo,
    key: Option<&'a Key>,
}

impl Drop for Mark<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key {
            HOLDING.with(|h| h.set(false));
            self.memo.lock().in_flight.remove(key);
            self.memo.done.notify_all();
        }
    }
}

impl Memo {
    fn new(budget: usize) -> Memo {
        Memo {
            budget,
            state: Mutex::new(State::default()),
            done: Condvar::new(),
            reused: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn clear(&self) {
        let mut s = self.lock();
        let in_flight = std::mem::take(&mut s.in_flight);
        *s = State {
            in_flight,
            ..State::default()
        };
    }

    #[allow(clippy::too_many_arguments)]
    fn launch<V, E>(
        &self,
        device: &dyn Debug,
        program: &Program,
        bindings: &[ArgBinding],
        pool: &mut MemoryPool,
        ndrange: NDRange,
        heap_bytes: fn(&V) -> usize,
        simulate: impl FnOnce(&mut MemoryPool) -> Result<V, E>,
    ) -> Result<V, E>
    where
        V: Clone + Send + Sync + 'static,
    {
        let handed = text_digest(program);
        let pipeline = crate::opt::ambient();
        // The executed program's digest, from a stored run of this
        // pipeline on this program when there is one: then a hit optimizes
        // nothing, and counts the stored run's counters as its own.
        let (executed, optimized, stored_run) = match &pipeline {
            None => (handed, None, None),
            Some(pl) => {
                let run_key = (handed, Arc::clone(pl));
                // Its own statement, so the lock is released before optimizing.
                let found = self.lock().run(&run_key);
                match found {
                    Some((executed, counters)) => (executed, None, Some(counters)),
                    None => {
                        let (q, counters) = pl.run_counted(program);
                        let executed = text_digest(&q);
                        self.store_run(run_key, executed, counters);
                        (executed, Some(Arc::new(q)), None)
                    }
                }
            }
        };
        let key = Key {
            value: TypeId::of::<V>(),
            engine: crate::exec::engine(),
            threads: sim_pool::threads(),
            device: text_digest(device),
            handed,
            executed,
            launch: text_digest(&(bindings, ndrange)),
            inputs: (0..pool.len()).map(|i| digest(pool.get(i))).collect(),
        };

        let holding = HOLDING.with(|h| h.get());
        let mut s = self.lock();
        loop {
            if s.touch(&key) {
                let entry = &s.entries[&key];
                let value = entry
                    .value
                    .downcast_ref::<V>()
                    .expect("keyed by type")
                    .clone();
                let outputs: Vec<_> = entry
                    .outputs
                    .iter()
                    .map(|&(i, d)| (i, Arc::clone(&s.buffers[&d].0)))
                    .collect();
                drop(s);
                self.reused.fetch_add(1, Ordering::Relaxed);
                if let Some(counters) = stored_run {
                    crate::opt::count(&counters);
                }
                for (i, data) in outputs {
                    *pool.get_mut(i) = BufferData::clone(&data);
                }
                return Ok(value);
            }
            if holding || !s.in_flight.contains(&key) {
                break;
            }
            s = self.done.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        let _mark = Mark {
            memo: self,
            key: (!holding).then(|| {
                s.in_flight.insert(key.clone());
                HOLDING.with(|h| h.set(true));
                &key
            }),
        };
        drop(s);

        // A launch that took its digest from a stored run runs the pipeline
        // here, which counts it: either way it counts one run.
        let optimized = pipeline.map(|pl| optimized.unwrap_or_else(|| Arc::new(pl.run(program))));
        let value = crate::opt::with_executed(program, optimized, || simulate(pool))?;
        self.simulated.fetch_add(1, Ordering::Relaxed);
        let outputs: Vec<(usize, u128)> = (0..pool.len())
            .map(|i| (i, digest(pool.get(i))))
            .filter(|&(i, d)| d != key.inputs[i])
            .collect();
        let bytes = key.bytes()
            + std::mem::size_of::<V>()
            + heap_bytes(&value)
            + outputs.len() * std::mem::size_of::<(usize, u128)>();
        let written: usize = outputs
            .iter()
            .map(|&(i, _)| pool.get(i).bytes() as usize)
            .sum();
        if bytes + written <= self.budget {
            self.store(key.clone(), value.clone(), outputs, bytes, pool);
        }
        Ok(value)
    }

    fn store<V: Send + Sync + 'static>(
        &self,
        key: Key,
        value: V,
        outputs: Vec<(usize, u128)>,
        bytes: usize,
        pool: &MemoryPool,
    ) {
        let mut s = self.lock();
        if s.entries.contains_key(&key) {
            return;
        }
        for &(i, d) in &outputs {
            match s.buffers.get_mut(&d) {
                Some((_, refs)) => *refs += 1,
                None => {
                    let data = pool.get(i).clone();
                    s.bytes += data.bytes() as usize;
                    s.buffers.insert(d, (Arc::new(data), 1));
                }
            }
        }
        let tick = s.push(Slot::Launch(key.clone()));
        s.bytes += bytes;
        s.entries.insert(
            key,
            Entry {
                value: Box::new(value),
                outputs,
                bytes,
                tick,
            },
        );
        while s.bytes > self.budget {
            s.evict_oldest();
        }
    }

    /// Store what a pipeline run made of a handed program, under the same
    /// byte budget and LRU order as the entries.
    fn store_run(&self, key: RunKey, executed: u128, counters: PassCounters) {
        let mut s = self.lock();
        if s.runs.contains_key(&key) {
            return;
        }
        s.bytes += run_bytes(&key);
        let tick = s.push(Slot::Run(key.clone()));
        s.runs.insert(
            key,
            Run {
                executed,
                counters,
                tick,
            },
        );
        while s.bytes > self.budget {
            s.evict_oldest();
        }
    }
}

/// Lane multipliers of the 128-bit digests.
const M: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
];

/// One step of lane `k`: `s = (s ^ w) * M` is a bijection of the lane
/// state, so a change to any single word always changes the lane.
fn step(s: &mut [u64; 4], k: usize, w: u64) {
    s[k] = (s[k] ^ w).wrapping_mul(M[k]).rotate_left(29);
}

fn finish(s: [u64; 4]) -> u128 {
    let hi = fmix(s[0] ^ fmix(s[1]));
    let lo = fmix(s[2] ^ fmix(s[3] ^ hi));
    (hi as u128) << 64 | lo as u128
}

/// 128-bit digest of a buffer's element type, length and bit pattern.
///
/// Four independent lanes, one word per element, so the multiplies stay
/// off one dependency chain.
pub(crate) fn digest(b: &BufferData) -> u128 {
    fn lanes<T: Copy>(tag: u64, v: &[T], bits: impl Fn(T) -> u64) -> u128 {
        let mut s = [tag, v.len() as u64, !tag, !(v.len() as u64)];
        let mut chunks = v.chunks_exact(4);
        for c in &mut chunks {
            for (k, &e) in c.iter().enumerate() {
                step(&mut s, k, bits(e));
            }
        }
        for (k, &e) in chunks.remainder().iter().enumerate() {
            step(&mut s, k, bits(e));
        }
        finish(s)
    }
    match b {
        BufferData::F32(v) => lanes(1, v, |e| e.to_bits() as u64),
        BufferData::F64(v) => lanes(2, v, f64::to_bits),
        BufferData::I32(v) => lanes(3, v, |e| e as u32 as u64),
        BufferData::I64(v) => lanes(4, v, |e| e as u64),
        BufferData::U32(v) => lanes(5, v, |e| e as u64),
        BufferData::U64(v) => lanes(6, v, |e| e),
    }
}

/// 128-bit digest of a value's `Debug` text, streamed without building
/// the string: eight bytes per word, words dealt round-robin to the lanes.
fn text_digest(v: &(impl Debug + ?Sized)) -> u128 {
    struct Text {
        s: [u64; 4],
        words: usize,
        word: u64,
        filled: u32,
    }
    impl fmt::Write for Text {
        fn write_str(&mut self, str: &str) -> fmt::Result {
            for &b in str.as_bytes() {
                self.word |= (b as u64) << (8 * self.filled);
                self.filled += 1;
                if self.filled == 8 {
                    step(&mut self.s, self.words & 3, self.word);
                    self.words += 1;
                    self.word = 0;
                    self.filled = 0;
                }
            }
            Ok(())
        }
    }
    let mut t = Text {
        s: [7, 0, !7, !0],
        words: 0,
        word: 0,
        filled: 0,
    };
    write!(t, "{v:?}").expect("Debug into a digest cannot fail");
    // The tail word, then the byte length: texts that differ only in
    // trailing zero bytes still differ.
    let len = (t.words * 8) as u64 + t.filled as u64;
    let (k, w) = (t.words & 3, t.word);
    step(&mut t.s, k, w);
    step(&mut t.s, (k + 1) & 3, len);
    finish(t.s)
}

/// MurmurHash3's 64-bit finalizer: full avalanche of one word.
fn fmix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::Scalar;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// out[i] = a[i] + 1.0, named `name`.
    fn inc_kernel(name: &str) -> Program {
        let mut kb = KernelBuilder::new(name);
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let c = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let va = kb.load(Scalar::F32, a, gid.into());
        let s = kb.bin(
            BinOp::Add,
            va.into(),
            Operand::ImmF(1.0),
            VType::scalar(Scalar::F32),
        );
        kb.store(c, gid.into(), s.into());
        kb.finish()
    }

    fn pool_of(a: Vec<f32>) -> MemoryPool {
        let n = a.len();
        let mut pool = MemoryPool::new();
        pool.add(BufferData::from(a));
        pool.add(BufferData::zeroed(Scalar::F32, n));
        pool
    }

    const BIND: [ArgBinding; 2] = [ArgBinding::Global(0), ArgBinding::Global(1)];

    /// Launch `p` on `pool` through `memo`, storing a `heap`-byte value;
    /// returns whether it simulated (missed).
    fn run(memo: &Memo, p: &Program, pool: &mut MemoryPool, heap: usize) -> bool {
        let mut simulated = false;
        let nd = NDRange::d1(pool.get(0).len(), 1);
        let v: Vec<u8> = memo
            .launch(&"cfg", p, &BIND, pool, nd, Vec::len, |pool| {
                simulated = true;
                crate::run_ndrange(p, &BIND, pool, nd, &mut NullTracer)?;
                Ok::<_, crate::ExecError>(vec![7; heap])
            })
            .unwrap();
        assert_eq!(v.len(), heap);
        simulated
    }

    /// Bytes one `run` entry on `n` inputs with a `heap`-byte value takes.
    fn entry_bytes(n: usize, heap: usize) -> usize {
        let memo = Memo::new(usize::MAX);
        run(&memo, &inc_kernel("size"), &mut pool_of(vec![0.0; n]), heap);
        let s = memo.lock();
        s.bytes
    }

    #[test]
    fn a_hit_restores_the_written_buffer_and_keeps_its_entry() {
        let memo = Memo::new(usize::MAX);
        let p = inc_kernel("inc");
        let mut fresh = pool_of(vec![1.0, 2.0, 3.0]);
        assert!(run(&memo, &p, &mut fresh, 0), "first launch simulates");
        for _ in 0..2 {
            let mut again = pool_of(vec![1.0, 2.0, 3.0]);
            assert!(!run(&memo, &p, &mut again, 0), "a repeat hits");
            assert_eq!(again.get(1), fresh.get(1));
        }
        assert_eq!(memo.reused.load(Ordering::Relaxed), 2);
        assert!(
            run(&memo, &p, &mut pool_of(vec![1.0, 2.0, -0.0]), 0),
            "another input"
        );
        assert!(run(
            &memo,
            &inc_kernel("other"),
            &mut pool_of(vec![1.0, 2.0, 3.0]),
            0
        ));
        let mut pool = pool_of(vec![1.0, 2.0, 3.0]);
        let nd = NDRange::d1(3, 1);
        let cfg2 = memo.launch(&"cfg2", &p, &BIND, &mut pool, nd, Vec::len, |_| {
            Ok::<Vec<u8>, ()>(vec![])
        });
        assert!(cfg2.is_ok());
        assert_eq!(
            memo.lock().entries.len(),
            4,
            "another device config is another entry"
        );
    }

    #[test]
    fn identical_outputs_are_interned_once() {
        let memo = Memo::new(usize::MAX);
        let input = vec![0.5f32; 1000];
        assert!(run(&memo, &inc_kernel("a"), &mut pool_of(input.clone()), 0));
        assert!(run(&memo, &inc_kernel("b"), &mut pool_of(input), 0));
        let s = memo.lock();
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.buffers.len(), 1, "two entries share one written buffer");
        assert_eq!(s.buffers.values().next().unwrap().1, 2);
        let own: usize = s.entries.values().map(|e| e.bytes).sum();
        assert_eq!(s.bytes, own + 4000, "the shared buffer is counted once");
    }

    #[test]
    fn the_byte_budget_evicts_least_recently_used_first() {
        let heap = 1000;
        let each = entry_bytes(4, heap);
        let memo = Memo::new(3 * each);
        let p = inc_kernel("lru");
        let pool = |k: f32| pool_of(vec![k; 4]);
        for k in [1.0, 2.0, 3.0] {
            assert!(run(&memo, &p, &mut pool(k), heap));
        }
        assert!(
            !run(&memo, &p, &mut pool(1.0), heap),
            "1 is held, and now newest"
        );
        assert!(
            run(&memo, &p, &mut pool(4.0), heap),
            "4 evicts 2, the oldest"
        );
        assert_eq!(memo.lock().bytes, 3 * each);
        for k in [1.0, 3.0, 4.0] {
            assert!(!run(&memo, &p, &mut pool(k), heap), "{k} survived");
        }
        assert!(run(&memo, &p, &mut pool(2.0), heap), "2 was evicted");

        // An entry larger than the whole budget is never stored, and
        // storing nothing evicts nothing.
        let before: HashSet<Key> = memo.lock().entries.keys().cloned().collect();
        for _ in 0..2 {
            assert!(
                run(&memo, &p, &mut pool(5.0), 3 * each),
                "too large to keep"
            );
        }
        let after: HashSet<Key> = memo.lock().entries.keys().cloned().collect();
        assert_eq!(before, after);
        assert!(memo.lock().bytes <= 3 * each);
    }

    #[test]
    fn clear_empties_the_memo() {
        let memo = Memo::new(usize::MAX);
        let p = inc_kernel("clear");
        assert!(run(&memo, &p, &mut pool_of(vec![1.0; 8]), 16));
        memo.clear();
        assert_eq!(memo.lock().bytes, 0);
        assert!(run(&memo, &p, &mut pool_of(vec![1.0; 8]), 16), "cleared");
    }

    /// Under a pipeline, a launch stores its run's digest and counters
    /// once per (program, pipeline), in the byte budget, and `clear`
    /// drops them with the entries.
    #[test]
    fn a_pipeline_run_is_stored_once_per_program_and_pipeline() {
        let memo = Memo::new(usize::MAX);
        let p = inc_kernel("runs");
        let full = Pipeline::full();
        let launch = |pl: &Pipeline, k: f32| {
            crate::opt::with_passes(Some(pl.clone()), || {
                run(&memo, &p, &mut pool_of(vec![k; 4]), 0)
            })
        };
        assert!(launch(&full, 1.0), "first launch simulates");
        assert!(!launch(&full, 1.0), "a repeat hits");
        assert!(launch(&full, 2.0), "other inputs, the same run");
        {
            let s = memo.lock();
            assert_eq!(s.runs.len(), 1);
            let run = &s.runs[&(text_digest(&p), Arc::new(full.clone()))];
            let (q, counters) = full.run_counted(&p);
            assert_eq!((run.executed, run.counters), (text_digest(&q), counters));
            let own: usize = s.entries.values().map(|e| e.bytes).sum();
            let buffers: usize = s.buffers.values().map(|(b, _)| b.bytes() as usize).sum();
            assert_eq!(
                s.bytes,
                own + buffers + run_bytes(s.runs.keys().next().unwrap())
            );
        }
        // Another pipeline that executes the same program is another run
        // but the same launch.
        assert!(!launch(&Pipeline::parse("dce,dce").unwrap(), 1.0));
        assert_eq!(memo.lock().runs.len(), 2);
        memo.clear();
        let s = memo.lock();
        assert!(s.runs.is_empty() && s.order.is_empty() && s.bytes == 0);
    }

    #[test]
    fn runs_are_evicted_under_the_byte_budget() {
        let p = inc_kernel("evict");
        let budget = 3 * run_bytes(&(0, Arc::new(Pipeline::parse("cf").unwrap())));
        let memo = Memo::new(budget);
        let mut pool = pool_of(vec![1.0; 4]);
        let nd = NDRange::d1(4, 1);
        for pl in ["cf", "alg", "sr", "cse"] {
            crate::opt::with_passes(Some(Pipeline::parse(pl).unwrap()), || {
                memo.launch(
                    &"cfg",
                    &p,
                    &BIND,
                    &mut pool,
                    nd,
                    |_: &()| 0,
                    |_| Err::<(), ()>(()),
                )
            })
            .unwrap_err();
        }
        let s = memo.lock();
        let kept: Vec<String> = s.runs.keys().map(|(_, pl)| pl.to_string()).collect();
        assert_eq!(s.runs.len(), 3, "{kept:?}");
        assert!(
            !kept.contains(&"cf".to_string()),
            "the oldest run went first"
        );
        assert_eq!(s.bytes, budget);
    }

    /// A miss on a key another thread is simulating waits for its result;
    /// if that simulation fails, the waiter simulates the launch itself.
    #[test]
    fn a_miss_waits_for_the_launch_in_flight() {
        for fail in [false, true] {
            let memo = Memo::new(usize::MAX);
            let p = inc_kernel("flight");
            let sims = AtomicUsize::new(0);
            let nd = NDRange::d1(4, 1);
            let (started, wait_started) = mpsc::channel();
            let go = |first: bool| {
                let mut pool = pool_of(vec![1.0; 4]);
                let r = memo.launch(
                    &"cfg",
                    &p,
                    &BIND,
                    &mut pool,
                    nd,
                    |_: &u32| 0,
                    |pool| {
                        sims.fetch_add(1, Ordering::SeqCst);
                        if first {
                            started.send(()).unwrap();
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            if fail {
                                return Err("failed");
                            }
                        }
                        crate::run_ndrange(&p, &BIND, pool, nd, &mut NullTracer).unwrap();
                        Ok(5)
                    },
                );
                (r, pool.get(1).clone())
            };
            std::thread::scope(|s| {
                let a = s.spawn(|| go(true));
                wait_started.recv().unwrap();
                let (b, out) = go(false);
                assert_eq!(b, Ok(5));
                assert_eq!(out, BufferData::from(vec![2.0f32; 4]));
                let (a, _) = a.join().unwrap();
                assert_eq!(a, if fail { Err("failed") } else { Ok(5) });
            });
            let expect = if fail { 2 } else { 1 };
            assert_eq!(sims.load(Ordering::SeqCst), expect, "fail={fail}");
            assert!(memo.lock().in_flight.is_empty());
        }
    }

    #[test]
    fn digest_sees_every_bit_type_and_length() {
        let d = |b: BufferData| digest(&b);
        let base = d(BufferData::F32(vec![0.0; 9]));
        assert_eq!(base, d(BufferData::F32(vec![0.0; 9])));
        for i in 0..9 {
            let mut v = vec![0.0f32; 9];
            v[i] = -0.0;
            assert_ne!(base, d(BufferData::F32(v)), "sign of element {i}");
        }
        assert_ne!(base, d(BufferData::F32(vec![0.0; 8])), "length");
        assert_ne!(base, d(BufferData::U32(vec![0; 9])), "element type");
        assert_ne!(
            d(BufferData::F64(vec![1.0, 2.0, 3.0, 4.0])),
            d(BufferData::F64(vec![2.0, 1.0, 3.0, 4.0])),
            "order within a lane chunk"
        );
    }

    #[test]
    fn text_digest_sees_every_byte_and_the_length() {
        assert_eq!(text_digest("abcdefghij"), text_digest("abcdefghij"));
        let base = text_digest("abcdefghijklmnopqrstuvwxyz0123456789");
        let mut text = b"abcdefghijklmnopqrstuvwxyz0123456789".to_vec();
        for i in 0..text.len() {
            text[i] ^= 1;
            assert_ne!(
                base,
                text_digest(std::str::from_utf8(&text).unwrap()),
                "byte {i}"
            );
            text[i] ^= 1;
        }
        assert_ne!(text_digest("ab"), text_digest("ab\0"), "trailing zero byte");
        assert_ne!(text_digest(&0.0f64), text_digest(&-0.0f64));
    }
}
