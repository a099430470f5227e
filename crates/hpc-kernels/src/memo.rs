//! A small process-wide memo of CPU launch profiles.
//!
//! The paper's Serial and OpenMP versions (§IV-B) are the same scalar code
//! run on one and two Cortex-A15 cores: their launches differ only in
//! `cores`, which enters only [`CortexA15::time`]. [`run_cpu_kernel`]
//! therefore profiles a launch through [`profile`], which simulates it
//! once and leaves the result here for the sibling cell to take.
//!
//! * **Key**: everything that can change a profile — the program text,
//!   the bindings and the NDRange (by their `Debug` text, which is
//!   bit-faithful for float immediates and scalar arguments), a 128-bit
//!   digest of every pool buffer's bit pattern (so `0.0` and `-0.0`
//!   differ), the ambient pass pipeline, and the execution engine and
//!   simulation thread count. The last two cannot change a byte; they are
//!   in the key so the in-process cross-engine and cross-thread oracles
//!   still compare two real simulations.
//! * **Value**: the profile plus only the buffers the launch changed (their
//!   digest moved). A hit writes those into the caller's fresh pool, so
//!   the caller validates and digests its own output as usual.
//! * **Lifetime**: a hit *takes* the entry; at most [`CAPACITY`] entries
//!   are held, the oldest evicted first. The lock is never held while
//!   simulating, so two concurrent misses on one key both simulate.
//!
//! [`run_cpu_kernel`]: crate::common::run_cpu_kernel

use cpu_sim::{CortexA15, CpuProfile};
use kernel_ir::opt::Pipeline;
use kernel_ir::{ArgBinding, BufferData, Engine, MemoryPool, NDRange, Program};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Entries held at once: enough for a family's two-launch pipeline (red)
/// from each of several concurrently evaluated cells.
const CAPACITY: usize = 8;

#[derive(PartialEq)]
struct Key {
    // Cheap fields first: derived `==` compares in declaration order.
    engine: Engine,
    threads: usize,
    inputs: Vec<u128>,
    passes: Option<Arc<Pipeline>>,
    launch: String,
}

struct Entry {
    key: Key,
    profile: CpuProfile,
    /// (pool index, contents after the launch) of every buffer it wrote.
    changed: Vec<(usize, BufferData)>,
}

static MEMO: Mutex<VecDeque<Entry>> = Mutex::new(VecDeque::new());
static REUSED: AtomicU64 = AtomicU64::new(0);

/// Launches served from the memo instead of simulated, since process
/// start.
pub fn reuse_count() -> u64 {
    REUSED.load(Ordering::Relaxed)
}

/// Profile a CPU launch, taking a memoized profile when one matches:
/// leaves `pool` as the simulation would, either way.
pub(crate) fn profile(
    dev: &CortexA15,
    program: &Program,
    bindings: &[ArgBinding],
    pool: &mut MemoryPool,
    ndrange: NDRange,
) -> CpuProfile {
    #[cfg(test)]
    tests::record(program, bindings, pool, ndrange);
    let key = Key {
        engine: kernel_ir::engine(),
        threads: sim_pool::threads(),
        inputs: (0..pool.len()).map(|i| digest(pool.get(i))).collect(),
        passes: kernel_ir::opt::ambient(),
        launch: format!("{program:?}\n{bindings:?}\n{ndrange:?}"),
    };
    let hit = {
        let mut memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
        let at = memo.iter().position(|e| e.key == key);
        at.and_then(|i| memo.remove(i))
    };
    if let Some(entry) = hit {
        REUSED.fetch_add(1, Ordering::Relaxed);
        for (i, data) in entry.changed {
            *pool.get_mut(i) = data;
        }
        return entry.profile;
    }
    let profile = dev
        .profile(program, bindings, pool, ndrange)
        .expect("CPU launch failed — benchmark bug");
    let changed = (0..pool.len())
        .filter(|&i| digest(pool.get(i)) != key.inputs[i])
        .map(|i| (i, pool.get(i).clone()))
        .collect();
    let entry = Entry {
        key,
        profile: profile.clone(),
        changed,
    };
    let mut memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
    if memo.len() == CAPACITY {
        memo.pop_front();
    }
    memo.push_back(entry);
    profile
}

/// 128-bit digest of a buffer's element type, length and bit pattern.
///
/// Four independent lanes, one word per element: each step
/// `s = (s ^ w) * M` is a bijection of the lane state, so a change to any
/// single element always changes the digest, and the lanes keep the
/// multiplies off one dependency chain.
fn digest(b: &BufferData) -> u128 {
    fn lanes<T: Copy>(tag: u64, v: &[T], bits: impl Fn(T) -> u64) -> u128 {
        const M: [u64; 4] = [
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x1656_67b1_9e37_79f9,
            0xd6e8_feb8_6659_fd93,
        ];
        let mut s = [tag, v.len() as u64, !tag, !(v.len() as u64)];
        let mut chunks = v.chunks_exact(4);
        for c in &mut chunks {
            for k in 0..4 {
                s[k] = (s[k] ^ bits(c[k])).wrapping_mul(M[k]).rotate_left(29);
            }
        }
        for (k, &e) in chunks.remainder().iter().enumerate() {
            s[k] = (s[k] ^ bits(e)).wrapping_mul(M[k]).rotate_left(29);
        }
        let hi = fmix(s[0] ^ fmix(s[1]));
        let lo = fmix(s[2] ^ fmix(s[3] ^ hi));
        (hi as u128) << 64 | lo as u128
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
    use crate::{Precision, Variant};
    use std::cell::RefCell;

    type Launch = (Program, Vec<ArgBinding>, MemoryPool, NDRange);

    thread_local! {
        /// Launches profiled on this thread while a test records them.
        static SEEN: RefCell<Option<Vec<Launch>>> = const { RefCell::new(None) };
    }

    pub(super) fn record(p: &Program, b: &[ArgBinding], pool: &MemoryPool, nd: NDRange) {
        SEEN.with(|s| {
            if let Some(v) = s.borrow_mut().as_mut() {
                v.push((p.clone(), b.to_vec(), pool.clone(), nd));
            }
        });
    }

    /// `run` equals `time` over `profile`, field for field, at both core
    /// counts, on every CPU launch of one cell per benchmark family.
    #[test]
    fn suite_launches_time_like_they_run() {
        let dev = crate::common::cpu();
        for b in crate::test_suite() {
            SEEN.with(|s| *s.borrow_mut() = Some(Vec::new()));
            b.run(Variant::Serial, Precision::F32).unwrap();
            let launches = SEEN.with(|s| s.borrow_mut().take()).unwrap();
            assert!(!launches.is_empty(), "{} launched nothing", b.name());
            for (p, bind, pool, nd) in launches {
                let mut profiled = pool.clone();
                let profile = dev.profile(&p, &bind, &mut profiled, nd).unwrap();
                for cores in 1..=2 {
                    let mut ran = pool.clone();
                    let report = dev.run(&p, &bind, &mut ran, nd, cores).unwrap();
                    assert_eq!(report, dev.time(&profile, cores), "{} x{cores}", b.name());
                    for i in 0..ran.len() {
                        assert_eq!(ran.get(i), profiled.get(i), "{} buffer {i}", b.name());
                    }
                }
            }
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
}
