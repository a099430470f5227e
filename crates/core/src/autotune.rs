//! End-to-end kernel autotuning: compose the §III transformation passes
//! (vectorization × unrolling) with the §III-A launch-parameter sweep into
//! a single empirical search.
//!
//! The paper closes §III by pointing at Phothilimthana et al.'s empirical
//! auto-tuning as the future answer to OpenCL's performance-portability
//! problem; this module is that idea scoped to the Mali model: enumerate
//! legal (vector width, unroll factor, work-group size) combinations,
//! transform the kernel for each, let the caller launch it on the
//! simulator, and keep the fastest — recording *why* each rejected
//! candidate fell out (pass refusals, `CL_OUT_OF_RESOURCES`, indivisible
//! sizes), because the diagnostics are how a user learns which §III
//! technique their kernel is missing.

use crate::unroll::{unroll, UnrollRefusal};
use crate::vectorize::{vectorize, VectorizeRefusal};
use kernel_ir::{Pass, Pipeline, Program};

/// The search space. Width/unroll value `1` means "leave the kernel as
/// written".
#[derive(Clone, Debug)]
pub struct SearchSpace {
    pub widths: Vec<u8>,
    pub unrolls: Vec<u32>,
    pub work_groups: Vec<usize>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            widths: vec![1, 2, 4, 8, 16],
            unrolls: vec![1, 2, 4],
            work_groups: vec![32, 64, 128, 256],
        }
    }
}

impl SearchSpace {
    pub fn len(&self) -> usize {
        self.widths.len() * self.unrolls.len() * self.work_groups.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One point of the search space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    pub width: u8,
    pub unroll: u32,
    pub work_group: usize,
}

/// Why a candidate never produced a measurement.
#[derive(Clone, Debug, PartialEq)]
pub enum CandidateSkip {
    Vectorize(VectorizeRefusal),
    Unroll(UnrollRefusal),
    /// The evaluation closure declined (launch failure, indivisible
    /// global size, `CL_OUT_OF_RESOURCES`, …).
    Launch,
}

impl std::fmt::Display for CandidateSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CandidateSkip::Vectorize(r) => write!(f, "vectorizer: {r}"),
            CandidateSkip::Unroll(r) => write!(f, "unroller: {r}"),
            CandidateSkip::Launch => f.write_str("launch failed or sizes indivisible"),
        }
    }
}

/// One evaluated (or skipped) search point.
#[derive(Clone, Debug)]
pub struct Trial {
    pub candidate: Candidate,
    pub outcome: Result<f64, CandidateSkip>,
}

/// The full search record.
#[derive(Clone, Debug)]
pub struct AutotuneResult {
    pub trials: Vec<Trial>,
    best: Option<usize>,
    /// The transformed program of the winning candidate.
    pub best_program: Option<Program>,
}

impl AutotuneResult {
    pub fn best(&self) -> Option<(&Candidate, f64)> {
        self.best.map(|i| {
            let t = &self.trials[i];
            (&t.candidate, *t.outcome.as_ref().unwrap())
        })
    }

    /// Speedup of the winner over the untransformed kernel at its best
    /// work-group size (None when either side is missing).
    pub fn gain_over_baseline(&self) -> Option<f64> {
        let (_, best) = self.best()?;
        let baseline = self
            .trials
            .iter()
            .filter(|t| t.candidate.width == 1 && t.candidate.unroll == 1)
            .filter_map(|t| t.outcome.as_ref().ok().copied())
            .fold(f64::INFINITY, f64::min);
        if baseline.is_finite() {
            Some(baseline / best)
        } else {
            None
        }
    }

    pub fn skipped(&self) -> usize {
        self.trials.iter().filter(|t| t.outcome.is_err()).count()
    }

    /// Distinct skip diagnostics, for reporting.
    pub fn skip_reasons(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .trials
            .iter()
            .filter_map(|t| t.outcome.as_ref().err().map(|e| e.to_string()))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Transform `base` for one candidate. Width 1 / unroll 1 are identities.
/// Returns the transformed program plus the factor by which the *global
/// size* must shrink (the vectorizer's `global_divisor`).
pub fn transform(base: &Program, c: Candidate) -> Result<(Program, usize), CandidateSkip> {
    let (mut p, divisor) = if c.width > 1 {
        let v = vectorize(base, c.width).map_err(CandidateSkip::Vectorize)?;
        (v.program, v.global_divisor)
    } else {
        (base.clone(), 1)
    };
    if c.unroll > 1 {
        p = unroll(&p, c.unroll).map_err(CandidateSkip::Unroll)?;
    }
    // Clean up what the transformations exposed (folded immediates, dead
    // index chains) before the candidate is costed.
    let cleanup = Pipeline::of(&[Pass::ConstFold, Pass::Dce]);
    Ok((cleanup.run(&p), divisor))
}

/// Run the search. The evaluation closure receives the transformed
/// program, the global-size divisor, and the candidate work-group size; it
/// returns the measured cost in seconds, or `None` when the launch is
/// impossible (the tuner records a `Launch` skip and moves on — this is
/// how `CL_OUT_OF_RESOURCES` fallbacks happen automatically).
pub fn autotune(
    base: &Program,
    space: &SearchSpace,
    mut eval: impl FnMut(&Program, usize, usize) -> Option<f64>,
) -> AutotuneResult {
    let mut trials: Vec<Trial> = Vec::with_capacity(space.len());
    let mut best: Option<usize> = None;
    let mut best_program = None;
    for &width in &space.widths {
        for &unroll_f in &space.unrolls {
            let candidate_base = transform(
                base,
                Candidate {
                    width,
                    unroll: unroll_f,
                    work_group: 0,
                },
            );
            for &wg in &space.work_groups {
                let candidate = Candidate {
                    width,
                    unroll: unroll_f,
                    work_group: wg,
                };
                let outcome = match &candidate_base {
                    Err(skip) => Err(skip.clone()),
                    Ok((p, divisor)) => match eval(p, *divisor, wg) {
                        Some(cost) => Ok(cost),
                        None => Err(CandidateSkip::Launch),
                    },
                };
                if let Ok(cost) = outcome {
                    let better = match best {
                        None => true,
                        Some(i) => cost < *trials[i].outcome.as_ref().unwrap(),
                    };
                    if better {
                        best = Some(trials.len());
                        best_program = candidate_base.as_ref().ok().map(|(p, _)| p.clone());
                    }
                }
                trials.push(Trial { candidate, outcome });
            }
        }
    }
    AutotuneResult {
        trials,
        best,
        best_program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::prelude::*;
    use kernel_ir::Access;

    fn map_kernel() -> Program {
        let mut kb = KernelBuilder::new("map");
        let a = kb.arg_global(Scalar::F32, Access::ReadOnly, true);
        let o = kb.arg_global(Scalar::F32, Access::WriteOnly, true);
        let gid = kb.query_global_id(0);
        let v = kb.load(Scalar::F32, a, gid.into());
        let r = kb.mad(
            v.into(),
            v.into(),
            Operand::ImmF(1.0),
            VType::scalar(Scalar::F32),
        );
        kb.store(o, gid.into(), r.into());
        kb.finish()
    }

    /// Synthetic cost model: wider is better until 8, wg 128 is best,
    /// unrolling impossible (no loop).
    fn fake_eval(p: &Program, divisor: usize, wg: usize) -> Option<f64> {
        let _ = p;
        if wg > 128 {
            return None; // pretend OUT_OF_RESOURCES
        }
        let w = divisor.clamp(1, 8) as f64;
        Some(1.0 / w + (wg as f64 - 128.0).abs() * 1e-4)
    }

    #[test]
    fn finds_the_synthetic_optimum() {
        let r = autotune(&map_kernel(), &SearchSpace::default(), fake_eval);
        let (c, cost) = r.best().expect("something ran");
        assert_eq!(c.work_group, 128);
        assert!(
            c.width >= 8,
            "width {} should saturate the fake model",
            c.width
        );
        assert!(cost <= 0.126);
        assert!(r.best_program.is_some());
        // unroll candidates were skipped (no loop) and recorded as such.
        assert!(r
            .skip_reasons()
            .iter()
            .any(|s| s.contains("no top-level loop")));
        // wg 256 candidates were rejected by the launcher.
        assert!(r.trials.iter().any(|t| {
            t.candidate.work_group == 256 && matches!(t.outcome, Err(CandidateSkip::Launch))
        }));
    }

    #[test]
    fn gain_over_baseline_compares_scalar() {
        let r = autotune(&map_kernel(), &SearchSpace::default(), fake_eval);
        let g = r.gain_over_baseline().unwrap();
        assert!(g > 5.0, "fake model gives ~8x for width 8, got {g:.2}");
    }

    #[test]
    fn unvectorizable_kernel_only_runs_scalar() {
        // hist-like kernel with an atomic: every width>1 candidate skips.
        let mut kb = KernelBuilder::new("atomic");
        let h = kb.arg_global(Scalar::U32, Access::ReadWrite, false);
        let gid = kb.query_global_id(0);
        kb.atomic(AtomicOp::Inc, h, gid.into(), Operand::ImmI(0));
        let p = kb.finish();
        let r = autotune(&p, &SearchSpace::default(), |_, _, wg| Some(wg as f64));
        let (c, _) = r.best().unwrap();
        assert_eq!(c.width, 1);
        assert!(r.skip_reasons().iter().any(|s| s.contains("atomic")));
    }

    #[test]
    fn all_failures_yield_no_best() {
        let r = autotune(&map_kernel(), &SearchSpace::default(), |_, _, _| None);
        assert!(r.best().is_none());
        assert!(r.best_program.is_none());
        assert_eq!(r.skipped(), r.trials.len());
        assert!(r.gain_over_baseline().is_none());
    }

    #[test]
    fn space_len() {
        assert_eq!(SearchSpace::default().len(), 5 * 3 * 4);
        assert!(!SearchSpace::default().is_empty());
    }
}
