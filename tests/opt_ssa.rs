//! Differential oracle and op gates for the SSA optimizer
//! (`kernel_ir::opt`).
//!
//! The optimizer's headline invariant: **every** optimized program must
//! produce byte-identical results to the unoptimized one, under both
//! execution engines and any worker count. This suite pins it the blunt
//! way — run every suite kernel's GPU variant unoptimized, then under
//! each single pass, then under several full orderings, on both engines,
//! and compare the per-cell output digests (FNV-1a over every validated
//! output element's bit pattern, captured by the harness runner).
//!
//! It also pins the payoff and its floor. The canonical full pipeline
//! must strictly reduce *executed* instructions (`Counters::total_ops`,
//! the dynamic count the device models meter) on at least one suite
//! kernel, with the optimizer's own rewrite counters corroborating that
//! passes actually fired. And no pass may make a kernel execute more:
//! lowering out of SSA coalesces phi copies, so a pipeline that rewrites
//! nothing reproduces the input's op count exactly, statically and
//! executed.

use harness::{run_one, CellEntry, SuiteConfig};
use hpc_kernels::{Precision, Variant};
use kernel_ir::opt::{Pass, Pipeline};
use kernel_ir::{Engine, Hints, Program};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The pass counters are process-wide and the gates below read them per
/// cell, so tests in this binary that run the optimizer take turns.
static OPTIMIZER: Mutex<()> = Mutex::new(());

fn optimizer_turn() -> std::sync::MutexGuard<'static, ()> {
    OPTIMIZER.lock().unwrap_or_else(|e| e.into_inner())
}

/// (digest, executed ops) for every suite kernel at OpenCL-Opt/single
/// under one (pipeline, engine) configuration.
fn sweep(passes: Option<&Pipeline>, engine: Engine) -> BTreeMap<String, (u64, u64)> {
    kernel_ir::set_engine(engine);
    let benches = hpc_kernels::test_suite();
    let cfg = SuiteConfig {
        passes: passes.cloned(),
        ..SuiteConfig::default()
    };
    let mut out = BTreeMap::new();
    for (bi, b) in benches.iter().enumerate() {
        match run_one(b.as_ref(), bi, Variant::OpenClOpt, Precision::F32, &cfg) {
            CellEntry::Ok(c) => {
                out.insert(
                    b.name().to_string(),
                    (c.output_digest, c.counters.total_ops()),
                );
            }
            CellEntry::Skipped(_) => {}
            CellEntry::Failed(e) => panic!(
                "{} failed under pipeline '{}' on {:?}: {}",
                b.name(),
                passes.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                engine,
                e.message
            ),
        }
    }
    assert!(!out.is_empty(), "no suite kernels ran");
    out
}

#[test]
fn every_pass_and_ordering_preserves_every_kernel_on_both_engines() {
    let _turn = optimizer_turn();
    let configured = kernel_ir::engine();

    // Unoptimized ground truth, already engine-independent.
    let base = sweep(None, Engine::Scalar);
    assert_eq!(
        base,
        sweep(None, Engine::Columnar),
        "engines disagree before any optimization — not an optimizer bug"
    );

    // Every single pass in isolation, the canonical full ordering, the
    // reversed ordering, and a pathological repeated one: all must be
    // output-preserving, kernel by kernel, on both engines.
    let mut pipelines: Vec<Pipeline> = Pass::ALL.iter().map(|p| Pipeline::of(&[*p])).collect();
    pipelines.push(Pipeline::full());
    pipelines.push(Pipeline::parse("dce,dse,licm,cse,sr,alg,cf").unwrap());
    pipelines.push(Pipeline::parse("cf,cf,cse,cse,dce,dce").unwrap());

    let mut full_ops: Option<BTreeMap<String, (u64, u64)>> = None;
    for pl in &pipelines {
        for engine in [Engine::Scalar, Engine::Columnar] {
            let got = sweep(Some(pl), engine);
            assert_eq!(
                base.keys().collect::<Vec<_>>(),
                got.keys().collect::<Vec<_>>(),
                "kernel set changed under '{pl}' on {engine:?}"
            );
            for (bench, (base_digest, _)) in &base {
                let (digest, _) = got[bench];
                assert_eq!(
                    *base_digest, digest,
                    "pipeline '{pl}' on {engine:?} changed the output of {bench}"
                );
            }
            if pl == &Pipeline::full() && engine == Engine::Columnar {
                full_ops = Some(got);
            }
        }
    }

    // The payoff: under the full pipeline at least one kernel executes
    // strictly fewer instructions, and the suite as a whole executes fewer.
    let full_ops = full_ops.expect("full pipeline ran");
    let improved: Vec<String> = base
        .iter()
        .filter(|(bench, (_, base_ops))| full_ops[*bench].1 < *base_ops)
        .map(|(bench, (_, base_ops))| format!("{bench}: {base_ops} -> {}", full_ops[bench].1))
        .collect();
    assert!(
        !improved.is_empty(),
        "no kernel executed fewer instructions under the full pipeline"
    );
    let base_total: u64 = base.values().map(|(_, ops)| ops).sum();
    let full_total: u64 = full_ops.values().map(|(_, ops)| ops).sum();
    assert!(
        full_total < base_total,
        "the full pipeline did not shrink the suite: {base_total} -> {full_total} executed ops"
    );

    kernel_ir::set_engine(configured);
}

#[test]
fn pass_counters_corroborate_the_reduction() {
    let _turn = optimizer_turn();
    let configured = kernel_ir::engine();
    kernel_ir::set_engine(Engine::Columnar);
    let before = kernel_ir::opt::stats();
    let _ = sweep(Some(&Pipeline::full()), Engine::Columnar);
    let after = kernel_ir::opt::stats();
    assert!(
        after.programs > before.programs,
        "no programs went through the optimizer"
    );
    assert!(
        after.total_rewrites() > before.total_rewrites(),
        "optimizer ran but no pass rewrote anything"
    );
    kernel_ir::set_engine(configured);
}

/// Pipelines the op gates hold to: every single pass, the `cf,dce`
/// cleanup `mali_hpc::autotune` runs on each candidate, and the orderings
/// `harness autotune --smoke` tries.
fn gated_pipelines() -> Vec<Pipeline> {
    let mut out: Vec<Pipeline> = Pass::ALL.iter().map(|p| Pipeline::of(&[*p])).collect();
    for s in [
        "cf,dce",
        "cf,alg,sr,cse,licm,dse,dce",
        "dse,cse,cf,sr,licm,dce,alg",
        "cf,cse,dse,alg,sr,licm,dce",
    ] {
        out.push(Pipeline::parse(s).unwrap());
    }
    out
}

#[test]
fn no_pipeline_executes_more_ops_than_the_unoptimized_grid() {
    let _turn = optimizer_turn();
    let benches = hpc_kernels::test_suite();
    let cells = || {
        benches.iter().enumerate().flat_map(|(bi, b)| {
            Precision::ALL
                .into_iter()
                .flat_map(move |prec| Variant::ALL.into_iter().map(move |v| (bi, b, v, prec)))
        })
    };
    let run = |bi: usize, b: &dyn hpc_kernels::Benchmark, v, prec, passes: Option<&Pipeline>| {
        let cfg = SuiteConfig {
            passes: passes.cloned(),
            ..SuiteConfig::default()
        };
        match run_one(b, bi, v, prec, &cfg) {
            CellEntry::Ok(c) => Some((c.output_digest, c.counters.total_ops())),
            CellEntry::Skipped(_) => None,
            CellEntry::Failed(e) => panic!("{} {v:?} {prec:?} failed: {}", b.name(), e.message),
        }
    };
    let mut base = BTreeMap::new();
    for (bi, b, v, prec) in cells() {
        if let Some(got) = run(bi, b.as_ref(), v, prec, None) {
            base.insert((bi, v.label(), prec.label()), got);
        }
    }
    assert_eq!(base.len(), 70, "the test-scale grid has 70 ok cells");

    let mut rises = Vec::new();
    for pl in gated_pipelines() {
        for (bi, b, v, prec) in cells() {
            let Some(&(digest, ops)) = base.get(&(bi, v.label(), prec.label())) else {
                continue;
            };
            kernel_ir::opt::take_stats();
            let (got_digest, got_ops) =
                run(bi, b.as_ref(), v, prec, Some(&pl)).expect("an ok cell stays ok");
            let rewrites = kernel_ir::opt::take_stats().total_rewrites();
            let cell = format!("'{pl}' {} {} {}", b.name(), v.label(), prec.label());
            assert_eq!(got_digest, digest, "{cell} changed the output");
            if got_ops > ops || (rewrites == 0 && got_ops != ops) {
                rises.push(format!(
                    "{cell}: {ops} -> {got_ops} ops, {rewrites} rewrites"
                ));
            }
        }
    }
    assert!(
        rises.is_empty(),
        "{} cells execute more ops than unoptimized (or differ with no rewrite):\n{}",
        rises.len(),
        rises.join("\n")
    );
}

/// Every suite kernel builder, naive and Opt, in one precision.
fn builders(prec: Precision) -> Vec<(String, Program)> {
    use hpc_kernels::*;
    let (amcd, conv, dmmm) = (
        amcd::Amcd::test_size(),
        conv2d::Conv2d::test_size(),
        dmmm::Dmmm::test_size(),
    );
    let (hist, nbody, red) = (
        hist::Hist::test_size(),
        nbody::Nbody::test_size(),
        red::Red::test_size(),
    );
    let (spmv, stc, vecop) = (
        spmv::Spmv::test_size(),
        stencil3d::Stencil3d::test_size(),
        vecop::Vecop::test_size(),
    );
    let opt_hints = Hints {
        inline: true,
        const_args: true,
    };
    vec![
        ("amcd", amcd.kernel(prec, Hints::default())),
        ("amcd_opt", amcd.kernel(prec, opt_hints)),
        ("2dcon", conv.kernel(prec)),
        ("2dcon_opt", conv.opt_kernel(prec, 4)),
        ("dmmm", dmmm.kernel(prec)),
        ("dmmm_opt", dmmm.opt_kernel(prec, dmmm.opt_width)),
        ("hist", hist.kernel(prec)),
        ("hist_opt", hist.opt_kernel(prec)),
        ("nbody", nbody.kernel(prec, Hints::default())),
        ("nbody_opt", nbody.opt_kernel(prec)),
        ("red", red.stage1(prec)),
        ("red_opt", red.stage1_opt(prec)),
        ("red_stage2", red.stage2(prec, red.naive_groups)),
        ("spmv", spmv.kernel(prec, Hints::default())),
        ("spmv_opt", spmv.kernel(prec, opt_hints)),
        ("3dstc", stc.kernel(prec)),
        ("3dstc_opt", stc.opt_kernel(prec)),
        ("vecop", vecop.kernel(prec)),
        ("vecop_opt", vecop.opt_kernel(prec).0),
    ]
    .into_iter()
    .map(|(name, p)| (format!("{name}/{}", prec.label()), p))
    .collect()
}

/// Static op count, nested bodies included.
fn ops(p: &Program) -> usize {
    let mut n = 0;
    for op in &p.body {
        op.visit(&mut |_| n += 1);
    }
    n
}

#[test]
fn lowering_adds_no_op_to_any_builder_unroll_or_vectorize_program() {
    let _turn = optimizer_turn();
    let mut programs = Vec::new();
    for prec in Precision::ALL {
        for (name, p) in builders(prec) {
            for f in [2, 4] {
                if let Ok(u) = mali_hpc::unroll(&p, f) {
                    programs.push((format!("{name} unroll x{f}"), u));
                }
            }
            if let Ok(v) = mali_hpc::vectorize(&p, 4) {
                programs.push((format!("{name} vectorize x4"), v.program));
            }
            programs.push((name, p));
        }
    }
    assert!(programs.len() >= 68, "only {} programs", programs.len());

    let cf_dce = Pipeline::parse("cf,dce").unwrap();
    let mut grew = Vec::new();
    for (name, p) in &programs {
        let before = ops(p);
        for pl in Pass::ALL
            .iter()
            .map(|x| Pipeline::of(&[*x]))
            .chain([cf_dce.clone()])
        {
            let after = ops(&pl.run(p));
            if after > before {
                grew.push(format!("{name} under '{pl}': {before} -> {after} ops"));
            }
        }
    }
    assert!(
        grew.is_empty(),
        "{} of {} (program, pipeline) pairs grew:\n{}",
        grew.len(),
        programs.len() * (Pass::ALL.len() + 1),
        grew.join("\n")
    );
}
