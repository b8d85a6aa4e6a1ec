//! End-to-end image tests: the full path from pipeline DSL through
//! instruction selection, program emission and execution must produce
//! images identical to the FPIR interpreter, pixel for pixel. Every
//! figure, extra and unrolled workload is compiled for every ISA by every
//! selector (LLVM-like baseline, Rake where it has a backend, Pitchfork
//! with the figures' leave-one-out rules and with the full rule set the
//! service serves) and run on both link shapes through the tiled runner:
//! the plain linked executable, and the fused executable that
//! `compile_to_executable` ships, at one worker and at several. Both link
//! shapes also pass the static artifact verifier, which a release `link`
//! skips.

use fpir::machine::ALL_ISAS;
use fpir::Isa;
use fpir_bench::{rake_supports, run, Compiler};
use fpir_halide::runner::run_tiled_exe;
use fpir_halide::{Image, Pipeline};
use fpir_isa::target;
use fpir_sim::{verify_executable, ExecConfig, Executable};
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads, workload, Workload};
use pitchfork::{compile_to_executable, Pitchfork};
use std::collections::BTreeMap;

/// Compile a pipeline to the artifact `compile_to_executable` ships and
/// run it over images through the tiled runner.
fn run_compiled(pipeline: &Pipeline, inputs: &BTreeMap<String, Image>, isa: Isa) -> Image {
    let art = compile_to_executable(&Pitchfork::new(isa), &pipeline.expr)
        .unwrap_or_else(|e| panic!("{}: {e}", pipeline.name));
    run_tiled_exe(pipeline, &art.exe, inputs, 1).expect("runs")
}

/// The image gate for one workload: on every ISA × selector, the fused
/// artifact and the plain link of its program verify statically, and the
/// plain link at one worker and the fused artifact at one and three
/// workers all equal the interpreter's image, on
/// 256×4 images and on 300×3 ones, whose rows are not a whole number of
/// the pipeline's vectors.
fn check_workload(wl: &Workload, seed: u64) {
    for (w, h) in [(256, 4), (300, 3)] {
        check_images(wl, &wl.random_inputs(w, h, seed), &format!("{w}x{h}"));
    }
}

fn check_images(wl: &Workload, inputs: &BTreeMap<String, Image>, size: &str) {
    let reference =
        wl.pipeline.run_reference(inputs).unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
    for isa in ALL_ISAS {
        let tgt = target(isa);
        for compiler in
            [Compiler::Llvm, Compiler::Rake, Compiler::Pitchfork, Compiler::PitchforkFull]
        {
            if compiler == Compiler::Rake && !rake_supports(isa) {
                continue;
            }
            let row = format!("{}/{isa}/{compiler} {size}", wl.name());
            let art = run(wl, isa, &compiler).unwrap_or_else(|e| panic!("{row}: {e}")).artifact;
            let linked = Executable::link_with(&art.program, tgt, &ExecConfig::REFERENCE)
                .unwrap_or_else(|e| panic!("{row}: {e}"));
            for (shape, exe) in [("fused", &art.exe), ("linked", &linked)] {
                verify_executable(exe).unwrap_or_else(|e| panic!("{row} {shape}: {e}"));
            }
            let images = [
                ("linked(1)", run_tiled_exe(&wl.pipeline, &linked, inputs, 1)),
                ("fused(1)", run_tiled_exe(&wl.pipeline, &art.exe, inputs, 1)),
                ("fused(3)", run_tiled_exe(&wl.pipeline, &art.exe, inputs, 3)),
            ];
            for (engine, image) in images {
                let image = image.unwrap_or_else(|e| panic!("{row} {engine}: {e}"));
                assert_eq!(image, reference, "{row}: {engine} diverged from the interpreter");
            }
        }
    }
}

#[test]
fn sobel_matches_pixel_for_pixel() {
    check_workload(&workload("sobel3x3").expect("known"), 1);
}

#[test]
fn camera_pipe_matches_pixel_for_pixel() {
    check_workload(&workload("camera_pipe").expect("known"), 2);
}

#[test]
fn average_pool_matches_pixel_for_pixel() {
    check_workload(&workload("average_pool").expect("known"), 3);
}

#[test]
fn gaussian3x3_matches_pixel_for_pixel() {
    check_workload(&workload("gaussian3x3").expect("known"), 4);
}

#[test]
fn softmax_matches_pixel_for_pixel() {
    check_workload(&workload("softmax").expect("known"), 5);
}

#[test]
fn blur_extra_workload_matches_pixel_for_pixel() {
    check_workload(&workload("blur3x3").expect("known"), 6);
}

/// The rest of the matrix: every workload the tests above do not name.
#[test]
fn every_other_workload_matches_pixel_for_pixel() {
    let named = ["sobel3x3", "camera_pipe", "average_pool", "gaussian3x3", "softmax", "blur3x3"];
    let rest = all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads());
    for (seed, wl) in (7..).zip(rest.filter(|wl| !named.contains(&wl.name()))) {
        check_workload(&wl, seed);
    }
}

#[test]
fn compiled_kernels_are_deterministic() {
    // Compiling twice yields the same program (rule application is
    // deterministic), and running twice yields the same image.
    let wl = workload("sobel3x3").expect("known");
    let inputs = wl.random_inputs(256, 3, 7);
    let a = run_compiled(&wl.pipeline, &inputs, Isa::ArmNeon);
    let b = run_compiled(&wl.pipeline, &inputs, Isa::ArmNeon);
    assert_eq!(a, b);
}
