//! Regression test: a tiled run allocates its output image once and one
//! execution context per worker, so neither its allocations nor their
//! bytes beyond the output grow with the image's height.
//!
//! A counting allocator wraps the system allocator. It counts every
//! thread, so this binary holds one test: nothing else allocates while a
//! run is counted.

use fpir::build;
use fpir::types::ScalarType as S;
use fpir::Isa;
use fpir_halide::{run_tiled_exe, tap, Image, Pipeline};
use fpir_isa::{legalize, target};
use fpir_sim::{emit, ExecConfig, Executable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn tiled_run_allocations_do_not_grow_with_height() {
    let (a, b) = (tap("in", -1, 0, S::U8, 16), tap("in", 0, 0, S::U8, 16));
    let pipe = Pipeline::new("blur", build::rounding_halving_add(a, b));
    let t = target(Isa::ArmNeon);
    let program = emit(&legalize(&pipe.expr, t).unwrap(), t).unwrap();
    let exe = Executable::link_with(&program, t, &ExecConfig::FAST).unwrap();
    let width = 512;
    let mut rng = StdRng::seed_from_u64(5);
    for jobs in [1, 2] {
        let mut counts = Vec::new();
        for height in [32, 256] {
            let mut inputs = BTreeMap::new();
            inputs.insert("in".to_string(), Image::random(&mut rng, S::U8, width, height));
            let (n0, b0) = (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            let out = run_tiled_exe(&pipe, &exe, &inputs, jobs).unwrap();
            let n = ALLOCS.load(Ordering::Relaxed) - n0;
            let bytes = BYTES.load(Ordering::Relaxed) - b0;
            // The output's samples, each at its own width.
            let output = (width * height * out.elem().bits() as usize / 8) as u64;
            assert_eq!(out.height(), height);
            println!("jobs {jobs}, height {height}: {n} allocations, {bytes} bytes");
            counts.push((n, bytes - output));
        }
        assert_eq!(counts[0], counts[1], "jobs {jobs}: (allocations, bytes beyond the output)");
    }
}
