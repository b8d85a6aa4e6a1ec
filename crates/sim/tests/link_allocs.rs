//! Regression test: a FAST link allocates a fixed number of arrays, one
//! string per input slot, one lane buffer per pool constant and one
//! compiled closure per step — never another allocation per step, nor
//! one per operand.
//!
//! A per-thread counting allocator wraps the system allocator, so each
//! test counts only the allocations its own thread makes.

use fpir::build;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::{Isa, RcExpr};
use fpir_isa::{legalize, target};
use fpir_sim::{emit, ExecConfig, Executable, Program};
use fpir_workloads::unrolled_workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations a FAST link makes beyond one per step, input slot and
/// pool constant: its fixed arrays, scratch tables and maps (and, in
/// debug builds, the verifier's audit of the result).
const FIXED: u64 = 64;

/// FAST-link `p`, returning the executable and the allocations made.
fn fast_link(p: &Program, isa: Isa) -> (Executable, u64) {
    let before = ALLOCS.with(Cell::get);
    let exe = Executable::link_with(p, target(isa), &ExecConfig::FAST).unwrap();
    (exe, ALLOCS.with(Cell::get) - before)
}

/// The allocations of a FAST link of `p` not accounted for by a step,
/// an input slot or a pool constant of the REFERENCE link (a folded
/// constant may add a pool entry, and folding removes an instruction).
fn overhead(p: &Program, isa: Isa) -> (u64, Executable) {
    let plain = Executable::link_with(p, target(isa), &ExecConfig::REFERENCE).unwrap();
    let (exe, n) = fast_link(p, isa);
    let folded = plain.op_count() - exe.step_count();
    let per_item = exe.step_count() + exe.inputs().len() + plain.const_count() + folded;
    (n.saturating_sub(per_item as u64), exe)
}

#[test]
fn unrolled_fast_links_allocate_per_pass_only() {
    let mut total = 0;
    let mut links = 0;
    for wl in unrolled_workloads() {
        for isa in fpir::machine::ALL_ISAS {
            let lowered = pitchfork::Pitchfork::new(isa).compile(&wl.pipeline.expr).unwrap();
            let p = emit(&lowered.lowered, target(isa)).unwrap();
            let (exe, n) = fast_link(&p, isa);
            let (extra, _) = overhead(&p, isa);
            let what = format!("{}/{isa}", wl.name());
            println!("{what}: {n} allocations, {} steps, {extra} beyond", exe.step_count());
            assert!(extra <= FIXED, "{what}: {extra} allocations beyond the per-step budget");
            total += n;
            links += 1;
        }
    }
    assert_eq!(links, 24);
    let mean = total as f64 / links as f64;
    println!("mean allocations per FAST link: {mean:.1}");
    assert!(mean <= 350.0, "mean {mean:.1} allocations per FAST link, budget 350");
}

/// `sum_k x_k * c_k` over `n` distinct inputs and 16 constants.
fn sum_of_products(n: usize) -> RcExpr {
    fn sum(terms: &[RcExpr]) -> RcExpr {
        match terms {
            [one] => one.clone(),
            _ => {
                let (l, r) = terms.split_at(terms.len() / 2);
                build::add(sum(l), sum(r))
            }
        }
    }
    let t = V::new(S::U16, 8);
    let terms: Vec<RcExpr> = (0..n)
        .map(|k| {
            build::mul(build::var(&format!("x{k}"), t), build::constant(k as i128 % 16 + 2, t))
        })
        .collect();
    sum(&terms)
}

/// Steps and operands grow 64-fold (by ~8,000 steps), and the
/// allocations beyond one per step, input and constant stay within the
/// same fixed budget: only a few scratch lists sized by register
/// pressure or group size may grow, by doubling.
#[test]
fn allocations_do_not_grow_per_step_or_operand() {
    for isa in fpir::machine::ALL_ISAS {
        let t = target(isa);
        let mut extras = Vec::new();
        for n in [64, 4096] {
            let p = emit(&legalize(&sum_of_products(n), t).unwrap(), t).unwrap();
            let (extra, exe) = overhead(&p, isa);
            assert!(exe.step_count() >= 2 * n - 1, "{isa}: {} steps", exe.step_count());
            assert!(extra <= FIXED, "{isa}, {n} terms: {extra} allocations beyond the budget");
            extras.push(extra);
        }
        println!("{isa}: {extras:?} allocations beyond the per-item budget at 64 and 4096 terms");
        assert!(extras[1] <= extras[0] + 12, "{isa}: {extras:?} grows with the program");
    }
}
