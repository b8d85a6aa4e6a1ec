//! Whole-image execution of compiled pipelines.
//!
//! [`run_tiled_exe`] runs a linked [`Executable`] over whole images: the
//! taps behind each input slot are parsed once, and the image rows are
//! split into chunks dealt out to workers on an [`fpir_pool::Pool`].
//! Every linked kernel is lane-wise, so a worker runs each row in
//! segments of up to [`RUN_LANES`] lanes, not in vectors of the
//! pipeline's declared width: per segment it gathers each input slot
//! once, at the samples' own width, and makes one run, and the last
//! segment of a row takes exactly the lanes that remain. It reuses one
//! execution context for every chunk it is dealt — steady-state segments
//! allocate nothing — and writes each chunk's rows in place into the one
//! output buffer, so the output is **bit-identical for any worker
//! count**. Its one oracle is the interpreter's image,
//! [`Pipeline::run_reference`]: the runner tests and the end-to-end
//! image tests compare every image against it.

use crate::image::Image;
use crate::pipeline::{parse_tap, Pipeline, PipelineError};
use fpir_isa::Lanes;
use fpir_pool::Pool;
use fpir_sim::{Executable, RUN_LANES};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One linked input slot, fully resolved: which image, at what offset.
struct SlotSource<'a> {
    img: &'a Image,
    dx: i64,
    dy: i64,
}

/// Fill `buf` with `lanes` samples of `row` starting at `start`, with
/// x-coordinates clamped to the row — the bulk interior is one slice
/// copy; only the clamped edges go lane by lane. Produces exactly what
/// `lanes` calls of [`Image::get_clamped`] would.
fn gather_row<T: Copy>(buf: &mut Vec<T>, row: &[T], start: i64, lanes: usize) {
    let iw = row.len() as i64;
    let end = start + lanes as i64;
    let left = (-start).clamp(0, lanes as i64) as usize;
    let in_lo = start.clamp(0, iw) as usize;
    let in_hi = end.clamp(0, iw) as usize;
    let right = lanes - left - (in_hi - in_lo);
    for _ in 0..left {
        buf.push(row[0]);
    }
    buf.extend_from_slice(&row[in_lo..in_hi]);
    for _ in 0..right {
        buf.push(row[iw as usize - 1]);
    }
}

/// [`gather_row`] from row `y` of `img`, at the samples' own width
/// (`buf` holds lanes of the image's type).
fn gather(buf: &mut Lanes, img: &Image, y: usize, start: i64, lanes: usize) {
    let row = img.width() * y..img.width() * (y + 1);
    macro_rules! gather {
        ($($v:ident),*) => {
            match (buf, img.lanes()) {
                $((Lanes::$v(b), Lanes::$v(d)) => gather_row(b, &d[row], start, lanes),)*
                (b, _) => unreachable!("{} lanes gathered from a {} image", b.elem(), img.elem()),
            }
        };
    }
    gather!(U8, I8, U16, I16, U32, I32, U64, I64)
}

/// Execute a linked pipeline over whole images, rows fanned out over
/// `jobs` workers.
///
/// Linking is pure per-program work, so a caller links once and runs
/// many images: a serving layer that caches one [`Executable`] per
/// compiled pipeline fans every request out over the shared artifact
/// (the executable is `Send + Sync`; each worker gets its own context)
/// without re-linking per request. Each worker owns one execution context
/// whose row file and lane buffers are recycled across every row segment
/// of its chunks, and writes its rows in place into the output image.
/// Rows are pure functions of the inputs, so the output is bit-identical
/// for any `jobs`, and equals [`Pipeline::run_reference`] on the
/// pipeline the executable was compiled from.
///
/// # Errors
///
/// Fails on missing or mistyped inputs, or execution errors.
pub fn run_tiled_exe(
    pipe: &Pipeline,
    exe: &Executable,
    inputs: &BTreeMap<String, Image>,
    jobs: usize,
) -> Result<Image, PipelineError> {
    let (w, h) = pipe.output_shape(inputs)?;

    // Resolve each input slot to (image, offset) once, for every segment.
    let mut sources: Vec<SlotSource<'_>> = Vec::with_capacity(exe.inputs().len());
    for slot in exe.inputs() {
        let t = parse_tap(&slot.name, slot.ty.elem)
            .ok_or_else(|| PipelineError { what: format!("`{}` is not a tap", slot.name) })?;
        let img = inputs
            .get(&t.buffer)
            .ok_or_else(|| PipelineError { what: format!("missing input `{}`", t.buffer) })?;
        if img.elem() != t.elem {
            return Err(PipelineError {
                what: format!("input `{}` is {}, pipeline reads {}", t.buffer, img.elem(), t.elem),
            });
        }
        sources.push(SlotSource { img, dx: t.dx as i64, dy: t.dy as i64 });
    }

    // One run per row segment of up to `RUN_LANES` lanes. An executable
    // without input slots has nothing to set the run width: it runs at
    // its linked width, the pipeline's.
    let seg = if exe.inputs().is_empty() { pipe.lanes() as usize } else { RUN_LANES };
    let out_elem = pipe.out_elem();

    // Several chunks per worker, dealt round-robin: chunk `c` goes to
    // worker `c % workers`. Each worker runs its chunks with one
    // execution context and writes their rows in place, so neither the
    // split nor the timing affects the output, or what a run allocates.
    let jobs = jobs.max(1);
    let n_chunks = (jobs * 4).min(h).max(1);
    let rows_per = h.div_ceil(n_chunks);
    let n_workers = jobs.min(n_chunks);
    let mut data = Lanes::new(out_elem);
    data.resize(w * h);
    let mut shares: Vec<Mutex<Vec<_>>> = (0..n_workers)
        .map(|_| Mutex::new(Vec::with_capacity(n_chunks.div_ceil(n_workers))))
        .collect();
    for (c, rows) in data.as_mut().into_chunks((rows_per * w).max(1)).enumerate() {
        shares[c % n_workers].get_mut().expect("no worker has run").push((c, rows));
    }
    let workers: Vec<usize> = (0..n_workers).collect();

    let results: Vec<Result<(), PipelineError>> = Pool::new(jobs).map(&workers, |&i| {
        let mut ctx = exe.new_ctx();
        let mut slots: Vec<Lanes> = Vec::with_capacity(sources.len());
        let share = std::mem::take(&mut *shares[i].lock().expect("each share is taken once"));
        for (c, rows) in share {
            for (dy, mut out_row) in rows.into_chunks(w).enumerate() {
                let y = c * rows_per + dy;
                for x0 in (0..w).step_by(seg) {
                    let n = seg.min(w - x0);
                    for (src, slot) in sources.iter().zip(exe.inputs()) {
                        let mut buf = ctx.take_lanes(slot.ty.elem);
                        let ry = (y as i64 + src.dy).clamp(0, src.img.height() as i64 - 1);
                        gather(&mut buf, src.img, ry as usize, x0 as i64 + src.dx, n);
                        slots.push(buf);
                    }
                    let v = exe
                        .run_lanes(&mut ctx, &slots)
                        .map_err(|e| PipelineError { what: e.to_string() })?;
                    if v.elem() != out_elem {
                        return Err(PipelineError {
                            what: format!(
                                "the program computes {}, pipeline writes {out_elem}",
                                v.elem()
                            ),
                        });
                    }
                    out_row.slice_mut(x0..x0 + n).copy_from(v.slice(0..n));
                    for s in slots.drain(..) {
                        ctx.recycle_lanes(s);
                    }
                }
            }
        }
        Ok(())
    });

    drop(shares);
    results.into_iter().collect::<Result<(), _>>()?;
    Ok(Image::from_lanes(w, h, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tap;
    use fpir::build;
    use fpir::types::ScalarType as S;
    use fpir::Isa;
    use fpir_isa::{legalize, target};
    use fpir_sim::{emit, ExecConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blur_pipeline(lanes: u32) -> Pipeline {
        let a = tap("in", -1, 0, S::U8, lanes);
        let b = tap("in", 0, 0, S::U8, lanes);
        Pipeline::new("blur", build::rounding_halving_add(a, b))
    }

    /// The pipeline legalized, emitted and linked FAST for `isa`.
    fn link(pipe: &Pipeline, isa: Isa) -> Executable {
        let t = target(isa);
        let p = emit(&legalize(&pipe.expr, t).unwrap(), t).unwrap();
        Executable::link_with(&p, t, &ExecConfig::FAST).unwrap()
    }

    fn one_input(img: Image) -> BTreeMap<String, Image> {
        BTreeMap::from([("in".to_string(), img)])
    }

    #[test]
    fn tiled_matches_reference_runner_and_interpreter() {
        let pipe = blur_pipeline(8);
        let mut rng = StdRng::seed_from_u64(7);
        let inputs = one_input(Image::random(&mut rng, S::U8, 37, 19));
        let want = pipe.run_reference(&inputs).unwrap();
        for isa in fpir::machine::ALL_ISAS {
            let got = run_tiled_exe(&pipe, &link(&pipe, isa), &inputs, 3).unwrap();
            assert_eq!(got, want, "{isa}");
        }
    }

    #[test]
    fn tiled_output_is_worker_count_invariant() {
        let pipe = blur_pipeline(16);
        let mut rng = StdRng::seed_from_u64(8);
        let inputs = one_input(Image::random(&mut rng, S::U8, 64, 33));
        let exe = link(&pipe, Isa::ArmNeon);
        let one = run_tiled_exe(&pipe, &exe, &inputs, 1).unwrap();
        assert_eq!(one, pipe.run_reference(&inputs).unwrap());
        for jobs in [2, 4, 7, 64] {
            assert_eq!(run_tiled_exe(&pipe, &exe, &inputs, jobs).unwrap(), one, "jobs={jobs}");
        }
    }

    #[test]
    fn prelinked_runner_matches_and_shares_across_threads() {
        // One linked executable served to several "request" threads by
        // reference — the cache's sharing pattern — each produces the
        // interpreter's image.
        let pipe = blur_pipeline(8);
        let mut rng = StdRng::seed_from_u64(11);
        let inputs = one_input(Image::random(&mut rng, S::U8, 41, 13));
        let exe = link(&pipe, Isa::ArmNeon);
        let want = pipe.run_reference(&inputs).unwrap();
        std::thread::scope(|s| {
            for jobs in [1, 2, 3] {
                let (exe, pipe, inputs, want) = (&exe, &pipe, &inputs, &want);
                s.spawn(move || {
                    assert_eq!(run_tiled_exe(pipe, exe, inputs, jobs).unwrap(), *want);
                });
            }
        });
    }

    #[test]
    fn row_segments_and_tails_match_the_reference_runner() {
        // One lane, one lane past a window, and a row of one full
        // segment plus a 52-lane tail, at one worker and at three.
        let pipe = blur_pipeline(16);
        let exe = link(&pipe, Isa::ArmNeon);
        let mut rng = StdRng::seed_from_u64(12);
        for w in [1, 129, RUN_LANES + 52] {
            let inputs = one_input(Image::random(&mut rng, S::U8, w, 5));
            let want = pipe.run_reference(&inputs).unwrap();
            for jobs in [1, 3] {
                let got = run_tiled_exe(&pipe, &exe, &inputs, jobs).unwrap();
                assert_eq!(got, want, "width {w}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn an_executable_without_input_slots_fills_the_image() {
        // Nothing sets the run width, so each run covers the linked
        // width and the row's last run is cut to the lanes that remain.
        let pipe = blur_pipeline(16);
        let t = target(Isa::ArmNeon);
        let seven = build::constant(7, fpir::types::VectorType::new(S::U8, 16));
        let p = emit(&legalize(&seven, t).unwrap(), t).unwrap();
        let exe = Executable::link_with(&p, t, &ExecConfig::FAST).unwrap();
        assert!(exe.inputs().is_empty());
        let inputs = one_input(Image::filled(S::U8, 37, 3, 0));
        for jobs in [1, 3] {
            let out = run_tiled_exe(&pipe, &exe, &inputs, jobs).unwrap();
            assert_eq!(out, Image::filled(S::U8, 37, 3, 7), "jobs {jobs}");
        }
    }

    #[test]
    fn missing_input_errors_in_both_runners() {
        let pipe = blur_pipeline(8);
        let exe = link(&pipe, Isa::X86Avx2);
        let empty = BTreeMap::new();
        assert!(pipe.run_reference(&empty).is_err());
        assert!(run_tiled_exe(&pipe, &exe, &empty, 2).is_err());
    }

    #[test]
    fn mistyped_input_errors_in_both_runners() {
        let pipe = blur_pipeline(8);
        let exe = link(&pipe, Isa::X86Avx2);
        let inputs = one_input(Image::filled(S::U16, 8, 8, 0));
        let r = pipe.run_reference(&inputs);
        let t = run_tiled_exe(&pipe, &exe, &inputs, 2);
        assert!(r.is_err() && t.is_err());
        assert_eq!(r.unwrap_err().what, t.unwrap_err().what);
    }

    #[test]
    fn image_smaller_than_a_vector_strip() {
        let pipe = blur_pipeline(16);
        let inputs = one_input(Image::from_rows(S::U8, &[vec![10, 200, 30]]));
        let fast = run_tiled_exe(&pipe, &link(&pipe, Isa::HexagonHvx), &inputs, 4).unwrap();
        assert_eq!(fast, pipe.run_reference(&inputs).unwrap());
    }
}
