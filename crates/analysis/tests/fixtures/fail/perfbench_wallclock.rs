//! Bad outside the host-time benchmark: the same wall-clock read in a
//! simulation crate leaks host time into the run.

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
