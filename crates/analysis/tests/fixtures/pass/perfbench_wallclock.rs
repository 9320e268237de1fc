//! Good inside the host-time benchmark: perfbench measures the host on
//! purpose, so its wall-clock reads are in scope.

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
