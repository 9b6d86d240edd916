//! The traced run: per-layer metrics and spans. Only this binary installs
//! the tracking allocator, so allocation counting never slows the
//! end-to-end run.

#[global_allocator]
static ALLOC: harmony::cluster::mem::TrackingAllocator = harmony::cluster::mem::TrackingAllocator;

fn main() {
    wallbench::run(true)
}
