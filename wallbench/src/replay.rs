//! Replays: one layer's public function driven in isolation with the
//! running workload's shapes, for per-layer costs that the engine's own
//! counters do not expose. Each returns a median over many repetitions.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::Bytes;
use harmony::cluster::transport::build_transport;
use harmony::cluster::{Frame, TransportKind, Wire, CLIENT};
use harmony::core::messages::{QueryChunk, ToWorker};
use harmony::index::distance::{l2_sq, l2_sq_u8};
use harmony::index::kmeans::nearest_centroids;
use harmony::index::persist::{load_block_file, save_block_file};
use harmony::index::VectorStore;

use crate::host::median;

/// Deterministic filler values in `[-1, 1)`.
fn filler(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            ((i as u32).wrapping_mul(2_654_435_761) ^ salt) as f32 / u32::MAX as f32 * 2.0 - 1.0
        })
        .collect()
}

/// Nanoseconds per dimension of the dispatched f32 L2 kernel at `width`.
pub fn f32_ns_per_dim(width: usize) -> f64 {
    let rows = 256;
    let q = filler(width, 1);
    let m = filler(width * rows, 2);
    kernel_ns_per_dim(width, rows, |r| {
        black_box(l2_sq(black_box(&q), &m[r * width..(r + 1) * width]));
    })
}

/// Nanoseconds per dimension of the dispatched u8 L2 kernel (SQ8
/// stage-1) at `width`.
pub fn u8_ns_per_dim(width: usize) -> f64 {
    let rows = 256;
    let q: Vec<u8> = filler(width, 3)
        .iter()
        .map(|x| ((x + 1.0) * 127.0) as u8)
        .collect();
    let m: Vec<u8> = filler(width * rows, 4)
        .iter()
        .map(|x| ((x + 1.0) * 127.0) as u8)
        .collect();
    kernel_ns_per_dim(width, rows, |r| {
        black_box(l2_sq_u8(black_box(&q), &m[r * width..(r + 1) * width]));
    })
}

fn kernel_ns_per_dim(width: usize, rows: usize, mut score: impl FnMut(usize)) -> f64 {
    let reps = (2_000_000 / (width * rows)).max(1);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                for r in 0..rows {
                    score(r);
                }
            }
            t0.elapsed().as_nanos() as f64 / (reps * rows * width) as f64
        })
        .collect();
    median(&samples)
}

/// A chunk with this workload's shape: `width` query coordinates for one
/// dimension block, `nprobe` clusters, a two-machine itinerary.
pub fn sample_chunk(width: usize, nprobe: usize) -> ToWorker {
    ToWorker::Chunk(QueryChunk {
        ns: 0,
        query_id: 12_345,
        epoch: 1,
        shard: 0,
        k: 10,
        threshold: f32::INFINITY,
        clusters: (0..nprobe as u32).map(|c| c * 7).collect(),
        dims: filler(width, 5),
        q_total_norm_sq: 0.0,
        order: vec![0, 1],
        position: 0,
        delta_seq: 99,
    })
}

/// Median `(encode_ns, decode_ns)` of one chunk through the wire codec.
pub fn codec_ns(chunk: &ToWorker) -> (f64, f64) {
    let reps = 2_000;
    let mut enc = Vec::with_capacity(reps);
    let mut dec = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let bytes = black_box(chunk.to_bytes());
        enc.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let back = ToWorker::from_bytes(bytes).expect("a chunk the codec encoded decodes");
        black_box(back);
        dec.push(t0.elapsed().as_nanos() as f64);
    }
    (median(&enc), median(&dec))
}

/// Median microseconds for a chunk-sized frame to go client → worker →
/// client through a fresh transport of the workload's kind.
pub fn transport_roundtrip_us(kind: &TransportKind, payload: Bytes) -> Result<f64, String> {
    let t = build_transport(kind, 1).map_err(|e| format!("transport: {e}"))?;
    let wait = Duration::from_secs(5);
    let frame = |from| Frame::User {
        from,
        payload: payload.clone(),
        injected_delay_ns: 0,
    };
    let mut samples = Vec::with_capacity(500);
    let mut result = Ok(());
    for i in 0..520 {
        let t0 = Instant::now();
        let hop = t
            .send(0, frame(CLIENT))
            .and_then(|_| t.recv(0, wait))
            .and_then(|_| t.send(CLIENT, frame(0)))
            .and_then(|_| t.recv(CLIENT, wait));
        if let Err(e) = hop {
            result = Err(format!("transport round trip: {e}"));
            break;
        }
        // The first frames pay for connection set-up.
        if i >= 20 {
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    t.shutdown();
    result.map(|_| median(&samples))
}

/// Median microseconds of the client's centroid scan per query.
pub fn centroid_scan_us(queries: &[&[f32]], centroids: &VectorStore, nprobe: usize) -> f64 {
    let samples: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            black_box(nearest_centroids(black_box(q), centroids, nprobe));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Median microseconds per MiB to read back a block file of `bytes`
/// bytes written under `dir`.
pub fn persist_read_us_per_mb(dir: &Path, bytes: usize) -> Result<f64, String> {
    let path = dir.join("replay-block.bin");
    let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    save_block_file(&path, &payload).map_err(|e| format!("persist write: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        let back = load_block_file(&path).map_err(|e| format!("persist read: {e}"))?;
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if back.len() != bytes {
            return Err("persist read returned a different length".into());
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(median(&samples) / (bytes as f64 / (1 << 20) as f64))
}
