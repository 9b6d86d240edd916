//! The end-to-end run.

fn main() {
    wallbench::run(false)
}
