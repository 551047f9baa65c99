//! Warm `fork_join` calls reuse the process-wide kernel pool instead of
//! spawning threads. This test has a binary of its own so no concurrently
//! running test starts or stops threads while it counts them.

#![cfg(target_os = "linux")]

use mem_joins::parallel::fork_join;

fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .expect("/proc/self/status has a Threads: line")
}

#[test]
fn warm_forks_spawn_no_threads() {
    // The first fork starts the pool; every later one must reuse it.
    assert_eq!(fork_join(4, |i| i), vec![0, 1, 2, 3]);
    let before = live_threads();
    for round in 0..200 {
        assert_eq!(fork_join(4, |i| i + round).len(), 4);
    }
    assert_eq!(
        live_threads(),
        before,
        "200 warm forks changed the thread count"
    );
}
