use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{global, split_evenly, CountLatch, ThreadPool};

#[test]
fn split_evenly_covers_range_without_overlap() {
    let chunks = split_evenly(3..17, 4);
    assert_eq!(chunks.len(), 4);
    assert_eq!(chunks[0].start, 3);
    assert_eq!(chunks.last().unwrap().end, 17);
    for pair in chunks.windows(2) {
        assert_eq!(pair[0].end, pair[1].start);
    }
    let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
    assert_eq!(sizes.iter().sum::<usize>(), 14);
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
}

#[test]
fn split_evenly_empty_and_degenerate() {
    assert!(split_evenly(5..5, 4).is_empty());
    assert!(split_evenly(0..10, 0).is_empty());
    let chunks = split_evenly(0..3, 10);
    assert_eq!(chunks.len(), 3, "never more chunks than elements");
}

#[test]
fn latch_releases_after_exact_count() {
    let latch = CountLatch::new(3);
    assert!(!latch.is_released());
    latch.count_down();
    latch.count_down();
    assert!(!latch.is_released());
    latch.count_down();
    assert!(latch.is_released());
    latch.wait(); // must not block
}

#[test]
#[should_panic(expected = "over-released")]
fn latch_over_release_panics() {
    let latch = CountLatch::new(1);
    latch.count_down();
    latch.count_down();
}

#[test]
fn latch_wait_blocks_until_other_thread_releases() {
    let latch = Arc::new(CountLatch::new(1));
    let l2 = Arc::clone(&latch);
    let handle = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(20));
        l2.count_down();
    });
    latch.wait();
    assert!(latch.is_released());
    handle.join().unwrap();
}

#[test]
fn latch_wait_timeout_reports_release_state() {
    let latch = CountLatch::new(1);
    let start = std::time::Instant::now();
    assert!(!latch.wait_timeout(std::time::Duration::from_millis(10)));
    assert!(start.elapsed() >= std::time::Duration::from_millis(5));
    latch.count_down();
    assert!(latch.wait_timeout(std::time::Duration::from_millis(10)));
}

#[test]
fn latch_wait_timeout_wakes_on_count_down() {
    let latch = Arc::new(CountLatch::new(1));
    let l2 = Arc::clone(&latch);
    let handle = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(10));
        l2.count_down();
    });
    // A single long-timeout wait must return as soon as the latch releases,
    // not run out its timeout.
    let start = std::time::Instant::now();
    while !latch.wait_timeout(std::time::Duration::from_millis(500)) {}
    assert!(start.elapsed() < std::time::Duration::from_millis(400));
    handle.join().unwrap();
}

#[test]
fn caller_parks_instead_of_spinning_while_stragglers_run() {
    let pool = ThreadPool::new(4);
    let before = beamdyn_obs::counter_value("par.helper_parks").unwrap_or(0);
    let mut parks = 0;
    // Chunk claiming is racy (the caller may grab the slow indices itself),
    // so retry until a round leaves the caller dry while stragglers run.
    for _ in 0..20 {
        pool.parallel_for(0..8, |i| {
            if i >= 4 {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        });
        parks = beamdyn_obs::counter_value("par.helper_parks").unwrap_or(0) - before;
        if parks >= 1 {
            break;
        }
    }
    assert!(parks >= 1, "caller never parked while stragglers ran");
    // Each park blocks ~1 ms on the latch condvar; the old 20 µs poll loop
    // would rack up thousands of wakeups over these 25 ms bodies.
    assert!(parks < 500, "caller appears to be spinning: {parks} parks");
}

#[test]
fn parallel_for_visits_every_index_once() {
    let pool = ThreadPool::new(4);
    let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(0..1000, |i| {
        counts[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}

#[test]
fn parallel_for_on_zero_thread_pool_runs_sequentially() {
    let pool = ThreadPool::new(0);
    let sum = AtomicUsize::new(0);
    pool.parallel_for(0..100, |i| {
        sum.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
}

#[test]
fn parallel_for_empty_range_is_noop() {
    let pool = ThreadPool::new(2);
    pool.parallel_for(10..10, |_| panic!("must not be called"));
}

#[test]
fn parallel_map_preserves_order() {
    let pool = ThreadPool::new(3);
    let input: Vec<u64> = (0..512).collect();
    let out = pool.parallel_map(&input, |&x| x * x);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i as u64) * (i as u64));
    }
}

#[test]
fn parallel_map_indexed_handles_non_copy_outputs() {
    let pool = ThreadPool::new(2);
    let out = pool.parallel_map_indexed(64, |i| vec![i; i % 5]);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(v.len(), i % 5);
        assert!(v.iter().all(|&x| x == i));
    }
}

#[test]
fn parallel_reduce_matches_sequential_sum() {
    let pool = ThreadPool::new(4);
    let total = pool.parallel_reduce(0..10_000usize, 0u64, |i| i as u64, |a, b| a + b);
    assert_eq!(total, 49_995_000);
}

#[test]
fn parallel_reduce_empty_range_returns_identity() {
    let pool = ThreadPool::new(4);
    let total = pool.parallel_reduce(0..0, 42u64, |_| 7, |a, b| a + b);
    assert_eq!(total, 42);
}

#[test]
fn nested_parallel_for_makes_progress() {
    let pool = ThreadPool::new(1); // the hostile case: a single worker
    let hits = AtomicUsize::new(0);
    pool.parallel_for(0..4, |_| {
        pool.parallel_for(0..8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 32);
}

#[test]
fn panic_in_body_propagates_to_caller() {
    let pool = ThreadPool::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.parallel_for(0..64, |i| {
            if i == 33 {
                panic!("boom at {i}");
            }
        });
    }));
    assert!(result.is_err());
    // The pool must remain usable afterwards.
    let sum = AtomicUsize::new(0);
    pool.parallel_for(0..10, |i| {
        sum.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 45);
}

#[test]
fn execute_runs_submitted_job() {
    let pool = ThreadPool::new(2);
    let latch = Arc::new(CountLatch::new(1));
    let l2 = Arc::clone(&latch);
    pool.execute(move || l2.count_down());
    latch.wait();
}

#[test]
fn global_pool_is_singleton_and_usable() {
    let a = global() as *const ThreadPool;
    let b = global() as *const ThreadPool;
    assert_eq!(a, b);
    let n = global().parallel_reduce(0..100, 0usize, |i| i, |a, b| a + b);
    assert_eq!(n, 4950);
}

#[test]
fn parallel_for_chunks_respects_min_chunk() {
    let pool = ThreadPool::new(4);
    let min_len = AtomicUsize::new(usize::MAX);
    pool.parallel_for_chunks(0..1000, 64, |chunk| {
        // Only the final chunk may be shorter than min_chunk.
        if chunk.end != 1000 {
            min_len.fetch_min(chunk.len(), Ordering::Relaxed);
        }
    });
    let observed = min_len.load(Ordering::Relaxed);
    assert!(observed == usize::MAX || observed >= 64);
}

#[test]
fn panic_in_chunk_body_propagates_and_pool_stays_usable() {
    let pool = ThreadPool::new(3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.parallel_for_chunks(0..512, 8, |chunk| {
            if chunk.contains(&200) {
                panic!("chunk boom");
            }
        });
    }));
    assert!(result.is_err(), "panic must reach the caller");
    // Every combinator must still work on the same pool afterwards.
    let sum = AtomicUsize::new(0);
    pool.parallel_for_chunks(0..100, 4, |chunk| {
        sum.fetch_add(chunk.sum::<usize>(), Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4950);
    let total = pool.parallel_reduce(0..100usize, 0u64, |i| i as u64, |a, b| a + b);
    assert_eq!(total, 4950);
}

#[test]
fn zero_thread_pool_runs_every_combinator() {
    let pool = ThreadPool::new(0);
    assert_eq!(pool.num_threads(), 0);

    let hits = AtomicUsize::new(0);
    pool.parallel_for(0..50, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 50);

    let covered = AtomicUsize::new(0);
    pool.parallel_for_chunks(0..50, 8, |chunk| {
        covered.fetch_add(chunk.len(), Ordering::Relaxed);
    });
    assert_eq!(covered.load(Ordering::Relaxed), 50);

    let input: Vec<u64> = (0..50).collect();
    assert_eq!(pool.parallel_map(&input, |&x| x + 1)[49], 50);
    assert_eq!(pool.parallel_map_indexed(50, |i| i * 2)[49], 98);
    assert_eq!(
        pool.parallel_reduce(0..50usize, 0u64, |i| i as u64, |a, b| a + b),
        1225
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parallel_reduce_matches_sequential_fold(
            values in prop::collection::vec(-1_000i64..1_000, 0..300),
            threads in 0usize..5,
        ) {
            let pool = ThreadPool::new(threads);
            let expected: i64 = values.iter().sum();
            let got = pool.parallel_reduce(0..values.len(), 0i64, |i| values[i], |a, b| a + b);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn parallel_map_equals_sequential_map(
            values in prop::collection::vec(0u64..1_000_000, 0..200),
            threads in 0usize..5,
        ) {
            let pool = ThreadPool::new(threads);
            let got = pool.parallel_map(&values, |&x| x.wrapping_mul(2654435761).rotate_left(7));
            let want: Vec<u64> = values.iter().map(|&x| x.wrapping_mul(2654435761).rotate_left(7)).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn parallel_for_chunks_covers_exactly_once(
            len in 0usize..2_000,
            min_chunk in 1usize..128,
            threads in 0usize..5,
        ) {
            let pool = ThreadPool::new(threads);
            let counts: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for_chunks(0..len, min_chunk, |chunk| {
                for i in chunk {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            prop_assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }
}

#[test]
fn pool_drop_joins_workers() {
    let pool = ThreadPool::new(3);
    let sum = AtomicUsize::new(0);
    pool.parallel_for(0..128, |i| {
        sum.fetch_add(i, Ordering::Relaxed);
    });
    drop(pool); // must not hang
    assert_eq!(sum.load(Ordering::Relaxed), 8128);
}

#[test]
fn parallel_chunks_mut_visits_every_slot_once_with_its_offset() {
    for threads in [0usize, 1, 3] {
        let pool = ThreadPool::new(threads);
        let mut items = vec![0usize; 10_007];
        pool.parallel_chunks_mut(&mut items, 64, |start, chunk| {
            for (i, slot) in (start..).zip(chunk) {
                *slot += i + 1;
            }
        });
        assert!(items.iter().enumerate().all(|(i, &v)| v == i + 1));
        pool.parallel_chunks_mut(&mut [] as &mut [u8], 1, |_, _| panic!("empty slice"));
    }
}
