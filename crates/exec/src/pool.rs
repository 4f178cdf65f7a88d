//! Chunked parallel map over slices, with a fault-isolating variant.
//!
//! Workers pull fixed-size chunks of indices from a shared atomic cursor, so
//! load imbalance between items (e.g. profiling a wide text column vs. a
//! boolean column) is amortised without per-item synchronisation.
//!
//! [`parallel_map`] is the fast path: panics in the closure propagate and
//! abort the whole map. [`parallel_try_map`] is the ingestion path: each
//! item runs under `catch_unwind`, a panicking item becomes a per-item
//! `Err(WorkerPanic)` while the remaining items complete, and an optional
//! soft per-item budget converts slow items into `Err(ProfileTimeout)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::error::{ErrorKind, LidsError, LidsResult};

/// Tuning knobs for [`parallel_map_with`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Number of worker threads. Defaults to available parallelism.
    pub threads: usize,
    /// Number of items a worker claims per cursor increment.
    pub chunk: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ParallelConfig { threads, chunk: 16 }
    }
}

/// Map `f` over `items` in parallel, preserving order of results.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(ParallelConfig::default(), items, f)
}

/// Map `f` over `items` in parallel with explicit configuration.
///
/// Results come back in input order. Panics in `f` propagate.
pub fn parallel_map_with<T, R, F>(config: ParallelConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // workers claim `chunk` items at a time, so a worker past the number
    // of chunks would find nothing to claim: it is not spawned
    let chunk = config.chunk.max(1);
    let threads = config.threads.max(1).min(n.div_ceil(chunk));
    if threads == 1 {
        return items.iter().map(f).collect();
    }

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let cursor = AtomicUsize::new(0);
    let out_ptr = SendPtr(out.as_mut_ptr());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let f = &f;
            let cursor = &cursor;
            let out_ptr = &out_ptr;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (i, item) in items[start..end].iter().enumerate() {
                    let r = f(item);
                    // SAFETY: each index in 0..n is claimed by exactly one
                    // worker (the cursor hands out disjoint ranges), and the
                    // Vec outlives the scope.
                    unsafe {
                        *out_ptr.0.add(start + i) = Some(r);
                    }
                }
            });
        }
    });

    // Invariant, not input-dependent: the cursor hands every index to
    // exactly one worker, so every slot is filled.
    #[allow(clippy::expect_used)]
    out.into_iter().map(|r| r.expect("worker filled slot")).collect()
}

/// Raw pointer wrapper that is Sync: disjoint-index writes only.
struct SendPtr<R>(*mut Option<R>);
unsafe impl<R: Send> Sync for SendPtr<R> {}

/// Map `f` over the block ranges `[0..block)`, `[block..2·block)`, … of an
/// index space of `n` items, in parallel. Results come back in block order.
///
/// This is the shape of blocked kernels (e.g. the pairwise-similarity scan
/// of Algorithm 3): the caller owns the data, workers each claim a
/// contiguous block of row indices, and per-block results are concatenated
/// by the caller. A zero `block` is treated as 1.
pub fn parallel_blocks<R, F>(n: usize, block: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let block = block.max(1);
    let starts: Vec<usize> = (0..n).step_by(block).collect();
    parallel_map(&starts, |&start| f(start..(start + block).min(n)))
}

/// Configuration for [`parallel_try_map_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolationConfig {
    /// Thread-pool shape (threads, chunk size).
    pub parallel: ParallelConfig,
    /// Soft per-item budget: an item whose closure takes longer than this
    /// still runs to completion (threads cannot be interrupted safely) but
    /// its result is replaced with `Err(ProfileTimeout)` so the caller can
    /// quarantine or retry it.
    pub item_budget: Option<Duration>,
}

/// Name prefix of isolated worker threads; the panic hook installed by
/// [`silence_isolated_panics`] suppresses panic output from these threads
/// so a quarantined artifact does not spam stderr.
const ISOLATED_THREAD_PREFIX: &str = "lids-isolated";

fn silence_isolated_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let suppressed = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(ISOLATED_THREAD_PREFIX));
            if !suppressed {
                previous(info);
            }
        }));
    });
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run one item under panic isolation and the soft budget.
fn run_isolated<T, R, F>(f: &F, item: &T, budget: Option<Duration>) -> LidsResult<R>
where
    F: Fn(&T) -> LidsResult<R>,
{
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
    let elapsed = t0.elapsed();
    match outcome {
        Ok(Ok(value)) => match budget {
            Some(limit) if elapsed > limit => Err(LidsError::new(
                ErrorKind::ProfileTimeout,
                format!("item took {elapsed:?}, budget {limit:?}"),
            )),
            _ => Ok(value),
        },
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(LidsError::new(
            ErrorKind::WorkerPanic,
            format!("worker panicked: {}", panic_message(payload)),
        )),
    }
}

/// Fault-isolating parallel map with default configuration.
///
/// Unlike [`parallel_map`], a panic in `f` aborts only the item that
/// panicked: its slot becomes `Err(WorkerPanic)` carrying the panic
/// message, and every other item still completes. Result order matches
/// input order.
pub fn parallel_try_map<T, R, F>(items: &[T], f: F) -> Vec<LidsResult<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> LidsResult<R> + Sync,
{
    parallel_try_map_with(IsolationConfig::default(), items, f)
}

/// [`parallel_try_map`] with explicit thread-pool shape and per-item budget.
///
/// Items always run on dedicated named worker threads (even when
/// `threads == 1`) so the process-global panic hook can suppress the
/// default stderr backtrace for isolated panics.
pub fn parallel_try_map_with<T, R, F>(
    config: IsolationConfig,
    items: &[T],
    f: F,
) -> Vec<LidsResult<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> LidsResult<R> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    silence_isolated_panics();
    let threads = config.parallel.threads.max(1).min(n);
    let chunk = config.parallel.chunk.max(1);
    let budget = config.item_budget;

    let mut out: Vec<Option<LidsResult<R>>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let cursor = AtomicUsize::new(0);
    let out_ptr = SendPtr(out.as_mut_ptr());

    std::thread::scope(|scope| {
        for w in 0..threads {
            let f = &f;
            let cursor = &cursor;
            let out_ptr = &out_ptr;
            let builder =
                std::thread::Builder::new().name(format!("{ISOLATED_THREAD_PREFIX}-{w}"));
            let spawned = builder.spawn_scoped(scope, move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (i, item) in items[start..end].iter().enumerate() {
                    let r = run_isolated(f, item, budget);
                    // SAFETY: each index in 0..n is claimed by exactly one
                    // worker (the cursor hands out disjoint ranges), and the
                    // Vec outlives the scope.
                    unsafe {
                        *out_ptr.0.add(start + i) = Some(r);
                    }
                }
            });
            if spawned.is_err() {
                // Thread spawn failed (resource exhaustion): remaining items
                // are handled by the threads that did start, or by the
                // fallback below if none did.
                break;
            }
        }
    });

    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                // Only reachable if no worker thread could be spawned at
                // all; run the stragglers inline (without stderr
                // suppression, which is cosmetic).
                run_isolated(&f, &items[i], budget)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let out = parallel_map(&items, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(&[41u32], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_work() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map_with(
            ParallelConfig { threads: 8, chunk: 3 },
            &items,
            |&x| {
                // simulate skew: some items do more work
                let mut acc = 0usize;
                for i in 0..(x % 17) * 100 {
                    acc = acc.wrapping_add(i);
                }
                (x, acc)
            },
        );
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i, *x);
        }
    }

    #[test]
    fn blocks_cover_index_space_in_order() {
        let out = parallel_blocks(10, 3, |r| r.collect::<Vec<_>>());
        assert_eq!(out.concat(), (0..10).collect::<Vec<_>>());
        assert_eq!(out.len(), 4);
        assert!(parallel_blocks(0, 4, |r| r.len()).is_empty());
        // zero block size is clamped to 1
        assert_eq!(parallel_blocks(3, 0, |r| r.len()), vec![1, 1, 1]);
    }

    #[test]
    fn one_thread_path() {
        let items: Vec<i32> = (0..10).collect();
        let out = parallel_map_with(ParallelConfig { threads: 1, chunk: 4 }, &items, |x| -x);
        assert_eq!(out, (0..10).map(|x| -x).collect::<Vec<_>>());
    }

    mod try_map {
        use super::*;
        use proptest::prelude::*;

        #[test]
        fn panicking_item_mid_batch_is_isolated() {
            let items: Vec<u32> = (0..100).collect();
            let out = parallel_try_map(&items, |&x| {
                if x == 57 {
                    panic!("boom on {x}");
                }
                Ok(x * 2)
            });
            assert_eq!(out.len(), 100);
            for (i, r) in out.iter().enumerate() {
                if i == 57 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.kind(), ErrorKind::WorkerPanic);
                    assert!(e.message().contains("boom on 57"), "{e}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
                }
            }
        }

        #[test]
        fn all_items_panic() {
            let items: Vec<u32> = (0..20).collect();
            let out = parallel_try_map(&items, |_| -> LidsResult<u32> { panic!("all down") });
            assert_eq!(out.len(), 20);
            assert!(out
                .iter()
                .all(|r| r.as_ref().unwrap_err().kind() == ErrorKind::WorkerPanic));
        }

        #[test]
        fn empty_slice() {
            let items: Vec<u32> = vec![];
            let out = parallel_try_map(&items, |&x| Ok(x));
            assert!(out.is_empty());
        }

        #[test]
        fn ordering_preserved_under_contention() {
            let items: Vec<usize> = (0..513).collect();
            let config = IsolationConfig {
                parallel: ParallelConfig { threads: 8, chunk: 3 },
                item_budget: None,
            };
            let out = parallel_try_map_with(config, &items, |&x| {
                // skewed work so chunks finish out of order
                std::thread::sleep(Duration::from_micros((x % 7) as u64));
                Ok(x)
            });
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }

        #[test]
        fn error_results_pass_through() {
            let items = [1u32, 2, 3];
            let out = parallel_try_map(&items, |&x| {
                if x == 2 {
                    Err(LidsError::new(ErrorKind::CsvMalformed, "bad"))
                } else {
                    Ok(x)
                }
            });
            assert!(out[0].is_ok() && out[2].is_ok());
            assert_eq!(out[1].as_ref().unwrap_err().kind(), ErrorKind::CsvMalformed);
        }

        #[test]
        fn soft_budget_flags_slow_items() {
            let items = [1u64, 50, 2];
            let config = IsolationConfig {
                parallel: ParallelConfig { threads: 2, chunk: 1 },
                item_budget: Some(Duration::from_millis(20)),
            };
            let out = parallel_try_map_with(config, &items, |&ms| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            });
            assert_eq!(*out[0].as_ref().unwrap(), 1);
            assert_eq!(
                out[1].as_ref().unwrap_err().kind(),
                ErrorKind::ProfileTimeout
            );
            assert_eq!(*out[2].as_ref().unwrap(), 2);
        }

        proptest! {
            /// With no fault firing, `parallel_try_map` matches sequential map.
            #[test]
            fn prop_matches_sequential_map(
                items in proptest::collection::vec(any::<i64>(), 0..200),
                threads in 1usize..9,
                chunk in 1usize..33,
            ) {
                let config = IsolationConfig {
                    parallel: ParallelConfig { threads, chunk },
                    item_budget: None,
                };
                let out = parallel_try_map_with(config, &items, |&x| {
                    Ok(x.wrapping_mul(3).wrapping_sub(7))
                });
                let expected: Vec<i64> =
                    items.iter().map(|&x| x.wrapping_mul(3).wrapping_sub(7)).collect();
                let got: Vec<i64> = out.into_iter().map(|r| r.unwrap()).collect();
                prop_assert_eq!(got, expected);
            }
        }
    }
}
