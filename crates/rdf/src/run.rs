//! One index permutation as sorted runs: an immutable base shared by every
//! snapshot, plus a small overlay private to the snapshot that wrote it.
//!
//! Three invariants hold at every instant: `adds ∩ base = ∅` (a key is added
//! to the overlay only when the base lacks it), `dels ⊆ base` (a tombstone
//! names a base key), and the live set is `(base ∖ dels) ∪ adds`, all three
//! runs strictly ascending.
//!
//! Cloning a [`Run`] bumps the base's refcount and copies the overlay:
//! O(overlay). [`Run::folded`] pays the O(base) pass that empties the overlay
//! into a fresh base; the store decides when (`FOLD_DIVISOR` in `store.rs`).
//!
//! A run is generic over its key: the four quad orderings hold `[u32; 4]`
//! keys, the annotation run `[u32; 6]` ones. Each is its own
//! monomorphisation, so neither pays for the other.

use std::sync::Arc;

/// An index key: a quad's four term ids in one ordering's key order.
pub(crate) type Key = [u32; 4];

/// What a run can hold: fixed-size, totally ordered keys.
pub(crate) trait RunKey: Copy + Ord + Default {}
impl<K: Copy + Ord + Default> RunKey for K {}

#[derive(Debug, Clone, Default)]
pub(crate) struct Run<K = Key> {
    base: Arc<[K]>,
    adds: Vec<K>,
    dels: Vec<K>,
}

/// First index of ascending `run` whose key is `>= target`: doubling steps
/// from the front, then a binary search inside the last step — O(log d)
/// for a target d keys away, so a merge join seeking to nearby keys never
/// pays for the length of the run.
fn lower_bound<K: RunKey>(run: &[K], target: &K) -> usize {
    let mut hi = 1;
    while hi < run.len() && run[hi] < *target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(run.len());
    lo + run[lo..hi].partition_point(|key| key < target)
}

/// Merge ascending `src` into ascending `dst` (disjoint), from the back:
/// only the keys of `dst` above `src`'s smallest move.
fn merge_into<K: RunKey>(dst: &mut Vec<K>, src: &[K]) {
    // a point write: one `memmove` of the tail, not a key-by-key merge
    if let [key] = src {
        return dst.insert(dst.partition_point(|k| k < key), *key);
    }
    let (mut i, mut j) = (dst.len(), src.len());
    let mut w = i + j;
    dst.resize(w, K::default());
    while j > 0 {
        w -= 1;
        if i > 0 && dst[i - 1] > src[j - 1] {
            i -= 1;
            dst[w] = dst[i];
        } else {
            j -= 1;
            dst[w] = src[j];
        }
    }
}

/// Drop the keys of ascending `gone` from ascending `dst`.
fn remove_from<K: RunKey>(dst: &mut Vec<K>, gone: &[K]) {
    let Some(first) = gone.first() else {
        return;
    };
    let start = lower_bound(dst, first);
    let (mut kept, mut g) = (start, 0);
    for i in start..dst.len() {
        while g < gone.len() && gone[g] < dst[i] {
            g += 1;
        }
        if g < gone.len() && gone[g] == dst[i] {
            continue;
        }
        dst[kept] = dst[i];
        kept += 1;
    }
    dst.truncate(kept);
}

impl<K: RunKey> Run<K> {
    /// Live keys.
    pub(crate) fn len(&self) -> usize {
        self.base.len() - self.dels.len() + self.adds.len()
    }

    /// Overlay entries: what a clone copies and a fold would absorb.
    pub(crate) fn overlay_len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    pub(crate) fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Bytes the three runs occupy.
    pub(crate) fn bytes(&self) -> u64 {
        ((self.base.len() + self.overlay_len()) * std::mem::size_of::<K>()) as u64
    }

    /// The base run's allocation, for tests that assert sharing.
    #[cfg(test)]
    pub(crate) fn base(&self) -> &Arc<[K]> {
        &self.base
    }

    pub(crate) fn contains(&self, key: &K) -> bool {
        match self.base.binary_search(key) {
            Ok(_) => self.dels.binary_search(key).is_err(),
            Err(_) => self.adds.binary_search(key).is_ok(),
        }
    }

    /// Split an ascending, duplicate-free batch by what writing it would
    /// change: with `adding`, the keys to add to the overlay (absent) and
    /// the tombstones to lift (buried); otherwise the keys to tombstone
    /// (live in the base) and the overlay adds to drop. Keys the write
    /// would leave as they are fall out. The three runs are walked
    /// forward once, so a batch costs O(n log(len / n)).
    pub(crate) fn split(&self, batch: &[K], adding: bool) -> (Vec<K>, Vec<K>) {
        /// Advance `run` to `key`'s lower bound; true when `key` is there.
        fn hit<K: RunKey>(run: &mut &[K], key: &K) -> bool {
            *run = &run[lower_bound(run, key)..];
            run.first() == Some(key)
        }
        let (mut join, mut leave) = (Vec::new(), Vec::new());
        let (mut base, mut adds, mut dels) = (&self.base[..], &self.adds[..], &self.dels[..]);
        for key in batch {
            let in_base = hit(&mut base, key);
            let buried = in_base && hit(&mut dels, key);
            let added = !in_base && hit(&mut adds, key);
            let (joins, leaves) =
                if adding { (!in_base && !added, buried) } else { (in_base && !buried, added) };
            if joins {
                join.push(*key);
            } else if leaves {
                leave.push(*key);
            }
        }
        (join, leave)
    }

    /// Apply one half of a [`Run::split`] (permuted into this run's key
    /// order, ascending): `join` enters the run that grows — `adds` when
    /// `adding`, `dels` otherwise — and `leave` leaves the other one. A
    /// first fill goes straight to the base: the writes that follow it
    /// before the next publish point then merge into a small overlay.
    pub(crate) fn shift(&mut self, adding: bool, join: &[K], leave: &[K]) {
        if self.base.is_empty() && self.adds.is_empty() {
            self.base = Arc::from(join);
            return;
        }
        let (adds, dels) = (&mut self.adds, &mut self.dels);
        let (grow, shrink) = if adding { (adds, dels) } else { (dels, adds) };
        merge_into(grow, join);
        remove_from(shrink, leave);
    }

    /// This run with its overlay emptied into a fresh base: one linear
    /// pass that copies the base a stretch between two overlay keys at a
    /// time. The old base stays with whichever snapshots still share it.
    pub(crate) fn folded(&self) -> Run<K> {
        // written in place: a `Vec` turned into an `Arc` would be copied
        let mut base: Arc<[K]> = std::iter::repeat_n(K::default(), self.len()).collect();
        let Some(mut out) = Arc::get_mut(&mut base) else {
            unreachable!("a run just allocated has one owner")
        };
        let mut live = self.iter();
        while let Some(key) = live.next() {
            let (stretch, rest) = live.base.split_at(live.clear);
            (live.base, live.clear) = (rest, 0);
            let (head, tail) = out.split_at_mut(1 + stretch.len());
            head[0] = key;
            head[1..].copy_from_slice(stretch);
            out = tail;
        }
        Run { base, ..Run::default() }
    }

    /// Live keys in ascending order.
    pub(crate) fn iter(&self) -> RunIter<'_, K> {
        RunIter::new(&self.base, &self.adds, &self.dels)
    }

    /// Live keys in `lo..=hi`, ascending. The upper cut is sought from the
    /// lower one, so a narrow range costs one binary search, not two.
    pub(crate) fn range<'a>(&'a self, lo: &K, hi: &K) -> RunIter<'a, K> {
        let cut = |run: &'a [K]| {
            let run = &run[run.partition_point(|key| key < lo)..];
            let end = lower_bound(run, hi);
            &run[..end + usize::from(run.get(end) == Some(hi))]
        };
        RunIter::new(cut(&self.base), cut(&self.adds), cut(&self.dels))
    }

    /// Number of live keys in `lo..=hi`: binary searches, no walk.
    pub(crate) fn count(&self, lo: &K, hi: &K) -> usize {
        let RunIter { base, adds, dels, .. } = self.range(lo, hi);
        base.len() - dels.len() + adds.len()
    }

    /// True when the three invariants of the module docs hold.
    pub(crate) fn is_consistent(&self) -> bool {
        let ascending = |run: &[K]| run.windows(2).all(|w| w[0] < w[1]);
        ascending(&self.base)
            && ascending(&self.adds)
            && ascending(&self.dels)
            && self.adds.iter().all(|key| self.base.binary_search(key).is_err())
            && self.dels.iter().all(|key| self.base.binary_search(key).is_ok())
    }
}

/// Ascending walk over the live keys of (a sub-range of) a [`Run`]: the
/// base minus its tombstones, merged with the overlay's adds. The walk
/// looks at the overlay once per overlay key, not once per step: between
/// two overlay keys (and everywhere, when the overlay's sub-range is
/// empty) a step is one slice pop.
///
/// Relies on `dels ⊆ base`, which holds when the three slices are cut at
/// the same key bounds.
#[derive(Debug, Clone)]
pub(crate) struct RunIter<'a, K = Key> {
    base: &'a [K],
    adds: &'a [K],
    dels: &'a [K],
    /// How many leading keys of `base` are known to lie below the first
    /// add and the first tombstone.
    clear: usize,
}

impl<'a, K: RunKey> RunIter<'a, K> {
    fn new(base: &'a [K], adds: &'a [K], dels: &'a [K]) -> Self {
        RunIter { base, adds, dels, clear: 0 }
    }

    /// Skip every key `< target`.
    pub(crate) fn skip_to(&mut self, target: &K) {
        let skipped = lower_bound(self.base, target);
        self.base = &self.base[skipped..];
        self.clear = self.clear.saturating_sub(skipped);
        self.adds = &self.adds[lower_bound(self.adds, target)..];
        self.dels = &self.dels[lower_bound(self.dels, target)..];
    }

    /// The step at an overlay key, or the one that measures the stretch of
    /// base keys before the next.
    fn next_at_overlay(&mut self) -> Option<K> {
        loop {
            let Some(&next) = [self.adds.first(), self.dels.first()].into_iter().flatten().min()
            else {
                self.clear = self.base.len();
                break;
            };
            self.clear = lower_bound(self.base, &next);
            if self.clear > 0 {
                break;
            }
            if self.adds.first() == Some(&next) {
                self.adds = &self.adds[1..];
                return Some(next);
            }
            // a tombstone and the base key it buries
            (self.base, self.dels) = (&self.base[1..], &self.dels[1..]);
        }
        let (&key, rest) = self.base.split_first()?;
        self.base = rest;
        self.clear -= 1;
        Some(key)
    }
}

impl<K: RunKey> Iterator for RunIter<'_, K> {
    type Item = K;

    #[inline]
    fn next(&mut self) -> Option<K> {
        if self.clear == 0 {
            return self.next_at_overlay();
        }
        self.clear -= 1;
        let (&key, rest) = self.base.split_first()?;
        self.base = rest;
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(ids: &[u32]) -> Vec<Key> {
        ids.iter().map(|&i| [i, 0, 0, 0]).collect()
    }

    fn run(base: &[u32], adds: &[u32], dels: &[u32]) -> Run {
        Run { base: Arc::from(keys(base)), adds: keys(adds), dels: keys(dels) }
    }

    #[test]
    fn lower_bound_agrees_with_partition_point() {
        let run = keys(&(0..200).map(|i| i * 3).collect::<Vec<_>>());
        for start in [0, 1, 7, 150, 199, 200] {
            for target in 0..620 {
                let target = [target, 0, 0, 0];
                let want = run[start..].partition_point(|key| *key < target);
                assert_eq!(lower_bound(&run[start..], &target), want, "{start} {target:?}");
            }
        }
    }

    #[test]
    fn walk_merges_adds_and_skips_tombstones() {
        let run = run(&[1, 3, 5, 7, 9], &[0, 4, 10], &[3, 9]);
        assert!(run.is_consistent());
        assert_eq!(run.iter().collect::<Vec<_>>(), keys(&[0, 1, 4, 5, 7, 10]));
        assert_eq!(run.len(), 6);
        assert_eq!(run.range(&[3, 0, 0, 0], &[9, 0, 0, 0]).collect::<Vec<_>>(), keys(&[4, 5, 7]));
        assert_eq!(run.count(&[3, 0, 0, 0], &[9, 0, 0, 0]), 3);
        let mut iter = run.iter();
        iter.skip_to(&[3, 0, 0, 0]);
        assert_eq!(iter.next(), Some([4, 0, 0, 0]));
        let held = [0, 1, 3, 4, 6].map(|i| run.contains(&[i, 0, 0, 0]));
        assert_eq!(held, [true, true, false, true, false]);
    }

    #[test]
    fn shift_keeps_the_invariants_and_fold_keeps_the_keys() {
        let mut run = run(&[1, 3, 5, 7, 9], &[4], &[3]);
        // adding 3 lifts its tombstone, adding 4 and 5 changes nothing
        let (join, leave) = run.split(&keys(&[2, 3, 4, 5, 11]), true);
        assert_eq!((join.clone(), leave.clone()), (keys(&[2, 11]), keys(&[3])));
        run.shift(true, &join, &leave);
        assert!(run.is_consistent());
        assert_eq!(run.iter().collect::<Vec<_>>(), keys(&[1, 2, 3, 4, 5, 7, 9, 11]));
        // removing 4 drops it from the overlay, removing 7 buries it
        let (join, leave) = run.split(&keys(&[4, 6, 7]), false);
        assert_eq!((join.clone(), leave.clone()), (keys(&[7]), keys(&[4])));
        run.shift(false, &join, &leave);
        assert!(run.is_consistent());
        let live: Vec<Key> = run.iter().collect();
        assert_eq!(live, keys(&[1, 2, 3, 5, 9, 11]));
        let run = run.folded();
        assert_eq!(run.overlay_len(), 0);
        assert_eq!(run.iter().collect::<Vec<_>>(), live);
        assert_eq!(&run.base[..], &live[..]);
    }
}
