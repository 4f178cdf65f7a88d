//! Snapshot-isolation suite for the copy-on-write store (ISSUE 8).
//!
//! Contract under test:
//!
//! - a snapshot taken at any point is *bit-identical* to a frozen copy of
//!   the store at acquisition, no matter what writes happen afterwards —
//!   its quads and its dictionary alike, which later snapshots share
//!   structurally (term chunks, the frozen hash map) rather than copy;
//! - with no intervening writes, snapshot and live store agree exactly;
//! - concurrent readers under a writing thread never observe torn or
//!   partially-published state: every published snapshot has internally
//!   consistent indexes and corresponds to a committed batch boundary;
//! - a `PreparedQuery` handed out by the `PlanCache` is never stale: it
//!   is compiled against whatever snapshot each execution is given (new
//!   rows, newly interned constants, two generations at once), while the
//!   parse is reused.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use kglids_repro::rdf::{Quad, QuadStore, StoreSnapshot, Term, TermId};
use kglids_repro::sparql::{PlanCache, PreparedQuery};
use proptest::prelude::*;

/// One step of an interleaved write/snapshot schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Extend with a batch of `n` quads drawn from a small universe.
    Extend(Vec<(u8, u8, u8)>),
    /// Insert a single quad.
    Insert(u8, u8, u8),
    /// Remove a single quad (may be a no-op miss).
    Remove(u8, u8, u8),
    /// Extend with `n` rows of terms no earlier step has interned: IRIs,
    /// string literals, quoted triples and their scores — four new
    /// dictionary entries a row, where the small universe above stops
    /// growing the dictionary after some twenty.
    Bulk(usize),
    /// Acquire a snapshot and remember what the store looked like.
    Snapshot,
}

/// Rows `from..from + n` of the bulk universe.
fn bulk(from: usize, n: usize) -> Vec<Quad> {
    let row = |k: usize| Term::iri(format!("urn:row:{k}"));
    let mut quads = Vec::with_capacity(2 * n);
    for k in from..from + n {
        quads.push(Quad::new(row(k), Term::iri("urn:p:cell"), Term::string(format!("cell {k}"))));
        quads.push(Quad::new(
            Term::quoted(row(k), Term::iri("urn:p:similar"), row(k + 1)),
            Term::iri("urn:p:score"),
            Term::double(k as f64 / 1e4),
        ));
    }
    quads
}

/// A pinned snapshot with what the store looked like at acquisition.
struct Pinned {
    snap: Arc<StoreSnapshot>,
    contents: BTreeSet<String>,
    generation: u64,
    /// Every interned term, in id order.
    terms: Vec<Term>,
}

fn quad(s: u8, p: u8, o: u8) -> Quad {
    Quad::new(
        Term::iri(format!("urn:s:{s}")),
        Term::iri(format!("urn:p:{p}")),
        Term::iri(format!("urn:o:{o}")),
    )
}

/// The store's logical content as a canonical sorted set.
fn contents(snap: &StoreSnapshot) -> BTreeSet<String> {
    snap.iter().map(|q| format!("{q:?}")).collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec((0u8..6, 0u8..4, 0u8..8), 0..12).prop_map(Op::Extend),
        2 => (0u8..6, 0u8..4, 0u8..8).prop_map(|(s, p, o)| Op::Insert(s, p, o)),
        2 => (0u8..6, 0u8..4, 0u8..8).prop_map(|(s, p, o)| Op::Remove(s, p, o)),
        1 => (100usize..300).prop_map(Op::Bulk),
        3 => Just(Op::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Snapshots are frozen at acquisition: after the whole schedule
    /// runs, every snapshot still matches the deep copy of the store
    /// taken at the same step — writes after acquisition are invisible,
    /// to its quad set and to its dictionary (`term_count`, `id_of`).
    /// (b) With no writes in between, a snapshot equals the live store.
    ///
    /// Every schedule opens with bulk loads between pins, so the
    /// dictionary crosses several term-chunk boundaries and outgrows the
    /// shared hash map (forcing a fold) while snapshots hold the old one.
    #[test]
    fn snapshots_are_frozen_copies(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let prologue =
            [Op::Bulk(350), Op::Snapshot, Op::Bulk(350), Op::Snapshot, Op::Bulk(350), Op::Snapshot];
        let mut store = QuadStore::new();
        let mut pinned: Vec<Pinned> = Vec::new();
        let mut next_row = 0usize;
        for op in prologue.into_iter().chain(ops) {
            match op {
                Op::Extend(batch) => {
                    store.extend(batch.iter().map(|&(s, p, o)| quad(s, p, o)));
                }
                Op::Insert(s, p, o) => {
                    store.insert(&quad(s, p, o));
                }
                Op::Remove(s, p, o) => {
                    store.remove(&quad(s, p, o));
                }
                Op::Bulk(n) => {
                    store.extend(bulk(next_row, n));
                    next_row += n;
                }
                Op::Snapshot => {
                    let snap = store.snapshot();
                    // (b) no writes since the deref'd live view: exact match
                    prop_assert_eq!(snap.len(), store.len());
                    prop_assert_eq!(snap.generation(), store.generation());
                    prop_assert_eq!(snap.term_count(), store.term_count());
                    let frozen = contents(&snap);
                    prop_assert_eq!(&frozen, &contents(&store));
                    pinned.push(Pinned {
                        contents: frozen,
                        generation: snap.generation(),
                        terms: snap.dictionary().iter().map(|(_, t)| t.into_owned()).collect(),
                        snap,
                    });
                }
            }
        }
        // (a) every pinned snapshot is still bit-identical to its frozen
        // copy, regardless of the writes that followed
        let live: Vec<Term> = store.dictionary().iter().map(|(_, t)| t.into_owned()).collect();
        for pin in &pinned {
            prop_assert_eq!(&contents(&pin.snap), &pin.contents);
            prop_assert_eq!(pin.snap.generation(), pin.generation);
            prop_assert!(pin.snap.validate_indexes(), "snapshot indexes disagree");
            prop_assert_eq!(pin.snap.term_count(), pin.terms.len());
            for (i, term) in pin.terms.iter().enumerate() {
                prop_assert_eq!(pin.snap.id_of(term), Some(TermId(i as u32)));
                prop_assert_eq!(&pin.snap.term(TermId(i as u32)).into_owned(), term);
            }
            // ids are append-only: the live dictionary extends the pinned
            // one, and nothing it interned since resolves in the snapshot
            for (i, term) in live.iter().enumerate() {
                match pin.terms.get(i) {
                    Some(frozen) => prop_assert_eq!(term, frozen),
                    None => prop_assert_eq!(pin.snap.id_of(term), None),
                }
            }
        }
        prop_assert!(store.validate_indexes(), "live store indexes disagree");
    }
}

/// (c) Concurrent readers under a writer never see torn state. The
/// writer commits batches whose quads share a batch tag; readers grab
/// snapshots through a `StoreReader` and assert every snapshot is a
/// committed batch boundary: all four indexes agree, and for each batch
/// tag the snapshot holds either all of its quads or none.
#[test]
fn concurrent_readers_never_observe_torn_state() {
    const BATCHES: usize = 60;
    const BATCH_SIZE: usize = 25;
    const READERS: usize = 4;

    let mut store = QuadStore::new();
    let reader_handle = store.reader();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = reader_handle.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut checked = 0usize;
                let mut last_len = 0usize;
                let mut last_gen = 0u64;
                while !done.load(Ordering::Acquire) || checked == 0 {
                    let snap = handle.snapshot();
                    assert!(snap.validate_indexes(), "torn snapshot: indexes disagree");
                    // publication is monotone: later snapshots never go back
                    // to an older generation or lose committed quads
                    assert!(snap.generation() >= last_gen, "generation went backwards");
                    assert!(snap.len() >= last_len, "committed quads vanished");
                    last_gen = snap.generation();
                    last_len = snap.len();
                    // batch atomicity: each committed batch is all-or-nothing
                    assert_eq!(
                        snap.len() % BATCH_SIZE,
                        0,
                        "snapshot cuts a batch in half: len {}",
                        snap.len()
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    for b in 0..BATCHES {
        let batch: Vec<Quad> = (0..BATCH_SIZE)
            .map(|i| {
                Quad::new(
                    Term::iri(format!("urn:batch:{b}")),
                    Term::iri("urn:p:member"),
                    Term::iri(format!("urn:item:{b}:{i}")),
                )
            })
            .collect();
        assert_eq!(store.extend(batch), BATCH_SIZE);
    }
    done.store(true, Ordering::Release);

    let mut total_checked = 0;
    for r in readers {
        total_checked += r.join().expect("reader thread panicked");
    }
    assert!(total_checked > 0, "readers never ran");
    assert_eq!(store.len(), BATCHES * BATCH_SIZE);
    // the final published snapshot converges to the writer's final state
    assert_eq!(reader_handle.snapshot().len(), store.len());
}

/// Stale-plan regression: a prepared query is the parse and nothing else —
/// each execution compiles against the snapshot it is handed — so it
/// observes data ingested after it was prepared, with the parse reused
/// (one parse, one cache hit), whichever generations its executions pin.
#[test]
fn prepared_query_recompiles_after_ingest_not_stale() {
    let cache = PlanCache::new();
    let mut store = QuadStore::new();
    store.extend([quad(0, 0, 0)]);

    let text = "SELECT ?s WHERE { ?s <urn:p:0> <urn:o:0> . }";
    let prepared = cache.prepare(text).expect("parse");
    // an answer borrows the snapshot it ran on: count it while that lives
    let first = prepared.execute(&store.snapshot()).expect("first run").len();
    assert_eq!(first, 1);

    // ingest publishes a new generation with one more matching row
    store.extend([quad(1, 0, 0)]);
    let again = cache.prepare(text).expect("cache hit");
    let second = again.execute(&store.snapshot()).expect("second run").len();
    assert_eq!(second, 2, "stale plan reused: new data not visible");

    let stats = cache.stats();
    assert_eq!(stats.parses, 1, "parse should be reused across generations");
    assert_eq!(stats.hits(), 1);

    // a text naming an IRI the store has never interned answers empty; a
    // later extend interns it and the same prepared query finds the rows
    let unseen =
        PreparedQuery::parse("SELECT ?s WHERE { ?s <urn:p:3> <urn:o:7> . }").expect("parse");
    assert_eq!(unseen.execute(&store.snapshot()).expect("unknown constant").len(), 0);
    store.extend([quad(4, 3, 7), quad(5, 3, 7)]);
    assert_eq!(unseen.execute(&store.snapshot()).expect("constant now interned").len(), 2);

    // one prepared query, two threads, two pinned generations: each run
    // answers from the generation it was handed, over and over
    let old = store.snapshot();
    store.extend([quad(2, 0, 0)]);
    let new = store.snapshot();
    thread::scope(|scope| {
        for (snapshot, rows) in [(&old, 2), (&new, 3)] {
            let prepared = prepared.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    assert_eq!(prepared.execute(snapshot).expect("pinned run").len(), rows);
                }
            });
        }
    });
}

/// A query running on a pinned snapshot is isolated from concurrent
/// publication: executing the same prepared plan against the pinned
/// snapshot after ingest still returns the old view.
#[test]
fn pinned_snapshot_query_is_isolated_from_ingest() {
    let cache = PlanCache::new();
    let mut store = QuadStore::new();
    store.extend([quad(0, 0, 0)]);
    let pinned = store.snapshot();

    let text = "SELECT ?s WHERE { ?s <urn:p:0> <urn:o:0> . }";
    let prepared = cache.prepare(text).expect("parse");

    store.extend([quad(1, 0, 0), quad(2, 0, 0)]);

    let old_view = prepared.execute(&pinned).expect("pinned run");
    assert_eq!(old_view.len(), 1, "pinned snapshot leaked newer writes");
    let new_view = prepared.execute(&store.snapshot()).expect("fresh run").len();
    assert_eq!(new_view, 3);
}
