//! Test-only event counts: each code path a test must see its stream reach
//! is one [`Event`], counted per thread, and read through [`counted`].

/// A code path whose runs tests count.
#[derive(Clone, Copy)]
pub(crate) enum Event {
    /// A link that splices a single-chunk tour into the other endpoint's
    /// chunk.
    Splice,
    /// A cut whose two arc tails share a chunk, so one side moves out whole.
    Extraction,
    /// A link of two multi-chunk tours.
    GeneralLink,
    /// A cut whose two arc tails lie in different chunks.
    GeneralCut,
    /// An entry refresh by leaf-to-root walks, of one entry.
    OneEntryWalk,
    /// An entry refresh by leaf-to-root walks, of a split pair's two entries.
    TwoEntryWalk,
    /// An entry refresh by subtree sweeps, of one entry.
    OneEntrySweep,
    /// An entry refresh by subtree sweeps, of a split pair's two entries.
    TwoEntrySweep,
    /// A whole-chunk relabel of occurrence order labels.
    Relabel,
    /// A `γ` search of the replacement edge.
    GammaSearch,
}

const EVENTS: usize = Event::GammaSearch as usize + 1;

thread_local! {
    static COUNTS: std::cell::Cell<[u64; EVENTS]> = const { std::cell::Cell::new([0; EVENTS]) };
}

/// Count one run of `event` on this thread.
pub(crate) fn count(event: Event) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        counts[event as usize] += 1;
        c.set(counts);
    });
}

/// Runs of `event` on this thread so far.
pub(crate) fn counted(event: Event) -> u64 {
    COUNTS.with(|c| c.get()[event as usize])
}
