//! Signal traces recorded during simulation.

use emc_netlist::NetId;
use emc_obs::digest::{fold_bytes, fold_u64, FNV_OFFSET};
use emc_units::Seconds;

/// One recorded transition on a watched net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Absolute time of the transition.
    pub time: Seconds,
    /// The net that changed.
    pub net: NetId,
    /// The new value.
    pub value: bool,
}

/// A time-ordered log of transitions on watched nets — the simulator's
/// equivalent of the waveform screenshots in the paper's Figs. 4 and 7.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, time: Seconds, net: NetId, value: bool) {
        self.entries.push(TraceEntry { time, net, value });
    }

    /// All entries in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries for a single net, in time order.
    pub fn for_net(&self, net: NetId) -> Vec<TraceEntry> {
        self.entries
            .iter()
            .copied()
            .filter(|e| e.net == net)
            .collect()
    }

    /// Number of transitions recorded on `net`.
    pub fn transition_count(&self, net: NetId) -> usize {
        self.entries.iter().filter(|e| e.net == net).count()
    }

    /// Number of *rising* transitions recorded on `net`.
    pub fn rising_count(&self, net: NetId) -> usize {
        self.entries
            .iter()
            .filter(|e| e.net == net && e.value)
            .count()
    }

    /// Reconstructs the value of `net` at time `t`, assuming it started at
    /// `initial` before the first recorded entry.
    pub fn value_at(&self, net: NetId, t: Seconds, initial: bool) -> bool {
        self.entries
            .iter()
            .rfind(|e| e.net == net && e.time <= t)
            .map_or(initial, |e| e.value)
    }

    /// Times of the rising edges on `net` — handy for measuring oscillator
    /// periods.
    pub fn rising_edges(&self, net: NetId) -> Vec<Seconds> {
        self.entries
            .iter()
            .filter(|e| e.net == net && e.value)
            .map(|e| e.time)
            .collect()
    }

    /// Clears all recorded entries (watch registrations are kept by the
    /// simulator).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A 64-bit FNV-1a digest over the full entry sequence (bit pattern
    /// of the time, net index, value). Two traces digest equal iff they
    /// recorded the same transitions at the same times in the same
    /// order, so a digest pins a run's behaviour for golden-trace and
    /// campaign-determinism tests without storing the trace itself.
    pub fn digest(&self) -> u64 {
        self.entries.iter().fold(FNV_OFFSET, |h, e| {
            fold_entry(h, e.time.0.to_bits(), e.net.index(), e.value)
        })
    }

    /// Like [`Trace::digest`], but over the entries in canonical
    /// `(time, net, value)` order rather than recording order. Two runs
    /// that fire the same transitions but interleave *same-timestamp*
    /// events differently — a sequential run versus a PDES run whose
    /// partitions merge equal-time batches, say — digest equal here
    /// while plain `digest` would not. Confluence of speed-independent
    /// circuits makes this reordering sound: equal-time enabled firings
    /// commute.
    pub fn canonical_digest(&self) -> u64 {
        let mut keys: Vec<(u64, usize, bool)> = self
            .entries
            .iter()
            .map(|e| (e.time.0.to_bits(), e.net.index(), e.value))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .fold(FNV_OFFSET, |h, (t, n, v)| fold_entry(h, t, n, v))
    }
}

/// One trace entry's digest bytes: time bits, net index, value.
fn fold_entry(h: u64, time_bits: u64, net: usize, value: bool) -> u64 {
    fold_bytes(
        fold_u64(fold_u64(h, time_bits), net as u64),
        &[u8::from(value)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_netlist::Netlist;

    fn nets() -> (NetId, NetId) {
        let mut n = Netlist::new();
        (n.input("a"), n.input("b"))
    }

    #[test]
    fn record_and_query() {
        let (a, b) = nets();
        let mut tr = Trace::new();
        tr.record(Seconds(1.0), a, true);
        tr.record(Seconds(2.0), b, true);
        tr.record(Seconds(3.0), a, false);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.for_net(a).len(), 2);
        assert_eq!(tr.transition_count(a), 2);
        assert_eq!(tr.rising_count(a), 1);
        assert_eq!(tr.rising_edges(b), vec![Seconds(2.0)]);
    }

    #[test]
    fn value_reconstruction() {
        let (a, _) = nets();
        let mut tr = Trace::new();
        tr.record(Seconds(1.0), a, true);
        tr.record(Seconds(3.0), a, false);
        assert!(!tr.value_at(a, Seconds(0.5), false));
        assert!(tr.value_at(a, Seconds(1.0), false));
        assert!(tr.value_at(a, Seconds(2.9), false));
        assert!(!tr.value_at(a, Seconds(3.0), false));
        // Initial value honoured before any entry.
        assert!(tr.value_at(a, Seconds(0.0), true));
    }

    #[test]
    fn digest_pins_the_hash_constants_and_byte_layout() {
        // The empty trace digests to the FNV-1a offset basis; a fixed
        // three-entry trace digests to a pinned literal. Either assert
        // failing means the hash constants or the byte layout changed —
        // which silently invalidates every golden digest in the repo.
        assert_eq!(Trace::new().digest(), 0xcbf2_9ce4_8422_2325);
        let (a, b) = nets();
        let mut tr = Trace::new();
        tr.record(Seconds(1e-9), a, true);
        tr.record(Seconds(2e-9), b, true);
        tr.record(Seconds(3e-9), a, false);
        assert_eq!(tr.digest(), 0x0448_4e4f_e513_a9f3);
    }

    #[test]
    fn digest_is_reproducible_and_order_sensitive() {
        let (a, b) = nets();
        let build = |entries: &[(f64, NetId, bool)]| {
            let mut tr = Trace::new();
            for &(t, n, v) in entries {
                tr.record(Seconds(t), n, v);
            }
            tr.digest()
        };
        let base = [(1e-9, a, true), (2e-9, b, false)];
        assert_eq!(build(&base), build(&base), "same entries, same digest");
        // Each field of each entry is load-bearing.
        assert_ne!(build(&base), build(&[(2e-9, b, false), (1e-9, a, true)]));
        assert_ne!(build(&base), build(&[(1.5e-9, a, true), (2e-9, b, false)]));
        assert_ne!(build(&base), build(&[(1e-9, b, true), (2e-9, b, false)]));
        assert_ne!(build(&base), build(&[(1e-9, a, false), (2e-9, b, false)]));
        // A prefix digests differently from the full sequence.
        assert_ne!(build(&base), build(&base[..1]));
    }

    #[test]
    fn clone_preserves_digest() {
        let (a, _) = nets();
        let mut tr = Trace::new();
        tr.record(Seconds(5e-9), a, true);
        assert_eq!(tr.clone().digest(), tr.digest());
        tr.clear();
        assert_eq!(tr.digest(), Trace::new().digest());
    }

    #[test]
    fn clear_empties() {
        let (a, _) = nets();
        let mut tr = Trace::new();
        assert!(tr.is_empty());
        tr.record(Seconds(1.0), a, true);
        assert!(!tr.is_empty());
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.len(), 0);
    }
}
