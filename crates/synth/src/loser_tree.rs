//! A loser (tournament) tree over K time-ordered sources: the merge front
//! of both [`crate::streaming::StreamingTrace`] (one source per lane) and
//! [`crate::trace::Trace::merge`] (one source per input trace).
//!
//! Each source is keyed by its head timestamp, ties broken by source
//! index, so the order is total and a merge through the tree equals a
//! stable sort of the sources' concatenation. The tree keeps the current
//! winner in node 0 and, at every internal node, the key that lost the
//! match played there. When the winner's head moves on, one leaf-to-root
//! replay against the stored losers — ⌈log₂ K⌉ compares, each a `min` and
//! a `max` of two integers with no data-dependent branch — finds the next
//! winner. A binary heap pays a pop and a push, each a branchy sift, for
//! the same step.
//!
//! The tree is one `Vec` sized in [`LoserTree::new`]; nothing after that
//! allocates.

/// Bit set in the key of a source that has run dry: above every live key.
const EXHAUSTED: u128 = 1 << 96;

/// See the module docs.
pub(crate) struct LoserTree {
    /// `nodes[0]` holds the winner's key; `nodes[n]` for `1 ≤ n < K` the
    /// key that lost at internal node `n`, whose children are nodes `2n`
    /// and `2n + 1`, and leaf `i` sits at position `K + i`. This heap
    /// layout is a valid tournament for every `K ≥ 1`, not only for
    /// powers of two.
    nodes: Vec<u128>,
}

impl LoserTree {
    /// A tree over sources whose heads are `heads` (`None` for a source
    /// that is empty from the start). No sources at all behave as one
    /// empty source.
    pub(crate) fn new(heads: impl IntoIterator<Item = Option<u64>>) -> Self {
        let mut leaves: Vec<u128> =
            heads.into_iter().enumerate().map(|(i, ts)| key(i, ts)).collect();
        if leaves.is_empty() {
            leaves.push(key(0, None));
        }
        let k = leaves.len();
        assert!(k <= u32::MAX as usize, "a loser tree keys sources by a 32-bit index");
        // Play the tournament bottom-up through a scratch array of each
        // node's winner; position 1 then holds the overall winner (for
        // K = 1 that is leaf 0 itself).
        let mut winners = vec![0u128; k];
        winners.extend(leaves);
        let mut nodes = vec![0u128; k];
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            winners[n] = a.min(b);
            nodes[n] = a.max(b);
        }
        nodes[0] = winners[1];
        Self { nodes }
    }

    /// The source whose head is smallest, or `None` once every source has
    /// run dry.
    #[inline]
    pub(crate) fn winner(&self) -> Option<usize> {
        let w = self.nodes[0];
        (w & EXHAUSTED == 0).then_some(w as u32 as usize)
    }

    /// Replaces the winner's head with its next timestamp (`None`: the
    /// winner has run dry) and replays its leaf-to-root path.
    #[inline]
    pub(crate) fn replace_winner(&mut self, next: Option<u64>) {
        let source = self.nodes[0] as u32 as usize;
        let mut w = key(source, next);
        let mut n = (self.nodes.len() + source) / 2;
        while n > 0 {
            let other = self.nodes[n];
            self.nodes[n] = other.max(w);
            w = other.min(w);
            n /= 2;
        }
        self.nodes[0] = w;
    }

    /// How many leading timestamps of `run` — the winner's items from its
    /// current head on, in order — come out before any other source's
    /// head: the length of the stretch that can be emitted in one piece
    /// before the tree needs a replay. At least 1 when `run` starts with
    /// the winner's head.
    pub(crate) fn winning_run(&self, run: impl Iterator<Item = u64>) -> usize {
        let source = self.nodes[0] as u32 as usize;
        // The runner-up lost only to the winner, so it is one of the keys
        // stored on the winner's path.
        let mut bound = EXHAUSTED;
        let mut n = (self.nodes.len() + source) / 2;
        while n > 0 {
            bound = bound.min(self.nodes[n]);
            n /= 2;
        }
        run.take_while(|&ts| key(source, Some(ts)) < bound).count()
    }
}

/// A source's key: the timestamp above the 32-bit source index, so equal
/// timestamps order by source; an exhausted source sets [`EXHAUSTED`]
/// and sorts after every live one whatever its index.
#[inline]
fn key(source: usize, ts: Option<u64>) -> u128 {
    match ts {
        Some(ts) => (ts as u128) << 32 | source as u128,
        None => EXHAUSTED | source as u128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_runtime::proptest_lite;
    use iguard_runtime::rng::Rng;

    /// Drains sorted `sources` through the tree one item at a time,
    /// returning `(source, ts)` in merged order.
    fn drain(sources: &[Vec<u64>]) -> Vec<(usize, u64)> {
        let mut pos = vec![0usize; sources.len()];
        let mut tree = LoserTree::new(sources.iter().map(|s| s.first().copied()));
        let mut out = Vec::new();
        while let Some(w) = tree.winner() {
            out.push((w, sources[w][pos[w]]));
            pos[w] += 1;
            tree.replace_winner(sources[w].get(pos[w]).copied());
        }
        out
    }

    fn random_sources(rng: &mut Rng) -> Vec<Vec<u64>> {
        let k = rng.gen_range(0usize..40);
        let span = rng.gen_range(1u64..200);
        (0..k)
            .map(|_| {
                let mut s: Vec<u64> =
                    (0..rng.gen_range(0usize..30)).map(|_| rng.gen_range(0..span)).collect();
                s.sort_unstable();
                s
            })
            .collect()
    }

    #[test]
    fn no_sources_and_empty_sources_have_no_winner() {
        assert_eq!(LoserTree::new([]).winner(), None);
        assert_eq!(LoserTree::new([None, None, None]).winner(), None);
        assert_eq!(drain(&[vec![], vec![], vec![]]), vec![]);
    }

    #[test]
    fn the_largest_timestamp_still_outranks_an_exhausted_source() {
        let out = drain(&[vec![], vec![u64::MAX, u64::MAX], vec![5]]);
        assert_eq!(out, vec![(2, 5), (1, u64::MAX), (1, u64::MAX)]);
    }

    proptest_lite! {
        /// One-at-a-time replay equals a stable sort of the concatenation
        /// for any source count (including 0, 1 and non-powers of two),
        /// empty sources and heavy timestamp ties.
        fn replay_merges_like_a_stable_sort(rng, cases = 128) {
            let sources = random_sources(rng);
            let mut want: Vec<(usize, u64)> = sources
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.iter().map(move |&ts| (i, ts)))
                .collect();
            want.sort_by_key(|&(_, ts)| ts);
            assert_eq!(drain(&sources), want);
        }

        /// `winning_run` never overshoots: every item it grants precedes
        /// every other source's head, and the item after the run does not.
        fn winning_run_stops_at_the_runner_up(rng, cases = 128) {
            let sources = random_sources(rng);
            let tree = LoserTree::new(sources.iter().map(|s| s.first().copied()));
            let Some(w) = tree.winner() else { return };
            let run = tree.winning_run(sources[w].iter().copied());
            assert!(run >= 1);
            let beats_all = |ts: u64| {
                sources.iter().enumerate().filter(|&(i, _)| i != w).all(|(i, s)| {
                    s.first().is_none_or(|&h| ts < h || (ts == h && w < i))
                })
            };
            assert!(sources[w][..run].iter().all(|&ts| beats_all(ts)));
            if let Some(&next) = sources[w].get(run) {
                assert!(!beats_all(next));
            }
        }
    }
}
